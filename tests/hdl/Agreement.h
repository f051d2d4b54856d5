//===- tests/hdl/Agreement.h - Module simulators vs the reference -*- C++ -*-===//
//
// Cases every whole-module simulator (hdl::ModuleSim) must pass against
// the reference semantics hdl::stepCycle.  Each case takes the backend
// as a factory, so one body runs on FastSim (HdlTest.cpp) and on the
// compiled backend (CompiledSimTest.cpp) under the same test name.
//
//===----------------------------------------------------------------------===//

#ifndef SILVER_TESTS_HDL_AGREEMENT_H
#define SILVER_TESTS_HDL_AGREEMENT_H

#include "hdl/ModuleSim.h"
#include "hdl/Semantics.h"
#include "support/Rng.h"

#include "DenseFrame.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace hdl {

/// Builds the backend under test for a module.
using SimFactory =
    std::function<Result<std::unique_ptr<ModuleSim>>(const VModule &)>;

/// One cycle's stimulus by input port name; ports left out are driven 0.
using Stimulus = std::map<std::string, uint64_t>;

/// The paper's AB example (§3), transcribed from its generated Verilog:
///   always_ff @(posedge clk)  if (pulse) count <= count + 8'd1;  // A
///   always_ff @(posedge clk)  if (8'd10 < count) done = 1;       // B
inline VModule makeAB() {
  VModule M;
  M.Name = "ABv";
  M.Ports.push_back({VPort::Dir::Input, "pulse", VType::boolean()});
  M.Decls.push_back({"count", VType::vec(8)});
  M.Decls.push_back({"done", VType::boolean()});

  VProcess A;
  A.Comment = "A";
  A.Body = vIf(vVar("pulse"),
               vNonBlocking("count", vBinary(BinaryOp::Add, vVar("count"),
                                             vConstVec(8, 1))),
               nullptr);
  VProcess B;
  B.Comment = "B";
  B.Body = vIf(vBinary(BinaryOp::LtU, vConstVec(8, 10), vVar("count")),
               vBlocking("done", vConstBool(true)), nullptr);
  M.Processes.push_back(std::move(A));
  M.Processes.push_back(std::move(B));
  return M;
}

/// The reference-semantics input map for \p Frame.
inline std::map<std::string, VValue> namedInputs(const VModule &M,
                                                 const Stimulus &Frame) {
  std::map<std::string, VValue> In;
  for (const VPort &P : M.Ports) {
    if (P.D != VPort::Dir::Input)
      continue;
    auto It = Frame.find(P.Name);
    uint64_t Bits = It == Frame.end() ? 0 : It->second;
    In[P.Name] = P.Type.K == VType::Kind::Bool
                     ? VValue::boolean(Bits != 0)
                     : VValue::vec(P.Type.Width, Bits);
  }
  return In;
}

/// Steps the reference and \p Sim with the same inputs and requires
/// identical exported state after every cycle.
inline void lockstep(const VModule &M, ModuleSim &Sim,
                     const std::vector<Stimulus> &Frames) {
  SimState Ref = SimState::init(M);
  for (size_t Cycle = 0; Cycle != Frames.size(); ++Cycle) {
    ASSERT_TRUE(stepCycle(M, Ref, namedInputs(M, Frames[Cycle])));
    std::vector<uint64_t> Dense = denseFrame(Sim, Frames[Cycle]);
    Result<void> R = Sim.stepDense(Dense.data(), Dense.size());
    ASSERT_TRUE(R) << "cycle " << Cycle << ": " << R.error().str();
    ASSERT_TRUE(Sim.exportState(M) == Ref) << "cycle " << Cycle;
  }
}

/// Builds \p M on the backend, failing the test when that fails.
inline std::unique_ptr<ModuleSim> build(const SimFactory &Make,
                                        const VModule &M) {
  EXPECT_TRUE(typeCheck(M)) << "test module must type-check";
  Result<std::unique_ptr<ModuleSim>> Sim = Make(M);
  EXPECT_TRUE(Sim) << Sim.error().str();
  return Sim ? Sim.take() : nullptr;
}

inline std::vector<VStmtPtr> stmts() { return {}; }
template <typename... Rest>
std::vector<VStmtPtr> stmts(VStmtPtr First, Rest... More) {
  std::vector<VStmtPtr> S = stmts(std::move(More)...);
  S.insert(S.begin(), std::move(First));
  return S;
}

/// One leaf process exercising every expression constructor, swept over
/// the full 4-bit x 4-bit x bool input space (512 combinations).
inline void checkExhaustiveLeafSweep(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "a", VType::vec(4)});
  M.Ports.push_back({VPort::Dir::Input, "b", VType::vec(4)});
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  for (const char *Name : {"sum", "dif", "prod", "shl", "shr", "sha",
                           "bnot", "cnd", "sl"})
    M.Decls.push_back({Name, VType::vec(4)});
  M.Decls.push_back({"cat", VType::vec(8)});
  M.Decls.push_back({"sx", VType::vec(8)});
  M.Decls.push_back({"lts", VType::boolean()});
  M.Decls.push_back({"eq", VType::boolean()});
  auto A = [] { return vVar("a"); };
  auto B = [] { return vVar("b"); };
  VProcess P;
  P.Body = vBlock(stmts(
      vNonBlocking("sum", vBinary(BinaryOp::Add, A(), B())),
      vNonBlocking("dif", vBinary(BinaryOp::Sub, A(), B())),
      vNonBlocking("prod", vBinary(BinaryOp::Mul, A(), B())),
      vNonBlocking("shl", vBinary(BinaryOp::Shl, A(), B())),
      vNonBlocking("shr", vBinary(BinaryOp::ShrL, A(), B())),
      vNonBlocking("sha", vBinary(BinaryOp::ShrA, A(), B())),
      vNonBlocking("bnot", vUnary(UnaryOp::Not, A())),
      vNonBlocking("cnd", vCond(vVar("sel"), A(), B())),
      vNonBlocking("sl", vZeroExt(4, vSlice(A(), 3, 1))),
      vNonBlocking("cat", vConcat(A(), B())),
      vNonBlocking("sx", vSignExt(8, A())),
      vNonBlocking("lts", vBinary(BinaryOp::LtS, A(), B())),
      vNonBlocking("eq", vBinary(BinaryOp::Eq, A(), B()))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  std::vector<Stimulus> Frames;
  for (uint64_t AV = 0; AV != 16; ++AV)
    for (uint64_t BV = 0; BV != 16; ++BV)
      for (uint64_t Sel = 0; Sel != 2; ++Sel)
        Frames.push_back({{"a", AV}, {"b", BV}, {"sel", Sel}});
  lockstep(M, *Sim, Frames);
}

/// Two non-blocking writes to one variable in one process: the merge
/// applies them in program order, so the last write wins.
inline void checkNbaMergeOrder(const SimFactory &Make) {
  VModule M;
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P;
  P.Body = vBlock(stmts(vNonBlocking("r", vConstVec(8, 1)),
                        vNonBlocking("r", vConstVec(8, 2))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  lockstep(M, *Sim, {{}, {}});
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("r")), 2u);
}

/// Non-blocking writes to one variable on both arms of a nested `if`:
/// whichever executes last in program order wins, and a write that did
/// not execute this cycle never commits (its latch from an earlier cycle
/// must not leak).
inline void checkNestedIfNbaLastWriteWins(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "a", VType::boolean()});
  M.Ports.push_back({VPort::Dir::Input, "b", VType::boolean()});
  M.Decls.push_back({"r", VType::vec(8)});
  auto Set = [](uint64_t V) { return vNonBlocking("r", vConstVec(8, V)); };
  VProcess P;
  P.Body = vBlock(stmts(
      Set(1),
      vIf(vVar("a"),
          vBlock(stmts(Set(2), vIf(vVar("b"), Set(3), Set(4)))),
          vBlock(stmts(Set(6), vIf(vVar("b"), Set(5), nullptr))))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  // Expected r after one cycle, by (a, b).
  const uint64_t Want[2][2] = {{6, 5}, {4, 3}};
  Rng R(3);
  SimState Ref = SimState::init(M);
  for (int Cycle = 0; Cycle != 64; ++Cycle) {
    Stimulus In = {{"a", R.next64() & 1}, {"b", R.next64() & 1}};
    ASSERT_TRUE(stepCycle(M, Ref, namedInputs(M, In)));
    std::vector<uint64_t> Dense = denseFrame(*Sim, In);
    ASSERT_TRUE(Sim->stepDense(Dense.data(), Dense.size()));
    ASSERT_TRUE(Sim->exportState(M) == Ref) << "cycle " << Cycle;
    EXPECT_EQ(Sim->valueOf(Sim->slotOf("r")), Want[In["a"]][In["b"]])
        << "cycle " << Cycle;
  }
}

/// P1 conditionally blocking-writes t; P2 non-blocking-reads t.  Later
/// processes must see the cycle-start value of t, not P1's write.
inline void checkCrossProcessBlocking(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  M.Decls.push_back({"t", VType::vec(8)});
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P1;
  P1.Body = vIf(vVar("sel"), vBlocking("t", vConstVec(8, 9)), nullptr);
  VProcess P2;
  P2.Body = vNonBlocking("r", vVar("t"));
  M.Processes.push_back(std::move(P1));
  M.Processes.push_back(std::move(P2));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  lockstep(M, *Sim, {{{"sel", 1}}, {{"sel", 0}}, {{"sel", 1}}, {{"sel", 0}}});
  // After cycle 1 (sel=0): t kept 9 from cycle 0; r latched the
  // cycle-start t of each cycle, never the in-cycle write.
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("t")), 9u);
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("r")), 9u);
}

/// One process blocking-writes t on both arms of an if/else and reads
/// it back itself; a later process reads t (cycle-start value) next to
/// its own if/else blocking write, which a last process reads in turn.
inline void checkConditionalBlockingAcrossProcesses(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  M.Ports.push_back({VPort::Dir::Input, "x", VType::vec(8)});
  for (const char *Name : {"t", "own", "seen", "w", "last"})
    M.Decls.push_back({Name, VType::vec(8)});
  auto Plus = [](VExpPtr E, uint64_t K) {
    return vBinary(BinaryOp::Add, std::move(E), vConstVec(8, K));
  };
  VProcess P1;
  P1.Body = vBlock(stmts(
      vIf(vVar("sel"), vBlocking("t", vVar("x")),
          vBlocking("t", Plus(vVar("t"), 1))),
      vNonBlocking("own", vVar("t"))));
  VProcess P2;
  P2.Body = vBlock(stmts(
      vNonBlocking("seen", vVar("t")),
      vIf(vUnary(UnaryOp::LogicNot, vVar("sel")),
          vBlocking("w", Plus(vVar("t"), 100)),
          vBlocking("w", vVar("x")))));
  VProcess P3;
  P3.Body = vNonBlocking("last", vBinary(BinaryOp::Xor, vVar("w"), vVar("t")));
  M.Processes.push_back(std::move(P1));
  M.Processes.push_back(std::move(P2));
  M.Processes.push_back(std::move(P3));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  Rng R(17);
  std::vector<Stimulus> Frames;
  for (int I = 0; I != 200; ++I)
    Frames.push_back({{"sel", R.next64() & 1}, {"x", R.next64() & 255}});
  lockstep(M, *Sim, Frames);
}

/// A memory written and read back through both assignment classes, with
/// an interleaved non-blocking scalar.
inline void checkMemoryModule(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "wi", VType::vec(3)});
  M.Ports.push_back({VPort::Dir::Input, "wv", VType::vec(8)});
  M.Ports.push_back({VPort::Dir::Input, "ri", VType::vec(3)});
  M.Decls.push_back({"m", VType::mem(8, 8)});
  M.Decls.push_back({"out", VType::vec(8)});
  VProcess P;
  P.Body = vBlock(stmts(vNonBlocking("out", vMemRead("m", vVar("ri"))),
                        vMemWrite("m", vVar("wi"), vVar("wv"))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  Rng R(7);
  std::vector<Stimulus> Frames;
  for (int I = 0; I != 200; ++I)
    Frames.push_back({{"wi", R.next64() & 7},
                      {"wv", R.next64() & 255},
                      {"ri", R.next64() & 7}});
  lockstep(M, *Sim, Frames);
}

/// A depth-3 memory indexed by a 2-bit input, so index 3 is out of
/// range.  Reading it is an error in the reference and on the backend
/// alike, and the failed cycle commits nothing.  On the untaken arm of a
/// ?: or an `if` the read is never evaluated, so it is no error.
inline void checkMemoryReadOutOfRange(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "i", VType::vec(2)});
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  M.Ports.push_back({VPort::Dir::Input, "rd", VType::boolean()});
  M.Decls.push_back({"m", VType::mem(8, 3)});
  for (const char *Name : {"n", "guarded", "direct"})
    M.Decls.push_back({Name, VType::vec(8)});
  VProcess P;
  P.Body = vBlock(stmts(
      vNonBlocking("n", vBinary(BinaryOp::Add, vVar("n"), vConstVec(8, 1))),
      vMemWrite("m", vConstVec(2, 1), vConstVec(8, 42)),
      vNonBlocking("guarded", vCond(vVar("sel"), vMemRead("m", vVar("i")),
                                    vConstVec(8, 7))),
      vIf(vVar("rd"), vNonBlocking("direct", vMemRead("m", vVar("i"))),
          nullptr)));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  SimState Ref = SimState::init(M);
  // Steps both; true when the cycle succeeded on both, false when it
  // failed on both (a disagreement fails the test).
  auto Step = [&](uint64_t I, uint64_t Sel, uint64_t Rd) {
    Stimulus In = {{"i", I}, {"sel", Sel}, {"rd", Rd}};
    Result<void> RefR = stepCycle(M, Ref, namedInputs(M, In));
    std::vector<uint64_t> Dense = denseFrame(*Sim, In);
    Result<void> SimR = Sim->stepDense(Dense.data(), Dense.size());
    EXPECT_EQ(bool(RefR), bool(SimR)) << "i=" << I << " sel=" << Sel
                                      << " rd=" << Rd;
    EXPECT_TRUE(Sim->exportState(M) == Ref)
        << "i=" << I << " sel=" << Sel << " rd=" << Rd;
    return bool(RefR) && bool(SimR);
  };
  EXPECT_TRUE(Step(1, 1, 1));
  EXPECT_TRUE(Step(2, 1, 1));
  EXPECT_TRUE(Step(1, 1, 1));
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("guarded")), 42u);
  // Out of range on untaken paths only.
  EXPECT_TRUE(Step(3, 0, 0));
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("guarded")), 7u);
  // Out of range on the taken arm of the ?:, then of the `if`.
  EXPECT_FALSE(Step(3, 1, 0));
  EXPECT_FALSE(Step(3, 0, 1));
  EXPECT_FALSE(Step(3, 1, 1));
  // A failed cycle leaves no latch behind: the next one agrees again.
  EXPECT_TRUE(Step(0, 1, 1));
  EXPECT_TRUE(Step(3, 0, 0));
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("n")), 6u);
}

/// One process blocking-writes b, then reads a depth-3 memory at a 2-bit
/// index, so index 3 fails the cycle.  The failed cycle keeps nothing
/// of the process, b included, and fails with the reference's error.
inline void
checkBlockingWriteBeforeAFailedReadIsDropped(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "i", VType::vec(2)});
  M.Decls.push_back({"m", VType::mem(8, 3)});
  M.Decls.push_back({"b", VType::vec(8)});
  M.Decls.push_back({"x", VType::vec(8)});
  VProcess P;
  P.Body = vBlock(stmts(
      vBlocking("b", vBinary(BinaryOp::Add, vVar("b"), vConstVec(8, 1))),
      vNonBlocking("x", vMemRead("m", vVar("i")))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  SimState Ref = SimState::init(M);
  for (uint64_t I : {1, 3, 0, 3, 2}) {
    Stimulus In = {{"i", I}};
    Result<void> RefR = stepCycle(M, Ref, namedInputs(M, In));
    std::vector<uint64_t> Dense = denseFrame(*Sim, In);
    Result<void> SimR = Sim->stepDense(Dense.data(), Dense.size());
    ASSERT_EQ(bool(SimR), I != 3) << "i=" << I;
    ASSERT_EQ(bool(RefR), bool(SimR)) << "i=" << I;
    if (!SimR) {
      EXPECT_EQ(SimR.error().str(), RefR.error().str());
    }
    EXPECT_TRUE(Sim->exportState(M) == Ref) << "i=" << I;
  }
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("b")), 3u);
}

/// A memory write out of range, queued before a scalar non-blocking
/// write: the reference commits the queue in program order and stops at
/// the failing write, so the scalar keeps its value.
inline void checkMemoryWriteOutOfRangeStopsTheCommit(const SimFactory &Make) {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "i", VType::vec(2)});
  M.Decls.push_back({"m", VType::mem(8, 3)});
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P;
  P.Body = vBlock(stmts(
      vMemWrite("m", vVar("i"), vConstVec(8, 7)),
      vNonBlocking("r", vBinary(BinaryOp::Add, vVar("r"), vConstVec(8, 1)))));
  M.Processes.push_back(std::move(P));

  std::unique_ptr<ModuleSim> Sim = build(Make, M);
  ASSERT_TRUE(Sim);
  SimState Ref = SimState::init(M);
  for (uint64_t I : {0, 3, 1, 3, 2}) {
    Stimulus In = {{"i", I}};
    Result<void> RefR = stepCycle(M, Ref, namedInputs(M, In));
    std::vector<uint64_t> Dense = denseFrame(*Sim, In);
    Result<void> SimR = Sim->stepDense(Dense.data(), Dense.size());
    ASSERT_EQ(bool(SimR), I != 3) << "i=" << I;
    ASSERT_EQ(bool(RefR), bool(SimR)) << "i=" << I;
    if (!SimR) {
      EXPECT_EQ(SimR.error().str(), RefR.error().str());
    }
    EXPECT_TRUE(Sim->exportState(M) == Ref) << "i=" << I;
  }
  EXPECT_EQ(Sim->valueOf(Sim->slotOf("r")), 3u);
}

} // namespace hdl
} // namespace silver

#endif // SILVER_TESTS_HDL_AGREEMENT_H
