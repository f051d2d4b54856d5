//===- tests/hdl/CompiledSimTest.cpp - Compiled simulator backend ------------===//
//
// The compiled backend (hdl/compile) is generated code, so every test
// here is a trust argument: the AST interpreter (hdl::stepCycle) is the
// reference, and the compiled cycle function must match it bit for bit —
// on the non-blocking merge order, on X-initialization and on exhaustive
// input sweeps of leaf processes.  The agreement cases are shared with
// FastSim's suite (Agreement.h).  The Silver core's simulator is linked
// into the build; every other module here is built and dlopen'ed at run
// time into a cache directory private to the test.  Hosts without a
// usable C++ compiler skip the run-time suites (visibly).
//
//===----------------------------------------------------------------------===//

#include "cpu/Core.h"
#include "cpu/Sim.h"
#include "hdl/FastSim.h"
#include "hdl/Semantics.h"
#include "hdl/Tape.h"
#include "hdl/compile/Build.h"
#include "hdl/compile/Codegen.h"
#include "hdl/compile/CompiledSim.h"
#include "rtl/ToVerilog.h"
#include "support/Rng.h"

#include "Agreement.h"
#include "DenseFrame.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>
#include <unistd.h>

// The linked Silver core's identity (cpu/Sim.cpp declares the same).
extern "C" uint64_t silver_hdl_design_hash(void);

using namespace silver;
using namespace silver::hdl;

namespace {

/// A fresh, empty artifact cache directory private to this test process,
/// so the suite never reads or writes the default cache.
std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "silver-hdl-" + Tag + "-" +
                    std::to_string(getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

class CompiledSimTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!compiledSimAvailable())
      GTEST_SKIP() << "no usable host C++ compiler; compiled backend "
                      "unavailable on this host";
    Opts.CacheDir = freshCacheDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    if (!Opts.CacheDir.empty())
      std::filesystem::remove_all(Opts.CacheDir);
  }

  /// The compiled backend, built into this test's private cache.
  SimFactory compiled() const {
    return [O = Opts](const VModule &M)
               -> Result<std::unique_ptr<ModuleSim>> {
      Result<std::unique_ptr<CompiledSim>> Sim = CompiledSim::compile(M, O);
      if (!Sim)
        return Sim.error();
      return std::unique_ptr<ModuleSim>(Sim.take());
    };
  }

  BuildOptions Opts;
};

} // namespace

//===----------------------------------------------------------------------===//
// Golden codegen properties (no compiler needed; pure source checks)
//===----------------------------------------------------------------------===//

TEST(CompiledCodegen, EmitsAbiSymbolsAndStableHash) {
  VModule M = makeAB();
  Result<GeneratedModule> G1 = generateCpp(M);
  ASSERT_TRUE(G1) << G1.error().str();
  // The generated source names exactly the three ABI entry points (no
  // batched variant).
  std::set<std::string> Symbols;
  for (size_t At = G1->Source.find("silver_hdl_"); At != std::string::npos;
       At = G1->Source.find("silver_hdl_", At + 1))
    Symbols.insert(G1->Source.substr(At, G1->Source.find('(', At) - At));
  EXPECT_EQ(Symbols,
            (std::set<std::string>{"silver_hdl_abi_version",
                                   "silver_hdl_design_hash",
                                   "silver_hdl_cycle"}));
  // The design hash is a pure function of the module.
  Result<GeneratedModule> G2 = generateCpp(M);
  ASSERT_TRUE(G2);
  EXPECT_EQ(G1->DesignHash, G2->DesignHash);
  EXPECT_EQ(G1->Source, G2->Source);
  // ... and the placeholder token has been substituted out.
  EXPECT_EQ(G1->Source.find("SILVER_DESIGN_HASH"), std::string::npos);

  // A different module hashes differently.
  VModule N = makeAB();
  N.Processes.pop_back();
  Result<GeneratedModule> G3 = generateCpp(N);
  ASSERT_TRUE(G3);
  EXPECT_NE(G1->DesignHash, G3->DesignHash);
}

TEST(CompiledCodegen, LinkRejectsAStaleDesignHash) {
  // A linked unit is accepted only under the hash the generator computes
  // for the module today; any other hash means a stale build.
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  EXPECT_FALSE(CompiledModule::link(M, nullptr, G->DesignHash + 1));
  Result<std::shared_ptr<CompiledModule>> L =
      CompiledModule::link(M, nullptr, G->DesignHash);
  ASSERT_TRUE(L) << L.error().str();
  EXPECT_EQ((*L)->designHash(), G->DesignHash);
}

TEST(CompiledCodegen, NbaCommitFollowsEveryProcessBody) {
  // The non-blocking merge is compiled in: every latch store (the
  // printed Latch sets its flag, `t<f> = 1;`) textually precedes its
  // commit (`if (t<f>) { ... }`), which mirrors the semantics' merge of
  // nb-queues after all processes ran.
  VModule M = makeAB();
  Result<Tape> T = lowerModule(M);
  ASSERT_TRUE(T);
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  size_t Latches = 0;
  for (const Instr &In : T->Code) {
    if (In.Code != Op::Latch)
      continue;
    ++Latches;
    std::string Flag = "t" + std::to_string(In.D + 1);
    size_t Latch = G->Source.find(" " + Flag + " = 1;");
    size_t Commit = G->Source.find("if (" + Flag + ") {");
    ASSERT_NE(Latch, std::string::npos) << Flag;
    ASSERT_NE(Commit, std::string::npos) << Flag;
    EXPECT_LT(Latch, Commit) << Flag;
  }
  EXPECT_EQ(Latches, 1u); // A's `count <= count + 1` under `if (pulse)`
}

TEST(CompiledCodegen, CoreMemoryWritesAreUnchecked) {
  // A write index no wider than log2 of the depth is always in range, so
  // the core's register-file write (6-bit index, depth 64) commits with
  // no bounds check, in the tape and in the printed C++ alike.
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<VModule> Mod = rtl::toVerilog(Core.Circuit);
  ASSERT_TRUE(Mod) << Mod.error().str();
  Result<Tape> T = lowerModule(*Mod);
  ASSERT_TRUE(T) << T.error().str();
  size_t Commits = 0;
  for (const Instr &In : T->Code) {
    EXPECT_NE(In.Code, Op::MemCommitChecked);
    Commits += In.Code == Op::MemCommit;
  }
  EXPECT_GE(Commits, 1u);
  Result<GeneratedModule> G = generateCpp(*Mod);
  ASSERT_TRUE(G) << G.error().str();
  EXPECT_EQ(G->Source.find(">= UINT64_C(64)) return"), std::string::npos);
}

TEST(CompiledCodegen, LayoutMatchesInterpreterPlan) {
  // Slot planning is shared with FastSim (ports first, then decls), so
  // slot handles are interchangeable across backends.
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  Result<std::unique_ptr<FastSim>> F = FastSim::compile(M);
  ASSERT_TRUE(F);
  for (const auto &KV : G->Layout.ScalarSlots)
    EXPECT_EQ((*F)->slotOf(KV.first), KV.second) << KV.first;
  ASSERT_EQ(G->Layout.InputSlots.size(), (*F)->numInputs());
}

//===----------------------------------------------------------------------===//
// Semantics agreement (needs the host compiler)
//===----------------------------------------------------------------------===//

TEST_F(CompiledSimTest, XInitMatchesReferenceInit) {
  // The compiled state starts all-zero; SimState::init is the X-free
  // zero initialization the semantics uses.  They must be the same
  // state, before any cycle runs.
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  EXPECT_TRUE((*SimOr)->exportState(M) == SimState::init(M));
}

TEST_F(CompiledSimTest, AgreesWithReferenceOnAB) {
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  Rng R(11);
  std::vector<std::map<std::string, uint64_t>> Frames;
  for (int I = 0; I != 300; ++I)
    Frames.push_back({{"pulse", R.chance(1, 2) ? 1u : 0u}});
  lockstep(M, **SimOr, Frames);
}

TEST_F(CompiledSimTest, NbaMergeOrderIsProgramOrder) {
  checkNbaMergeOrder(compiled());
}

TEST_F(CompiledSimTest, CrossProcessBlockingReadsCycleStartState) {
  checkCrossProcessBlocking(compiled());
}

TEST_F(CompiledSimTest, ExhaustiveLeafSweepMatchesReference) {
  checkExhaustiveLeafSweep(compiled());
}

TEST_F(CompiledSimTest, MemoryModuleMatchesReference) {
  checkMemoryModule(compiled());
}

TEST_F(CompiledSimTest, NestedIfNbaLastWriteWins) {
  checkNestedIfNbaLastWriteWins(compiled());
}

TEST_F(CompiledSimTest, ConditionalBlockingAcrossProcesses) {
  checkConditionalBlockingAcrossProcesses(compiled());
}

TEST_F(CompiledSimTest, MemoryReadOutOfRangeIsAnError) {
  checkMemoryReadOutOfRange(compiled());
}

TEST_F(CompiledSimTest, BlockingWriteBeforeAFailedReadIsDropped) {
  checkBlockingWriteBeforeAFailedReadIsDropped(compiled());
}

TEST_F(CompiledSimTest, MemoryWriteOutOfRangeStopsTheCommit) {
  checkMemoryWriteOutOfRangeStopsTheCommit(compiled());
}

TEST_F(CompiledSimTest, SlotSurfaceMatchesFastSim) {
  // The backends expose the same binding surface: same input ordinals,
  // same slot handles, same values after the same stimulus.
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> C = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(C) << C.error().str();
  Result<std::unique_ptr<FastSim>> F = FastSim::compile(M);
  ASSERT_TRUE(F);
  ASSERT_EQ((*C)->numInputs(), (*F)->numInputs());
  for (size_t I = 0; I != (*C)->numInputs(); ++I)
    EXPECT_EQ((*C)->inputName(I), (*F)->inputName(I));
  EXPECT_EQ((*C)->slotOf("count"), (*F)->slotOf("count"));
  EXPECT_EQ((*C)->slotOf("no_such"), -1);
  EXPECT_EQ((*C)->memSlotOf("count"), -1);

  uint64_t Frame[1] = {1};
  for (int Cycle = 0; Cycle != 12; ++Cycle) {
    ASSERT_TRUE((*C)->stepDense(Frame, 1));
    ASSERT_TRUE((*F)->stepDense(Frame, 1));
  }
  int Count = (*C)->slotOf("count");
  int Done = (*C)->slotOf("done");
  EXPECT_EQ(Done, (*F)->slotOf("done"));
  EXPECT_EQ((*C)->valueOf(Count), (*F)->valueOf(Count));
  EXPECT_EQ((*C)->valueOf(Done), (*F)->valueOf(Done));
  EXPECT_EQ((*C)->valueOf(Count), 12u);
}

//===----------------------------------------------------------------------===//
// The linked core and the build driver
//===----------------------------------------------------------------------===//

TEST_F(CompiledSimTest, ArtifactIsCachedByDesignHash) {
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> A = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(A) << A.error().str();
  Result<std::unique_ptr<CompiledSim>> B = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(B);
  EXPECT_EQ((*A)->designHash(), (*B)->designHash());
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  EXPECT_EQ((*A)->designHash(), G->DesignHash);
}

TEST(CompiledBuild, BadCompilerIsAnError) {
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  BuildOptions O;
  O.Compiler = "/no/such/compiler-xyzzy";
  O.CacheDir = freshCacheDir("badcxx");
  Result<std::shared_ptr<LoadedModule>> L = buildAndLoad(*G, O);
  EXPECT_FALSE(L);
  std::filesystem::remove_all(O.CacheDir);
}

TEST(CompiledBuild, ConcurrentColdBuildsOfOneDesignAllLoad) {
  // Threads of one process building the same design into an empty
  // cache all load it, and the cache ends with the one artifact: the
  // temporaries are private to each build, so the race is benign.
  if (!compiledSimAvailable())
    GTEST_SKIP() << "no usable host C++ compiler";
  VModule M = makeAB();
  for (int Round = 0; Round != 5; ++Round) {
    BuildOptions O;
    O.CacheDir = freshCacheDir("race" + std::to_string(Round));
    std::vector<std::string> Errors(4);
    std::vector<std::thread> Builders;
    for (size_t T = 0; T != Errors.size(); ++T)
      Builders.emplace_back([&, T] {
        Result<std::shared_ptr<CompiledModule>> C =
            CompiledModule::create(M, O);
        if (!C)
          Errors[T] = C.error().str();
      });
    for (std::thread &T : Builders)
      T.join();
    for (size_t T = 0; T != Errors.size(); ++T)
      EXPECT_EQ(Errors[T], "") << "round " << Round << " thread " << T;
    int SharedObjects = 0;
    for (const auto &Entry : std::filesystem::directory_iterator(O.CacheDir))
      SharedObjects += Entry.path().extension() == ".so";
    EXPECT_EQ(SharedObjects, 1) << "round " << Round;
    std::filesystem::remove_all(O.CacheDir);
  }
}

TEST_F(CompiledSimTest, LinkedCoreMatchesGenerator) {
  // The core's simulator linked into the build is what the generator
  // emits for the core today ...
  cpu::SilverCore Core = cpu::buildSilverCore();
  ASSERT_TRUE(Core.Circuit.validate());
  Result<VModule> Mod = rtl::toVerilog(Core.Circuit);
  ASSERT_TRUE(Mod) << Mod.error().str();
  Result<GeneratedModule> G = generateCpp(*Mod);
  ASSERT_TRUE(G) << G.error().str();
  EXPECT_EQ(silver_hdl_design_hash(), G->DesignHash);

  // ... and a dlopen'ed module exporting the same symbol names resolves
  // to its own entry points: it still agrees with the interpreter.
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> Ab = CompiledSim::compile(M, Opts);
  ASSERT_TRUE(Ab) << Ab.error().str();
  EXPECT_NE((*Ab)->designHash(), silver_hdl_design_hash());
  Rng R(5);
  std::vector<std::map<std::string, uint64_t>> Frames;
  for (int I = 0; I != 100; ++I)
    Frames.push_back({{"pulse", R.chance(1, 2) ? 1u : 0u}});
  lockstep(M, **Ab, Frames);

  // With the AB module loaded, the linked core still steps exactly like
  // the interpreter on random stimulus.
  Result<std::unique_ptr<cpu::CoreSim>> Linked =
      cpu::makeVerilogSim(Core, true);
  ASSERT_TRUE(Linked) << Linked.error().str();
  Result<std::unique_ptr<cpu::CoreSim>> Interp = cpu::makeVerilogSim(Core);
  ASSERT_TRUE(Interp) << Interp.error().str();
  for (int Cycle = 0; Cycle != 300; ++Cycle) {
    cpu::CoreInputs In;
    In.MemRdata = R.next64() & 0xffffffffu;
    In.DataIn = R.next64() & 0xffffffffu;
    In.MemReady = R.chance(1, 2);
    In.MemStartReady = R.chance(1, 2);
    In.InterruptAck = R.chance(1, 2);
    cpu::CoreOutputs A, B;
    ASSERT_TRUE((*Linked)->stepDense(In, A));
    ASSERT_TRUE((*Interp)->stepDense(In, B));
    cpu::ArchState X = (*Linked)->archState();
    cpu::ArchState Y = (*Interp)->archState();
    ASSERT_EQ(X.Pc, Y.Pc) << "cycle " << Cycle;
    ASSERT_EQ(X.Regs, Y.Regs) << "cycle " << Cycle;
    ASSERT_EQ(A.MemAddr, B.MemAddr) << "cycle " << Cycle;
    ASSERT_EQ(A.Retire, B.Retire) << "cycle " << Cycle;
  }
}
