//===- bench/experiments.cpp - The checked EXPERIMENTS.md report ----------===//
//
// silver-experiments: reproduces EXPERIMENTS.md E1, E2 and E4-E8 in one
// run, with no options.
//
//  - stdout is the deterministic report, as JSON: instruction and cycle
//    counts, code bytes, OOM exits and the JIT's own counts, plus values
//    derived from them at fixed precision.  The experiments_report ctest
//    byte-diffs it against reports/experiments.json, so no count moves
//    unnoticed.
//  - stderr is the wall-clock table: E2's and E6's in-run ratios, each
//    the median and MAD of a fixed number of repeats.
//
// Every run is checked: an application's output must equal its *_spec
// function, the cycle-accurate core must retire the instructions the
// ISA level retires (plus the halt self-loop), the JIT must retire the
// interpreter's instructions, and the ALU loop must cost exactly 3+L
// cycles per instruction at memory latency L.  A failed check prints
// the reason and exits 1 before any report is written.  On a host
// without a native JIT the report has no "jit" table and the program
// exits 77 after writing it.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "cml/Compiler.h"
#include "cml/Interp.h"
#include "cml/Parser.h"
#include "cpu/Check.h"
#include "cpu/Core.h"
#include "hdl/FastSim.h"
#include "hdl/Semantics.h"
#include "isa/jit/Jit.h"
#include "obs/Counters.h"
#include "rtl/ToVerilog.h"
#include "stack/Apps.h"
#include "stack/Executor.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

using namespace silver;
using namespace silver::stack;
using isa::Func;
using isa::Instruction;
using isa::Operand;

namespace {

/// The nominal FPGA clock of the projections: the paper's PYNQ-Z1
/// designs clock in this range.
constexpr double FpgaHz = 32e6;
const std::string HelloOutput = "Hello, world!\n";
/// The exit code of a complete report on a host without a native JIT.
constexpr int SkipExitCode = 77;

[[noreturn]] void fail(const std::string &Why) {
  std::fprintf(stderr, "silver-experiments: %s\n", Why.c_str());
  std::exit(1);
}

template <typename T> T orFail(Result<T> R, const std::string &What) {
  if (!R)
    fail(What + ": " + R.error().str());
  return R.take();
}

void orFail(const Result<void> &R, const std::string &What) {
  if (!R)
    fail(What + ": " + R.error().str());
}

template <typename... Args>
std::string format(const char *Fmt, Args... Values) {
  std::string Out(std::snprintf(nullptr, 0, Fmt, Values...), '\0');
  std::snprintf(Out.data(), Out.size() + 1, Fmt, Values...);
  return Out;
}

/// Appends \p Row to the rows of a JSON array, one row per line.
void addRow(std::string &Rows, const std::string &Row) {
  Rows += (Rows.empty() ? "\n  " : ",\n  ") + Row;
}

/// A top-level report member: \p Key's array of \p Rows.
std::string table(const char *Key, const std::string &Rows) {
  return format(" \"%s\": [", Key) + Rows + "\n ],\n";
}

std::string counts(uint64_t Instructions, uint64_t Cycles) {
  return format("{\"instructions\": %llu, \"cycles\": %llu, \"cpi\": %.4f}",
                (unsigned long long)Instructions, (unsigned long long)Cycles,
                double(Cycles) / double(Instructions));
}

/// Fails unless \p Out completed with exit code 0 and exactly \p Expected
/// on stdout.
Observed checked(const Outcome &Out, const std::string &Expected,
                 const std::string &What) {
  if (Out.Status != RunStatus::Completed)
    fail(What + ": " + runStatusName(Out.Status));
  if (Out.Behaviour.ExitCode != 0)
    fail(What + ": exit code " + std::to_string(Out.Behaviour.ExitCode));
  if (Out.Behaviour.StdoutData != Expected)
    fail(What + ": output differs from its specification");
  return Out.Behaviour;
}

/// Runs \p Exec at \p L and checks the outcome.
Observed runChecked(Executor &Exec, Level L, const std::string &Expected,
                    const std::string &What) {
  return checked(orFail(Exec.run(L), What), Expected, What);
}

//===----------------------------------------------------------------------===//
// E1, E7: the applications, with a cycle-accurate CPI probe per app
//===----------------------------------------------------------------------===//

struct App {
  const char *Name;
  const char *Source;
  const char *Argv0;
  const char *Unit; ///< what an input size counts ("" for no input)
  std::vector<unsigned> Sizes; ///< the first also runs at the Rtl level
  std::string (*Input)(unsigned Size);
  std::string (*Expected)(const std::string &Input);
};

std::vector<App> apps() {
  return {
      {"hello", helloSource(), "prog", "", {0},
       [](unsigned) { return std::string(); },
       [](const std::string &) { return HelloOutput; }},
      {"cat", catSource(), "prog", "lines", {20, 200},
       [](unsigned N) { return randomLines(N, 1); }, catSpec},
      {"wc", wcSource(), "wc", "lines", {10, 100, 1000},
       [](unsigned N) { return randomLines(N, 2); }, wcSpec},
      {"sort", sortSource(), "sort", "lines", {10, 100, 1000, 2000},
       [](unsigned N) { return randomLines(N, 3); }, sortSpec},
      {"proof", proofCheckerSource(), "check", "proofs", {1, 8},
       [](unsigned N) {
         std::string Proof;
         for (unsigned I = 0; I != N; ++I)
           Proof += sampleValidProof();
         return Proof;
       },
       proofSpec},
      {"tin", tinCompilerSource(), "tin", "statements", {2, 5, 20},
       sampleTinProgram, tinSpec},
  };
}

std::string inputLabel(const App &A, unsigned Size) {
  std::string Unit = A.Unit;
  if (Size == 1)
    Unit.pop_back();
  return Unit.empty() ? "none" : std::to_string(Size) + " " + Unit;
}

/// What the JIT did on \p Spec: runs it at the Isa level on the Jit
/// backend, checks the run against \p Expected and the interpreter's
/// \p Instructions, and reads the JIT's counts before the session ends.
std::string jitCounts(RunSpec Spec, const Prepared &P,
                      const std::string &Expected, uint64_t Instructions,
                      const std::string &What) {
  Spec.Exec.Backend = BackendKind::Jit;
  Executor Exec = Executor::fromPrepared(std::move(Spec), P);
  orFail(Exec.begin(Level::Isa), What);
  orFail(Exec.step(UINT64_MAX), What);
  isa::jit::JitStats Stats = orFail(Exec.sessionJitStats(), What);
  Observed Jit = checked(orFail(Exec.finish(), What), Expected, What);
  if (Jit.Instructions != Instructions)
    fail(What + ": the jit retired " + std::to_string(Jit.Instructions) +
         " instructions, the interpreter " + std::to_string(Instructions));

  std::string Refused, Exits;
  for (size_t R = 1; R != isa::jit::NumRefuseReasons; ++R)
    Refused += format("%s\"%s\": %llu", R == 1 ? "" : ", ",
                      isa::jit::refuseReasonId(isa::jit::RefuseReason(R)),
                      (unsigned long long)Stats.Refused[R]);
  for (size_t K = 0; K != isa::jit::NumExitKinds; ++K)
    Exits += format("%s\"%s\": {\"count\": %llu, \"per_1000_instr\": %.3f}",
                    K == 0 ? "" : ",\n     ",
                    isa::jit::exitKindId(isa::jit::ExitKind(K)),
                    (unsigned long long)Stats.Exits[K],
                    1000.0 * double(Stats.Exits[K]) / double(Instructions));
  return format("\"instructions\": %llu, \"blocks_compiled\": %llu,\n"
                "   \"blocks_refused\": {",
                (unsigned long long)Instructions,
                (unsigned long long)Stats.BlocksCompiled) +
         Refused +
         format("},\n   \"invalidations\": %llu, \"arena_flushes\": %llu,\n"
                "   \"exits\": {",
                (unsigned long long)Stats.BlockInvalidations,
                (unsigned long long)Stats.ArenaFlushes) +
         Exits + "}";
}

/// Prints the "cycle_probes", "apps" and, on a host with a native JIT,
/// "jit" tables to \p Json and returns the projected FPGA seconds of the
/// 20-statement Tin compile (E2).
double appsReport(std::string &Json) {
  std::string Probes, Rows, JitRows;
  double TinSeconds = 0;
  for (const App &A : apps()) {
    double Cpi = 0;
    for (unsigned Size : A.Sizes) {
      std::string What = std::string(A.Name) + " on " + inputLabel(A, Size);
      RunSpec Spec;
      Spec.Source = A.Source;
      Spec.StdinData = A.Input(Size);
      Spec.CommandLine = {A.Argv0};
      Spec.Compile.Layout.MemSize = 16u << 20;
      Spec.Compile.Layout.StdinCap = 2u << 20;
      Spec.Exec.MaxSteps = 4'000'000'000ull;
      Executor Exec = orFail(Executor::create(Spec), What);
      std::string Expected = A.Expected(Spec.StdinData);
      uint64_t Instructions =
          runChecked(Exec, Level::Isa, Expected, What).Instructions;
      if (Size == A.Sizes.front()) {
        // The projection's CPI: this app on the cycle-accurate core,
        // which retires the ISA level's instructions plus the halt
        // self-loop.
        Observed Rtl = runChecked(Exec, Level::Rtl, Expected, What + " (rtl)");
        if (Rtl.Instructions != Instructions + 1)
          fail(What + ": the core retired " +
               std::to_string(Rtl.Instructions) + " instructions, the ISA " +
               std::to_string(Instructions) + " and the halt");
        Cpi = double(Rtl.Cycles) / double(Rtl.Instructions);
        addRow(Probes, format("{\"app\": \"%s\", \"input\": \"%s\", "
                              "\"core\": ",
                              A.Name, inputLabel(A, Size).c_str()) +
                           counts(Rtl.Instructions, Rtl.Cycles) + "}");
      }
      double Seconds = double(Instructions) * Cpi / FpgaHz;
      if (std::string(A.Name) == "tin" && Size == 20)
        TinSeconds = Seconds;
      addRow(Rows, format("{\"app\": \"%s\", \"input\": \"%s\", "
                          "\"instructions\": %llu, "
                          "\"projected_fpga_ms\": %.3f}",
                          A.Name, inputLabel(A, Size).c_str(),
                          (unsigned long long)Instructions, Seconds * 1e3));
      if (Size == A.Sizes.back() && isa::jit::hostSupported())
        addRow(JitRows,
               format("{\"app\": \"%s\", \"input\": \"%s\", ", A.Name,
                      inputLabel(A, Size).c_str()) +
                   jitCounts(Spec, Exec.prepared(), Expected, Instructions,
                             What + " (jit)") +
                   "}");
    }
  }
  Json += table("cycle_probes", Probes) + table("apps", Rows);
  if (isa::jit::hostSupported())
    Json += table("jit", JitRows);
  return TinSeconds;
}

//===----------------------------------------------------------------------===//
// E4: wait states on the cycle-accurate core
//===----------------------------------------------------------------------===//

/// A 25-iteration loop of four copies of \p Body, at address 0 of a
/// 64 KiB image.
sys::MemoryImage loopImage(const std::vector<Instruction> &Body) {
  assembler::Assembler A;
  A.emitLi(1, 0x8000); // scratch base
  A.label("loop");
  for (int Rep = 0; Rep != 4; ++Rep)
    for (const Instruction &I : Body)
      A.emit(I);
  A.emit(Instruction::normal(Func::Inc, 10, Operand::reg(10),
                             Operand::imm(0)));
  A.emitBranch(false, Func::Lower, Operand::reg(10), Operand::imm(25),
               "loop");
  A.emitHalt();
  assembler::Assembled Prog = orFail(A.assemble(0), "loop assembly");
  sys::MemoryImage Image;
  Image.Layout.Params.MemSize = 1 << 16;
  Image.Memory.assign(1 << 16, 0);
  std::copy(Prog.Bytes.begin(), Prog.Bytes.end(), Image.Memory.begin());
  return Image;
}

std::unique_ptr<cpu::CoreRunner> runOnCore(const sys::MemoryImage &Image,
                                           unsigned Latency,
                                           const std::string &What) {
  cpu::RunOptions Options;
  Options.Env.MemLatency = Latency;
  std::unique_ptr<cpu::CoreRunner> R = orFail(
      cpu::CoreRunner::create(sys::initialState(Image), Image.Layout, Options),
      What);
  if (orFail(R->advance(UINT64_MAX, 100'000'000), What) !=
      cpu::CoreStop::Halted)
    fail(What + ": the core did not halt");
  return R;
}

void latencyReport(std::string &Json) {
  sys::MemoryImage Alu = loopImage(
      {Instruction::normal(Func::Add, 2, Operand::reg(2), Operand::imm(1)),
       Instruction::shift(isa::ShiftKind::RotateRight, 3, Operand::reg(2),
                          Operand::imm(5))});
  sys::MemoryImage Memory =
      loopImage({Instruction::storeMem(Operand::reg(2), Operand::reg(1)),
                 Instruction::loadMem(3, Operand::reg(1))});
  RunSpec Spec;
  Spec.Source = helloSource();
  Prepared P = orFail(prepare(Spec), "hello");
  sys::MemoryImage Hello = orFail(sys::buildImage(P.Image), "hello image");

  std::string Rows;
  int64_t AluTail = 0;
  for (unsigned L : {0u, 1u, 2u, 4u, 8u}) {
    std::string At = " at latency " + std::to_string(L);
    std::unique_ptr<cpu::CoreRunner> A = runOnCore(Alu, L, "ALU loop" + At);
    std::unique_ptr<cpu::CoreRunner> M =
        runOnCore(Memory, L, "memory loop" + At);
    std::unique_ptr<cpu::CoreRunner> H = runOnCore(Hello, L, "hello" + At);
    if (H->collectedStdout() != HelloOutput)
      fail("hello" + At + ": output differs from its specification");
    // Every ALU instruction costs fetch-issue(1) + fetch-wait(1+L) +
    // execute(1): beyond 3+L cycles each, the loop's tail is fixed.
    int64_t Tail =
        int64_t(A->cycles()) - int64_t((3 + L) * A->instructions());
    if (L == 0)
      AluTail = Tail;
    else if (Tail != AluTail)
      fail("ALU loop" + At + ": " + std::to_string(Tail) +
           " cycles beyond 3+L per instruction, " + std::to_string(AluTail) +
           " at latency 0");
    addRow(Rows,
           format("{\"latency\": %u, \"alu\": ", L) +
               counts(A->instructions(), A->cycles()) +
               ",\n   \"memory\": " + counts(M->instructions(), M->cycles()) +
               ",\n   \"hello\": " + counts(H->instructions(), H->cycles()) +
               "}");
  }
  Json += format(" \"alu_tail_cycles\": %lld,\n", (long long)AluTail);
  Json += table("memory_latency", Rows);
}

//===----------------------------------------------------------------------===//
// E5: the optimiser, and §6.1's orderly OOM exit
//===----------------------------------------------------------------------===//

std::string optLevelCounts(const char *Source, const std::string &Stdin,
                           const std::string &Expected, bool Optimised,
                           const std::string &What) {
  RunSpec Spec;
  Spec.Source = Source;
  Spec.StdinData = Stdin;
  Spec.Compile.Opt =
      Optimised ? cml::OptOptions::all() : cml::OptOptions::none();
  Executor Exec = orFail(Executor::create(Spec), What);
  obs::Counters Counters;
  Exec.attach(&Counters);
  uint64_t Instructions =
      runChecked(Exec, Level::Isa, Expected, What).Instructions;
  uint64_t Ffi = 0;
  for (const obs::Counters::FfiCost &Call : Counters.Ffi)
    Ffi += Call.Instructions;
  return format("{\"code_bytes\": %zu, \"instructions\": %llu, "
                "\"ffi_instructions\": %llu, \"ffi_share\": %.4f}",
                Exec.prepared().Program.Program.size(),
                (unsigned long long)Instructions, (unsigned long long)Ffi,
                double(Ffi) / double(Instructions));
}

void optimiserReport(std::string &Json) {
  struct Case {
    const char *Name;
    const char *Source;
    std::string Input;
    std::string InputLabel;
    std::string Expected;
  };
  std::string Wc = randomLines(200, 4), Sort = randomLines(100, 5),
              Proof = sampleValidProof();
  const Case Cases[] = {
      {"wc", wcSource(), Wc, "200 lines", wcSpec(Wc)},
      {"sort", sortSource(), Sort, "100 lines", sortSpec(Sort)},
      {"proof", proofCheckerSource(), Proof, "1 proof", proofSpec(Proof)},
  };
  std::string Rows;
  for (const Case &C : Cases) {
    std::string What = std::string(C.Name) + " on " + C.InputLabel;
    addRow(Rows,
           format("{\"app\": \"%s\", \"input\": \"%s\",\n   \"o0\": ",
                  C.Name, C.InputLabel.c_str()) +
               optLevelCounts(C.Source, C.Input, C.Expected, false,
                              What + " O0") +
               ",\n   \"o1\": " +
               optLevelCounts(C.Source, C.Input, C.Expected, true,
                              What + " O1") +
               "}");
  }
  Json += table("optimiser", Rows);

  // §6.1: heap exhaustion is an orderly OOM exit whose output is a
  // prefix of the specification's, never a wild failure.
  const std::string Full = "200000";
  Rows.clear();
  for (unsigned HeapKib : {512u, 1024u, 4096u}) {
    std::string What = "OOM program in " + std::to_string(HeapKib) + " KiB";
    RunSpec Spec;
    Spec.Source = R"(
      fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
      val _ = print (int_to_string (length (build 200000 [])))
    )";
    Spec.Compile.Layout.MemSize = HeapKib << 10;
    Spec.Exec.MaxSteps = 1'000'000'000ull;
    Executor Exec = orFail(Executor::create(Spec), What);
    Outcome Out = orFail(Exec.run(Level::Isa), What);
    const Observed &B = Out.Behaviour;
    bool Orderly = B.ExitCode == 0 ? B.StdoutData == Full
                   : B.ExitCode == machine::OomExitCode &&
                         startsWith(Full, B.StdoutData);
    if (Out.Status != RunStatus::Completed || !Orderly)
      fail(What + ": not an orderly exit");
    addRow(Rows, format("{\"heap_kib\": %u, \"exit_code\": %u, "
                        "\"instructions\": %llu}",
                        HeapKib, unsigned(B.ExitCode),
                        (unsigned long long)B.Instructions));
  }
  Json += table("oom", Rows);
}

//===----------------------------------------------------------------------===//
// Wall clock: E2 and E6 as in-run ratios
//===----------------------------------------------------------------------===//

struct Spread {
  double Median, Mad;
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Spread spread(const std::vector<double> &V) {
  double M = median(V);
  std::vector<double> Dev;
  for (double X : V)
    Dev.push_back(std::fabs(X - M));
  return {M, median(Dev)};
}

template <typename F> double secondsOf(F &&Body) {
  auto T0 = std::chrono::steady_clock::now();
  Body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

void printRatio(const char *Name, const std::vector<double> &Ratios) {
  Spread S = spread(Ratios);
  std::fprintf(stderr, "  %-34s %10.1fx  ± %.1f\n", Name, S.Median, S.Mad);
}

/// E2: the Tin compiler natively, under the MiniCake interpreter, and
/// compiled to Silver on the ISA level (the run only; compiling the Tin
/// compiler is set-up).  \p ProjectedSeconds is its on-FPGA projection.
void bootstrapRatios(double ProjectedSeconds) {
  constexpr int Repeats = 11, NativeBatch = 200;
  std::string Program = sampleTinProgram(20);
  std::string Expected = tinSpec(Program);
  cml::Program Interp = orFail(
      cml::parseProgram(cml::withPrelude(tinCompilerSource())), "tin parse");
  RunSpec Spec;
  Spec.Source = tinCompilerSource();
  Spec.StdinData = Program;
  Spec.CommandLine = {"tin"};
  Executor Exec = orFail(Executor::create(Spec), "tin");

  std::vector<double> Native, InterpRatio, IsaRatio, FpgaRatio;
  // Pass -1 warms the caches and the page pool; it is not recorded.
  for (int R = -1; R != Repeats; ++R) {
    std::string Out;
    double N = secondsOf([&] {
                 for (int I = 0; I != NativeBatch; ++I)
                   Out = tinSpec(Program);
               }) /
               NativeBatch;
    if (Out != Expected)
      fail("tin_spec is not deterministic");
    cml::RunOutput I;
    double Ti = secondsOf(
        [&] { I = cml::interpretProgram(Interp, {"tin"}, Program); });
    if (!I.Ok || I.Ffi.getStdout() != Expected)
      fail("tin under the interpreter: output differs from its specification");
    double Ts = secondsOf([&] {
      runChecked(Exec, Level::Isa, Expected, "tin on the ISA level");
    });
    if (R < 0)
      continue;
    Native.push_back(N);
    InterpRatio.push_back(Ti / N);
    IsaRatio.push_back(Ts / N);
    FpgaRatio.push_back(ProjectedSeconds / N);
  }
  Spread N = spread(Native);
  std::fprintf(stderr,
               "E2: Tin compiler, 20 statements (median ± MAD of %d)\n"
               "  native tin_spec %.2f us ± %.2f\n",
               Repeats, N.Median * 1e6, N.Mad * 1e6);
  printRatio("MiniCake interpreter / native", InterpRatio);
  printRatio("Silver ISA level / native", IsaRatio);
  printRatio("projected on-FPGA / native", FpgaRatio);
}

/// Steps one simulator of a design \p Cycles cycles.
using Stepper = std::function<void(unsigned Cycles)>;

/// E6: per-cycle wall time of the circuit interpreter, FastSim and the
/// reference Verilog semantics on one design, as ratios to FastSim.
void simulatorRatios(const char *Design, unsigned Cycles,
                     unsigned ReferenceCycles, const Stepper &Circuit,
                     const Stepper &Fast, const Stepper &Reference) {
  constexpr int Repeats = 9;
  std::vector<double> FastRate, RefRatio, CircuitRatio;
  // Pass -1 warms the caches; it is not recorded.
  for (int R = -1; R != Repeats; ++R) {
    double Tc = secondsOf([&] { Circuit(Cycles); }) / Cycles;
    double Tf = secondsOf([&] { Fast(Cycles); }) / Cycles;
    double Tr = secondsOf([&] { Reference(ReferenceCycles); }) /
                ReferenceCycles;
    if (R < 0)
      continue;
    FastRate.push_back(1 / Tf);
    RefRatio.push_back(Tr / Tf);
    CircuitRatio.push_back(Tc / Tf);
  }
  Spread F = spread(FastRate);
  std::fprintf(stderr,
               "E6: %s (median ± MAD of %d)\n"
               "  FastSim %.2f M cycles/s ± %.2f\n",
               Design, Repeats, F.Median / 1e6, F.Mad / 1e6);
  printRatio("reference verilog_sem / FastSim", RefRatio);
  printRatio("circuit interpreter / FastSim", CircuitRatio);
}

rtl::Circuit makeAB() {
  rtl::Builder B("AB");
  rtl::NodeId Pulse = B.input("pulse", 1);
  unsigned Count = B.reg("count", 8, 0);
  unsigned Done = B.reg("done", 1, 0);
  rtl::NodeId C = B.regRead(Count);
  rtl::NodeId D = B.regRead(Done);
  B.regNext(Count, B.mux(Pulse, B.add(C, B.constant(8, 1)), C));
  B.regNext(Done,
            B.mux(B.ltU(B.constant(8, 10), C), B.constant(1, 1), D));
  B.output("done", D);
  return B.take();
}

/// Times the three simulators of \p C.  AB's pulse input is random (the
/// same seeded stream for each); every other input is held at 0.
void verilogRatios(const char *Design, const rtl::Circuit &C,
                   unsigned Cycles, unsigned ReferenceCycles) {
  hdl::VModule M = orFail(rtl::toVerilog(C), Design);
  std::unique_ptr<hdl::FastSim> Fast =
      orFail(hdl::FastSim::compile(M), Design);
  hdl::SimState Ref = hdl::SimState::init(M);
  rtl::CircuitState State = rtl::CircuitState::init(C);
  std::vector<uint64_t> Frame(Fast->numInputs(), 0);
  std::map<std::string, uint64_t> CircuitIn;
  std::map<std::string, hdl::VValue> RefIn;
  for (const rtl::InputDef &In : C.Inputs) {
    CircuitIn[In.Name] = 0;
    RefIn[In.Name] = hdl::VValue::vec(In.Width, 0);
  }
  bool HasPulse = CircuitIn.count("pulse");
  size_t Pulse = 0;
  for (size_t K = 0; K != Frame.size(); ++K)
    if (Fast->inputName(K) == "pulse")
      Pulse = K;
  Rng CircuitRng(1), FastRng(1), RefRng(1);
  auto Check = [&](const auto &R) { orFail(R, Design); };

  simulatorRatios(
      Design, Cycles, ReferenceCycles,
      [&](unsigned N) {
        for (unsigned I = 0; I != N; ++I) {
          if (HasPulse)
            CircuitIn["pulse"] = CircuitRng.below(2);
          Check(rtl::stepCircuit(C, State, CircuitIn, nullptr));
        }
      },
      [&](unsigned N) {
        for (unsigned I = 0; I != N; ++I) {
          if (HasPulse)
            Frame[Pulse] = FastRng.below(2);
          Check(Fast->stepDense(Frame.data(), Frame.size()));
        }
      },
      [&](unsigned N) {
        for (unsigned I = 0; I != N; ++I) {
          if (HasPulse)
            RefIn["pulse"] = hdl::VValue::vec(1, RefRng.below(2));
          Check(hdl::stepCycle(M, Ref, RefIn));
        }
      });
}

} // namespace

int main() {
  std::string Json = format("{\n \"clock_hz\": %.0f,\n", FpgaHz);
  double TinSeconds = appsReport(Json);
  latencyReport(Json);
  optimiserReport(Json);
  rtl::Circuit AB = makeAB();
  cpu::SilverCore Core = cpu::buildSilverCore();
  Json += format(" \"verilog_nodes\": {\"ab\": %zu, \"silver_core\": %zu}\n}\n",
                 AB.Nodes.size(), Core.Circuit.Nodes.size());

  bootstrapRatios(TinSeconds);
  verilogRatios("AB example", AB, 20000, 2000);
  verilogRatios("Silver core", Core.Circuit, 2000, 50);

  std::fputs(Json.c_str(), stdout);
  // Without a native JIT the report has no "jit" table, so it cannot
  // match the committed one: the experiments_report ctest skips.
  return isa::jit::hostSupported() ? 0 : SkipExitCode;
}
