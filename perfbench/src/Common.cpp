//===- perfbench/src/Common.cpp - Shared pieces of the benchmark ------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "cml/Compiler.h"
#include "ffi/BasisFfi.h"
#include "machine/MachineSem.h"
#include "obs/Counters.h"
#include "stack/Apps.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

using namespace bench;

uint64_t bench::nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

uint64_t bench::threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

//===-- Metrics and report ---------------------------------------------===//

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  auto It = Index.find(Name);
  if (It != Index.end()) {
    Entries[It->second].Value = Value;
    Entries[It->second].Unit = Unit;
    return;
  }
  Index[Name] = Entries.size();
  Entries.push_back({Name, Value, Unit});
}

bool Metrics::update(const std::string &Name, double Value) {
  auto It = Index.find(Name);
  if (It == Index.end())
    return false;
  Entries[It->second].Value = Value;
  return true;
}

std::string Metrics::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    char Buf[64];
    // Every digit as measured; non-finite values cannot be JSON.
    std::snprintf(Buf, sizeof Buf, "%.17g",
                  std::isfinite(E.Value) ? E.Value : 0.0);
    Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}";
}

void Report::failOp(const std::string &What) {
  ++Failed;
  if (Problems.size() < 20)
    Problems.push_back(What);
}

void Report::mismatch(const std::string &What) {
  Mismatch = true;
  if (Problems.size() < 20)
    Problems.push_back(What);
}

//===-- Apps -------------------------------------------------------------===//

const char *bench::appName(App A) {
  switch (A) {
  case App::Hello: return "hello";
  case App::Cat: return "cat";
  case App::Wc: return "wc";
  case App::Sort: return "sort";
  case App::Proof: return "proof";
  case App::Tin: return "tin";
  }
  return "?";
}

const char *bench::appSource(App A) {
  switch (A) {
  case App::Hello: return stack::helloSource();
  case App::Cat: return stack::catSource();
  case App::Wc: return stack::wcSource();
  case App::Sort: return stack::sortSource();
  case App::Proof: return stack::proofCheckerSource();
  case App::Tin: return stack::tinCompilerSource();
  }
  return "";
}

std::vector<std::string> bench::appCommandLine(App A) {
  return {A == App::Proof ? "check" : appName(A)};
}

std::string bench::appSpec(App A, const std::string &Stdin) {
  switch (A) {
  case App::Hello: return "Hello, world!\n";
  case App::Cat: return stack::catSpec(Stdin);
  case App::Wc: return stack::wcSpec(Stdin);
  case App::Sort: return stack::sortSpec(Stdin);
  case App::Proof: return stack::proofSpec(Stdin);
  case App::Tin: return stack::tinSpec(Stdin);
  }
  return "";
}

namespace {

/// Proof-checker input: \p Blocks copies of the sample proof, ending in
/// the invalid sample when \p Invalid.
std::string proofInput(unsigned Blocks, bool Invalid) {
  std::string P;
  for (unsigned I = 0; I != Blocks; ++I)
    P += stack::sampleValidProof();
  if (Invalid)
    P += stack::sampleInvalidProof();
  return P;
}

} // namespace

std::string bench::smallInput(App A, Rng &R) {
  switch (A) {
  case App::Hello: return "";
  case App::Cat: return stack::randomLines(20 + R.below(41), R.next32());
  case App::Wc: return stack::randomLines(30 + R.below(51), R.next32());
  case App::Sort: return stack::randomLines(20 + R.below(41), R.next32());
  case App::Proof: return proofInput(1 + R.below(3), R.below(4) == 0);
  case App::Tin: return stack::sampleTinProgram(4 + R.below(9));
  }
  return "";
}

std::string bench::canonicalInput(App A) {
  switch (A) {
  case App::Hello: return "";
  case App::Cat: return stack::randomLines(50, 1);
  case App::Wc: return stack::randomLines(200, 1);
  case App::Sort: return stack::randomLines(100, 1);
  case App::Proof: return proofInput(2, false);
  case App::Tin: return stack::sampleTinProgram(5);
  }
  return "";
}

std::string bench::sourceVariant(const std::string &Source, uint64_t Tag) {
  return Source + "\nval bench_variant_" + std::to_string(Tag) + " = " +
         std::to_string(Tag % 1000) + "\n";
}

//===-- Cells and sessions -------------------------------------------------===//

const char *bench::cellName(const Cell &C) {
  switch (C.L) {
  case stack::Level::Isa:
    return C.Backend == stack::BackendKind::Jit ? "jit" : "isa";
  case stack::Level::Machine: return "machine";
  case stack::Level::Rtl: return "rtl";
  case stack::Level::Verilog:
    return C.Hdl == stack::HdlBackendKind::Compiled ? "verilog_compiled"
                                                    : "verilog";
  case stack::Level::Spec: return "spec";
  }
  return "?";
}

const char *bench::stepSpanName(const Cell &C) {
  switch (C.L) {
  case stack::Level::Isa:
    return C.Backend == stack::BackendKind::Jit ? "jit.step" : "isa.step";
  case stack::Level::Machine: return "machine.step";
  case stack::Level::Rtl: return "rtl.step";
  case stack::Level::Verilog:
    return C.Hdl == stack::HdlBackendKind::Compiled ? "hdl.compiled.step"
                                                    : "hdl.verilog.step";
  case stack::Level::Spec: return "spec.step";
  }
  return "?";
}

bool bench::countersAllowed(const Cell &C) {
  return (C.L == stack::Level::Isa || C.L == stack::Level::Machine) &&
         C.Backend == stack::BackendKind::Interp;
}

stack::RunSpec bench::makeSpec(const std::string &Source, App A,
                               const std::string &Stdin, const Cell &C) {
  stack::RunSpec S;
  S.Source = Source;
  S.CommandLine = appCommandLine(A);
  S.StdinData = Stdin;
  S.Exec.Backend = C.Backend;
  S.Exec.Hdl = C.Hdl;
  return S;
}

Result<SessionRun> bench::runSession(stack::Executor &Exec, const Cell &C,
                                     bool WithDigest, Tracer *T,
                                     uint64_t JobId) {
  SessionRun R;
  bool Hw = C.L == stack::Level::Rtl || C.L == stack::Level::Verilog;
  {
    Span S(T, Hw ? "cpu.begin" : "sys.boot", JobId);
    if (Result<void> B = Exec.begin(C.L); !B)
      return B.error();
  }
  uint64_t T0 = nowNs();
  uint64_t Cpu0 = threadCpuNs();
  Result<stack::RunStatus> St = [&] {
    Span S(T, stepSpanName(C), JobId);
    return Exec.step(UINT64_MAX);
  }();
  R.StepCpuNs = threadCpuNs() - Cpu0;
  R.StepNs = nowNs() - T0;
  if (!St)
    return St.error();
  if (WithDigest) {
    Span S(T, "stack.digest", JobId);
    Result<stack::StateDigest> D = Exec.sessionState();
    if (!D)
      return D.error();
    R.Digest = *D;
  }
  Span S(T, "stack.finish", JobId);
  Result<stack::Outcome> Out = Exec.finish();
  if (!Out)
    return Out.error();
  R.Out = Out.take();
  return R;
}

std::string bench::checkOutcome(stack::RunStatus Status,
                                const stack::Observed &B,
                                const std::string &Expected) {
  if (Status != stack::RunStatus::Completed)
    return std::string("status ") + stack::runStatusName(Status);
  if (B.ExitCode == machine::OomExitCode)
    return "took the out-of-memory exit";
  if (B.ExitCode != 0)
    return "exit code " + std::to_string(B.ExitCode);
  if (B.StdoutData != Expected)
    return "stdout differs from the spec (" +
           std::to_string(B.StdoutData.size()) + " bytes, expected " +
           std::to_string(Expected.size()) + ")";
  return "";
}

//===-- Exact counts -------------------------------------------------------===//

Result<void> Golden::load(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return Error("cannot read exact counts '" + Path + "'");
  std::stringstream Buf;
  Buf << F.rdbuf();
  std::string Text = Buf.str();
  // The file is our own --write-golden output: one "name": count pair
  // per line inside a flat object.
  size_t At = 0;
  while ((At = Text.find('"', At)) != std::string::npos) {
    size_t Close = Text.find('"', At + 1);
    size_t Colon = Close == std::string::npos ? Close : Text.find(':', Close);
    if (Colon == std::string::npos)
      return Error("malformed exact counts '" + Path + "'");
    Counts[Text.substr(At + 1, Close - At - 1)] =
        std::strtoull(Text.c_str() + Colon + 1, nullptr, 10);
    At = Text.find('\n', Colon);
  }
  if (Counts.empty())
    return Error("no exact counts in '" + Path + "'");
  return {};
}

void Golden::check(Report &R, const std::string &Name,
                   uint64_t Value) const {
  auto It = Counts.find(Name);
  if (It == Counts.end())
    R.mismatch("exact count " + Name + " is not in golden.json");
  else if (It->second != Value)
    R.mismatch("exact count " + Name + " = " + std::to_string(Value) +
               ", golden.json has " + std::to_string(It->second));
  R.Layer.update(Name, static_cast<double>(Value));
}

void bench::checkCounts(Report &R, const Golden &G,
                        const std::map<std::string, uint64_t> &Counts) {
  for (const auto &[Name, Value] : Counts)
    G.check(R, Name, Value);
  // The per-layer optimiser metrics are totals over the six apps.
  for (std::string Stat : {"cml.opt.folded_constants", "cml.opt.removed_lets",
                           "cml.opt.inlined_calls"}) {
    uint64_t Sum = 0;
    for (App A : AllApps) {
      auto It = Counts.find(Stat + "." + appName(A));
      Sum += It == Counts.end() ? 0 : It->second;
    }
    R.Layer.update(Stat, static_cast<double>(Sum));
  }
}

Result<void> bench::compileCounts(std::map<std::string, uint64_t> &Out) {
  for (App A : AllApps) {
    Result<cml::Compiled> C = cml::compileProgram(appSource(A));
    if (!C)
      return Error(std::string(appName(A)) + ": " + C.error().str());
    std::string N = appName(A);
    Out["cml.code_bytes." + N] = C->Program.size();
    Out["cml.opt.folded_constants." + N] = C->Stats.FoldedConstants;
    Out["cml.opt.removed_lets." + N] = C->Stats.RemovedLets;
    Out["cml.opt.inlined_calls." + N] = C->Stats.InlinedCalls;
  }
  return {};
}

Result<void> bench::isaCounts(std::map<std::string, uint64_t> &Out) {
  for (App A : AllApps) {
    std::string In = canonicalInput(A);
    Result<stack::Executor> E =
        stack::Executor::create(makeSpec(appSource(A), A, In, IsaCell));
    if (!E)
      return Error(std::string(appName(A)) + ": " + E.error().str());
    Result<SessionRun> R = runSession(*E, IsaCell, false, nullptr, 0);
    if (!R)
      return Error(std::string(appName(A)) + ": " + R.error().str());
    std::string Bad =
        checkOutcome(R->Out.Status, R->Out.Behaviour, appSpec(A, In));
    if (!Bad.empty())
      return Error(std::string(appName(A)) + " canonical run: " + Bad);
    Out[std::string("isa.instructions.") + appName(A)] =
        R->Out.Behaviour.Instructions;
  }
  return {};
}

std::vector<HwProgram> bench::hwPrograms(uint64_t Seed) {
  // About five lines of seeded text, cut to a fixed 96 bytes: five whole
  // random lines vary in length (and so in cycles) by 2x between seeds.
  std::string Wc = stack::randomLines(20, static_cast<unsigned>(Seed));
  Wc.resize(95);
  Wc.push_back('\n');
  return {{"hello", App::Hello, ""},
          {"wc5", App::Wc, Wc},
          {"tin2", App::Tin, stack::sampleTinProgram(2)}};
}

Result<void> bench::hwCounts(std::map<std::string, uint64_t> &Out) {
  for (const HwProgram &P : hwPrograms(1)) {
    Result<stack::Executor> E = stack::Executor::create(
        makeSpec(appSource(P.A), P.A, P.Stdin, RtlCell));
    if (!E)
      return Error(P.Name + ": " + E.error().str());
    Result<SessionRun> R = runSession(*E, RtlCell, false, nullptr, 0);
    if (!R)
      return Error(P.Name + ": " + R.error().str());
    std::string Bad =
        checkOutcome(R->Out.Status, R->Out.Behaviour, appSpec(P.A, P.Stdin));
    if (!Bad.empty())
      return Error(P.Name + " canonical rtl run: " + Bad);
    Out["cpu.instructions." + P.Name] = R->Out.Behaviour.Instructions;
    Out["cpu.cycles." + P.Name] = R->Out.Behaviour.Cycles;
  }
  return {};
}

//===-- Statistics and process facts ---------------------------------------===//

double bench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double bench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double bench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Log = 0;
  for (double X : V)
    Log += std::log(X);
  return std::exp(Log / static_cast<double>(V.size()));
}

double bench::peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double bench::procStatus(const std::string &Field) {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.compare(0, Field.size() + 1, Field + ":") == 0)
      return std::strtod(Line.c_str() + Field.size() + 1, nullptr);
  return 0;
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
}

CpuRotation::~CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof Set, &Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[At++ % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof Set, &Set); // a refusal leaves the mask as is
}

void bench::latencyMetrics(Report &R, const std::vector<OpSample> &Ops,
                           uint64_t WallNs) {
  std::vector<double> Ms;
  for (const OpSample &S : Ops)
    Ms.push_back(static_cast<double>(S.LatencyNs) * 1e-6);
  double Secs = static_cast<double>(WallNs) * 1e-9;
  R.EndToEnd.set("jobs_per_s", Secs > 0 ? Ops.size() / Secs : 0, "1/s");
  R.EndToEnd.set("job_p50_ms", quantile(Ms, 0.50), "ms");
  R.EndToEnd.set("job_p99_ms", quantile(Ms, 0.99), "ms");
  R.Context["latency_samples"] = std::to_string(Ops.size());
}

void bench::overheadMetric(Report &R, const std::vector<OpSample> &Ops) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      ByKind;
  for (const OpSample &S : Ops)
    (S.Traced ? ByKind[S.Kind].first : ByKind[S.Kind].second)
        .push_back(static_cast<double>(S.LatencyNs));
  std::vector<double> Ratios;
  for (auto &[Kind, P] : ByKind)
    if (!P.first.empty() && !P.second.empty())
      Ratios.push_back(median(P.first) / median(P.second));
  R.Layer.set("trace.overhead_pct",
              Ratios.empty() ? 0 : (geomean(Ratios) - 1) * 100, "%");
}

void bench::spanMetrics(Report &R, const Tracer &T, const Options &O) {
  std::map<std::string, Tracer::Totals> Names = T.byName();
  auto Mean = [&](const char *Span) {
    auto It = Names.find(Span);
    return It == Names.end() || It->second.Count == 0
               ? 0.0
               : static_cast<double>(It->second.Ns) * 1e-6 /
                     static_cast<double>(It->second.Count);
  };
  static const std::pair<const char *, const char *> Timed[] = {
      {"cml.compile_ms", "cml.compile"},  {"cml.parse_ms", "cml.parse"},
      {"cml.infer_ms", "cml.infer"},      {"cml.lower_ms", "cml.lower"},
      {"cml.opt_ms", "cml.opt"},          {"cml.flatten_ms", "cml.flatten"},
      {"cml.codegen_ms", "cml.codegen"},  {"asm.assemble_ms", "asm.assemble"},
      {"sys.boot_ms", "sys.boot"},        {"stack.digest_ms", "stack.digest"},
      {"stack.finish_ms", "stack.finish"}};
  for (const auto &[Metric, Span] : Timed)
    R.Layer.set(Metric, Mean(Span), "ms");
  uint64_t Jobs = std::max<uint64_t>(1, Names["job"].Count);
  for (const auto &[Layer, Ns] : T.selfNsByLayer())
    R.Layer.set("self_ms." + Layer,
                static_cast<double>(Ns) * 1e-6 / static_cast<double>(Jobs),
                "ms");

  std::string Path = O.ScratchDir + "/../spans-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (Result<void> W = T.writeChrome(Path); !W)
    R.mismatch(W.error().str());
  else
    R.Context["span_file"] = Path;
}

void bench::ffiMetrics(Report &R, const obs::Counters &C, uint64_t Runs) {
  const std::vector<std::string> &Names = ffi::BasisFfi::callNames();
  uint64_t FfiInstr = 0;
  for (size_t I = 0; I != Names.size(); ++I) {
    uint64_t Calls = I < C.Ffi.size() ? C.Ffi[I].Calls : 0;
    if (I < C.Ffi.size())
      FfiInstr += C.Ffi[I].Instructions;
    R.Layer.set("ffi.calls." + Names[I],
                Runs ? static_cast<double>(Calls) / Runs : 0, "calls/run");
  }
  R.Layer.set("ffi.instr_share",
              C.Retired ? static_cast<double>(FfiInstr) / C.Retired : 0,
              "ratio");
}

void bench::declareLayerMetrics(Report &R) {
  auto Z = [&](const std::string &Name, const char *Unit) {
    R.Layer.set(Name, 0, Unit);
  };
  for (const char *M : {"cml.compile_ms", "cml.parse_ms", "cml.infer_ms",
                        "cml.lower_ms", "cml.opt_ms", "cml.flatten_ms",
                        "cml.codegen_ms", "asm.assemble_ms", "sys.boot_ms",
                        "stack.digest_ms", "stack.finish_ms"})
    Z(M, "ms");
  for (App A : AllApps) {
    Z(std::string("cml.code_bytes.") + appName(A), "bytes");
    Z(std::string("isa.instructions.") + appName(A), "instructions");
  }
  for (const char *M : {"cml.opt.folded_constants", "cml.opt.removed_lets",
                        "cml.opt.inlined_calls"})
    Z(M, "count");
  Z("stack.prepare_cache.hit_ratio", "ratio");
  Z("stack.prepare_cache.hits", "count");
  Z("stack.prepare_cache.misses", "count");
  for (const char *P : {"wc", "sort", "tin"}) {
    for (const char *L : {"isa", "jit", "machine"})
      Z(std::string(L) + ".minstr_per_s." + P, "Minstr/s");
    Z(std::string("jit.speedup.") + P, "x");
  }
  for (const char *L : {"isa", "jit", "machine"})
    Z(std::string(L) + "_minstr_per_s", "Minstr/s");
  for (const char *L :
       {"isa", "jit", "machine", "rtl", "verilog", "verilog_compiled"}) {
    Z(std::string(L) + ".step_cpu_ms", "ms");
    Z(std::string(L) + ".step_wall_ms", "ms");
  }
  for (const std::string &N : ffi::BasisFfi::callNames())
    Z("ffi.calls." + N, "calls/run");
  Z("ffi.instr_share", "ratio");
  for (const HwProgram &P : hwPrograms(1)) {
    Z("cpu.cycles." + P.Name, "cycles");
    Z("cpu.instructions." + P.Name, "instructions");
    Z("cpu.cpi." + P.Name, "cycles/instr");
    Z("rtl.kcycles_per_s." + P.Name, "kcycles/s");
    Z("hdl.verilog.kcycles_per_s." + P.Name, "kcycles/s");
    Z("hdl.compiled.kcycles_per_s." + P.Name, "kcycles/s");
  }
  for (const char *L : {"rtl", "verilog", "verilog_compiled"})
    Z(std::string(L) + "_kcycles_per_s", "kcycles/s");
  Z("hdl.compiled.build_s", "s");
  Z("svc.queue_depth_mean", "jobs");
  Z("svc.service_p50_ms", "ms");
  Z("svc.service_p99_ms", "ms");
  Z("svc.rejected", "count");
  Z("svc.failed", "count");
  Z("svc.threads_end", "threads");
  Z("svc.vmsize_mb_end", "MB");
  Z("error_rate", "ratio");
  Z("trace.overhead_pct", "%");
  for (const char *L : {"job", "cml", "asm", "sys", "stack", "isa", "jit",
                        "machine", "cpu", "rtl", "hdl", "svc"})
    Z(std::string("self_ms.") + L, "ms");
}
