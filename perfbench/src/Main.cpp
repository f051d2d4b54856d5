//===- perfbench/src/Main.cpp - silverbench entry point --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// silverbench --workload W --seed N --seconds S --trace 0|1
//             --scratch DIR --golden FILE
// silverbench --write-golden
//
// Runs one workload (serve, oneshot, longrun, cyclesim) and prints, as
// its last stdout line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Untraced runs report the end-to-end metrics,
// traced runs the per-layer ones.  Before the workload, every run checks
// the committed exact counts (golden.json): code bytes and optimiser
// statistics of the six apps and their instruction counts on fixed
// inputs, plus the cycle counts of the hardware programs on cyclesim.
// Any failed operation or count mismatch exits 1.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <thread>

using namespace bench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: silverbench --workload serve|oneshot|longrun|cyclesim "
               "--seed N --seconds S --trace 0|1 --scratch DIR --golden "
               "FILE\n       silverbench --write-golden\n");
  return 2;
}

Result<std::map<std::string, uint64_t>> exactCounts(bool Hardware) {
  std::map<std::string, uint64_t> C;
  if (Result<void> R = compileCounts(C); !R)
    return R.error();
  if (Result<void> R = isaCounts(C); !R)
    return R.error();
  if (Hardware)
    if (Result<void> R = hwCounts(C); !R)
      return R.error();
  return C;
}

int writeGolden() {
  Result<std::map<std::string, uint64_t>> C = exactCounts(true);
  if (!C) {
    std::fprintf(stderr, "silverbench: %s\n", C.error().str().c_str());
    return 1;
  }
  std::printf("{\n");
  size_t I = 0;
  for (const auto &[Name, Value] : *C)
    std::printf("  \"%s\": %llu%s\n", Name.c_str(),
                static_cast<unsigned long long>(Value),
                ++I == C->size() ? "" : ",");
  std::printf("}\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--write-golden")
      return writeGolden();
    if (I + 1 == Argc)
      return usage();
    std::string V = Argv[++I];
    try {
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--seed")
        O.Seed = std::stoull(V);
      else if (A == "--seconds")
        O.Seconds = std::stod(V);
      else if (A == "--trace") {
        O.Trace = V == "1";
        HaveTrace = V == "0" || V == "1";
      } else if (A == "--scratch")
        O.ScratchDir = V;
      else if (A == "--golden")
        O.GoldenPath = V;
      else
        return usage();
    } catch (...) {
      return usage();
    }
  }
  void (*Run)(const Options &, Report &) =
      O.Workload == "serve"      ? runServe
      : O.Workload == "oneshot"  ? runOneshot
      : O.Workload == "longrun"  ? runLongrun
      : O.Workload == "cyclesim" ? runCyclesim
                                 : nullptr;
  if (!Run || !HaveTrace || O.Seconds <= 0 || O.ScratchDir.empty() ||
      O.GoldenPath.empty())
    return usage();

  Golden G;
  if (Result<void> L = G.load(O.GoldenPath); !L) {
    std::fprintf(stderr, "silverbench: %s\n", L.error().str().c_str());
    return 2;
  }

  Report R;
  declareLayerMetrics(R);
  R.Context["workload"] = O.Workload;
  R.Context["seed"] = std::to_string(O.Seed);
  R.Context["seconds"] = std::to_string(O.Seconds);
  R.Context["trace"] = O.Trace ? "1" : "0";
  R.Context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  R.Context["build_type"] = SILVERBENCH_BUILD_TYPE;

  // The exact counts first: a simulator or compiler change that moves a
  // simulated statistic fails here, before anything is timed.
  bool Hardware = O.Workload == "cyclesim";
  Result<std::map<std::string, uint64_t>> Counts = exactCounts(Hardware);
  if (!Counts)
    R.mismatch("exact counts: " + Counts.error().str());
  else {
    checkCounts(R, G, *Counts);
    if (Hardware)
      for (const HwProgram &P : hwPrograms(1)) {
        double Instr =
            static_cast<double>((*Counts)["cpu.instructions." + P.Name]);
        R.Layer.set("cpu.cpi." + P.Name,
                    Instr ? (*Counts)["cpu.cycles." + P.Name] / Instr : 0,
                    "cycles/instr");
      }
  }
  if (R.correct())
    Run(O, R);

  R.Layer.set("error_rate",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0,
              "ratio");
  R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");
  for (const char *M : {"setup_s", "jobs_per_s", "job_p50_ms", "job_p99_ms",
                        "minstr_per_s", "peak_rss_mb"})
    if (!R.EndToEnd.has(M))
      R.mismatch(std::string("metric ") + M + " was not measured");
  if (R.Attempted == 0) { // the run itself is the one failed operation
    R.Attempted = 1;
    R.failOp("no operation ran");
  }

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "silverbench: %s\n", P.c_str());
  std::string Ctx = "{\"context\": {";
  size_t I = 0;
  for (const auto &[K, V] : R.Context)
    Ctx += (I++ ? ", \"" : "\"") + K + "\": \"" + V + "\"";
  std::printf("%s}}\n", Ctx.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.correct() ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              (O.Trace ? R.Layer : R.EndToEnd).json().c_str());
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}
