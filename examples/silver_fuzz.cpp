//===- examples/silver_fuzz.cpp - Differential conformance fuzzer CLI -------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// silver-fuzz generates random well-formed Silver programs, runs each
// one at several Figure-1 levels (machine_sem's interference oracle,
// the ISA interpreter with real system calls, the circuit-level core,
// and optionally the generated Verilog, the JIT and the compiled
// simulator), and reports any divergence as a minimized reproducer.
// Exit code 0 = all runs agreed on every case, 1 = divergences found,
// 2 = usage or internal error.
//
//   silver-fuzz --seed=7 --max-cases=500 --jobs=4
//   silver-fuzz --levels=machine,rtl,jit,verilog-compiled --shrink=0
//   silver-fuzz --corpus=tests/fuzz/corpus            # replay, then fuzz
//   silver-fuzz --time-budget=60 --corpus-out=findings/
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "stack/Stack.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

using namespace silver;

namespace {

/// Formats N/Seconds with an SI suffix: "12.4M", "310.5k", "87.0".
std::string rate(uint64_t N, double Seconds) {
  double R = static_cast<double>(N) / Seconds;
  const char *Suffix = "";
  if (R >= 1e9) {
    R /= 1e9;
    Suffix = "G";
  } else if (R >= 1e6) {
    R /= 1e6;
    Suffix = "M";
  } else if (R >= 1e3) {
    R /= 1e3;
    Suffix = "k";
  }
  std::ostringstream Out;
  Out << std::fixed << std::setprecision(1) << R << Suffix;
  return Out.str();
}

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --seed=N          campaign seed (default 1)\n"
      << "  --jobs=N          worker threads (default: hardware threads)\n"
      << "  --max-cases=N     cases to generate (default 256)\n"
      << "  --time-budget=S   stop after S seconds (best-effort prefix)\n"
      << "  --levels=a,b,..   runs to compare (machine, isa, jit, rtl,\n"
      << "                    verilog, verilog-compiled; default\n"
      << "                    machine,rtl).  Interpreted runs are compared\n"
      << "                    against the ISA reference; jit (the ISA on\n"
      << "                    the JIT backend) and verilog-compiled (the\n"
      << "                    generated Verilog on the compiled simulator)\n"
      << "                    exactly against the interpreted run at\n"
      << "                    their level, which is added if not listed\n"
      << "  --profiles=a,b,.. program shapes (alu, branchy, loadstore,\n"
      << "                    ffi, mixed; default all)\n"
      << "  --max-steps=N     ISA instruction budget per case\n"
      << "  --shrink=0|1      minimize findings (default 1)\n"
      << "  --corpus=DIR      replay DIR/*.s as regression tests first;\n"
      << "                    replay failures fail the run\n"
      << "  --corpus-out=DIR  write minimized reproducers to DIR\n";
  return 2;
}

bool parseLevels(const std::string &Arg, std::vector<fuzz::Run> &Out) {
  Out.clear();
  std::istringstream In(Arg);
  std::string Name;
  while (std::getline(In, Name, ',')) {
    fuzz::Run R;
    if (!fuzz::parseRun(Name, R))
      return false;
    Out.push_back(R);
  }
  return !Out.empty();
}

bool parseProfiles(const std::string &Arg, std::vector<fuzz::Profile> &Out) {
  Out.clear();
  std::istringstream In(Arg);
  std::string Name;
  while (std::getline(In, Name, ',')) {
    fuzz::Profile P;
    if (!fuzz::parseProfile(Name, P))
      return false;
    Out.push_back(P);
  }
  return !Out.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  fuzz::FuzzOptions Opt;
  Opt.Jobs = std::max(1u, std::thread::hardware_concurrency());
  Opt.Log = &std::cout;
  std::string ReplayDir;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) == 0)
        return Arg.c_str() + Len;
      return nullptr;
    };
    try {
      if (const char *V = Value("--seed="))
        Opt.Seed = std::stoull(V, nullptr, 0);
      else if (const char *V = Value("--jobs="))
        Opt.Jobs = static_cast<unsigned>(std::stoul(V));
      else if (const char *V = Value("--max-cases="))
        Opt.MaxCases = std::stoull(V);
      else if (const char *V = Value("--time-budget="))
        Opt.TimeBudgetSeconds = std::stod(V);
      else if (const char *V = Value("--max-steps="))
        Opt.Oracle.MaxSteps = std::stoull(V);
      else if (const char *V = Value("--levels=")) {
        if (!parseLevels(V, Opt.Oracle.Levels))
          return usage(Argv[0]);
      } else if (const char *V = Value("--profiles=")) {
        if (!parseProfiles(V, Opt.Profiles))
          return usage(Argv[0]);
      } else if (const char *V = Value("--shrink="))
        Opt.Shrink = std::string(V) != "0";
      else if (const char *V = Value("--corpus="))
        ReplayDir = V;
      else if (const char *V = Value("--corpus-out="))
        Opt.CorpusDir = V;
      else
        return usage(Argv[0]);
    } catch (...) {
      return usage(Argv[0]);
    }
  }

  const std::vector<fuzz::Run> &Runs = Opt.Oracle.Levels;
  if (std::find(Runs.begin(), Runs.end(),
                fuzz::Run(stack::Level::Isa, stack::BackendKind::Jit)) !=
          Runs.end() &&
      !stack::backendSupported(stack::BackendKind::Jit))
    std::cerr << "silver-fuzz: warning: the jit backend is not supported on "
                 "this host; the jit run steps with the interpreter\n";

  bool ReplayFailed = false;
  if (!ReplayDir.empty()) {
    std::vector<fuzz::ReplayFailure> Failures =
        fuzz::replayCorpus(ReplayDir, Opt.Oracle, &std::cout);
    for (const fuzz::ReplayFailure &F : Failures)
      std::cout << "replay FAILED: " << F.Path << ": " << F.Reason << "\n";
    ReplayFailed = !Failures.empty();
  }

  std::cout << "fuzzing: seed=" << Opt.Seed << " cases=" << Opt.MaxCases
            << " jobs=" << Opt.Jobs << "\n";
  fuzz::FuzzReport Report = fuzz::runFuzz(Opt);

  std::cout << "ran " << Report.CasesRun << " cases ("
            << Report.Inconclusive << " inconclusive, " << Report.CaseErrors
            << " errors): " << Report.Findings.size() << " divergences\n";
  if (Report.WallSeconds > 0) {
    std::cout << "throughput: " << std::fixed << std::setprecision(2)
              << Report.WallSeconds << " s, "
              << rate(Report.CasesRun, Report.WallSeconds) << " cases/s\n";
    for (const fuzz::LevelWork &W : Report.Work) {
      std::cout << "  " << fuzz::runName(W.Which) << ": " << W.Instructions
                << " instrs (" << rate(W.Instructions, Report.WallSeconds)
                << " instrs/s)";
      if (W.Cycles != 0)
        std::cout << ", " << W.Cycles << " cycles ("
                  << rate(W.Cycles, Report.WallSeconds) << " cycles/s)";
      std::cout << "\n";
    }
  }
  for (const fuzz::Finding &F : Report.Findings) {
    std::cout << "--- case " << F.Case.Index << " ("
              << fuzz::profileName(F.Case.P) << "), shrunk from "
              << F.Case.Items.size() << " to " << F.Shrunk.Items.size()
              << " items in " << F.ShrinkAttempts << " attempts\n"
              << fuzz::serializeCase(F.Shrunk, &F.ShrunkDiff);
  }
  if (!Opt.CorpusDir.empty() && !Report.Findings.empty())
    std::cout << "reproducers written to " << Opt.CorpusDir << "\n";

  if (Report.CaseErrors > 0)
    return 2;
  return (!Report.Findings.empty() || ReplayFailed) ? 1 : 0;
}
