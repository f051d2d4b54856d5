//===- bench/bench_verilog.cpp - E6: the Verilog semantics' cost ---------------===//
//
// Measures the three executions of the same hardware: the circuit-IR
// interpreter (layer 3), hdl::FastSim (the Verilog simulator that runs
// the module as an instruction tape), and the reference operational semantics with its
// per-cycle non-blocking queue (verilog_sem, §3) — on the paper's AB
// example and on the Silver core.  The reference/FastSim gap is the
// price of the standard-faithful queue-and-merge evaluation strategy.
//
//===----------------------------------------------------------------------===//

#include "cpu/Core.h"
#include "hdl/FastSim.h"
#include "rtl/ToVerilog.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace silver;

namespace {

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

/// Dense-frame ordinal of input port \p Name (stepDense order).
size_t inputOrdinal(const hdl::ModuleSim &Sim, const std::string &Name) {
  for (size_t K = 0; K != Sim.numInputs(); ++K)
    if (Sim.inputName(K) == Name)
      return K;
  return Sim.numInputs();
}

std::map<std::string, uint64_t> coreInputs() {
  return {{"mem_rdata", 0},
          {"mem_ready", 0},
          {"mem_start_ready", 0},
          {"interrupt_ack", 0},
          {"data_in", 0}};
}

void BM_AB_CircuitInterp(benchmark::State &State) {
  rtl::Circuit C = makeAB();
  rtl::CircuitState S = rtl::CircuitState::init(C);
  Rng R(1);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    std::map<std::string, uint64_t> In{{"pulse", R.below(2)}};
    benchmark::DoNotOptimize(rtl::stepCircuit(C, S, In, nullptr));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AB_CircuitInterp);

void BM_AB_VerilogReference(benchmark::State &State) {
  rtl::Circuit C = makeAB();
  Result<hdl::VModule> M = rtl::toVerilog(C);
  if (!M) {
    State.SkipWithError("codegen failed");
    return;
  }
  hdl::SimState S = hdl::SimState::init(*M);
  Rng R(1);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    std::map<std::string, hdl::VValue> In{
        {"pulse", hdl::VValue::vec(1, R.below(2))}};
    benchmark::DoNotOptimize(hdl::stepCycle(*M, S, In));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AB_VerilogReference);

void BM_AB_VerilogFastSim(benchmark::State &State) {
  rtl::Circuit C = makeAB();
  Result<hdl::VModule> M = rtl::toVerilog(C);
  if (!M) {
    State.SkipWithError("codegen failed");
    return;
  }
  Result<std::unique_ptr<hdl::FastSim>> Sim = hdl::FastSim::compile(*M);
  if (!Sim) {
    State.SkipWithError("elaboration failed");
    return;
  }
  std::vector<uint64_t> In((*Sim)->numInputs(), 0);
  size_t Pulse = inputOrdinal(**Sim, "pulse");
  if (Pulse == In.size()) {
    State.SkipWithError("no pulse input");
    return;
  }
  Rng R(1);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    In[Pulse] = R.below(2);
    benchmark::DoNotOptimize((*Sim)->stepDense(In.data(), In.size()));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AB_VerilogFastSim);

void BM_Silver_CircuitInterp(benchmark::State &State) {
  cpu::SilverCore Core = cpu::buildSilverCore();
  rtl::CircuitState S = rtl::CircuitState::init(Core.Circuit);
  auto In = coreInputs();
  uint64_t Cycles = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        rtl::stepCircuit(Core.Circuit, S, In, nullptr));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
  State.counters["Nodes"] = static_cast<double>(Core.Circuit.Nodes.size());
}
BENCHMARK(BM_Silver_CircuitInterp);

void BM_Silver_VerilogReference(benchmark::State &State) {
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<hdl::VModule> M = rtl::toVerilog(Core.Circuit);
  if (!M) {
    State.SkipWithError("codegen failed");
    return;
  }
  hdl::SimState S = hdl::SimState::init(*M);
  std::map<std::string, hdl::VValue> In;
  for (const auto &[Name, V] : coreInputs())
    In[Name] = hdl::VValue::vec(Name == "mem_rdata" || Name == "data_in"
                                    ? 32
                                    : 1,
                                V);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(hdl::stepCycle(*M, S, In));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Silver_VerilogReference);

void BM_Silver_VerilogFastSim(benchmark::State &State) {
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<hdl::VModule> M = rtl::toVerilog(Core.Circuit);
  if (!M) {
    State.SkipWithError("codegen failed");
    return;
  }
  Result<std::unique_ptr<hdl::FastSim>> Sim = hdl::FastSim::compile(*M);
  if (!Sim) {
    State.SkipWithError("elaboration failed");
    return;
  }
  // Every core input held at 0, as in the other Silver rows.
  std::vector<uint64_t> In((*Sim)->numInputs(), 0);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize((*Sim)->stepDense(In.data(), In.size()));
    ++Cycles;
  }
  State.counters["CyclesPerSec"] = benchmark::Counter(
      static_cast<double>(Cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Silver_VerilogFastSim);

} // namespace

BENCHMARK_MAIN();
