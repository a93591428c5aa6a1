// Microbenchmarks (google-benchmark) for the substrates the compaction
// method stands on: bit-parallel logic simulation, PPSFP fault simulation,
// GPU-model execution, PODEM pattern generation, and the end-to-end
// five-stage compaction. These quantify the "one logic + one fault
// simulation" cost argument in engineering units (patterns/s, instr/s).
#include <benchmark/benchmark.h>

#include <string>

#include "atpg/podem.h"
#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "compact/compactor.h"
#include "fault/faultsim.h"
#include "gpu/sm.h"
#include "netlist/logicsim.h"
#include "stl/atpg_convert.h"
#include "stl/generators.h"
#include "trace/trace.h"

namespace gpustl {
namespace {

const netlist::Netlist& Du() {
  static const netlist::Netlist nl = circuits::BuildDecoderUnit();
  return nl;
}
const netlist::Netlist& Sp() {
  static const netlist::Netlist nl = circuits::BuildSpCore();
  return nl;
}
const netlist::Netlist& Sfu() {
  static const netlist::Netlist nl = circuits::BuildSfu();
  return nl;
}

netlist::PatternSet RandomDuPatterns(std::size_t count) {
  Rng rng(1);
  netlist::PatternSet pats(64);
  for (std::size_t i = 0; i < count; ++i) pats.Add64(i, rng());
  return pats;
}

netlist::PatternSet RandomSfuPatterns(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  netlist::PatternSet pats(circuits::kSfuNumInputs);
  for (std::size_t i = 0; i < count; ++i) {
    pats.Add64(static_cast<std::uint64_t>(i),
               circuits::EncodeSfuPattern(static_cast<int>(rng.below(6)),
                                          static_cast<std::uint32_t>(rng())));
  }
  return pats;
}

void BM_LogicSimDu(benchmark::State& state) {
  const auto pats = RandomDuPatterns(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    netlist::BitSimulator sim(Du());
    std::uint64_t acc = 0;
    for (std::size_t base = 0; base < pats.size(); base += 64) {
      sim.LoadBlock(pats, base);
      sim.Eval();
      acc ^= sim.OutputWord(0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogicSimDu)->Arg(1024)->Arg(8192);

void BM_FaultSimDu(benchmark::State& state) {
  const auto pats = RandomDuPatterns(static_cast<std::size_t>(state.range(0)));
  const auto faults = fault::CollapsedFaultList(Du());
  for (auto _ : state) {
    const auto res = fault::RunFaultSim(Du(), pats, faults);
    benchmark::DoNotOptimize(res.num_detected);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSimDu)->Arg(1024)->Arg(4096);

void BM_FaultSimSfuNoDropping(benchmark::State& state) {
  const auto pats = RandomSfuPatterns(512, 2);
  const auto faults = fault::CollapsedFaultList(Sfu());
  for (auto _ : state) {
    const auto res = fault::RunFaultSim(Sfu(), pats, faults, nullptr,
                                        {.drop_detected = false});
    benchmark::DoNotOptimize(res.num_detected);
  }
}
BENCHMARK(BM_FaultSimSfuNoDropping);

/// The PTP each GPU-execution bench runs, by arg: 0 = IMM (its module is
/// the DU), 1 = RAND (SP), 2 = an SFU_IMM-style PTP (SFU).
struct ModulePtp {
  trace::TargetModule module;
  isa::Program ptp;
};

ModulePtp PtpForModuleArg(std::int64_t arg) {
  switch (arg) {
    case 0:
      return {trace::TargetModule::kDecoderUnit, stl::GenerateImm(100, 3)};
    case 1:
      return {trace::TargetModule::kSpCore, stl::GenerateRand(100, 3)};
    default:
      return {trace::TargetModule::kSfu,
              stl::ConvertSfuPatterns(RandomSfuPatterns(256, 3))};
  }
}

/// A bare run (no monitor) of the PTP the traced bench below runs with the
/// same arg: the two together split dispatch from capture per module.
void BM_GpuExecution(benchmark::State& state) {
  const ModulePtp mp = PtpForModuleArg(state.range(0));
  for (auto _ : state) {
    gpu::Sm sm;
    const auto res = sm.Run(mp.ptp);
    benchmark::DoNotOptimize(res.total_cycles);
  }
  state.SetLabel(std::string(trace::TargetModuleName(mp.module)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mp.ptp.size()));
}
BENCHMARK(BM_GpuExecution)->Arg(0)->Arg(1)->Arg(2);

/// A traced run as the compactor makes it (Tracing Report + one module's
/// pattern probe), on a PTP that drives that module (args as above). The
/// per-lane capture cost shows only on modules fed by every active lane
/// (SP, SFU).
void BM_GpuExecutionWithMonitors(benchmark::State& state) {
  const ModulePtp mp = PtpForModuleArg(state.range(0));
  std::size_t patterns = 0;
  for (auto _ : state) {
    trace::TraceRecorder recorder;
    trace::PatternProbe probe(mp.module);
    gpu::Sm sm;
    sm.AddMonitor(&recorder);
    sm.AddMonitor(&probe);
    const auto res = sm.Run(mp.ptp);
    benchmark::DoNotOptimize(res.total_cycles);
    patterns = probe.patterns().size();
    benchmark::DoNotOptimize(patterns);
  }
  state.SetLabel(std::string(trace::TargetModuleName(mp.module)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(patterns));
  state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_GpuExecutionWithMonitors)->Arg(0)->Arg(1)->Arg(2);

void BM_PodemPerFault(benchmark::State& state) {
  const auto faults = fault::CollapsedFaultList(Sp());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto res =
        atpg::GeneratePattern(Sp(), faults[i % faults.size()]);
    benchmark::DoNotOptimize(res.status);
    i += 97;
  }
}
BENCHMARK(BM_PodemPerFault);

void BM_CompactPtpEndToEnd(benchmark::State& state) {
  const isa::Program ptp =
      stl::GenerateImm(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    compact::Compactor compactor(Du(), trace::TargetModule::kDecoderUnit);
    const auto res = compactor.CompactPtp(ptp);
    benchmark::DoNotOptimize(res.result.size_instr);
  }
}
BENCHMARK(BM_CompactPtpEndToEnd)->Arg(20)->Arg(60);

void BM_LabelingJoin(benchmark::State& state) {
  const isa::Program ptp = stl::GenerateImm(60, 5);
  trace::TraceRecorder recorder;
  trace::PatternProbe probe(trace::TargetModule::kDecoderUnit);
  gpu::Sm sm;
  sm.AddMonitor(&recorder);
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  const auto faults = fault::CollapsedFaultList(Du());
  const auto report = fault::RunFaultSim(Du(), probe.patterns(), faults);
  for (auto _ : state) {
    const auto labels = compact::LabelInstructions(ptp, recorder.report(),
                                                   probe.patterns(), report);
    benchmark::DoNotOptimize(labels.size());
  }
}
BENCHMARK(BM_LabelingJoin);

void BM_CollapseFaults(benchmark::State& state) {
  for (auto _ : state) {
    const auto faults = fault::CollapsedFaultList(Sp());
    benchmark::DoNotOptimize(faults.size());
  }
}
BENCHMARK(BM_CollapseFaults);

}  // namespace
}  // namespace gpustl

BENCHMARK_MAIN();
