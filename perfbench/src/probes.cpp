// Per-layer probes: direct calls into each layer's public functions on the
// STL's own captured patterns, each inside a span.
#include <algorithm>
#include <filesystem>

#include "atpg/podem.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/replay.h"
#include "gpu/sm.h"
#include "harness.h"
#include "netlist/logicsim.h"
#include "stl/atpg_convert.h"
#include "store/fingerprint.h"
#include "store/result_store.h"
#include "trace/trace.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gpustl::BitVec;
using gpustl::netlist::PatternSet;
using gpustl::trace::TargetModule;

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  const std::int64_t t0 = NowNs();
  {
    Span span(name);
    fn();
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

}  // namespace

void RunProbes(const Config& config, const Modules& modules,
               const std::vector<gpustl::compact::PlanEntry>& plan,
               Result& out) {
  Span root("bench.probes", "probes");
  auto& v = out.values;
  // What the workload measured so far came from its traced operations.
  for (const auto& [name, value] : v) out.counts.try_emplace(name, out.ops);

  // gpu + trace: one traced logic simulation per PTP, monitors attached as
  // the compactor attaches them.
  struct Captured {
    const gpustl::compact::PlanEntry* pe;
    PatternSet patterns;  // in stage-3 order
  };
  std::vector<Captured> captured;
  double gpu_s = 0.0;
  double cycles = 0.0;
  double patterns = 0.0;
  for (const auto& pe : plan) {
    gpustl::trace::TraceRecorder recorder;
    gpustl::trace::PatternProbe probe(pe.entry.target);
    gpustl::gpu::Sm sm;
    sm.AddMonitor(&recorder);
    sm.AddMonitor(&probe);
    gpustl::gpu::RunResult run;
    gpu_s += Timed("gpu.run", [&] { run = sm.Run(pe.entry.ptp); });
    cycles += static_cast<double>(run.total_cycles);
    patterns += static_cast<double>(probe.patterns().size());
    if (pe.entry.compactable) {
      captured.push_back({&pe, pe.entry.reverse_patterns
                                   ? probe.patterns().Reversed()
                                   : probe.patterns()});
    }
  }
  v["gpu.run_s"] = gpu_s;
  v["gpu.sim_cc_per_s"] = cycles / gpu_s;
  v["trace.patterns"] = patterns;

  // netlist: good-machine simulation of every captured set, 64 patterns a
  // block.
  double sim_patterns = 0.0;
  const double good_s = Timed("netlist.good_sim", [&] {
    for (const Captured& c : captured) {
      gpustl::netlist::BitSimulator sim(modules.For(c.pe->entry.target));
      for (std::size_t first = 0; first < c.patterns.size(); first += 64) {
        sim.LoadBlock(c.patterns, first);
        sim.Eval();
      }
      sim_patterns += static_cast<double>(c.patterns.size());
    }
  });
  v["netlist.good_sim_s"] = good_s;
  v["netlist.patterns_per_s"] = sim_patterns / good_s;

  // fault: stage 3 of every compactable entry, skip masks chained in STL
  // order per module exactly as the campaign chains them.
  const auto options_for = [&](TargetModule t, int threads) {
    gpustl::fault::FaultSimOptions o;
    o.num_threads = threads;
    o.collapse_plan = &modules.PrepFor(t).collapse;
    return o;
  };
  std::map<TargetModule, BitVec> detected;
  std::vector<std::pair<BitVec, gpustl::fault::FaultSimResult>> stage3;
  double fault_s = 0.0;
  double fault_patterns = 0.0;
  for (const Captured& c : captured) {
    const TargetModule t = c.pe->entry.target;
    const auto& faults = modules.PrepFor(t).faults;
    BitVec& mask = detected.try_emplace(t, faults.size()).first->second;
    const BitVec skip = mask;
    gpustl::fault::FaultSimResult r;
    fault_s += Timed("fault.sim", [&] {
      r = gpustl::fault::RunFaultSim(modules.For(t), c.patterns, faults, &skip,
                                     options_for(t, config.threads));
    });
    fault_patterns += static_cast<double>(c.patterns.size()) *
                      static_cast<double>(faults.size() - skip.Count());
    mask |= r.detected_mask;
    stage3.emplace_back(skip, std::move(r));
  }
  v["fault.sim_s"] = fault_s;
  v["fault.fault_patterns_per_s"] = fault_patterns / fault_s;

  // Full SP list on TPGEN's patterns at 1 and 4 threads, one 64-pattern
  // block (an ATPG-sized call), and a replay over the full result.
  const Captured& tpgen = captured[3];
  const auto& sp_faults = modules.preps.sp->faults;
  gpustl::fault::FaultSimResult full;
  const double t1 = Timed("fault.full_list_t1", [&] {
    full = gpustl::fault::RunFaultSim(modules.sp, tpgen.patterns, sp_faults,
                                      nullptr,
                                      options_for(TargetModule::kSpCore, 1));
  });
  const double t4 = Timed("fault.full_list_t4", [&] {
    full = gpustl::fault::RunFaultSim(modules.sp, tpgen.patterns, sp_faults,
                                      nullptr,
                                      options_for(TargetModule::kSpCore, 4));
  });
  v["fault.full_list_t1_s"] = t1;
  v["fault.full_list_t4_s"] = t4;
  v["fault.scaling_4t"] = t1 / t4;

  PatternSet block(tpgen.patterns.width());
  for (std::size_t p = 0; p < std::min<std::size_t>(64, tpgen.patterns.size());
       ++p) {
    block.Add(tpgen.patterns.cc(p), tpgen.patterns.Row(p));
  }
  std::vector<double> small;
  for (int i = 0; i < 9; ++i) {
    small.push_back(Timed("fault.small_call", [&] {
      gpustl::fault::RunFaultSim(modules.sp, block, sp_faults, nullptr,
                                 options_for(TargetModule::kSpCore, 1));
    }));
  }
  std::nth_element(small.begin(), small.begin() + 4, small.end());
  v["fault.small_call_ms"] = small[4] * 1e3;

  // RAND's skip mask (TPGEN's detections) over TPGEN's full result.
  const BitVec& rand_skip = stage3[4].first;
  v["fault.replay_s"] = Timed("fault.replay", [&] {
    gpustl::fault::GoodBlockCache good(modules.sp, tpgen.patterns);
    gpustl::fault::ReplaySkipFromFull(modules.sp, sp_faults, full, rand_skip,
                                      good);
  });

  // store: write then read back every stage-3 result in a scratch store.
  const std::string store_dir = config.work_dir + "/probe-store";
  std::filesystem::remove_all(store_dir);
  {
    gpustl::store::ResultStore store(store_dir);
    std::vector<gpustl::store::StoreKey> keys;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const TargetModule t = captured[i].pe->entry.target;
      keys.push_back(gpustl::store::FaultSimKeyWith(
          modules.For(t), captured[i].patterns, modules.PrepFor(t).faults_fp,
          &stage3[i].first, true, gpustl::store::SimModel::kStuckAt));
    }
    v["store.put_s"] = Timed("store.put", [&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        store.Store(keys[i], stage3[i].second);
      }
    });
    v["store.get_s"] = Timed("store.get", [&] {
      for (const auto& key : keys) {
        if (!store.Load(key)) out.Fail("probe: stored fault result missing");
      }
    });
    const auto s = store.stats();
    v.try_emplace("store.hits", static_cast<double>(s.hits));
    v.try_emplace("store.misses", static_cast<double>(s.misses));
    v.try_emplace("store.hit_pct", s.hit_rate_percent());
    v.try_emplace("store.bytes_read", static_cast<double>(s.bytes_read));
    v.try_emplace("store.bytes_written", static_cast<double>(s.bytes_written));
    v.try_emplace("store.bad_entries", static_cast<double>(s.bad_entries));
  }
  std::filesystem::remove_all(store_dir);

  // atpg: PODEM alone on a fixed sample of SP faults.
  constexpr std::size_t kPodemSample = 64;
  const std::size_t stride = sp_faults.size() / kPodemSample;
  const auto atpg_options = TpgenAtpgOptions();
  const double podem_s = Timed("atpg.podem", [&] {
    for (std::size_t i = 0; i < kPodemSample; ++i) {
      gpustl::atpg::GeneratePattern(modules.sp, sp_faults[i * stride],
                                    atpg_options);
    }
  });
  v["atpg.podem_ms_per_fault"] = podem_s * 1e3 / kPodemSample;

  // The layers the workload itself does not reach, on a two-entry plan
  // (CNTRL compacted, a remainder PTP carried), so that every layer metric
  // is measured on every workload.
  const std::vector<gpustl::compact::PlanEntry> mini = {plan[2], plan[7]};
  if (v.count("compact.fault_sim_s") == 0) {
    gpustl::compact::CompactorOptions options;
    options.num_threads = config.threads;
    const CampaignRun run =
        RunCampaign(modules, mini, options, "probe-compact");
    StageMetrics(Tracer::Get().Spans(), 1.0,
                 [](const std::string& req) { return req == "probe-compact"; },
                 out);
    v.try_emplace("fault.trim_blocks_replayed",
                  static_cast<double>(run.summary.trim_blocks_replayed));
    v.try_emplace("fault.trim_faults_early_exited",
                  static_cast<double>(run.summary.trim_faults_early_exited));
    v.try_emplace("fault.trim_warm_hits",
                  static_cast<double>(run.summary.trim_warm_hits));
  }
  if (v.count("distrib.wave1_s") == 0) {
    const auto& counter = gpustl::fault::GlobalReplayCounters().replays;
    const std::uint64_t replays0 = counter.load();
    const DistribRun run =
        RunDistrib(modules, mini, config.work_dir + "/probe-distrib", 2,
                   config.threads, "probe-distrib");
    DistribMetrics({run}, out);
    v.try_emplace("fault.replays",
                  static_cast<double>(counter.load() - replays0));
  }
  if (v.count("service.run_ms") == 0) {
    Daemon daemon;
    daemon.Start(config, config.work_dir + "/probe-service-cache",
                 config.work_dir + "/probe-gpustld");
    gpustl::net::NetChannel channel(daemon.Channel());
    std::string error;
    const std::int64_t c0 = NowNs();
    if (!channel.EnsureConnected(&error)) throw gpustl::Error(error);
    v["net.connect_ms"] = static_cast<double>(NowNs() - c0) * 1e-6;
    std::vector<gpustl::service::Json> entries;
    for (const auto& pe : mini) entries.push_back(EntryJson(pe));
    const JobTrace job =
        SubmitJob(channel, SubmitRequest(std::move(entries), "probe", -1));
    RecordJobSpans(job, root.id());
    daemon.Stop();
    if (job.outcome != "complete" || job.queued == 0 || job.admitted == 0) {
      out.Fail("probe: daemon job ended " + job.outcome);
    } else {
      v["net.submit_ack_ms"] =
          static_cast<double>(job.queued - job.submit) * 1e-6;
      v["service.queue_wait_ms"] =
          static_cast<double>(job.admitted - job.queued) * 1e-6;
      v["service.run_ms"] =
          static_cast<double>(job.terminal - job.admitted) * 1e-6;
      v["service.completed"] = 1.0;
    }
    v["net.bytes_out"] = job.bytes_out;
    v["net.bytes_in"] = job.bytes_in;
  }
  if (v.count("atpg.generate_s") == 0) {
    std::vector<gpustl::fault::Fault> sample;
    for (std::size_t i = 0; i < kPodemSample; ++i) {
      sample.push_back(sp_faults[i * stride]);
    }
    gpustl::atpg::AtpgRunResult run;
    v["atpg.generate_s"] = Timed("atpg.generate", [&] {
      run = gpustl::atpg::GeneratePatternSet(
          modules.sp, sample, gpustl::Rng(kTpgenAtpgSeed), atpg_options);
    });
    v["stl.convert_s"] = Timed("stl.convert", [&] {
      gpustl::stl::ConvertSpPatterns(run.patterns);
    });
    v["atpg.patterns"] = static_cast<double>(run.patterns.size());
    v["atpg.aborted"] = static_cast<double>(run.aborted);
    v["atpg.untestable"] = static_cast<double>(run.untestable);
  }
}

}  // namespace perfbench
