// bench_distrib: distributed campaign scaling — wall-clock vs worker count.
//
// Runs the same 12-entry campaign (DU/SP/FP32, pseudorandom PTPs) five
// ways: cold-cache single-process, then cold-cache distributed with 1, 2,
// 4 and 8 forked workers (one prefetch wave, src/distrib/). Each run gets
// a fresh result store and a fresh distrib dir, so every speedup number is
// a genuine cold-start comparison, and every distributed report is
// asserted byte-identical to the single-process one before any number is
// published. Emits BENCH_distrib.json: per fleet size, wall seconds,
// speedup over the single-process baseline, the wave's wall time, how many
// units the workers (vs the coordinator inline) computed, steal count, and
// the store's hit and miss counts.
//
// Knobs (environment):
//   GPUSTL_BENCH_DISTRIB_SBS   Small Blocks per generated PTP (default 24)
//   GPUSTL_BENCH_DISTRIB_DIR   scratch root (default "bench_distrib_scratch")
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/timer.h"
#include "compact/campaign_plan.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/coordinator.h"
#include "stl/generators.h"
#include "store/result_store.h"

namespace gpustl::bench {
namespace {

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : def;
}

compact::PlanEntry MakeEntry(isa::Program ptp, trace::TargetModule target,
                             bool compactable, bool reverse) {
  compact::PlanEntry pe;
  pe.entry.ptp = std::move(ptp);
  pe.entry.target = target;
  pe.entry.compactable = compactable;
  pe.entry.reverse_patterns = reverse;
  pe.target_token = std::string(trace::TargetModuleName(target));
  pe.fp = compact::FingerprintPlanEntry(pe.entry, pe.target_token);
  return pe;
}

struct RunResult {
  std::string report;
  double wall_seconds = 0.0;
  distrib::PrefetchStats prefetch;
  store::StoreStats cache;
};

}  // namespace

int Main() {
  const int sbs = EnvInt("GPUSTL_BENCH_DISTRIB_SBS", 24);
  const char* scratch_env = std::getenv("GPUSTL_BENCH_DISTRIB_DIR");
  const std::string scratch = scratch_env != nullptr && scratch_env[0] != '\0'
                                  ? scratch_env
                                  : "bench_distrib_scratch";

  std::fprintf(stderr, "bench_distrib: %d SBs per PTP, scratch %s\n", sbs,
               scratch.c_str());

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const netlist::Netlist fp32 = circuits::BuildFp32();
  compact::ModulePrepSet preps;
  preps.du = compact::BuildModulePrep(du);
  preps.sp = compact::BuildModulePrep(sp);
  preps.sfu = compact::BuildModulePrep(sfu);
  preps.fp32 = compact::BuildModulePrep(fp32);

  // 12 entries, mixing compact/carry and reverse order so the distributed
  // schedule sees every unit shape a real campaign posts. SP-heavy: the SP
  // core is the largest module, i.e. the one whose fault simulations
  // dominate a real campaign the way the paper's EPYC-scale runs do.
  // Distinct seeds = distinct store keys: nothing dedups away.
  using trace::TargetModule;
  std::vector<compact::PlanEntry> plan;
  plan.push_back(MakeEntry(stl::GenerateImm(sbs, 0xA11CE),
                           TargetModule::kDecoderUnit, true, false));
  plan.push_back(MakeEntry(stl::GenerateMem(sbs, 0xB0B),
                           TargetModule::kDecoderUnit, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEAD),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEAE),
                           TargetModule::kSpCore, true, true));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEAF),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEB0),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEB1),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEB2),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEB3),
                           TargetModule::kSpCore, false, false));
  plan.push_back(MakeEntry(stl::GenerateRand(sbs, 0xDEB4),
                           TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(stl::GenerateFpu(sbs, 0xF00D),
                           TargetModule::kFp32, true, false));
  plan.push_back(MakeEntry(stl::GenerateFpu(sbs, 0xF00E),
                           TargetModule::kFp32, false, false));

  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // One campaign run. workers < 0 = plain single-process (no distrib);
  // otherwise the prefetch wave with that many forked workers (0 =
  // coordinator-inline only, the degenerate fleet).
  const auto run = [&](const std::string& tag, int workers) {
    const std::string cache_dir = scratch + "/" + tag + "-cache";
    store::ResultStore store(cache_dir);

    compact::CompactorOptions opt;
    opt.num_threads = 1;  // scale via workers, keep the parent fork-safe
    opt.result_store = &store;

    RunResult out;
    Timer wall;
    if (workers >= 0) {
      distrib::CoordinatorOptions copt;
      copt.dir = scratch + "/" + tag + "-distrib";
      copt.fork_workers = workers;
      copt.worker_threads = 1;
      distrib::Coordinator coordinator(
          copt, distrib::ModuleSet{&du, &sp, &sfu, &fp32, &preps}, opt);
      out.prefetch = coordinator.Prefetch(plan);
    }

    compact::StlCampaign campaign(du, sp, sfu, opt, &fp32, &preps);
    for (const auto& pe : plan) campaign.Process(pe.entry);
    out.report =
        compact::RenderCampaignReport(campaign.records(), campaign.Summary());
    out.wall_seconds = wall.Seconds();
    out.cache = store.stats();
    return out;
  };

  const RunResult base = run("single", -1);
  std::fprintf(stderr, "bench_distrib: single-process baseline %.2fs\n",
               base.wall_seconds);

  bool all_identical = true;
  for (const int workers : {1, 2, 4, 8}) {
    const std::string tag = "w" + std::to_string(workers);
    const RunResult r = run(tag, workers);
    const bool identical = r.report == base.report;
    all_identical = all_identical && identical;
    const double speedup = base.wall_seconds / r.wall_seconds;

    std::printf(
        "bench_distrib: %d workers — %.2fs (%.2fx), report %s, "
        "%llu worker / %llu inline units, %llu steals\n",
        workers, r.wall_seconds, speedup,
        identical ? "identical" : "DIVERGED",
        static_cast<unsigned long long>(r.prefetch.worker_units),
        static_cast<unsigned long long>(r.prefetch.inline_units),
        static_cast<unsigned long long>(r.prefetch.steals));

    BenchRecord record;
    record.bench = "distrib";
    record.name = tag;
    record.wall_seconds = r.wall_seconds;
    record.threads = 1;
    record.extra = {
        {"workers", static_cast<double>(workers)},
        {"entries", static_cast<double>(plan.size())},
        {"baseline_seconds", base.wall_seconds},
        {"speedup", speedup},
        {"report_identical", identical ? 1.0 : 0.0},
        {"wave1_units", static_cast<double>(r.prefetch.wave1_units)},
        {"worker_units", static_cast<double>(r.prefetch.worker_units)},
        {"inline_units", static_cast<double>(r.prefetch.inline_units)},
        {"steals", static_cast<double>(r.prefetch.steals)},
        {"wave1_seconds", r.prefetch.wave1_seconds},
        {"cache_hits", static_cast<double>(r.cache.hits)},
        {"cache_misses", static_cast<double>(r.cache.misses)},
    };
    const char* out = std::getenv("GPUSTL_BENCH_JSON");
    AppendBenchJson(out != nullptr && out[0] != '\0' ? out
                                                     : "BENCH_distrib.json",
                    record);
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_distrib: FAILURE — a distributed report diverged "
                 "from the single-process baseline\n");
    return 1;
  }
  return 0;
}

}  // namespace gpustl::bench

int main() { return gpustl::bench::Main(); }
