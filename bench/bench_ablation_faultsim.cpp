// Ablation of the cone-aware PPSFP engine (this repo's fault-sim
// optimizations, not a paper table): FFR-clustered critical-path tracing,
// structural fault collapsing and output-cone restriction are toggled
// independently on the three evaluated modules, against the same
// fixed-seed random pattern set. Every configuration must produce a
// bit-identical Fault Sim Report — the axes only trade wall-clock — so the
// table carries an "identical" column checked against the all-off engine,
// plus the collapse numbers (equivalence classes vs the simulated list and
// vs the full fault universe, and the count-only dominance edges).
//
// Each row is also appended to BENCH_faultsim.json (see bench_common.h)
// for machine consumption.
#include <cstdio>

#include "bench/bench_common.h"
#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "fault/backend.h"
#include "fault/collapse.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/trim.h"
#include "netlist/patterns.h"

namespace gpustl::bench {
namespace {

constexpr std::size_t kPatterns = 512;

netlist::PatternSet RandomPatterns(const netlist::Netlist& nl, Rng rng) {
  netlist::PatternSet set(static_cast<int>(nl.num_inputs()));
  const std::size_t words = set.words_per_pattern();
  std::vector<std::uint64_t> row(words);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    for (std::size_t w = 0; w < words; ++w) row[w] = rng();
    const int rem = static_cast<int>(nl.num_inputs() % 64);
    if (rem != 0) row.back() &= (1ull << rem) - 1;
    set.Add(p, row.data());
  }
  return set;
}

/// kPatterns as 8 copies of the same random 64-pattern block: the
/// dedup-replay workload. A real PTP applies exactly this shape — a loop
/// body re-issuing one stimulus sequence — which is what the trim axis
/// (pattern-block dedup in particular) is built to exploit.
netlist::PatternSet TiledPatterns(const netlist::Netlist& nl, Rng rng) {
  netlist::PatternSet set(static_cast<int>(nl.num_inputs()));
  const std::size_t words = set.words_per_pattern();
  std::vector<std::uint64_t> block(64 * words);
  for (std::uint64_t& w : block) w = rng();
  const int rem = static_cast<int>(nl.num_inputs() % 64);
  if (rem != 0) {
    for (std::size_t p = 0; p < 64; ++p) {
      block[p * words + words - 1] &= (1ull << rem) - 1;
    }
  }
  for (std::size_t p = 0; p < kPatterns; ++p) {
    set.Add(p, block.data() + (p % 64) * words);
  }
  return set;
}

void FillTrimFields(BenchRecord& record, const fault::TrimOptions& trim,
                    const fault::TrimCounters& counters) {
  record.trim = fault::TrimModeName(trim);
  record.trim_blocks_replayed = counters.blocks_replayed.load();
  record.trim_faults_early_exited = counters.faults_early_exited.load();
  record.trim_warm_hits =
      counters.warm_good_hits.load() + counters.warm_stem_hits.load();
}

bool Identical(const fault::FaultSimResult& a, const fault::FaultSimResult& b) {
  if (a.first_detect != b.first_detect) return false;
  if (a.detects_per_pattern != b.detects_per_pattern) return false;
  if (a.num_detected != b.num_detected) return false;
  for (std::size_t i = 0; i < a.detected_mask.size(); ++i) {
    if (a.detected_mask.Get(i) != b.detected_mask.Get(i)) return false;
  }
  return true;
}

int Run() {
  struct Module {
    const char* name;
    netlist::Netlist nl;
  };
  Module modules[] = {{"DU", circuits::BuildDecoderUnit()},
                      {"SP", circuits::BuildSpCore()},
                      {"SFU", circuits::BuildSfu()}};

  struct Config {
    const char* name;
    bool ffr;
    bool collapse;
    bool cone;
  };
  const Config configs[] = {{"neither", false, false, false},
                            {"cone only", false, false, true},
                            {"collapse only", false, true, false},
                            {"collapse+cone", false, true, true},
                            {"ffr only", true, false, false},
                            {"ffr+cone", true, false, true},
                            {"ffr+collapse", true, true, false},
                            {"ffr+collapse+cone", true, true, true}};

  const std::string json = BenchJsonPath();
  TextTable table({"Module", "Config", "Time (s)", "Speedup", "Faults/s",
                   "Identical"});
  TextTable collapse_table({"Module", "Universe", "Simulated list", "Classes",
                            "vs universe", "vs list", "Dominance edges"});
  TextTable backend_table({"Module", "Backend", "Word bits", "Time (s)",
                           "Speedup", "Faults/s", "Identical"});
  TextTable trim_table({"Module", "Trim", "Time (s)", "Speedup", "Faults/s",
                        "Replayed", "Early-exit", "Warm hits", "Identical"});

  for (Module& m : modules) {
    const auto universe = fault::EnumerateFaults(m.nl);
    const auto faults = fault::CollapsedFaultList(m.nl);
    const netlist::PatternSet patterns =
        RandomPatterns(m.nl, Rng(0x5EED ^ faults.size()));

    // The engine collapses the simulated list further; the paper-facing
    // reduction is against the full fault universe.
    const auto list_stats = fault::BuildFaultCollapse(m.nl, faults).Stats();
    const double vs_universe =
        100.0 * (1.0 - static_cast<double>(list_stats.num_classes) /
                           static_cast<double>(universe.size()));
    collapse_table.AddRow(
        {m.name, Count(universe.size()), Count(faults.size()),
         Count(list_stats.num_classes), Pct(vs_universe),
         Pct(list_stats.reduction_percent()),
         Count(list_stats.dominance_edges)});

    fault::FaultSimResult baseline;
    double baseline_seconds = 0.0;
    for (const Config& cfg : configs) {
      // The engine-axis rows are pinned to the scalar oracle so they stay
      // comparable across machines (and across PRs); the width axis gets
      // its own table below.
      fault::TrimCounters counters;
      const fault::FaultSimOptions options{.drop_detected = true,
                                           .num_threads = 1,
                                           .collapse = cfg.collapse,
                                           .cone_limit = cfg.cone,
                                           .ffr_trace = cfg.ffr,
                                           .backend = fault::Backend::kScalar,
                                           .trim_counters = &counters};
      Timer timer;
      const fault::FaultSimResult res =
          RunFaultSim(m.nl, patterns, faults, nullptr, options);
      const double seconds = timer.Seconds();
      if (!cfg.ffr && !cfg.collapse && !cfg.cone) {
        baseline = res;
        baseline_seconds = seconds;
      }
      const bool identical = Identical(res, baseline);
      const double fps = seconds > 0.0
                             ? static_cast<double>(faults.size()) / seconds
                             : 0.0;
      table.AddRow({m.name, cfg.name, ::gpustl::Format("%.3f", seconds),
                    ::gpustl::Format("%.2fx", baseline_seconds / seconds),
                    Count(static_cast<std::size_t>(fps)),
                    identical ? "yes" : "NO (BUG)"});

      BenchRecord record;
      record.bench = "ablation_faultsim";
      record.name = std::string(m.name) + "/" + cfg.name;
      record.module = m.nl.name();
      record.wall_seconds = seconds;
      record.faults_per_sec = fps;
      record.patterns = patterns.size();
      record.faults = faults.size();
      record.threads = 1;
      record.backend = "scalar";
      FillTrimFields(record, options.trim, counters);
      record.extra = {
          {"ffr", cfg.ffr ? 1.0 : 0.0},
          {"collapse", cfg.collapse ? 1.0 : 0.0},
          {"cone_limit", cfg.cone ? 1.0 : 0.0},
          {"classes", static_cast<double>(list_stats.num_classes)},
          {"universe", static_cast<double>(universe.size())},
          {"identical", identical ? 1.0 : 0.0},
      };
      AppendBenchJson(json, record);
    }
    table.AddRule();

    // Width axis: every backend this machine supports, on the production
    // engine toggles (ffr+collapse+cone, serial) with dropping OFF: the
    // wide backends pay off when faults simulate many patterns (full
    // blocks), which is exactly the no-drop/coverage-measurement workload;
    // under dropping most faults die inside one partially-filled block,
    // where extra width only widens the propagation frontier. scalar comes
    // first (RegisteredBackends orders the oracle first), so its time
    // anchors the speedup column; every row must stay bit-identical to it.
    fault::FaultSimResult scalar_res;
    double scalar_seconds = 0.0;
    for (const fault::Backend backend : fault::RegisteredBackends()) {
      fault::TrimCounters counters;
      const fault::FaultSimOptions options{.drop_detected = false,
                                           .num_threads = 1,
                                           .collapse = true,
                                           .cone_limit = true,
                                           .ffr_trace = true,
                                           .backend = backend,
                                           .trim_counters = &counters};
      // Best of three: wall-clock on a loaded machine only ever errs high,
      // so the minimum is the least-noisy estimate of the engine's cost.
      fault::FaultSimResult res;
      double seconds = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        Timer timer;
        res = RunFaultSim(m.nl, patterns, faults, nullptr, options);
        const double t = timer.Seconds();
        if (rep == 0 || t < seconds) seconds = t;
      }
      if (backend == fault::Backend::kScalar) {
        scalar_res = res;
        scalar_seconds = seconds;
      }
      const bool identical = Identical(res, scalar_res);
      const double fps = seconds > 0.0
                             ? static_cast<double>(faults.size()) / seconds
                             : 0.0;
      const std::string name(fault::BackendName(backend));
      backend_table.AddRow(
          {m.name, name, ::gpustl::Format("%d", fault::BackendWordBits(backend)),
           ::gpustl::Format("%.3f", seconds),
           ::gpustl::Format("%.2fx", scalar_seconds / seconds),
           Count(static_cast<std::size_t>(fps)),
           identical ? "yes" : "NO (BUG)"});

      BenchRecord record;
      record.bench = "ablation_faultsim";
      record.name = std::string(m.name) + "/backend=" + name;
      record.module = m.nl.name();
      record.wall_seconds = seconds;
      record.faults_per_sec = fps;
      record.patterns = patterns.size();
      record.faults = faults.size();
      record.threads = 1;
      record.backend = name;
      FillTrimFields(record, options.trim, counters);
      record.extra = {
          {"word_bits", static_cast<double>(fault::BackendWordBits(backend))},
          {"speedup_vs_scalar",
           seconds > 0.0 ? scalar_seconds / seconds : 0.0},
          {"identical", identical ? 1.0 : 0.0},
      };
      AppendBenchJson(json, record);
    }
    backend_table.AddRule();

    // Trim axis: each redundancy-trim mechanism (fault/trim.h) alone and
    // all together, against the all-off PR 6 engine, on the tiled pattern
    // set (8 copies of one 64-pattern block) that a looping PTP actually
    // applies. Production toggles (ffr+collapse+cone), drop-on, serial
    // scalar — the paper workload the trim layer targets. Each row is
    // primed once untimed (warming the good-block/warm-start caches the
    // way a campaign's repeated SimulateFaults calls do), then timed best
    // of three; the counters cover the timed runs and must be non-zero
    // for the mechanism the row enables.
    const netlist::PatternSet tiled =
        TiledPatterns(m.nl, Rng(0x771337 ^ faults.size()));
    struct TrimConfig {
      const char* name;
      fault::TrimOptions trim;
    };
    const TrimConfig trim_configs[] = {
        {"off", fault::NoTrim()},
        {"dedup", fault::TrimOptions{true, false, false}},
        {"early-exit", fault::TrimOptions{false, true, false}},
        {"warm-start", fault::TrimOptions{false, false, true}},
        {"all", fault::TrimOptions{}}};
    fault::FaultSimResult off_res;
    double off_seconds = 0.0;
    for (const TrimConfig& cfg : trim_configs) {
      fault::WarmStartCache warm_cache;
      fault::TrimCounters counters;
      const fault::FaultSimOptions options{.drop_detected = true,
                                           .num_threads = 1,
                                           .collapse = true,
                                           .cone_limit = true,
                                           .ffr_trace = true,
                                           .backend = fault::Backend::kScalar,
                                           .trim = cfg.trim,
                                           .warm_cache = &warm_cache,
                                           .trim_counters = &counters};
      fault::FaultSimOptions prime = options;
      prime.trim_counters = nullptr;
      RunFaultSim(m.nl, tiled, faults, nullptr, prime);
      fault::FaultSimResult res;
      double seconds = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        Timer timer;
        res = RunFaultSim(m.nl, tiled, faults, nullptr, options);
        const double t = timer.Seconds();
        if (rep == 0 || t < seconds) seconds = t;
      }
      if (!cfg.trim.any()) {
        off_res = res;
        off_seconds = seconds;
      }
      const bool identical = Identical(res, off_res);
      const double fps = seconds > 0.0
                             ? static_cast<double>(faults.size()) / seconds
                             : 0.0;
      trim_table.AddRow(
          {m.name, cfg.name, ::gpustl::Format("%.3f", seconds),
           ::gpustl::Format("%.2fx", off_seconds / seconds),
           Count(static_cast<std::size_t>(fps)),
           Count(counters.blocks_replayed.load()),
           Count(counters.faults_early_exited.load()),
           Count(counters.warm_good_hits.load() +
                 counters.warm_stem_hits.load()),
           identical ? "yes" : "NO (BUG)"});

      BenchRecord record;
      record.bench = "ablation_faultsim";
      record.name = std::string(m.name) + "/trim=" + cfg.name;
      record.module = m.nl.name();
      record.wall_seconds = seconds;
      record.faults_per_sec = fps;
      record.patterns = tiled.size();
      record.faults = faults.size();
      record.threads = 1;
      record.backend = "scalar";
      FillTrimFields(record, cfg.trim, counters);
      record.extra = {
          {"speedup_vs_off", seconds > 0.0 ? off_seconds / seconds : 0.0},
          {"identical", identical ? 1.0 : 0.0},
      };
      AppendBenchJson(json, record);
    }
    trim_table.AddRule();
  }

  std::printf("ABLATION: CONE-AWARE PPSFP ENGINE, %zu RANDOM PATTERNS, "
              "DROP-ON, SERIAL\n\n%s\n",
              kPatterns, table.Render().c_str());
  std::printf("STRUCTURAL FAULT COLLAPSING\n\n%s\n",
              collapse_table.Render().c_str());
  std::printf(
      "BACKEND ABLATION: FFR+COLLAPSE+CONE, DROP-OFF, SERIAL, BEST OF 3\n\n"
      "%s\n",
      backend_table.Render().c_str());
  std::printf(
      "TRIM ABLATION: FFR+COLLAPSE+CONE, DROP-ON, SERIAL SCALAR, TILED "
      "PATTERNS (8x64), PRIMED, BEST OF 3\n\n%s\n",
      trim_table.Render().c_str());
  std::printf(
      "All three axes are exact: the Identical column must read 'yes' on\n"
      "every row (each configuration is compared against the all-off\n"
      "engine). FFR rows run one stem propagation per fanout-free region\n"
      "per pattern block and derive per-fault detection from exact\n"
      "critical-path tracing to the stem (see fault/faultsim.h).\n"
      "Collapsing simulates one representative per equivalence class; the\n"
      "'vs universe' column is the reduction a flat fault list would see,\n"
      "'vs list' the further reduction over the pre-collapsed list the\n"
      "engine receives. Dominance edges are counted but never applied (they\n"
      "would under-report the dominating fault; see fault/collapse.h).\n"
      "The backend table compares the width-parameterized engines (see\n"
      "fault/backend.h) against the scalar oracle with dropping OFF — full\n"
      "propagation blocks are the workload extra width pays for — and its\n"
      "Identical column holds every backend to bit-identity as well.\n"
      "The trim table ablates the redundancy-trim mechanisms (fault/trim.h)\n"
      "on the tiled-pattern workload: 'Replayed' counts 64-pattern blocks\n"
      "served from the dedup cache, 'Early-exit' faults retired by the\n"
      "activation prepass, 'Warm hits' warm-start cache hits across the\n"
      "timed runs. Trimming is exact, so its Identical column is held to\n"
      "bit-identity against the trim-off engine too.\n"
      "Records appended to %s.\n",
      json.c_str());
  return 0;
}

}  // namespace
}  // namespace gpustl::bench

int main() { return gpustl::bench::Run(); }
