// The benchmark's four workloads and the per-layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compact/campaign_plan.h"
#include "inputs.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs_dir;  // the frozen STL (perfbench/inputs)
  std::string work_dir;    // scratch for stores, distrib dirs, daemon logs
  std::string daemon;      // gpustld binary (service_mixed, probes)
  std::string ref_dir;     // reference reports of this build ("" = none)
  int threads = 1;         // nproc
};

/// What one run measured. perfbench/run.py turns samples into medians and
/// percentiles; `values` are reported as they are.
struct Result {
  /// Timing samples: "setup_s" (one per set-up), "op_ms" (one per
  /// operation: a whole-STL campaign, a job, an ATPG run) and "op_end_s"
  /// (when each operation completed, seconds into the measured phase, in
  /// order).
  std::map<std::string, std::vector<double>> samples;
  /// Operations completed in the measured phase.
  std::uint64_t ops = 0;
  /// quality_pct, peak_rss_mb and, in a traced run, the per-layer metrics.
  std::map<std::string, double> values;
  /// Samples behind each value that is not a single measurement.
  std::map<std::string, std::uint64_t> counts;
  /// Operations attempted / failed (rejected, degraded, transport error or
  /// output mismatch), with a line per failure.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// One set-up of `config.workload` (stl_cold, stl_distrib, atpg_tpgen) in
/// this process, in seconds: the `perfbench setup` command.
double SetupOnce(const Config& config);

Result RunStlCold(const Config& config);
Result RunStlDistrib(const Config& config);
Result RunServiceMixed(const Config& config);
Result RunAtpgTpgen(const Config& config);

/// Times direct calls into the gpu, trace, netlist, fault, store and atpg
/// layers on the STL's captured patterns, for a traced run, and measures
/// the layers the workload did not reach (no compact, distrib, service or
/// atpg metrics in `out.values` yet) on a two-entry plan. Never overwrites
/// a metric the workload set.
void RunProbes(const Config& config, const Modules& modules,
               const std::vector<gpustl::compact::PlanEntry>& plan,
               Result& out);

}  // namespace perfbench
