// The campaign coordinator: plans units, drives the worker fleet, and
// guarantees the distributed run's report is byte-identical to the
// single-process one.
//
// The cross-PTP fault dropping that makes campaign reports deterministic is
// inherently sequential: entry k's stage-3 skip mask is the union of the
// stage-3 detections of entries 0..k-1 on the same module. Naively
// distributing entries would break that chain. One prefetch wave keeps it
// intact while extracting all the parallelism that actually matters:
//
//   wave    every plan entry's FULL-fault-list simulation (no skip mask —
//           embarrassingly parallel) runs on the workers and lands in the
//           shared result store.
//   final   the caller runs the ordinary StlCampaign. The only full-list
//           simulations a Compactor runs are of original patterns (it
//           filters them for the skip-masked views, fault/replay.h), so
//           every one is now a store hit; its stage 5 derives the
//           compacted PTP's detected set from them (fault/revalidate.h)
//           with two small simulations it runs live. Ground truth is the
//           campaign itself — a unit that never landed just runs live.
//
// Nothing in the protocol is load-bearing for correctness: kill every
// worker and the coordinator computes the remaining units inline after a
// grace period; delete the distrib dir mid-run and the final campaign
// simply simulates live. Distribution is a prefetch layer for the store.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "compact/stl_campaign.h"
#include "distrib/worker.h"
#include "netlist/netlist.h"

namespace gpustl::distrib {

struct CoordinatorOptions {
  std::string dir;  // distrib dir (required)

  /// Workers to fork as child processes (0 = rely on external
  /// gpustl-worker processes and/or the inline fallback). Fork before
  /// creating any threads — the CLI path forks during Prefetch, which runs
  /// before the campaign spins anything up; the threaded daemon must keep
  /// this 0 and use external workers. A forked worker runs its units at
  /// the campaign's `num_threads`, as the inline fallback does. Await polls
  /// every 2 ms with a forked fleet and every 50 ms without one.
  int fork_workers = 0;

  /// Claim staleness horizon handed to workers via meta.txt.
  double stale_seconds = 30.0;

  /// With no live claim and no done-marker progress for this long, the
  /// coordinator starts computing pending units inline.
  double grace_seconds = 2.0;

  /// Write campaign.done and reap forked workers at the end of Prefetch
  /// (CLI mode). Daemon mode passes false: the dir keeps serving
  /// campaigns and external workers keep polling it.
  bool finalize = true;
};

struct PrefetchStats {
  std::size_t wave1_units = 0;  // posted (deduped by content)
  std::uint64_t inline_units = 0;  // computed by the coordinator itself
  std::uint64_t worker_units = 0;  // from workers' stats files
  std::uint64_t steals = 0;        // workers' + coordinator's stale steals
  double wave1_seconds = 0.0;
  // Always 0: read by perfbench/ only (ROADMAP item 8).
  double plan_seconds = 0.0;
  double wave2_seconds = 0.0;
};

class Coordinator {
 public:
  /// `base` must carry the SAME semantic options the final campaign will
  /// run with (fault model, dropping flags, result_store; units trace
  /// under the default sm config) — store keys depend on them. A null
  /// base.result_store or a non-(stuck-at, dropped) configuration makes
  /// Prefetch throw: distribution without a shared store is meaningless.
  Coordinator(CoordinatorOptions options, ModuleSet modules,
              const compact::CompactorOptions& base);

  /// Reaps any forked workers still alive (finalize=false callers).
  ~Coordinator();

  /// Posts the wave for `plan` and waits for it. Returns observability
  /// stats; throws only for setup errors (bad dir, missing store). A unit
  /// that fails degrades to "the final campaign simulates it live".
  PrefetchStats Prefetch(const std::vector<compact::PlanEntry>& plan);

 private:
  void ForkWorkers();
  void ReapWorkers();
  /// Polls until every name in `units` has a done marker, stealing and
  /// computing inline when the fleet stalls. Updates stats_.
  void Await(const std::vector<std::string>& units);
  void ProcessUnitInline(const std::string& name);

  CoordinatorOptions options_;
  ModuleSet modules_;
  compact::CompactorOptions base_;
  PrefetchStats stats_;
  std::vector<pid_t> children_;
  // Computes inline units; built on first use.
  std::unique_ptr<UnitRunner> runner_;
};

}  // namespace gpustl::distrib
