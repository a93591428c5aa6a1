// Internal engine interface of the PPSFP fault simulators.
//
// RunFaultSim / RunTransitionFaultSim own everything width-independent:
// row deduplication (stuck-at only), argument validation, the lane count
// (PickLanes), collapse-plan and SimPlan construction, FFR class grouping,
// the good pass (one block-parallel good-machine simulation that fills the
// run's GoodTable at the engine's width and folds the early-exit tables),
// sharding and the final cancellation check. The shard kernels below
// receive that prepared state and run the pattern-block loop of
// fault/engine_wide.h at their own lane count. Every width must produce
// the FaultSimResult of the independent reference simulator
// (tests/reference_sim.h) — the contract tests/test_backend.cpp enforces at
// every lane count in SupportedLanes() (see fault/engine_wide.h for the one
// cross-width seam, the transition launch carry).
//
// Internal header — include from src/fault/*.cpp and the engine test
// suites only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "fault/collapse.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/transition.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault::internal {

/// What one run actually simulates: the equivalence classes of the fault
/// list with skipped faults removed (a fully skipped class disappears).
struct SimPlan {
  std::vector<std::uint32_t> offsets;  // num_classes() + 1
  std::vector<std::uint32_t> members;  // fault indices, grouped by class

  std::size_t num_classes() const { return offsets.size() - 1; }
};

SimPlan BuildSimPlan(const FaultCollapse& collapse, const BitVec* skip);

/// Early-exit tables. Per fault class (stuck-at, SimPlan class indexing)
/// or per fault (transition, fault-list indexing): the last 64-pattern
/// block that can activate it (a class: its leader); -1 = no block
/// activates it. Detection is contained in activation pointwise, so a class
/// past its last activating block detects nothing later and the engines
/// compact it out of the live list.
using LastActivation = std::vector<std::int64_t>;

/// What the good pass (fault/trim.cpp) hands the engines: the run's good
/// values, read-only from here on, and its early-exit table.
struct GoodPass {
  GoodTable good;
  LastActivation last_act;
};

/// The good pass of one run at `lanes` lanes per net. The wide blocks
/// are split into ResolveNumThreads(options.num_threads, blocks) contiguous
/// ranges; each worker simulates its range on its own BitSimulator, writes
/// it into the table and folds it into private last-0/last-1 (stuck-at) or
/// last-rise/last-fall (transition) tables, which merge by max after the
/// join. Polls `options.cancel` per block and throws DeadlineError after
/// the join — never returns a partial table. With one thread it runs
/// inline on the calling thread.
GoodPass StuckAtGoodPass(const netlist::Netlist& nl,
                         const netlist::PatternSet& patterns,
                         const std::vector<Fault>& faults, const SimPlan& plan,
                         int lanes, const FaultSimOptions& options);
GoodPass TransitionGoodPass(const netlist::Netlist& nl,
                            const netlist::PatternSet& patterns,
                            const std::vector<TransitionFault>& faults,
                            const std::vector<std::uint32_t>& live, int lanes,
                            const FaultSimOptions& options);

/// Removes the entries of `live` (class or fault indices) whose last
/// activating block precedes 64-pattern block `block`, adding the retired
/// fault count (`weight(index)`) to the early-exit counter.
template <typename Weight>
void EarlyExit(const LastActivation& last_act, std::size_t block,
               const FaultSimOptions& options, Weight&& weight,
               std::vector<std::uint32_t>& live) {
  std::uint64_t exited = 0;
  std::size_t w = 0;
  for (const std::uint32_t i : live) {
    if (last_act[i] >= static_cast<std::int64_t>(block)) {
      live[w++] = i;
    } else {
      exited += weight(i);
    }
  }
  if (exited == 0) return;
  live.resize(w);
  if (options.faults_early_exited != nullptr) {
    options.faults_early_exited->fetch_add(exited, std::memory_order_relaxed);
  }
}

/// Prepared state of one stuck-at run, shared by every shard.
struct StuckAtRun {
  const netlist::Netlist& nl;
  const netlist::PatternSet& patterns;
  const std::vector<Fault>& faults;
  const SimPlan& plan;
  const FfrClassGroups& groups;
  const GoodTable& good;
  const FaultSimOptions& options;
  const LastActivation& last_act;  // per class
};

/// Prepared state of one transition run (no collapsing: the launch
/// condition is per-fault history). The work list is the skip-filtered
/// fault list.
struct TransitionRun {
  const netlist::Netlist& nl;
  const netlist::PatternSet& patterns;
  const std::vector<TransitionFault>& faults;
  const GoodTable& good;
  const FaultSimOptions& options;
  const LastActivation& last_act;  // per fault
};

/// The engine's shard kernels at one lane count: each runs the
/// pattern-block loop of fault/engine_wide.h over one shard of the work
/// list (FFR-group indices, or transition fault indices, ascending) and
/// accumulates into `result` (pre-sized by InitFaultSimResult). Each
/// translation unit instantiates the engine under its own codegen flags.
struct LaneKernels {
  void (*stuck_at)(const StuckAtRun& run, std::vector<std::uint32_t> groups,
                   FaultSimResult& result);
  void (*transition)(const TransitionRun& run,
                     std::vector<std::uint32_t> live, FaultSimResult& result);
};
LaneKernels PortableKernels(int lanes);  // 1 or 4 lanes: backend_wide.cpp
#if defined(GPUSTL_HAVE_AVX512)
LaneKernels Avx512Kernels();  // 8 lanes, -mavx512f: backend_avx512.cpp
#endif

/// The kernels at `lanes`; throws SimError for a width this machine
/// cannot run.
LaneKernels KernelsAt(int lanes);

/// The lane count of a run over `patterns` patterns: 1 when they fit one
/// 64-pattern block (wider bundles would be mostly empty), else 8 when the
/// AVX-512 kernels are compiled in and the CPU runs them, else 4.
int PickLanes(std::size_t patterns);

/// Every lane count this machine runs: {1, 4}, plus 8 with AVX-512.
std::vector<int> SupportedLanes();

/// RunFaultSim / RunTransitionFaultSim at a given lane count (one of
/// SupportedLanes()); the test suites call them at every width. The
/// stuck-at run simulates each distinct row once and maps the report back
/// (netlist::FindDistinctRows), so `lanes` applies to the distinct rows;
/// RunFaultSim picks PickLanes(distinct rows). The transition run
/// simulates every row (its launch row is the previous pattern), and
/// RunTransitionFaultSim picks PickLanes(patterns.size()).
FaultSimResult RunFaultSimAtLanes(int lanes, const netlist::Netlist& nl,
                                  const netlist::PatternSet& patterns,
                                  const std::vector<Fault>& faults,
                                  const BitVec* skip,
                                  const FaultSimOptions& options);
FaultSimResult RunTransitionFaultSimAtLanes(
    int lanes, const netlist::Netlist& nl, const netlist::PatternSet& patterns,
    const std::vector<TransitionFault>& faults, const BitVec* skip,
    const FaultSimOptions& options);

}  // namespace gpustl::fault::internal
