// Internal engine-backend interface of the PPSFP fault simulators.
//
// RunFaultSim / RunTransitionFaultSim own everything backend-independent:
// argument validation, collapse-plan and SimPlan construction, FFR class
// grouping, the shared GoodBlockCache, the early-exit prepass and the final
// cancellation check. The per-backend entry points below receive that
// prepared state and run the (possibly sharded) pattern-block loop at their
// own word width. Every backend must produce the FaultSimResult of the
// independent reference simulator (tests/reference_sim.h) — the contract
// tests/test_backend.cpp enforces (see fault/engine_wide.h for the one
// cross-width seam, the transition launch carry).
//
// Internal header — include from src/fault/*.cpp only.
#pragma once

#include <atomic>
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

/// Early-exit tables (fault/trim.cpp). Per fault class (stuck-at, SimPlan
/// class indexing) or per fault (transition, fault-list indexing): the
/// last 64-pattern block that can activate it (a class: its leader); -1 =
/// no block activates it. Detection is contained in activation pointwise,
/// so a class past its last activating block detects nothing later and
/// the engines compact it out of the live list. The prepasses read good
/// blocks through `good_blocks` (shared with the engine run that follows,
/// so nothing is evaluated twice) and throw DeadlineError on cancellation.
using LastActivation = std::vector<std::int64_t>;
LastActivation StuckAtLastActivation(const netlist::Netlist& nl,
                                     const netlist::PatternSet& patterns,
                                     const std::vector<Fault>& faults,
                                     const SimPlan& plan,
                                     GoodBlockCache& good_blocks,
                                     const FaultSimOptions& options);
LastActivation TransitionLastActivation(
    const netlist::Netlist& nl, const netlist::PatternSet& patterns,
    const std::vector<TransitionFault>& faults,
    const std::vector<std::uint32_t>& live, GoodBlockCache& good_blocks,
    const FaultSimOptions& options);

/// Removes the entries of `live` (class or fault indices) whose last
/// activating block precedes scalar block `block`, adding the retired
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

/// Prepared state of one stuck-at run, shared by every backend.
struct StuckAtRun {
  const netlist::Netlist& nl;
  const netlist::PatternSet& patterns;
  const std::vector<Fault>& faults;
  const SimPlan& plan;
  const FfrClassGroups& groups;
  GoodBlockCache& good_blocks;
  const FaultSimOptions& options;
  const LastActivation& last_act;  // per class
};

/// Prepared state of one transition run (no collapsing: the launch
/// condition is per-fault history). `live` is the skip-filtered fault list.
struct TransitionRun {
  const netlist::Netlist& nl;
  const netlist::PatternSet& patterns;
  const std::vector<TransitionFault>& faults;
  const std::vector<std::uint32_t>& live;
  GoodBlockCache& good_blocks;
  const FaultSimOptions& options;
  const LastActivation& last_act;  // per fault
};

/// Wide-backend entry points. Each translation unit instantiates the
/// templated engine of fault/engine_wide.h at one lane count under its own
/// codegen flags; which ones exist in a given binary is reported by
/// fault::BackendCompiled. All of them shard/merge through fault/parallel.h
/// exactly like the scalar engines.
FaultSimResult RunStuckAtWide(const StuckAtRun& run);          // 4 lanes
FaultSimResult RunTransitionWide(const TransitionRun& run);    // portable
#if defined(GPUSTL_HAVE_AVX2)
FaultSimResult RunStuckAtAvx2(const StuckAtRun& run);          // 4 lanes
FaultSimResult RunTransitionAvx2(const TransitionRun& run);    // -mavx2
#endif
#if defined(GPUSTL_HAVE_AVX512)
FaultSimResult RunStuckAtAvx512(const StuckAtRun& run);        // 8 lanes
FaultSimResult RunTransitionAvx512(const TransitionRun& run);  // -mavx512f
#endif

}  // namespace gpustl::fault::internal
