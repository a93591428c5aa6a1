// Internal engine-backend interface of the PPSFP fault simulators.
//
// RunFaultSim / RunTransitionFaultSim own everything backend-independent:
// argument validation, collapse-plan and SimPlan construction, FFR class
// grouping, the shared GoodBlockCache and the final cancellation check.
// The per-backend entry points below receive that prepared state and run
// the (possibly sharded) pattern-block loop at their own word width. Every
// backend must produce a FaultSimResult bit-identical to the scalar oracle
// — the contract tests/test_backend.cpp enforces (see fault/engine_wide.h
// for the one cross-width seam, the transition launch carry).
//
// Internal header — include from src/fault/*.cpp only.
#pragma once

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
/// Without collapsing this degenerates to one singleton class per
/// non-skipped fault, which is exactly the legacy engine's `live` list.
struct SimPlan {
  std::vector<std::uint32_t> offsets;  // num_classes() + 1
  std::vector<std::uint32_t> members;  // fault indices, grouped by class

  std::size_t num_classes() const { return offsets.size() - 1; }
};

SimPlan BuildSimPlan(const FaultCollapse* collapse, const BitVec* skip,
                     std::size_t num_faults);

/// Per-run trim state (fault/trim.h), built once by the orchestration and
/// shared read-only by every shard of every backend.
struct TrimPlan {
  bool dedup = false;       // effective dedup_blocks toggle
  bool early_exit = false;  // effective early_exit toggle

  /// Per 64-pattern block: the first block with an identical fingerprint
  /// (self for a first occurrence). Fingerprints cover the block's pattern
  /// count and its input bits restricted to the nets feeding the simulated
  /// fault sites and their output cones, so equal fingerprints imply equal
  /// detection words for every fault of the run.
  std::vector<std::uint32_t> repeat_of;
  /// Per block: some later block replays it (worth caching its words).
  std::vector<char> has_repeat;

  /// Per fault class (stuck-at, SimPlan class indexing) or per fault
  /// (transition, fault-list indexing): the last 64-pattern block that can
  /// activate it (a class: its leader), from the prepass; -1 = no block
  /// activates it. A class past its last activating block detects nothing
  /// in any later block, so the engines compact it out of the live list.
  std::vector<std::int64_t> last_act;
};

/// Builders. The prepasses read good blocks through `good_blocks` (shared
/// with the engine run that follows, so nothing is evaluated twice). On
/// cancellation the early-exit prepass disarms itself (the engine's own
/// block-loop poll turns the run into a clean abort).
TrimPlan BuildStuckAtTrimPlan(const netlist::Netlist& nl,
                              const netlist::PatternSet& patterns,
                              const std::vector<Fault>& faults,
                              const SimPlan& plan, GoodBlockCache& good_blocks,
                              const FaultSimOptions& options);
TrimPlan BuildTransitionTrimPlan(const netlist::Netlist& nl,
                                 const netlist::PatternSet& patterns,
                                 const std::vector<TransitionFault>& faults,
                                 const std::vector<std::uint32_t>& live,
                                 GoodBlockCache& good_blocks,
                                 const FaultSimOptions& options);

/// Trim state handed to the shard loops. `plan` null = no dedup and no
/// early-exit; `stem_obs` null = no cross-run stem-observability reuse.
struct TrimContext {
  const TrimPlan* plan = nullptr;
  StemObsCache* stem_obs = nullptr;
  TrimCounters* counters = nullptr;
};

/// Prepared state of one stuck-at run, shared by every backend. `groups`
/// is non-null exactly when the FFR-clustered engine is on.
struct StuckAtRun {
  const netlist::Netlist& nl;
  const netlist::PatternSet& patterns;
  const std::vector<Fault>& faults;
  const SimPlan& plan;
  const FfrClassGroups* groups;
  GoodBlockCache& good_blocks;
  const FaultSimOptions& options;
  TrimContext trim;
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
  TrimContext trim;
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
