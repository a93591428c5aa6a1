// Independent reference fault simulator for the conformance suites.
//
// The optimized engines (src/fault/) share most of their machinery across
// engine widths and thread counts: the collapse plan, SimPlan, the GoodTable,
// FFR grouping and critical-path tracing, the early-exit prepass,
// event-driven propagation and the shard merge. Comparing one engine
// configuration with another cannot see a bug in any of those. This
// simulator shares none of it — only the Netlist data structure and the
// per-cell truth function netlist::EvalCell. For every fault and every
// 64-pattern word it evaluates the whole netlist, in its own topological
// order and with the fault injected, and compares every primary output
// with the good machine. No collapsing, no cones, no dropping shortcuts
// beyond stopping a dropped fault after its first detection.
//
// Slow by design: O(faults x gates x words). Keep inputs small (sample
// large fault lists through the skip mask).
#pragma once

#include <vector>

#include "common/bitops.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::reference {

enum class Model { kStuckAt, kTransition };

/// The report RunFaultSim / RunTransitionFaultSim must produce for the same
/// arguments: per-fault first detection, the per-pattern histogram (first
/// detections only under dropping, every detection otherwise), the
/// detected count and mask. Skipped faults are not simulated. Transition
/// faults use the stuck-at addressing of fault/transition.h: pattern p-1
/// launches (site value == the stuck value), pattern p captures (the
/// stuck-at fault of that value is detected at p); pattern 0 captures
/// nothing.
fault::FaultSimResult Simulate(Model model, const netlist::Netlist& nl,
                               const netlist::PatternSet& patterns,
                               const std::vector<fault::Fault>& faults,
                               const BitVec* skip, bool drop_detected);

}  // namespace gpustl::reference
