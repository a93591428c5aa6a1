// Stage-5 validation without re-simulating what compaction kept.
//
// The compacted PTP's validation asks one question: which faults of the
// full list do its patterns detect? The module is combinational, so
// whether a row detects a fault depends on the row alone (the argument
// that makes the engine's row deduplication exact, fault/faultsim.h). The
// full-list dropped run of the original patterns already names, per
// fault, the first row that detects it, which splits the list three ways:
//
//  * confirmed: the first-detecting row is also a compacted row — the
//    fault is detected, no simulation needed;
//  * never detected: no original row detects it, so only a NEW compacted
//    row (one absent from the original set) can — it is simulated against
//    the new rows only;
//  * orphan: detected, but its first-detecting row is gone — it is
//    simulated against every distinct compacted row.
//
// The union is exactly the detected set of a full-list run of the
// compacted patterns. Stuck-at only: a transition fault depends on
// (launch, capture) row pairs, which this row-set argument does not cover.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "fault/faultsim.h"

namespace gpustl::fault {

/// The detected mask of `RunFaultSim(nl, after, faults, nullptr, {drop})`,
/// given `before_first_detect`, the first_detect of the same full-list
/// dropped run over `before`. `options` supplies threads, collapse plan,
/// cancellation and counters for the two small runs (dropping is forced
/// on). Throws Error when `before_first_detect` does not match `faults`
/// or names a row past `before`.
BitVec DetectedAfterEdit(const netlist::Netlist& nl,
                         const netlist::PatternSet& before,
                         const std::vector<std::uint32_t>& before_first_detect,
                         const netlist::PatternSet& after,
                         const std::vector<Fault>& faults,
                         const FaultSimOptions& options);

}  // namespace gpustl::fault
