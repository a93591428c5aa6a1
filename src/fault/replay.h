// Skip-mask replay: deriving a cross-PTP-dropped fault-sim result from the
// full-fault-list result of the same (netlist, patterns) without touching
// any engine.
//
// Every skip-masked dropped run a campaign needs is derived this way: the
// Compactor simulates each pattern set once against the full list and
// filters that run by its dropping state, and the distributed prefetch
// (src/distrib/) simulates the full-list runs on its workers, over which
// the campaign replays the paper's sequential inter-PTP drop order. The
// filter is exact, not approximate, because under fault dropping a
// report is a pure function of `first_detect`, and that is
// skip-independent:
//
//  * stuck-at: a fault's detection diff is produced by propagating its
//    class leader, and every member of a structural equivalence class has
//    the same faulty output behaviour by construction of the classes — so
//    removing members from a class (what a skip mask does to the sim plan)
//    never changes the block or lane of any surviving member's first
//    detection.
//  * transition: the engines keep a per-fault live list and per-fault
//    launch history and ignore collapsing, so a skipped fault never
//    touches a surviving one.
//
// The rest of the report follows from `first_detect`: dropping counts one
// detection per surviving fault at its first pattern (`detects_per_pattern`;
// the stuck-at engine adds the class member count at the class's shared
// first pattern — the same sum), and `detected_mask` / `num_detected` are
// its non-kNotDetected entries. The filter therefore needs no netlist and
// no good-machine values: it is one pass over the fault list.
//
// Precondition (checked): `full` is a dropped run (skip = null) over the
// same fault list. tests/test_distrib.cpp holds the filter to bit-identity
// against the live skip-masked engine for random masks across modules,
// models, thread counts and engine widths.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bitops.h"
#include "fault/faultsim.h"

namespace gpustl::fault {

/// Process-wide replay counter (observability only — perfbench reports
/// it; nothing deterministic reads it).
struct ReplayCounters {
  std::atomic<std::uint64_t> replays{0};  // skip results derived
};
ReplayCounters& GlobalReplayCounters();

/// Derives the result of `RunFaultSim(nl, patterns, faults, &skip,
/// {drop_detected = true, ...})` (or its transition counterpart) from
/// `full`, the result of the same run with skip = null. Bit-identical to
/// the live engine for every thread count and width — those are already
/// bit-identical to each other. O(faults + patterns). Throws Error when
/// `skip` does not match `full`'s fault count or `full` is not a dropped
/// run (a misuse, never a data-dependent state).
FaultSimResult ReplaySkipFromFull(const FaultSimResult& full,
                                  const BitVec& skip);

/// Kept for perfbench/ only, whose replay probe still constructs one to
/// pass to the former signature below. It holds nothing and simulates
/// nothing: good-machine values live in each run's GoodTable.
struct GoodBlockCache {
  GoodBlockCache(const netlist::Netlist& /*nl*/,
                 const netlist::PatternSet& /*patterns*/) {}
};

/// The former signature, kept for perfbench/ (its only caller), which
/// still calls it: forwards to the filter above. `nl`, `faults` and
/// `good_blocks` are unused.
FaultSimResult ReplaySkipFromFull(const netlist::Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  const FaultSimResult& full,
                                  const BitVec& skip,
                                  GoodBlockCache& good_blocks);

}  // namespace gpustl::fault
