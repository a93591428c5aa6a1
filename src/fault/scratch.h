// Shared single-fault propagation scratch for the PPSFP engines
// (stuck-at and transition).
//
// Faulty net values are stored copy-on-write with epoch stamps so per-fault
// cleanup is O(1). The event queue is an array of buckets indexed by the
// netlist's precomputed levels: combinational events only ever fan out to
// strictly higher levels, so one ascending sweep over the buckets replays
// the events in topological order with O(1) push/pop (the previous
// std::priority_queue paid O(log n) per event). Results are bit-identical:
// gates on the same level never feed each other, so within-level ordering
// cannot change any evaluated value.
//
// Internal header — include from src/fault/*.cpp only.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace gpustl::fault::internal {

struct PropagationScratch {
  explicit PropagationScratch(const netlist::Netlist& nl)
      : levels(nl.levels().data()),
        fval(nl.gate_count(), 0),
        touched_epoch(nl.gate_count(), 0),
        queued_epoch(nl.gate_count(), 0),
        buckets(static_cast<std::size_t>(nl.max_level()) + 1) {}

  const std::uint32_t* levels;
  std::vector<std::uint64_t> fval;
  std::vector<std::uint32_t> touched_epoch;
  std::vector<std::uint32_t> queued_epoch;
  std::uint32_t epoch = 0;
  std::vector<std::vector<netlist::NetId>> buckets;
  std::uint32_t lo = 0;  // lowest level holding a pending event
  std::uint32_t hi = 0;  // highest level that ever held one this fault

  void NewFault() {
    ++epoch;
    lo = UINT32_MAX;
    hi = 0;
  }

  std::uint64_t FaultyValue(const std::uint64_t* good,
                            netlist::NetId net) const {
    return touched_epoch[net] == epoch ? fval[net] : good[net];
  }

  void SetFaulty(netlist::NetId net, std::uint64_t value) {
    fval[net] = value;
    touched_epoch[net] = epoch;
  }

  void Enqueue(netlist::NetId net) {
    if (queued_epoch[net] == epoch) return;
    queued_epoch[net] = epoch;
    const std::uint32_t lvl = levels[net];
    buckets[lvl].push_back(net);
    if (lvl < lo) lo = lvl;
    if (lvl > hi) hi = lvl;
  }

  /// Drains the pending events in level order, calling `evaluate(net)` once
  /// per event. `evaluate` may Enqueue further events, but only at strictly
  /// higher levels (combinational fanout), so the sweep never revisits a
  /// bucket. All buckets are empty afterwards.
  template <typename Fn>
  void Drain(Fn&& evaluate) {
    if (lo == UINT32_MAX) return;
    for (std::uint32_t lvl = lo; lvl <= hi; ++lvl) {
      std::vector<netlist::NetId>& bucket = buckets[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) evaluate(bucket[i]);
      bucket.clear();
    }
  }
};

/// Per-worker scratch of the FFR-clustered stuck-at engine: the stem
/// propagation state plus the backward critical-path-tracing buffers. `obs`
/// holds, per net, the word of patterns on which a value change at the net
/// reaches its region's stem; only the members of the region currently
/// being traced are valid at any moment (stale entries from other regions
/// are never read — every member is rewritten before use). The per-class
/// vectors are reused across regions to avoid reallocation.
struct FfrScratch {
  explicit FfrScratch(const netlist::Netlist& nl)
      : prop(nl), obs(nl.gate_count(), 0) {}

  PropagationScratch prop;
  std::vector<std::uint64_t> obs;         // site-to-stem observability words
  std::vector<std::uint64_t> leader_act;  // per live class of one region
  std::vector<std::uint64_t> stem_local;  // leader activation & site obs
};

}  // namespace gpustl::fault::internal
