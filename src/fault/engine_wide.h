// The PPSFP engine, parameterized by width: every loop runs over Wide<L>
// bundles (64*L patterns per propagation block). It is the only
// propagation engine; the lane count is picked per run (PickLanes in
// fault/engine.h), and each translation unit that instantiates it
// (backend_wide.cpp: L = 1 and 4, portable; backend_avx512.cpp: L = 8
// under -mavx512f) does so under its own codegen flags.
//
// Everything here lives in an ANONYMOUS namespace on purpose: implicit
// template instantiations have vague linkage, so without it the linker
// could merge a portable and an AVX-512-compiled instantiation of the same
// template into one — handing AVX-512 code to a CPU without it. Internal
// linkage pins each instantiation to the translation unit whose flags
// compiled it.
//
// Bit-identity across widths is THE invariant. Detection words are
// per-pattern functions and a report holds only detections, so widening
// blocks cannot change it: a class's first detection is the lowest set bit
// of its diff at any width, and it drops right there. The one cross-width
// seam is the transition engine's launch-history carry: Wide::
// ShiftLeftOneCarry chains the carry through lane boundaries, and the
// per-fault history bit chains it across blocks.
//
// Good values come straight from the run's GoodTable (fault/parallel.h),
// which the good pass lays out at L lanes per net: a net's good bundle is
// one load from the table, with no transpose, copy or lock per block.
//
// Internal header — include from the backend_*.cpp translation units only.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "fault/engine.h"
#include "fault/wide.h"

namespace gpustl::fault::internal {
namespace {

/// The good bundles of one wide block of the run's GoodTable, which the
/// good pass lays out at L contiguous, aligned lanes per net. Read through
/// memcpy — the defined way to view the table's words as a Wide<L> — which
/// compiles to one vector load per bundle.
template <int L>
struct GoodBundles {
  GoodBundles(const GoodTable& table, std::size_t wb)
      : words(table.block(wb)) {}

  Wide<L> operator[](netlist::NetId net) const {
    Wide<L> w;
    std::memcpy(w.lane, words + static_cast<std::size_t>(net) * L,
                sizeof w.lane);
    return w;
  }

  const std::uint64_t* words;
};

/// Single-fault propagation scratch. Faulty bundles are stored
/// copy-on-write with epoch stamps, so per-fault cleanup is O(1). The event
/// queue is an array of buckets indexed by the netlist's precomputed
/// levels: combinational events only ever fan out to strictly higher
/// levels, so one ascending sweep over the buckets replays the events in
/// topological order with O(1) push/pop. Gates on the same level never
/// feed each other, so within-level order cannot change any value.
template <int L>
struct PropagationScratch {
  explicit PropagationScratch(const netlist::Netlist& nl)
      : levels(nl.levels().data()),
        fval(nl.gate_count(), Wide<L>::Zeros()),
        touched_epoch(nl.gate_count(), 0),
        queued_epoch(nl.gate_count(), 0),
        buckets(static_cast<std::size_t>(nl.max_level()) + 1) {}

  const std::uint32_t* levels;
  std::vector<Wide<L>> fval;
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

  Wide<L> FaultyValue(const GoodBundles<L>& good, netlist::NetId net) const {
    return touched_epoch[net] == epoch ? fval[net] : good[net];
  }

  void SetFaulty(netlist::NetId net, const Wide<L>& value) {
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

/// Carry-save per-pattern counter: accumulates {0,1}-valued bundles (and
/// small integer weights) into bit-plane vertical counters, so the no-drop
/// detection histogram costs O(log n) bundle ops per contribution instead
/// of one counter increment per SET BIT. The per-bit expansion happens once
/// per plane per block. The sums are exactly the per-bit sums; only the
/// association order changes, and integer addition is associative.
template <int L>
struct WideCounterPlanes {
  std::vector<Wide<L>> planes;  // planes[j] bit p set => p contributes 2^j
  /// Adds 2^plane0 per set bit of `w` (ripple-carry into higher planes).
  void Add(Wide<L> w, std::size_t plane0 = 0) {
    if (w.IsZero()) return;
    if (planes.size() < plane0) planes.resize(plane0, Wide<L>::Zeros());
    for (std::size_t j = plane0; j < planes.size(); ++j) {
      const Wide<L> carry = planes[j] & w;
      planes[j] ^= w;
      if (carry.IsZero()) return;
      w = carry;
    }
    planes.push_back(w);
  }
  /// Adds `weight` per set bit of `w` (one Add per set bit of the weight).
  void AddWeighted(const Wide<L>& w, std::uint32_t weight) {
    for (std::size_t j = 0; weight != 0; ++j, weight >>= 1) {
      if (weight & 1u) Add(w, j);
    }
  }
  /// Flushes the accumulated counts into `counts` and resets the planes.
  void ExpandInto(std::uint32_t* counts) {
    for (std::size_t j = 0; j < planes.size(); ++j) {
      const std::uint32_t unit = 1u << j;
      planes[j].ForEachSetBit([&](int p) {
        counts[static_cast<std::size_t>(p)] += unit;
      });
    }
    planes.clear();
  }
};

/// The stuck-at loop over one shard of FFR-group indices (ascending; a
/// group = every live class whose sites sit in one fanout-free region, see
/// GroupClassesByFfr). With every group in one shard this IS the serial
/// engine; a sharded run calls it once per shard with private scratch —
/// only the good values are shared, read-only, through the GoodTable. Each
/// class is simulated from its leader: the faulty function is the same for
/// every member by construction of the classes, so detections expand to
/// the whole class and a class drops wholesale. Each region runs per wide
/// block:
///
///  0. early-exit: classes past their last activating block leave the
///     live list for good (compared against the wide block's first
///     64-pattern block);
///  1. leader activation per class (good value differs from the stuck
///     value) — detection is contained in it pointwise;
///  2. one backward critical-path trace over the region's good bundles:
///     for every member net, the patterns on which a value change there
///     reaches the region's stem. Exact, because an FFR has no
///     reconvergence — each internal net feeds exactly one pin, so the
///     chain of pattern-wise pin sensitizations to the stem is unique;
///  3. ONE event-driven stem propagation (faulty stem = ~good), confined to
///     the stem's output cone, whose output diff is the stem's
///     observability — pattern-independent cell evaluation makes the
///     all-patterns flip valid for every subset of patterns, so it is
///     shared by every class of the region;
///  4. per-class detection = leader activation & site-to-stem observability
///     & stem observability: the faulty machine differs from the good one
///     beyond the stem exactly on the patterns where the effect reaches the
///     stem, and there it looks like the good machine with the stem
///     complemented.
///
/// Steps 2–4 are skipped outright when no live class activates, and step 3
/// when every activated effect dies inside the region.
template <int L>
void StuckAtShard(const StuckAtRun& run,
                  std::vector<std::uint32_t> shard_groups,
                  FaultSimResult& result) {
  GPUSTL_ASSERT(run.good.lanes() == L, "good table width != engine width");
  using W = Wide<L>;
  using netlist::Gate;
  using netlist::NetId;

  const netlist::Netlist& nl = run.nl;
  const SimPlan& plan = run.plan;
  const std::vector<Fault>& faults = run.faults;
  const FfrClassGroups& groups = run.groups;
  const auto class_size = [&](std::uint32_t ci) {
    return plan.offsets[ci + 1] - plan.offsets[ci];
  };

  PropagationScratch<L> prop(nl);
  const auto& outputs = nl.outputs();
  const std::size_t cone_words = nl.cone_words();

  // Per net, the patterns on which a value change there reaches its
  // region's stem. Only the members of the region being traced are valid
  // at any moment; every member is rewritten before it is read.
  std::vector<W> obs(nl.gate_count(), W::Zeros());
  std::vector<W> leader_act;  // per live class of one region
  std::vector<W> stem_local;  // leader activation & site-to-stem obs
  WideCounterPlanes<L> det_counts;

  // Live state: per owned region, the class indices still needing
  // simulation. Regions compact away once every class has dropped.
  struct FfrWork {
    NetId stem;
    std::uint32_t ffr;  // netlist region index (for the member list)
    std::vector<std::uint32_t> classes;
  };
  std::vector<FfrWork> work;
  work.reserve(shard_groups.size());
  for (const std::uint32_t gi : shard_groups) {
    const std::span<const std::uint32_t> cls = groups.group_classes(gi);
    work.push_back(
        FfrWork{groups.stems[gi], groups.ffrs[gi], {cls.begin(), cls.end()}});
  }

  for (std::size_t base = 0; base < run.patterns.size(); base += 64 * L) {
    if (work.empty()) break;
    // Cooperative cancellation: one relaxed poll per block. An expired
    // token abandons this shard's remaining work; RunSharded discards the
    // partial result by throwing after the join.
    if (run.options.cancel != nullptr && run.options.cancel->Expired()) return;
    const std::size_t wbi = base / (64 * L);
    const W valid = W::ValidMask(run.good.count(wbi));
    const GoodBundles<L> good(run.good, wbi);

    const auto process = [&](FfrWork& fw) {
      std::vector<std::uint32_t>& cls = fw.classes;
      EarlyExit(run.last_act, wbi * L, run.options, class_size, cls);
      if (cls.empty()) return;

      // 1. Leader activation per class.
      leader_act.assign(cls.size(), W::Zeros());
      W any_act = W::Zeros();
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
        const NetId site_net =
            f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
        const W stuck = f.sa1 ? W::Ones() : W::Zeros();
        leader_act[k] = (good[site_net] ^ stuck) & valid;
        any_act |= leader_act[k];
      }
      if (any_act.IsZero()) return;  // nothing can reach the stem this block

      // 2. Backward critical-path trace. Members are visited in descending
      // id order; an internal net's unique consumer has a larger id in the
      // same region, so obs[member] is final before it is read.
      const std::span<const NetId> members = nl.ffr_members(fw.ffr);
      obs[fw.stem] = W::Ones();
      for (std::size_t r = members.size(); r-- > 0;) {
        const NetId m = members[r];
        const Gate& g = nl.gate(m);
        const int fc = g.fanin_count();
        if (fc == 0) continue;
        W in[netlist::kMaxFanin];
        for (int i = 0; i < fc; ++i) in[i] = good[g.fanin[i]];
        const W obs_m = obs[m];
        for (int p = 0; p < fc; ++p) {
          const NetId src = g.fanin[p];
          if (src == fw.stem || nl.stem_of(src) != fw.stem) continue;
          // Pattern-wise Boolean difference of the cell wrt pin p.
          const W saved = in[p];
          in[p] = ~saved;
          const W sens = EvalCellWide(g.type, in) ^ good[m];
          in[p] = saved;
          obs[src] = obs_m & sens;
        }
      }

      // Site-to-stem bundles per class, from the leader (one faulty
      // function per class, so one bundle serves every member).
      stem_local.assign(cls.size(), W::Zeros());
      W any_local = W::Zeros();
      for (std::size_t k = 0; k < cls.size(); ++k) {
        if (leader_act[k].IsZero()) continue;
        const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
        W site_obs;
        if (f.pin == Fault::kOutputPin) {
          site_obs = obs[f.gate];
        } else {
          // Pin fault: the effect enters at the gate output on the
          // patterns where the forced pin flips it.
          const Gate& g = nl.gate(f.gate);
          W in[netlist::kMaxFanin];
          for (int i = 0; i < g.fanin_count(); ++i) in[i] = good[g.fanin[i]];
          in[f.pin] = ~in[f.pin];
          site_obs = (EvalCellWide(g.type, in) ^ good[f.gate]) & obs[f.gate];
        }
        stem_local[k] = leader_act[k] & site_obs;
        any_local |= stem_local[k];
      }
      if (any_local.IsZero()) return;  // every effect died inside the region

      // 3. One stem propagation for the whole region. Events that leave
      // the stem's output cone are not enqueued: every frontier net is
      // reachable from the stem, so "reaches some output" is equivalent to
      // "reaches an output of this cone".
      prop.NewFault();
      prop.SetFaulty(fw.stem, ~good[fw.stem]);
      for (NetId fo : nl.fanout(fw.stem)) {
        if (nl.ReachesOutput(fo)) prop.Enqueue(fo);
      }
      prop.Drain([&](NetId id) {
        const Gate& gg = nl.gate(id);
        W in[netlist::kMaxFanin];
        for (int i = 0; i < gg.fanin_count(); ++i) {
          in[i] = prop.FaultyValue(good, gg.fanin[i]);
        }
        const W out = EvalCellWide(gg.type, in);
        if (out != good[id]) {
          prop.SetFaulty(id, out);
          for (NetId fo : nl.fanout(id)) {
            if (nl.ReachesOutput(fo)) prop.Enqueue(fo);
          }
        }
      });
      W stem_obs = W::Zeros();
      const std::uint64_t* cone = nl.OutputCone(fw.stem);
      for (std::size_t cw = 0; cw < cone_words; ++cw) {
        for (std::uint64_t bits = cone[cw]; bits != 0; bits &= bits - 1) {
          const NetId o =
              outputs[cw * 64 + static_cast<std::size_t>(LowestSetBit(bits))];
          if (prop.touched_epoch[o] == prop.epoch) {
            stem_obs |= (prop.fval[o] ^ good[o]);
          }
        }
      }
      if (stem_obs.IsZero()) return;

      // 4. Per-class detection, accounting and class compaction.
      std::size_t w = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const std::uint32_t ci = cls[k];
        const W diff = stem_local[k] & stem_obs;
        if (diff.IsZero()) {
          cls[w++] = ci;
          continue;
        }
        const std::uint32_t mbegin = plan.offsets[ci];
        const std::uint32_t mend = plan.offsets[ci + 1];
        const std::size_t first_pattern =
            base + static_cast<std::size_t>(diff.FirstSetBit());
        for (std::uint32_t mi = mbegin; mi < mend; ++mi) {
          const std::uint32_t fi = plan.members[mi];
          if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
            result.first_detect[fi] =
                static_cast<std::uint32_t>(first_pattern);
            result.detected_mask.Set(fi, true);
            ++result.num_detected;
          }
        }
        if (run.options.drop_detected) {
          result.detects_per_pattern[first_pattern] += mend - mbegin;
        } else {
          det_counts.AddWeighted(diff, mend - mbegin);
          cls[w++] = ci;
        }
      }
      cls.resize(w);
    };

    std::size_t gw = 0;  // compaction write index over `work`
    for (std::size_t gr = 0; gr < work.size(); ++gr) {
      process(work[gr]);
      if (work[gr].classes.empty()) continue;  // region fully dropped
      if (gw != gr) work[gw] = std::move(work[gr]);
      ++gw;
    }
    work.resize(gw);
    det_counts.ExpandInto(&result.detects_per_pattern[base]);
  }
}

/// The transition loop over one shard of fault indices (see StuckAtShard
/// for the sharding contract). No fault collapsing here: the launch
/// condition is a property of the fault site's value history, so two
/// transition faults with identical faulty functions still activate on
/// different patterns. The launch bundle chains the per-fault history
/// carry through lane boundaries (ShiftLeftOneCarry), and the history bit
/// advances to the last VALID pattern of the block. The history is per
/// fault, so it shards with the fault list; each shard keeps its own copy
/// indexed by global fault id.
template <int L>
void TransitionShard(const TransitionRun& run, std::vector<std::uint32_t> live,
                     FaultSimResult& result) {
  GPUSTL_ASSERT(run.good.lanes() == L, "good table width != engine width");
  using W = Wide<L>;
  using netlist::Gate;
  using netlist::NetId;

  const netlist::Netlist& nl = run.nl;
  const std::vector<TransitionFault>& faults = run.faults;

  // Launch-side history: the site value of the last pattern of the previous
  // block, per fault. Initialized to the FINAL value so pattern 0 (which
  // has no launch vector) can never activate.
  std::vector<std::uint8_t> prev_site_bit(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    prev_site_bit[i] = faults[i].sa1 ? 0 : 1;  // != init value
  }

  PropagationScratch<L> scratch(nl);
  const auto& outputs = nl.outputs();
  const std::size_t cone_words = nl.cone_words();
  WideCounterPlanes<L> det_counts;

  for (std::size_t base = 0; base < run.patterns.size(); base += 64 * L) {
    if (live.empty()) break;
    if (run.options.cancel != nullptr && run.options.cancel->Expired()) return;
    const std::size_t wbi = base / (64 * L);

    // Per-fault early-exit: past its last launching block a fault can
    // never activate again, so it is settled for the rest of the run.
    EarlyExit(run.last_act, wbi * L, run.options,
              [](std::uint32_t) { return 1u; }, live);
    if (live.empty()) break;

    const int count = run.good.count(wbi);
    const W valid = W::ValidMask(count);
    const GoodBundles<L> good(run.good, wbi);

    std::size_t w = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      const std::uint32_t fi = live[r];
      const TransitionFault& f = faults[fi];
      const Gate& g = nl.gate(f.gate);
      const W stuck = f.sa1 ? W::Ones() : W::Zeros();  // value during capture

      const NetId site_net =
          f.pin == Fault::kOutputPin ? f.gate : g.fanin[f.pin];
      const W site = good[site_net];
      // Launch values: site at pattern j-1 (carry from the previous block).
      const W launch = site.ShiftLeftOneCarry(prev_site_bit[fi] != 0);
      prev_site_bit[fi] = site.Bit(count - 1) ? 1 : 0;

      // Activation: launch == init (== stuck value) and capture toggles.
      const W act = (f.sa1 ? launch : ~launch) & (site ^ stuck) & valid;
      if (act.IsZero()) {
        live[w++] = fi;
        continue;
      }

      // Propagate the late value (a stuck-at of the initial value) on the
      // capture vectors, confined to the site's output cone.
      scratch.NewFault();
      if (f.pin == Fault::kOutputPin) {
        scratch.SetFaulty(f.gate, stuck);
        for (NetId fo : nl.fanout(f.gate)) {
          if (nl.ReachesOutput(fo)) scratch.Enqueue(fo);
        }
      } else {
        W in[netlist::kMaxFanin];
        for (int i = 0; i < g.fanin_count(); ++i) {
          in[i] = i == f.pin ? stuck : good[g.fanin[i]];
        }
        const W out = EvalCellWide(g.type, in);
        if (out != good[f.gate]) {
          scratch.SetFaulty(f.gate, out);
          for (NetId fo : nl.fanout(f.gate)) {
            if (nl.ReachesOutput(fo)) scratch.Enqueue(fo);
          }
        }
      }
      scratch.Drain([&](NetId id) {
        const Gate& gg = nl.gate(id);
        W in[netlist::kMaxFanin];
        for (int i = 0; i < gg.fanin_count(); ++i) {
          in[i] = scratch.FaultyValue(good, gg.fanin[i]);
        }
        const W out = EvalCellWide(gg.type, in);
        if (out != good[id]) {
          scratch.SetFaulty(id, out);
          for (NetId fo : nl.fanout(id)) {
            if (nl.ReachesOutput(fo)) scratch.Enqueue(fo);
          }
        }
      });

      W diff = W::Zeros();
      const std::uint64_t* cone = nl.OutputCone(f.gate);
      for (std::size_t cw = 0; cw < cone_words; ++cw) {
        for (std::uint64_t bits = cone[cw]; bits != 0; bits &= bits - 1) {
          const NetId o =
              outputs[cw * 64 + static_cast<std::size_t>(LowestSetBit(bits))];
          if (scratch.touched_epoch[o] == scratch.epoch) {
            diff |= scratch.fval[o] ^ good[o];
          }
        }
      }
      diff &= act;  // detection only on properly-launched capture vectors
      if (diff.IsZero()) {
        live[w++] = fi;
        continue;
      }

      const std::size_t first_pattern =
          base + static_cast<std::size_t>(diff.FirstSetBit());
      if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
        result.first_detect[fi] = static_cast<std::uint32_t>(first_pattern);
        result.detected_mask.Set(fi, true);
        ++result.num_detected;
      }
      if (run.options.drop_detected) {
        result.detects_per_pattern[first_pattern]++;
      } else {
        det_counts.Add(diff);
        live[w++] = fi;
      }
    }
    det_counts.ExpandInto(&result.detects_per_pattern[base]);
    live.resize(w);
    if (live.empty() && run.options.drop_detected) break;
  }
}

/// The kernels at L lanes, for the LaneKernels entry point of the
/// instantiating translation unit.
template <int L>
LaneKernels KernelsOf() {
  return LaneKernels{&StuckAtShard<L>, &TransitionShard<L>};
}

}  // namespace
}  // namespace gpustl::fault::internal
