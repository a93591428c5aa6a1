// The width-parameterized PPSFP engine: the scalar loops of faultsim.cpp /
// transition.cpp re-expressed over Wide<L> bundles (64*L patterns per
// propagation block). One templated implementation serves every SIMD
// backend; each backend translation unit (backend_wide.cpp,
// backend_avx2.cpp, backend_avx512.cpp) instantiates it under its own
// codegen flags.
//
// Everything here lives in an ANONYMOUS namespace on purpose: implicit
// template instantiations have vague linkage, so without it the linker
// would merge the portable and the AVX-compiled instantiations of the same
// Wide<4> engine into one — either throwing the SIMD codegen away or, far
// worse, handing AVX2 code to the portable backend on a CPU without AVX2.
// Internal linkage pins each instantiation to the translation unit whose
// flags compiled it.
//
// Bit-identity across widths is THE invariant. Detection words are
// per-pattern functions and a report holds only detections, so widening
// blocks cannot change it: a class's first detection is the lowest set bit
// of its diff at any width, and it drops right there. The one cross-width
// seam is the transition engine's launch-history carry: Wide::
// ShiftLeftOneCarry chains the carry through lane boundaries exactly like
// the scalar engine chains it across blocks.
//
// Internal header — include from the backend_*.cpp translation units only.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "fault/engine.h"
#include "fault/wide.h"

namespace gpustl::fault::internal {
namespace {

/// Shared good-machine bundles of one run: the SoA transpose of L
/// consecutive GoodBlockCache blocks per net. Built lazily in block order
/// and shared read-only by every shard, exactly like the base cache (the
/// base stays authoritative — a transpose is cheap next to simulating the
/// block, and reusing it keeps good-value computation in one place).
template <int L>
class WideGoodCache {
 public:
  struct Block {
    int count = 0;  // patterns in this wide block (0 = past the end)
    std::vector<Wide<L>> values;  // good bundle per net
  };

  explicit WideGoodCache(GoodBlockCache& base) : base_(base) {}

  /// Wide block `index` (patterns [64*L*index, 64*L*index + count)).
  /// Thread-safe with the same deque-never-moves-settled-elements contract
  /// as GoodBlockCache::Get.
  const Block& Get(std::size_t index) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (blocks_.size() <= index) {
      Block wb;
      const std::size_t sub0 = blocks_.size() * L;
      const GoodBlockCache::Block* subs[L];
      for (int k = 0; k < L; ++k) {
        subs[k] = &base_.Get(sub0 + static_cast<std::size_t>(k));
        wb.count += subs[k]->count;
      }
      if (wb.count > 0) {
        // Blocks are sequential, so a non-empty wide block has a non-empty
        // first sub-block; trailing empty sub-blocks leave zero lanes that
        // ValidMask(count) excludes anyway.
        const std::size_t nets = subs[0]->values.size();
        wb.values.assign(nets, Wide<L>::Zeros());
        for (int k = 0; k < L; ++k) {
          if (subs[k]->count == 0) continue;
          for (std::size_t net = 0; net < nets; ++net) {
            wb.values[net].lane[k] = subs[k]->values[net];
          }
        }
      }
      blocks_.push_back(std::move(wb));
    }
    return blocks_[index];
  }

 private:
  std::mutex mu_;
  GoodBlockCache& base_;
  std::deque<Block> blocks_;
};

/// fault/scratch.h's PropagationScratch over Wide<L> values: copy-on-write
/// faulty bundles with epoch stamps and the level-bucket event queue. Same
/// algorithm, wider words.
template <int L>
struct WidePropagationScratch {
  explicit WidePropagationScratch(const netlist::Netlist& nl)
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
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  void NewFault() {
    ++epoch;
    lo = UINT32_MAX;
    hi = 0;
  }

  Wide<L> FaultyValue(const std::vector<Wide<L>>& good,
                      netlist::NetId net) const {
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
/// per plane per block. The sums are exactly the scalar engine's sums; only the
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

/// The FFR-clustered loop of faultsim.cpp::SimulateFfrShard at L lanes.
/// Same steps; early-exit compares against the wide block's first scalar
/// sub-block.
template <int L>
void SimulateFfrShardWide(const StuckAtRun& run,
                          const std::vector<std::uint32_t>& shard_groups,
                          WideGoodCache<L>& wide_blocks,
                          FaultSimResult& result) {
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

  WidePropagationScratch<L> prop(nl);
  const auto& outputs = nl.outputs();
  const std::size_t cone_words = nl.cone_words();

  std::vector<W> obs(nl.gate_count(), W::Zeros());
  std::vector<W> leader_act;
  std::vector<W> stem_local;
  WideCounterPlanes<L> det_counts;

  struct FfrWork {
    NetId stem;
    std::uint32_t ffr;
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
    if (run.options.cancel != nullptr && run.options.cancel->Expired()) return;
    const std::size_t wbi = base / (64 * L);
    const typename WideGoodCache<L>::Block& block = wide_blocks.Get(wbi);
    if (block.count == 0) break;
    const W valid = W::ValidMask(block.count);
    const std::vector<W>& good = block.values;

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
      if (any_act.IsZero()) return;

      // 2. Backward critical-path trace over the region's good bundles.
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
          const W saved = in[p];
          in[p] = ~saved;
          const W sens = EvalCellWide(g.type, in) ^ good[m];
          in[p] = saved;
          obs[src] = obs_m & sens;
        }
      }

      // Site-to-stem bundles per class, from the leader.
      stem_local.assign(cls.size(), W::Zeros());
      W any_local = W::Zeros();
      for (std::size_t k = 0; k < cls.size(); ++k) {
        if (leader_act[k].IsZero()) continue;
        const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
        W site_obs;
        if (f.pin == Fault::kOutputPin) {
          site_obs = obs[f.gate];
        } else {
          const Gate& g = nl.gate(f.gate);
          W in[netlist::kMaxFanin];
          for (int i = 0; i < g.fanin_count(); ++i) in[i] = good[g.fanin[i]];
          in[f.pin] = ~in[f.pin];
          site_obs = (EvalCellWide(g.type, in) ^ good[f.gate]) & obs[f.gate];
        }
        stem_local[k] = leader_act[k] & site_obs;
        any_local |= stem_local[k];
      }
      if (any_local.IsZero()) return;

      // 3. One stem propagation for the whole region, confined to the
      // stem's output cone.
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
      if (work[gr].classes.empty()) continue;
      if (gw != gr) work[gw] = std::move(work[gr]);
      ++gw;
    }
    work.resize(gw);
    det_counts.ExpandInto(&result.detects_per_pattern[base]);
  }
}

/// The transition loop of transition.cpp::SimulateShard at L lanes. The
/// launch bundle chains the per-fault history carry through lane
/// boundaries (ShiftLeftOneCarry), and the history bit advances to the
/// last VALID pattern of the wide block — exactly the scalar sequence of
/// per-sub-block carries composed.
template <int L>
void SimulateTransitionShardWide(const TransitionRun& run,
                                 std::vector<std::uint32_t> live,
                                 WideGoodCache<L>& wide_blocks,
                                 FaultSimResult& result) {
  using W = Wide<L>;
  using netlist::Gate;
  using netlist::NetId;

  const netlist::Netlist& nl = run.nl;
  const std::vector<TransitionFault>& faults = run.faults;

  std::vector<std::uint8_t> prev_site_bit(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    prev_site_bit[i] = faults[i].sa1 ? 0 : 1;  // != init value
  }

  WidePropagationScratch<L> scratch(nl);
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

    const typename WideGoodCache<L>::Block& block = wide_blocks.Get(wbi);
    if (block.count == 0) break;
    const int count = block.count;
    const W valid = W::ValidMask(count);
    const std::vector<W>& good = block.values;

    std::size_t w = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      const std::uint32_t fi = live[r];
      const TransitionFault& f = faults[fi];
      const Gate& g = nl.gate(f.gate);
      const W stuck = f.sa1 ? W::Ones() : W::Zeros();

      const NetId site_net =
          f.pin == Fault::kOutputPin ? f.gate : g.fanin[f.pin];
      const W site = good[site_net];
      const W launch = site.ShiftLeftOneCarry(prev_site_bit[fi] != 0);
      prev_site_bit[fi] = site.Bit(count - 1) ? 1 : 0;

      const W act = (f.sa1 ? launch : ~launch) & (site ^ stuck) & valid;
      if (act.IsZero()) {
        live[w++] = fi;
        continue;
      }

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

/// Run orchestration: the same shard/merge scaffolding as the scalar
/// engines (fault/parallel.h), instantiated at L lanes.
template <int L>
FaultSimResult RunStuckAtWideT(const StuckAtRun& run) {
  FaultSimResult result =
      InitFaultSimResult(run.faults.size(), run.patterns.size());
  WideGoodCache<L> wide_blocks(run.good_blocks);
  std::vector<std::uint32_t> live(run.groups.num_groups());
  std::iota(live.begin(), live.end(), 0u);
  const int threads = ResolveNumThreads(run.options.num_threads, live.size());
  if (threads <= 1) {
    SimulateFfrShardWide<L>(run, live, wide_blocks, result);
    AbortIfCancelled(run.options);
    return result;
  }
  const std::vector<std::vector<std::uint32_t>> shards =
      StrideShards(live, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(run.faults.size(), run.patterns.size()));
  RunOnShards(threads, [&](int t) {
    SimulateFfrShardWide<L>(run, shards[t], wide_blocks, partial[t]);
  });
  AbortIfCancelled(run.options);
  MergeShardResults(partial, result);
  return result;
}

template <int L>
FaultSimResult RunTransitionWideT(const TransitionRun& run) {
  FaultSimResult result =
      InitFaultSimResult(run.faults.size(), run.patterns.size());
  WideGoodCache<L> wide_blocks(run.good_blocks);
  const int threads =
      ResolveNumThreads(run.options.num_threads, run.live.size());
  if (threads <= 1) {
    SimulateTransitionShardWide<L>(run, run.live, wide_blocks, result);
    AbortIfCancelled(run.options);
    return result;
  }
  std::vector<std::vector<std::uint32_t>> shards =
      StrideShards(run.live, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(run.faults.size(), run.patterns.size()));
  RunOnShards(threads, [&](int t) {
    SimulateTransitionShardWide<L>(run, std::move(shards[t]), wide_blocks,
                                   partial[t]);
  });
  AbortIfCancelled(run.options);
  MergeShardResults(partial, result);
  return result;
}

}  // namespace
}  // namespace gpustl::fault::internal
