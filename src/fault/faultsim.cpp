#include "fault/faultsim.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "fault/collapse.h"
#include "fault/engine.h"
#include "fault/parallel.h"
#include "fault/scratch.h"

namespace gpustl::fault {

using netlist::CellType;
using netlist::Gate;
using netlist::kMaxFanin;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

namespace internal {

SimPlan BuildSimPlan(const FaultCollapse* collapse, const BitVec* skip,
                     std::size_t num_faults) {
  SimPlan plan;
  plan.offsets.push_back(0);
  if (collapse == nullptr) {
    plan.members.reserve(num_faults);
    for (std::uint32_t i = 0; i < num_faults; ++i) {
      if (skip != nullptr && skip->Get(i)) continue;
      plan.members.push_back(i);
      plan.offsets.push_back(static_cast<std::uint32_t>(plan.members.size()));
    }
    return plan;
  }
  plan.members.reserve(collapse->members.size());
  for (std::size_t c = 0; c < collapse->num_classes(); ++c) {
    const std::size_t before = plan.members.size();
    for (std::uint32_t m : collapse->class_members(c)) {
      if (skip != nullptr && skip->Get(m)) continue;
      plan.members.push_back(m);
    }
    if (plan.members.size() > before) {
      plan.offsets.push_back(static_cast<std::uint32_t>(plan.members.size()));
    }
  }
  return plan;
}

}  // namespace internal

namespace {

using internal::SimPlan;
using internal::TrimContext;
using internal::TrimPlan;

/// Per-shard replay storage for one deduped source block: every live
/// class's detection diff, captured when the block is computed so repeats
/// skip evaluation entirely. Zero-filled on creation — a class whose leader
/// never activates (or whose diff is never reached) correctly replays as
/// "no detection".
struct ReplayEntry {
  std::vector<std::uint64_t> diffs;  // per class index
};

/// Removes classes past their last activating block from `live`,
/// accumulating the member-fault count into the early-exit counter. Exact:
/// a class's diff is contained in its leader activation pointwise, so a
/// class no later block can activate can never detect again.
void EarlyExitFilter(const TrimPlan* tp, const SimPlan& plan, std::size_t bi,
                     TrimCounters* counters, std::vector<std::uint32_t>& live) {
  if (tp == nullptr || !tp->early_exit) return;
  std::uint64_t exited = 0;
  std::size_t w = 0;
  for (const std::uint32_t ci : live) {
    if (tp->last_act[ci] >= static_cast<std::int64_t>(bi)) {
      live[w++] = ci;
    } else {
      exited += plan.offsets[ci + 1] - plan.offsets[ci];
    }
  }
  if (exited == 0) return;
  live.resize(w);
  if (counters != nullptr) {
    counters->faults_early_exited.fetch_add(exited, std::memory_order_relaxed);
  }
}

/// Resolves one block of the dedup protocol: which block index to fetch
/// good values from, whether to replay a cached entry, and whether to
/// capture one for later repeats. Shards walk blocks in ascending order and
/// only ever break forward, so a repeated block's source entry is always
/// present by the time it is needed.
struct BlockTrim {
  std::uint32_t src;          // block whose good values to fetch
  const ReplayEntry* load;    // non-null: replay, skip all evaluation
  ReplayEntry* store;         // non-null: capture words while computing
};

BlockTrim ResolveBlockTrim(
    const TrimPlan* tp, std::size_t bi, std::size_t num_classes,
    TrimCounters* counters,
    std::unordered_map<std::uint32_t, ReplayEntry>& replay) {
  BlockTrim bt{static_cast<std::uint32_t>(bi), nullptr, nullptr};
  if (tp == nullptr || !tp->dedup) return bt;
  bt.src = tp->repeat_of[bi];
  if (bt.src != bi) {
    bt.load = &replay.at(bt.src);
    if (counters != nullptr) {
      counters->blocks_replayed.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (tp->has_repeat[bi] != 0) {
    ReplayEntry& e = replay[bt.src];
    e.diffs.assign(num_classes, 0);
    bt.store = &e;
  }
  return bt;
}

/// The classic PPSFP loop over one shard of `live` class indices
/// (ascending), accumulating into `result` (pre-sized by
/// InitFaultSimResult). With `live` = all classes this IS the serial
/// engine; the parallel engine runs it once per shard with private
/// PropagationScratch state — only the good-machine blocks are shared,
/// read-only, through `good_blocks`.
///
/// Per class: the faulty function is propagated once, from the leader —
/// the detection diff (faulty^good at the outputs) is identical for every
/// member by construction of the classes, so detections expand to the whole
/// class exactly and a class drops wholesale. The diff is contained in the
/// leader's activation word (good value differs from the stuck value), so
/// an inactive leader skips propagation.
void SimulateShard(const Netlist& nl, const PatternSet& patterns,
                   const std::vector<Fault>& faults, const SimPlan& plan,
                   std::vector<std::uint32_t> live,
                   GoodBlockCache& good_blocks, const FaultSimOptions& options,
                   const TrimContext& trim, FaultSimResult& result) {
  internal::PropagationScratch scratch(nl);
  const auto& outputs = nl.outputs();
  const bool cone_on = options.cone_limit;
  const std::size_t cone_words = nl.cone_words();
  const TrimPlan* tp = trim.plan;
  std::unordered_map<std::uint32_t, ReplayEntry> replay;

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    if (live.empty()) break;
    // Cooperative cancellation: one relaxed poll per pattern block. An
    // expired token abandons this shard's remaining work; the engine
    // discards the partial result by throwing after the join.
    if (options.cancel != nullptr && options.cancel->Expired()) return;
    const std::size_t bi = base / 64;
    EarlyExitFilter(tp, plan, bi, trim.counters, live);
    if (live.empty()) break;
    const BlockTrim bt =
        ResolveBlockTrim(tp, bi, plan.num_classes(), trim.counters, replay);
    // Under dedup a repeated block reads its source block's good values —
    // bit-identical on every net that matters (that is what the
    // fingerprint certifies), evaluated once.
    const GoodBlockCache::Block& block = good_blocks.Get(bt.src);
    if (block.count == 0) break;
    const std::uint64_t valid =
        block.count >= 64 ? ~0ull : ((1ull << block.count) - 1);
    const std::vector<std::uint64_t>& good = block.values;

    std::size_t w = 0;  // compaction write index over `live`
    for (std::size_t r = 0; r < live.size(); ++r) {
      const std::uint32_t ci = live[r];
      const std::uint32_t mbegin = plan.offsets[ci];
      const std::uint32_t mend = plan.offsets[ci + 1];

      std::uint64_t diff = 0;
      if (bt.load != nullptr) {
        // Replay: the class diff captured at the source block is exact
        // here — skip all evaluation.
        diff = bt.load->diffs[ci];
        if (diff == 0) {
          live[w++] = ci;
          continue;
        }
      } else {
        const Fault& f = faults[plan.members[mbegin]];
        const NetId site_net =
            f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
        const std::uint64_t stuck = f.sa1 ? ~0ull : 0ull;
        if (((good[site_net] ^ stuck) & valid) == 0) {
          live[w++] = ci;
          continue;
        }

        // Single-fault propagation from the leader site, event-driven in
        // level order. Events that leave the output cone are not enqueued:
        // every frontier net is reachable from the site, so "reaches some
        // output" is equivalent to "reaches an output of this fault's cone".
        const Gate& g = nl.gate(f.gate);
        scratch.NewFault();
        if (f.pin == Fault::kOutputPin) {
          scratch.SetFaulty(f.gate, stuck);
          for (NetId fo : nl.fanout(f.gate)) {
            if (!cone_on || nl.ReachesOutput(fo)) scratch.Enqueue(fo);
          }
        } else {
          // Re-evaluate the faulted gate with the pin forced.
          std::uint64_t in[kMaxFanin];
          for (int i = 0; i < g.fanin_count(); ++i) {
            in[i] = i == f.pin ? stuck : good[g.fanin[i]];
          }
          const std::uint64_t out = netlist::EvalCell(g.type, in);
          if (out != good[f.gate]) {
            scratch.SetFaulty(f.gate, out);
            for (NetId fo : nl.fanout(f.gate)) {
              if (!cone_on || nl.ReachesOutput(fo)) scratch.Enqueue(fo);
            }
          }
        }

        scratch.Drain([&](NetId id) {
          const Gate& gg = nl.gate(id);
          std::uint64_t in[kMaxFanin];
          for (int i = 0; i < gg.fanin_count(); ++i) {
            in[i] = scratch.FaultyValue(good, gg.fanin[i]);
          }
          const std::uint64_t out = netlist::EvalCell(gg.type, in);
          if (out != good[id]) {
            scratch.SetFaulty(id, out);
            for (NetId fo : nl.fanout(id)) {
              if (!cone_on || nl.ReachesOutput(fo)) scratch.Enqueue(fo);
            }
          }
        });

        // Detection: any touched primary output that differs from good. Only
        // outputs inside the site's cone can be touched, so with the cone on
        // the scan walks just those set bits.
        if (cone_on) {
          const std::uint64_t* cone = nl.OutputCone(f.gate);
          for (std::size_t cw = 0; cw < cone_words; ++cw) {
            for (std::uint64_t bits = cone[cw]; bits != 0; bits &= bits - 1) {
              const NetId o =
                  outputs[cw * 64 + static_cast<std::size_t>(LowestSetBit(bits))];
              if (scratch.touched_epoch[o] == scratch.epoch) {
                diff |= (scratch.fval[o] ^ good[o]);
              }
            }
          }
        } else {
          for (NetId o : outputs) {
            if (scratch.touched_epoch[o] == scratch.epoch) {
              diff |= (scratch.fval[o] ^ good[o]);
            }
          }
        }
        diff &= valid;
        if (bt.store != nullptr) bt.store->diffs[ci] = diff;

        if (diff == 0) {
          live[w++] = ci;
          continue;
        }
      }

      const auto first_pattern =
          base + static_cast<std::size_t>(LowestSetBit(diff));
      const std::uint32_t num_members = mend - mbegin;
      for (std::uint32_t mi = mbegin; mi < mend; ++mi) {
        const std::uint32_t fi = plan.members[mi];
        if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
          result.first_detect[fi] = static_cast<std::uint32_t>(first_pattern);
          result.detected_mask.Set(fi, true);
          ++result.num_detected;
        }
      }

      if (options.drop_detected) {
        result.detects_per_pattern[first_pattern] += num_members;
        // dropped: do not keep in `live`.
      } else {
        for (std::uint64_t bits = diff; bits != 0; bits &= bits - 1) {
          result.detects_per_pattern[base + static_cast<std::size_t>(
                                                LowestSetBit(bits))] +=
              num_members;
        }
        live[w++] = ci;
      }
    }
    live.resize(w);
    if (live.empty() && options.drop_detected) break;
  }
}

/// The FFR-clustered PPSFP loop over one shard of FFR-group indices
/// (ascending; a group = every live class whose sites sit in one
/// fanout-free region, see GroupClassesByFfr). Instead of one event-driven
/// propagation per class, each region runs per 64-pattern block:
///
///  1. leader activation per class, exactly as in the classic loop;
///  2. one backward critical-path trace over the region's good words: for
///     every member net, the word of patterns on which a value change there
///     reaches the region's stem. Exact, because an FFR has no
///     reconvergence — each internal net feeds exactly one pin, so the
///     chain of lane-wise pin sensitizations to the stem is unique;
///  3. ONE stem propagation (faulty stem = ~good) whose output diff is the
///     stem's observability word — lane-independent cell evaluation makes
///     the all-lanes flip valid for every subset of lanes, so the word is
///     shared by every class of the region;
///  4. per-class detection = leader activation & site-to-stem observability
///     & stem observability, followed by the classic accounting. This
///     equals the classic engine's output diff bit-for-bit: the faulty
///     machine differs from the good one beyond the stem exactly on the
///     lanes where the effect reaches the stem, and there it looks like the
///     good machine with the stem complemented.
///
/// Steps 2–4 are skipped outright when no live class activates, and step 4
/// when every activated effect dies inside the region — the cheap local
/// filter that removes most of the classic engine's per-class propagation.
void SimulateFfrShard(const Netlist& nl, const PatternSet& patterns,
                      const std::vector<Fault>& faults, const SimPlan& plan,
                      const FfrClassGroups& groups,
                      const std::vector<std::uint32_t>& shard_groups,
                      GoodBlockCache& good_blocks,
                      const FaultSimOptions& options, const TrimContext& trim,
                      FaultSimResult& result) {
  internal::FfrScratch scratch(nl);
  const auto& outputs = nl.outputs();
  const bool cone_on = options.cone_limit;
  const std::size_t cone_words = nl.cone_words();
  const TrimPlan* tp = trim.plan;
  std::unordered_map<std::uint32_t, ReplayEntry> replay;

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

  std::vector<std::uint64_t>& obs = scratch.obs;
  std::vector<std::uint64_t>& leader_act = scratch.leader_act;
  std::vector<std::uint64_t>& stem_local = scratch.stem_local;

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    if (work.empty()) break;
    if (options.cancel != nullptr && options.cancel->Expired()) return;
    const std::size_t bi = base / 64;
    const BlockTrim bt =
        ResolveBlockTrim(tp, bi, plan.num_classes(), trim.counters, replay);
    const GoodBlockCache::Block& block = good_blocks.Get(bt.src);
    if (block.count == 0) break;
    const std::uint64_t valid =
        block.count >= 64 ? ~0ull : ((1ull << block.count) - 1);
    const std::vector<std::uint64_t>& good = block.values;

    const auto process = [&](FfrWork& fw) {
      std::vector<std::uint32_t>& cls = fw.classes;
      EarlyExitFilter(tp, plan, bi, trim.counters, cls);
      if (cls.empty()) return;

      // Classic per-class accounting, shared by the replay and compute
      // paths; returns whether the class stays live.
      const auto account = [&](std::uint32_t ci, std::uint64_t diff) -> bool {
        if (diff == 0) return true;
        const std::uint32_t mbegin = plan.offsets[ci];
        const std::uint32_t mend = plan.offsets[ci + 1];
        const auto first_pattern =
            base + static_cast<std::size_t>(LowestSetBit(diff));
        for (std::uint32_t mi = mbegin; mi < mend; ++mi) {
          const std::uint32_t fi = plan.members[mi];
          if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
            result.first_detect[fi] = static_cast<std::uint32_t>(first_pattern);
            result.detected_mask.Set(fi, true);
            ++result.num_detected;
          }
        }
        if (options.drop_detected) {
          result.detects_per_pattern[first_pattern] += mend - mbegin;
          return false;  // dropped
        }
        for (std::uint64_t bits = diff; bits != 0; bits &= bits - 1) {
          result.detects_per_pattern[base + static_cast<std::size_t>(
                                                LowestSetBit(bits))] +=
              mend - mbegin;
        }
        return true;
      };

      if (bt.load != nullptr) {
        // Replay: per-class diffs captured at the source block; steps 1-4
        // are skipped entirely.
        std::size_t w = 0;
        for (std::size_t k = 0; k < cls.size(); ++k) {
          const std::uint32_t ci = cls[k];
          if (account(ci, bt.load->diffs[ci])) cls[w++] = ci;
        }
        cls.resize(w);
        return;
      }

      // 1. Leader activation per class.
      leader_act.assign(cls.size(), 0);
      std::uint64_t any_act = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
        const NetId site_net =
            f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
        const std::uint64_t stuck = f.sa1 ? ~0ull : 0ull;
        leader_act[k] = (good[site_net] ^ stuck) & valid;
        any_act |= leader_act[k];
      }
      if (any_act == 0) return;  // nothing can reach the stem this block

      // 2. Backward critical-path trace. Members are visited in descending
      // id order; an internal net's unique consumer has a larger id in the
      // same region, so obs[member] is final before it is read.
      const std::span<const NetId> members = nl.ffr_members(fw.ffr);
      obs[fw.stem] = ~0ull;
      for (std::size_t r = members.size(); r-- > 0;) {
        const NetId m = members[r];
        const Gate& g = nl.gate(m);
        const int fc = g.fanin_count();
        if (fc == 0) continue;
        std::uint64_t in[kMaxFanin];
        for (int i = 0; i < fc; ++i) in[i] = good[g.fanin[i]];
        const std::uint64_t obs_m = obs[m];
        for (int p = 0; p < fc; ++p) {
          const NetId src = g.fanin[p];
          if (src == fw.stem || nl.stem_of(src) != fw.stem) continue;
          // Lane-wise Boolean difference of the cell wrt pin p.
          const std::uint64_t saved = in[p];
          in[p] = ~saved;
          const std::uint64_t sens = netlist::EvalCell(g.type, in) ^ good[m];
          in[p] = saved;
          obs[src] = obs_m & sens;
        }
      }

      // 3. Site-to-stem words per class, from the leader (one faulty
      // function per class, so one word serves every member).
      stem_local.assign(cls.size(), 0);
      std::uint64_t any_local = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        if (leader_act[k] == 0) continue;
        const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
        std::uint64_t site_obs;
        if (f.pin == Fault::kOutputPin) {
          site_obs = obs[f.gate];
        } else {
          // Pin fault: the effect enters at the gate output on the lanes
          // where the forced pin flips it.
          const Gate& g = nl.gate(f.gate);
          std::uint64_t in[kMaxFanin];
          for (int i = 0; i < g.fanin_count(); ++i) in[i] = good[g.fanin[i]];
          in[f.pin] = ~in[f.pin];
          site_obs =
              (netlist::EvalCell(g.type, in) ^ good[f.gate]) & obs[f.gate];
        }
        stem_local[k] = leader_act[k] & site_obs;
        any_local |= stem_local[k];
      }
      if (any_local == 0) return;  // every effect died inside the region

      // 4. One stem propagation for the whole region — unless a warm
      // cross-run cache already holds this (block, stem) word. The word is
      // a pure function of (netlist, patterns): fault-list, dropping and
      // cone-toggle independent, so any earlier run's value is exact here.
      std::uint64_t stem_obs = 0;
      const bool warm_hit = trim.stem_obs != nullptr &&
                            trim.stem_obs->Lookup(bi, fw.stem, &stem_obs);
      if (warm_hit) {
        if (trim.counters != nullptr) {
          trim.counters->warm_stem_hits.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
      } else {
        internal::PropagationScratch& prop = scratch.prop;
        prop.NewFault();
        prop.SetFaulty(fw.stem, ~good[fw.stem]);
        for (NetId fo : nl.fanout(fw.stem)) {
          if (!cone_on || nl.ReachesOutput(fo)) prop.Enqueue(fo);
        }
        prop.Drain([&](NetId id) {
          const Gate& gg = nl.gate(id);
          std::uint64_t in[kMaxFanin];
          for (int i = 0; i < gg.fanin_count(); ++i) {
            in[i] = prop.FaultyValue(good, gg.fanin[i]);
          }
          const std::uint64_t out = netlist::EvalCell(gg.type, in);
          if (out != good[id]) {
            prop.SetFaulty(id, out);
            for (NetId fo : nl.fanout(id)) {
              if (!cone_on || nl.ReachesOutput(fo)) prop.Enqueue(fo);
            }
          }
        });

        if (cone_on) {
          const std::uint64_t* cone = nl.OutputCone(fw.stem);
          for (std::size_t cw = 0; cw < cone_words; ++cw) {
            for (std::uint64_t bits = cone[cw]; bits != 0; bits &= bits - 1) {
              const NetId o = outputs[cw * 64 + static_cast<std::size_t>(
                                                    LowestSetBit(bits))];
              if (prop.touched_epoch[o] == prop.epoch) {
                stem_obs |= (prop.fval[o] ^ good[o]);
              }
            }
          }
        } else {
          for (NetId o : outputs) {
            if (prop.touched_epoch[o] == prop.epoch) {
              stem_obs |= (prop.fval[o] ^ good[o]);
            }
          }
        }
        if (trim.stem_obs != nullptr) {
          trim.stem_obs->Store(bi, fw.stem, stem_obs);
        }
      }
      if (stem_obs == 0) return;

      // 5. Per-class expansion with the classic accounting.
      std::size_t w = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const std::uint32_t ci = cls[k];
        const std::uint64_t diff = stem_local[k] & stem_obs;
        if (bt.store != nullptr) bt.store->diffs[ci] = diff;
        if (account(ci, diff)) cls[w++] = ci;
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
  }
}

}  // namespace

FaultSimResult RunFaultSim(const Netlist& nl, const PatternSet& patterns,
                           const std::vector<Fault>& faults, const BitVec* skip,
                           const FaultSimOptions& requested_options) {
  // $GPUSTL_NO_TRIM pins the untrimmed engine regardless of the caller's
  // toggles (fault/trim.h); everything below sees the effective options.
  FaultSimOptions options = requested_options;
  options.trim = EffectiveTrim(requested_options.trim);

  GPUSTL_ASSERT(nl.frozen(), "fault sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "fault sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }

  // Resolve the backend before any heavy setup: an unknown or unsupported
  // request must fail fast (SimError, input error class).
  const Backend backend = ResolveBackend(options.backend);

  FaultSimResult result = InitFaultSimResult(faults.size(), patterns.size());

  FaultCollapse local;
  const FaultCollapse* collapse = nullptr;
  if (options.collapse) {
    if (options.collapse_plan != nullptr) {
      GPUSTL_ASSERT(options.collapse_plan->num_faults == faults.size(),
                    "collapse plan does not match the fault list");
      collapse = options.collapse_plan;
    } else {
      local = BuildFaultCollapse(nl, faults);
      collapse = &local;
    }
  }
  const SimPlan plan = internal::BuildSimPlan(collapse, skip, faults.size());

  // Good-machine blocks are simulated once and shared read-only by every
  // shard (and trivially by the serial loop). Under warm-start they come
  // from the cross-run cache instead — together with the FFR stem-
  // observability words — so runs over the same (netlist, patterns) pair
  // re-evaluate nothing.
  WarmStartCache::Shared warm;
  std::optional<GoodBlockCache> local_good;
  if (options.trim.warm_start && options.warm_cache != nullptr) {
    warm = options.warm_cache->Acquire(nl, patterns, options.trim_counters);
  } else {
    local_good.emplace(nl, patterns);
  }
  GoodBlockCache& good_blocks = warm.good != nullptr ? *warm.good : *local_good;

  internal::TrimPlan trim_plan;
  if (options.trim.dedup_blocks || options.trim.early_exit) {
    trim_plan = internal::BuildStuckAtTrimPlan(nl, patterns, faults, plan,
                                               good_blocks, options);
  }
  const internal::TrimContext trim{
      trim_plan.dedup || trim_plan.early_exit ? &trim_plan : nullptr,
      warm.stem_obs.get(), options.trim_counters};

  if (backend != Backend::kScalar) {
    // Wide backends own their pattern-block loop; everything prepared so
    // far (plan, groups, good blocks, trim plan) is shared with them as-is.
    const FfrClassGroups groups =
        options.ffr_trace
            ? GroupClassesByFfr(nl, faults, plan.offsets, plan.members)
            : FfrClassGroups{};
    const internal::StuckAtRun run{
        nl,          patterns,
        faults,      plan,
        options.ffr_trace ? &groups : nullptr,
        good_blocks, options,
        trim};
    switch (backend) {
      case Backend::kWide:
        return internal::RunStuckAtWide(run);
#if defined(GPUSTL_HAVE_AVX2)
      case Backend::kAvx2:
        return internal::RunStuckAtAvx2(run);
#endif
#if defined(GPUSTL_HAVE_AVX512)
      case Backend::kAvx512:
        return internal::RunStuckAtAvx512(run);
#endif
      default:
        throw SimError("backend '" + std::string(BackendName(backend)) +
                       "' has no stuck-at engine in this binary");
    }
  }

  if (options.ffr_trace) {
    // FFR-clustered engine: the work (and sharding) unit is a fanout-free
    // region, since its single stem propagation serves every class inside.
    const FfrClassGroups groups =
        GroupClassesByFfr(nl, faults, plan.offsets, plan.members);
    std::vector<std::uint32_t> live(groups.num_groups());
    std::iota(live.begin(), live.end(), 0u);

    const int threads = ResolveNumThreads(options.num_threads, live.size());
    if (threads <= 1) {
      SimulateFfrShard(nl, patterns, faults, plan, groups, live, good_blocks,
                       options, trim, result);
      AbortIfCancelled(options);
      return result;
    }

    const std::vector<std::vector<std::uint32_t>> shards =
        StrideShards(live, threads);
    std::vector<FaultSimResult> partial(
        threads, InitFaultSimResult(faults.size(), patterns.size()));
    RunOnShards(threads, [&](int t) {
      SimulateFfrShard(nl, patterns, faults, plan, groups, shards[t],
                       good_blocks, options, trim, partial[t]);
    });
    AbortIfCancelled(options);
    MergeShardResults(partial, result);
    return result;
  }

  // `live` = class indices still needing simulation.
  std::vector<std::uint32_t> live(plan.num_classes());
  std::iota(live.begin(), live.end(), 0u);

  const int threads = ResolveNumThreads(options.num_threads, live.size());
  if (threads <= 1) {
    SimulateShard(nl, patterns, faults, plan, std::move(live), good_blocks,
                  options, trim, result);
    AbortIfCancelled(options);
    return result;
  }

  std::vector<std::vector<std::uint32_t>> shards = StrideShards(live, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(faults.size(), patterns.size()));
  RunOnShards(threads, [&](int t) {
    SimulateShard(nl, patterns, faults, plan, std::move(shards[t]),
                  good_blocks, options, trim, partial[t]);
  });
  AbortIfCancelled(options);
  MergeShardResults(partial, result);
  return result;
}

double CoveragePercent(std::size_t detected, std::size_t total) {
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(detected) / static_cast<double>(total);
}

}  // namespace gpustl::fault
