#include "fault/faultsim.h"

#include <algorithm>
#include <numeric>
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

SimPlan BuildSimPlan(const FaultCollapse& collapse, const BitVec* skip) {
  SimPlan plan;
  plan.offsets.push_back(0);
  plan.members.reserve(collapse.members.size());
  for (std::size_t c = 0; c < collapse.num_classes(); ++c) {
    const std::size_t before = plan.members.size();
    for (std::uint32_t m : collapse.class_members(c)) {
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

using internal::LastActivation;
using internal::SimPlan;

/// The PPSFP loop over one shard of FFR-group indices (ascending; a group =
/// every live class whose sites sit in one fanout-free region, see
/// GroupClassesByFfr), accumulating into `result` (pre-sized by
/// InitFaultSimResult). With every group in one shard this IS the serial
/// engine; the parallel engine runs it once per shard with private scratch
/// — only the good-machine values are shared, read-only, through `good`
/// (one lane per net). Each class is simulated from its leader: the faulty
/// function is the same for every member by construction of the classes,
/// so detections expand to the whole class and a class drops wholesale.
/// Each region runs per 64-pattern block:
///
///  0. early-exit: classes past their last activating block leave the
///     live list for good;
///  1. leader activation per class (good value differs from the stuck
///     value) — detection is contained in it pointwise;
///  2. one backward critical-path trace over the region's good words: for
///     every member net, the word of patterns on which a value change there
///     reaches the region's stem. Exact, because an FFR has no
///     reconvergence — each internal net feeds exactly one pin, so the
///     chain of lane-wise pin sensitizations to the stem is unique;
///  3. ONE event-driven stem propagation (faulty stem = ~good), confined to
///     the stem's output cone, whose output diff is the stem's
///     observability word — lane-independent cell evaluation makes the
///     all-lanes flip valid for every subset of lanes, so the word is
///     shared by every class of the region;
///  4. per-class detection = leader activation & site-to-stem observability
///     & stem observability: the faulty machine differs from the good one
///     beyond the stem exactly on the lanes where the effect reaches the
///     stem, and there it looks like the good machine with the stem
///     complemented.
///
/// Steps 2–4 are skipped outright when no live class activates, and step 3
/// when every activated effect dies inside the region.
void SimulateFfrShard(const Netlist& nl, const PatternSet& patterns,
                      const std::vector<Fault>& faults, const SimPlan& plan,
                      const FfrClassGroups& groups,
                      const std::vector<std::uint32_t>& shard_groups,
                      const GoodTable& good_table,
                      const FaultSimOptions& options,
                      const LastActivation& last_act,
                      FaultSimResult& result) {
  internal::FfrScratch scratch(nl);
  const auto& outputs = nl.outputs();
  const std::size_t cone_words = nl.cone_words();
  const auto class_size = [&](std::uint32_t ci) {
    return plan.offsets[ci + 1] - plan.offsets[ci];
  };

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
    // Cooperative cancellation: one relaxed poll per pattern block. An
    // expired token abandons this shard's remaining work; the engine
    // discards the partial result by throwing after the join.
    if (options.cancel != nullptr && options.cancel->Expired()) return;
    const std::size_t bi = base / 64;
    const int count = good_table.count(bi);
    const std::uint64_t valid = count >= 64 ? ~0ull : ((1ull << count) - 1);
    const std::uint64_t* good = good_table.block(bi);

    const auto process = [&](FfrWork& fw) {
      std::vector<std::uint32_t>& cls = fw.classes;
      internal::EarlyExit(last_act, bi, options, class_size, cls);
      if (cls.empty()) return;

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

      // Site-to-stem words per class, from the leader (one faulty
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

      // 3. One stem propagation for the whole region. Events that leave
      // the stem's output cone are not enqueued: every frontier net is
      // reachable from the stem, so "reaches some output" is equivalent to
      // "reaches an output of this cone".
      internal::PropagationScratch& prop = scratch.prop;
      prop.NewFault();
      prop.SetFaulty(fw.stem, ~good[fw.stem]);
      for (NetId fo : nl.fanout(fw.stem)) {
        if (nl.ReachesOutput(fo)) prop.Enqueue(fo);
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
            if (nl.ReachesOutput(fo)) prop.Enqueue(fo);
          }
        }
      });
      std::uint64_t stem_obs = 0;
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
      if (stem_obs == 0) return;

      // 4. Per-class detection and accounting.
      std::size_t w = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const std::uint32_t ci = cls[k];
        const std::uint64_t diff = stem_local[k] & stem_obs;
        if (diff == 0) {
          cls[w++] = ci;
          continue;
        }
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
          continue;  // dropped
        }
        for (std::uint64_t bits = diff; bits != 0; bits &= bits - 1) {
          result.detects_per_pattern[base + static_cast<std::size_t>(
                                                LowestSetBit(bits))] +=
              mend - mbegin;
        }
        cls[w++] = ci;
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
                           const FaultSimOptions& options) {
  GPUSTL_ASSERT(nl.frozen(), "fault sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "fault sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }

  // Resolve the backend before any heavy setup: an unknown or unsupported
  // request must fail fast (SimError, input error class).
  const Backend backend = ResolveBackend(options.backend);

  FaultCollapse local;
  const FaultCollapse* collapse = options.collapse_plan;
  if (collapse != nullptr) {
    GPUSTL_ASSERT(collapse->num_faults == faults.size(),
                  "collapse plan does not match the fault list");
  } else {
    local = BuildFaultCollapse(nl, faults);
    collapse = &local;
  }
  const SimPlan plan = internal::BuildSimPlan(*collapse, skip);
  // The region is the work (and sharding) unit: its single stem
  // propagation serves every class inside.
  const FfrClassGroups groups =
      GroupClassesByFfr(nl, faults, plan.offsets, plan.members);

  // The good machine is simulated once, block-parallel, at the backend's
  // width; every shard then reads the table without a lock.
  const internal::GoodPass pass = internal::StuckAtGoodPass(
      nl, patterns, faults, plan, BackendWordBits(backend) / 64, options);

  if (backend != Backend::kScalar) {
    // Wide backends own their pattern-block loop; everything prepared so
    // far is shared with them as-is.
    const internal::StuckAtRun run{nl,     patterns,  faults,  plan,
                                   groups, pass.good, options, pass.last_act};
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

  FaultSimResult result = InitFaultSimResult(faults.size(), patterns.size());
  std::vector<std::uint32_t> live(groups.num_groups());
  std::iota(live.begin(), live.end(), 0u);
  const int threads = ResolveNumThreads(options.num_threads, live.size());
  if (threads <= 1) {
    SimulateFfrShard(nl, patterns, faults, plan, groups, live, pass.good,
                     options, pass.last_act, result);
    AbortIfCancelled(options);
    return result;
  }

  const std::vector<std::vector<std::uint32_t>> shards =
      StrideShards(live, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(faults.size(), patterns.size()));
  RunOnShards(threads, [&](int t) {
    SimulateFfrShard(nl, patterns, faults, plan, groups, shards[t], pass.good,
                     options, pass.last_act, partial[t]);
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
