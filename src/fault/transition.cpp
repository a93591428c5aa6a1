#include "fault/transition.h"

#include <utility>

#include "common/error.h"
#include "fault/engine.h"
#include "fault/parallel.h"
#include "fault/scratch.h"

namespace gpustl::fault {

using netlist::Gate;
using netlist::kMaxFanin;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

std::vector<TransitionFault> TransitionFaultList(const Netlist& nl) {
  // Same collapsed sites as the stuck-at list; SA0 representative == STR,
  // SA1 == STF.
  return CollapsedFaultList(nl);
}

namespace {

/// The transition-fault loop over one fault shard (see
/// faultsim.cpp::SimulateFfrShard for the sharding contract). The
/// launch-side history (`prev_site_bit`) is per fault, so it shards with the
/// fault list; each worker keeps its own copy indexed by global fault id.
///
/// No fault collapsing here: the launch condition is a property of the
/// fault *site's* value history, so two transition faults with identical
/// faulty functions still activate on different patterns. The bucket-queue
/// scratch, output-cone restriction and early-exit apply unchanged.
void SimulateShard(const Netlist& nl, const PatternSet& patterns,
                   const std::vector<TransitionFault>& faults,
                   std::vector<std::uint32_t> live,
                   GoodBlockCache& good_blocks, const FaultSimOptions& options,
                   const internal::LastActivation& last_act,
                   FaultSimResult& result) {
  // Launch-side history: the site value of the last pattern of the previous
  // block, per fault. Initialized to the FINAL value so pattern 0 (which
  // has no launch vector) can never activate.
  std::vector<std::uint8_t> prev_site_bit(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    prev_site_bit[i] = faults[i].sa1 ? 0 : 1;  // != init value
  }

  internal::PropagationScratch scratch(nl);
  const auto& outputs = nl.outputs();
  const std::size_t cone_words = nl.cone_words();

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    if (live.empty()) break;
    // Cooperative cancellation, same contract as the stuck-at shards.
    if (options.cancel != nullptr && options.cancel->Expired()) return;
    const std::size_t bi = base / 64;

    // Early-exit: faults past their last launch-capture block are settled.
    internal::EarlyExit(last_act, bi, options,
                        [](std::uint32_t) { return 1u; }, live);
    if (live.empty()) break;

    const GoodBlockCache::Block& block = good_blocks.Get(bi);
    if (block.count == 0) break;
    const int count = block.count;
    const std::uint64_t valid = count >= 64 ? ~0ull : ((1ull << count) - 1);
    const std::vector<std::uint64_t>& good = block.values;

    std::size_t w = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      const std::uint32_t fi = live[r];
      const TransitionFault& f = faults[fi];
      const Gate& g = nl.gate(f.gate);
      const std::uint64_t stuck = f.sa1 ? ~0ull : 0ull;  // value during capture

      const NetId site_net =
          f.pin == Fault::kOutputPin ? f.gate : g.fanin[f.pin];
      const std::uint64_t site = good[site_net];

      // Launch values: site at pattern j-1 (carry from the previous block).
      const std::uint64_t launch =
          (site << 1) | static_cast<std::uint64_t>(prev_site_bit[fi]);
      prev_site_bit[fi] = static_cast<std::uint8_t>((site >> (count - 1)) & 1);

      // Activation: launch == init (== stuck value) and capture toggles.
      const std::uint64_t act =
          (f.sa1 ? launch : ~launch) & (site ^ stuck) & valid;
      if (act == 0) {
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
        std::uint64_t in[kMaxFanin];
        for (int i = 0; i < g.fanin_count(); ++i) {
          in[i] = i == f.pin ? stuck : good[g.fanin[i]];
        }
        const std::uint64_t out = netlist::EvalCell(g.type, in);
        if (out != good[f.gate]) {
          scratch.SetFaulty(f.gate, out);
          for (NetId fo : nl.fanout(f.gate)) {
            if (nl.ReachesOutput(fo)) scratch.Enqueue(fo);
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
            if (nl.ReachesOutput(fo)) scratch.Enqueue(fo);
          }
        }
      });

      std::uint64_t diff = 0;
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
      if (diff == 0) {
        live[w++] = fi;
        continue;
      }

      const auto first_pattern =
          base + static_cast<std::size_t>(LowestSetBit(diff));
      if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
        result.first_detect[fi] = static_cast<std::uint32_t>(first_pattern);
        result.detected_mask.Set(fi, true);
        ++result.num_detected;
      }
      if (options.drop_detected) {
        result.detects_per_pattern[first_pattern]++;
      } else {
        for (std::uint64_t bits = diff; bits != 0; bits &= bits - 1) {
          result.detects_per_pattern[base + static_cast<std::size_t>(
                                                LowestSetBit(bits))]++;
        }
        live[w++] = fi;
      }
    }
    live.resize(w);
    if (live.empty() && options.drop_detected) break;
  }
}

}  // namespace

FaultSimResult RunTransitionFaultSim(const Netlist& nl,
                                     const PatternSet& patterns,
                                     const std::vector<TransitionFault>& faults,
                                     const BitVec* skip,
                                     const FaultSimOptions& options) {
  GPUSTL_ASSERT(nl.frozen(), "transition sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "transition sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }

  const Backend backend = ResolveBackend(options.backend);

  std::vector<std::uint32_t> live;
  live.reserve(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    if (skip == nullptr || !skip->Get(i)) live.push_back(i);
  }

  // Shared good-machine blocks (see RunFaultSim for the layering).
  GoodBlockCache good_blocks(nl, patterns);
  const internal::LastActivation last_act = internal::TransitionLastActivation(
      nl, patterns, faults, live, good_blocks, options);

  if (backend != Backend::kScalar) {
    const internal::TransitionRun run{nl,          patterns, faults,  live,
                                      good_blocks, options,  last_act};
    switch (backend) {
      case Backend::kWide:
        return internal::RunTransitionWide(run);
#if defined(GPUSTL_HAVE_AVX2)
      case Backend::kAvx2:
        return internal::RunTransitionAvx2(run);
#endif
#if defined(GPUSTL_HAVE_AVX512)
      case Backend::kAvx512:
        return internal::RunTransitionAvx512(run);
#endif
      default:
        throw SimError("backend '" + std::string(BackendName(backend)) +
                       "' has no transition engine in this binary");
    }
  }

  FaultSimResult result = InitFaultSimResult(faults.size(), patterns.size());
  const int threads = ResolveNumThreads(options.num_threads, live.size());
  if (threads <= 1) {
    SimulateShard(nl, patterns, faults, std::move(live), good_blocks, options,
                  last_act, result);
    AbortIfCancelled(options);
    return result;
  }

  std::vector<std::vector<std::uint32_t>> shards = StrideShards(live, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(faults.size(), patterns.size()));
  RunOnShards(threads, [&](int t) {
    SimulateShard(nl, patterns, faults, std::move(shards[t]), good_blocks,
                  options, last_act, partial[t]);
  });
  AbortIfCancelled(options);
  MergeShardResults(partial, result);
  return result;
}

}  // namespace gpustl::fault
