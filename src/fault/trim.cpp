// The good pass (fault/engine.h): one block-parallel good-machine
// simulation per run that fills the run's GoodTable and, in the same
// sweep, folds the early-exit tables — per site net, the last block
// holding a 0 / a 1 (stuck-at) or a falling / rising launch-capture pair
// (transition, with the engines' exact cross-block carry semantics),
// folded into a per-class (leader) / per-fault last-activating-block
// bound. Detection is contained in activation pointwise in both models, so
// a class past its bound can detect nothing in any later block.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/engine.h"
#include "netlist/logicsim.h"

namespace gpustl::fault::internal {
namespace {

using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// Per net: the last 64-pattern block with some property; -1 = none.
using LastBlock = std::vector<std::int64_t>;

NetId SiteNet(const Netlist& nl, const Fault& f) {
  return f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
}

std::uint64_t ValidMask(int count) {
  return count >= 64 ? ~0ull : ((1ull << count) - 1);
}

/// Distinct nets of `site_nets` (a net may host several faults).
std::vector<NetId> DistinctSites(const Netlist& nl,
                                 const std::vector<NetId>& site_nets) {
  std::vector<char> is_site(nl.gate_count(), 0);
  std::vector<NetId> sites;
  for (const NetId n : site_nets) {
    if (!is_site[n]) {
      is_site[n] = 1;
      sites.push_back(n);
    }
  }
  return sites;
}

/// First 64-pattern block of each worker's range. Ranges are contiguous
/// runs of whole wide blocks, so no two workers write the same wide block.
std::vector<std::size_t> RangeStarts(const GoodTable& table, int workers) {
  std::vector<std::size_t> starts(workers);
  for (int t = 0; t < workers; ++t) {
    starts[t] = ContiguousRange(table.num_blocks(), workers, t).first *
                static_cast<std::size_t>(table.lanes());
  }
  return starts;
}

/// Fills `table` on `workers` threads: worker t simulates the 64-pattern
/// blocks of its range in ascending order on its own BitSimulator, stores
/// each one and hands it to `fold(t, block, words, count)`. Throws
/// DeadlineError after the join when `options.cancel` expired.
template <typename Fold>
void FillGoodTable(const Netlist& nl, const PatternSet& patterns,
                   const FaultSimOptions& options, int workers,
                   GoodTable& table, Fold&& fold) {
  const std::size_t lanes = table.lanes();
  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  RunOnWorkers(workers, [&](int t) {
    const WorkerRange range = ContiguousRange(table.num_blocks(), workers, t);
    const std::size_t end = std::min(range.last * lanes, num_blocks);
    netlist::BitSimulator sim(nl);
    for (std::size_t b = range.first * lanes; b < end; ++b) {
      if (options.cancel != nullptr && options.cancel->Expired()) return;
      const int count = sim.LoadBlock(patterns, b * 64);
      sim.Eval();
      table.Store(b, sim.values().data());
      fold(t, b, sim.values().data(), count);
    }
  });
  AbortIfCancelled(options);
}

/// Folds every worker's table into `per_worker[0]`. The ranges ascend with
/// the worker index, so the latest block is the largest.
void MergeByMax(std::vector<LastBlock>& per_worker,
                const std::vector<NetId>& sites) {
  for (std::size_t t = 1; t < per_worker.size(); ++t) {
    for (const NetId n : sites) {
      per_worker[0][n] = std::max(per_worker[0][n], per_worker[t][n]);
    }
  }
}

}  // namespace

GoodPass StuckAtGoodPass(const Netlist& nl, const PatternSet& patterns,
                         const std::vector<Fault>& faults, const SimPlan& plan,
                         int lanes, const FaultSimOptions& options) {
  // Only class leaders are simulated, so only their sites matter.
  std::vector<NetId> site_nets;
  site_nets.reserve(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    site_nets.push_back(SiteNet(nl, faults[plan.members[plan.offsets[c]]]));
  }
  const std::vector<NetId> sites = DistinctSites(nl, site_nets);

  GoodPass pass{GoodTable(nl.gate_count(), patterns.size(), lanes), {}};
  const int workers =
      ResolveNumThreads(options.num_threads, pass.good.num_blocks());
  std::vector<LastBlock> last_zero(workers, LastBlock(nl.gate_count(), -1));
  std::vector<LastBlock> last_one = last_zero;
  FillGoodTable(nl, patterns, options, workers, pass.good,
                [&](int t, std::size_t b, const std::uint64_t* v, int count) {
                  const std::uint64_t valid = ValidMask(count);
                  const auto block = static_cast<std::int64_t>(b);
                  for (const NetId n : sites) {
                    if ((~v[n]) & valid) last_zero[t][n] = block;
                    if (v[n] & valid) last_one[t][n] = block;
                  }
                });
  MergeByMax(last_zero, sites);
  MergeByMax(last_one, sites);

  pass.last_act.resize(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    const Fault& leader = faults[plan.members[plan.offsets[c]]];
    // sa1 activates where the good value is 0, sa0 where it is 1.
    const NetId n = site_nets[c];
    pass.last_act[c] = leader.sa1 ? last_zero[0][n] : last_one[0][n];
  }
  return pass;
}

GoodPass TransitionGoodPass(const Netlist& nl, const PatternSet& patterns,
                            const std::vector<TransitionFault>& faults,
                            const std::vector<std::uint32_t>& live, int lanes,
                            const FaultSimOptions& options) {
  std::vector<NetId> site_nets;
  site_nets.reserve(live.size());
  for (const std::uint32_t fi : live) {
    site_nets.push_back(SiteNet(nl, faults[fi]));
  }
  const std::vector<NetId> sites = DistinctSites(nl, site_nets);

  GoodPass pass{GoodTable(nl.gate_count(), patterns.size(), lanes), {}};
  const int workers =
      ResolveNumThreads(options.num_threads, pass.good.num_blocks());
  const std::vector<std::size_t> starts = RangeStarts(pass.good, workers);

  // Last block with a rising / falling launch-capture pair per site net.
  // Pattern 0 has no launch vector; the engines carry in the complement of
  // the launch value a transition needs, so block 0 uses carry 1 for rises
  // and carry 0 for falls (neither can fire at pattern 0). Every worker
  // folds the first block of its range the same way, and the launch at
  // that block's pattern 0 is added after the join, once the previous
  // range's last block is in the table.
  std::vector<LastBlock> last_rise(workers, LastBlock(nl.gate_count(), -1));
  std::vector<LastBlock> last_fall = last_rise;
  std::vector<std::vector<char>> prev_bit(
      workers, std::vector<char>(nl.gate_count(), 0));
  FillGoodTable(
      nl, patterns, options, workers, pass.good,
      [&](int t, std::size_t b, const std::uint64_t* v, int count) {
        const std::uint64_t valid = ValidMask(count);
        const auto block = static_cast<std::int64_t>(b);
        const bool range_start = b == starts[t];
        for (const NetId n : sites) {
          const std::uint64_t carry_rise =
              range_start ? 1 : static_cast<std::uint64_t>(prev_bit[t][n]);
          const std::uint64_t carry_fall =
              range_start ? 0 : static_cast<std::uint64_t>(prev_bit[t][n]);
          const std::uint64_t rise = v[n] & ~((v[n] << 1) | carry_rise) & valid;
          const std::uint64_t fall = ~v[n] & ((v[n] << 1) | carry_fall) & valid;
          if (rise != 0) last_rise[t][n] = block;
          if (fall != 0) last_fall[t][n] = block;
          prev_bit[t][n] = static_cast<char>((v[n] >> (count - 1)) & 1);
        }
      });

  // The cross-range carry: range t's first block launches at its pattern 0
  // from the last pattern of the block before it (a full block, since a
  // later range follows it).
  const std::size_t stride = pass.good.lanes();
  for (int t = 1; t < workers; ++t) {
    const std::size_t s = starts[t];
    const std::uint64_t* before =
        pass.good.block((s - 1) / stride) + (s - 1) % stride;
    const std::uint64_t* first = pass.good.block(s / stride) + s % stride;
    const auto block = static_cast<std::int64_t>(s);
    for (const NetId n : sites) {
      const std::uint64_t launch = before[n * stride] >> 63;
      const std::uint64_t capture = first[n * stride] & 1;
      if (capture & ~launch) {
        last_rise[t][n] = std::max(last_rise[t][n], block);
      }
      if (~capture & launch) {
        last_fall[t][n] = std::max(last_fall[t][n], block);
      }
    }
  }
  MergeByMax(last_rise, sites);
  MergeByMax(last_fall, sites);

  pass.last_act.assign(faults.size(), -1);
  for (std::size_t k = 0; k < live.size(); ++k) {
    const TransitionFault& f = faults[live[k]];
    // sa1 = slow-to-fall (launch 1, capture 0); sa0 = slow-to-rise.
    const NetId n = site_nets[k];
    pass.last_act[live[k]] = f.sa1 ? last_fall[0][n] : last_rise[0][n];
  }
  return pass;
}

}  // namespace gpustl::fault::internal
