// The early-exit prepass (fault/engine.h): per site net, the last block
// holding a 0 / a 1 (stuck-at) or a falling / rising launch-capture pair
// (transition, with the engines' exact cross-block carry semantics), folded
// into a per-class (leader) / per-fault last-activating-block bound.
// Detection is contained in activation pointwise in both models, so a
// class past its bound can detect nothing in any later block.
#include <cstdint>
#include <vector>

#include "fault/engine.h"

namespace gpustl::fault::internal {
namespace {

using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

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

}  // namespace

LastActivation StuckAtLastActivation(const Netlist& nl,
                                     const PatternSet& patterns,
                                     const std::vector<Fault>& faults,
                                     const SimPlan& plan,
                                     GoodBlockCache& good_blocks,
                                     const FaultSimOptions& options) {
  // Only class leaders are simulated, so only their sites matter.
  std::vector<NetId> site_nets;
  site_nets.reserve(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    site_nets.push_back(SiteNet(nl, faults[plan.members[plan.offsets[c]]]));
  }
  const std::vector<NetId> sites = DistinctSites(nl, site_nets);

  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  std::vector<std::int64_t> last_zero(nl.gate_count(), -1);
  std::vector<std::int64_t> last_one(nl.gate_count(), -1);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    AbortIfCancelled(options);
    const GoodBlockCache::Block& blk = good_blocks.Get(b);
    const std::uint64_t valid = ValidMask(blk.count);
    for (const NetId n : sites) {
      const std::uint64_t v = blk.values[n];
      if ((~v) & valid) last_zero[n] = static_cast<std::int64_t>(b);
      if (v & valid) last_one[n] = static_cast<std::int64_t>(b);
    }
  }

  LastActivation last_act(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    const Fault& leader = faults[plan.members[plan.offsets[c]]];
    // sa1 activates where the good value is 0, sa0 where it is 1.
    const NetId n = site_nets[c];
    last_act[c] = leader.sa1 ? last_zero[n] : last_one[n];
  }
  return last_act;
}

LastActivation TransitionLastActivation(
    const Netlist& nl, const PatternSet& patterns,
    const std::vector<TransitionFault>& faults,
    const std::vector<std::uint32_t>& live, GoodBlockCache& good_blocks,
    const FaultSimOptions& options) {
  std::vector<NetId> site_nets;
  site_nets.reserve(live.size());
  for (const std::uint32_t fi : live) {
    site_nets.push_back(SiteNet(nl, faults[fi]));
  }
  const std::vector<NetId> sites = DistinctSites(nl, site_nets);

  // Last block with a rising / falling launch-capture pair per site net.
  // Pattern 0 has no launch vector; the engines carry in the complement of
  // the launch value a transition needs, so block 0 uses carry 1 for rises
  // and carry 0 for falls (neither can fire at pattern 0).
  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  std::vector<std::int64_t> last_rise(nl.gate_count(), -1);
  std::vector<std::int64_t> last_fall(nl.gate_count(), -1);
  std::vector<char> prev_bit(nl.gate_count(), 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    AbortIfCancelled(options);
    const GoodBlockCache::Block& blk = good_blocks.Get(b);
    const int count = blk.count;
    const std::uint64_t valid = ValidMask(count);
    for (const NetId n : sites) {
      const std::uint64_t v = blk.values[n];
      const std::uint64_t carry_rise =
          b == 0 ? 1 : static_cast<std::uint64_t>(prev_bit[n]);
      const std::uint64_t carry_fall =
          b == 0 ? 0 : static_cast<std::uint64_t>(prev_bit[n]);
      const std::uint64_t rise = v & ~((v << 1) | carry_rise) & valid;
      const std::uint64_t fall = ~v & ((v << 1) | carry_fall) & valid;
      if (rise != 0) last_rise[n] = static_cast<std::int64_t>(b);
      if (fall != 0) last_fall[n] = static_cast<std::int64_t>(b);
      prev_bit[n] = static_cast<char>((v >> (count - 1)) & 1);
    }
  }

  LastActivation last_act(faults.size(), -1);
  for (std::size_t k = 0; k < live.size(); ++k) {
    const TransitionFault& f = faults[live[k]];
    // sa1 = slow-to-fall (launch 1, capture 0); sa0 = slow-to-rise.
    const NetId n = site_nets[k];
    last_act[live[k]] = f.sa1 ? last_fall[n] : last_rise[n];
  }
  return last_act;
}

}  // namespace gpustl::fault::internal
