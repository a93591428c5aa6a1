#include "fault/transition.h"

#include <utility>

#include "common/error.h"
#include "fault/engine.h"
#include "fault/parallel.h"

namespace gpustl::fault {

using netlist::Netlist;
using netlist::PatternSet;

std::vector<TransitionFault> TransitionFaultList(const Netlist& nl) {
  // Same collapsed sites as the stuck-at list; SA0 representative == STR,
  // SA1 == STF.
  return CollapsedFaultList(nl);
}

namespace internal {

FaultSimResult RunTransitionFaultSimAtLanes(
    int lanes, const Netlist& nl, const PatternSet& patterns,
    const std::vector<TransitionFault>& faults, const BitVec* skip,
    const FaultSimOptions& options) {
  GPUSTL_ASSERT(nl.frozen(), "transition sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "transition sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }
  const LaneKernels kernels = KernelsAt(lanes);

  std::vector<std::uint32_t> live;
  live.reserve(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    if (skip == nullptr || !skip->Get(i)) live.push_back(i);
  }

  // One good pass at the engine's width (see RunFaultSimAtLanes).
  const GoodPass pass =
      TransitionGoodPass(nl, patterns, faults, live, lanes, options);
  const TransitionRun run{nl,        patterns, faults,
                          pass.good, options,  pass.last_act};
  return RunSharded(options, faults.size(), patterns.size(), std::move(live),
                    [&](std::vector<std::uint32_t> shard, FaultSimResult& r) {
                      kernels.transition(run, std::move(shard), r);
                    });
}

}  // namespace internal

FaultSimResult RunTransitionFaultSim(const Netlist& nl,
                                     const PatternSet& patterns,
                                     const std::vector<TransitionFault>& faults,
                                     const BitVec* skip,
                                     const FaultSimOptions& options) {
  return internal::RunTransitionFaultSimAtLanes(
      internal::PickLanes(patterns.size()), nl, patterns, faults, skip,
      options);
}

}  // namespace gpustl::fault
