#include "fault/faultsim.h"

#include <numeric>
#include <utility>

#include "common/error.h"
#include "fault/collapse.h"
#include "fault/engine.h"
#include "fault/parallel.h"

namespace gpustl::fault {

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

FaultSimResult RunFaultSimAtLanes(int lanes, const Netlist& nl,
                                  const PatternSet& patterns,
                                  const std::vector<Fault>& faults,
                                  const BitVec* skip,
                                  const FaultSimOptions& options) {
  GPUSTL_ASSERT(nl.frozen(), "fault sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "fault sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }
  const LaneKernels kernels = KernelsAt(lanes);

  FaultCollapse local;
  const FaultCollapse* collapse = options.collapse_plan;
  if (collapse != nullptr) {
    GPUSTL_ASSERT(collapse->num_faults == faults.size(),
                  "collapse plan does not match the fault list");
  } else {
    local = BuildFaultCollapse(nl, faults);
    collapse = &local;
  }
  const SimPlan plan = BuildSimPlan(*collapse, skip);
  // The region is the work (and sharding) unit: its single stem
  // propagation serves every class inside.
  const FfrClassGroups groups =
      GroupClassesByFfr(nl, faults, plan.offsets, plan.members);

  // The good machine is simulated once, block-parallel, at the engine's
  // width; every shard then reads the table without a lock.
  const GoodPass pass =
      StuckAtGoodPass(nl, patterns, faults, plan, lanes, options);
  const StuckAtRun run{nl,     patterns,  faults,  plan,
                       groups, pass.good, options, pass.last_act};
  std::vector<std::uint32_t> work(groups.num_groups());
  std::iota(work.begin(), work.end(), 0u);
  return RunSharded(options, faults.size(), patterns.size(), std::move(work),
                    [&](std::vector<std::uint32_t> shard, FaultSimResult& r) {
                      kernels.stuck_at(run, std::move(shard), r);
                    });
}

}  // namespace internal

FaultSimResult RunFaultSim(const Netlist& nl, const PatternSet& patterns,
                           const std::vector<Fault>& faults, const BitVec* skip,
                           const FaultSimOptions& options) {
  return internal::RunFaultSimAtLanes(internal::PickLanes(patterns.size()), nl,
                                      patterns, faults, skip, options);
}

double CoveragePercent(std::size_t detected, std::size_t total) {
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(detected) / static_cast<double>(total);
}

}  // namespace gpustl::fault
