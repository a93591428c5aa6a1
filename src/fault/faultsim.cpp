#include "fault/faultsim.h"

#include <numeric>
#include <optional>
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

namespace {

/// The engine proper: one stuck-at run over `patterns` at `lanes` lanes.
FaultSimResult SimulateRows(int lanes, const Netlist& nl,
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

/// Carries the report of a run over the distinct rows onto every row.
/// First-occurrence indices ascend with the distinct index, so a first
/// detection lands on the first occurrence of its row. A repeat detects
/// exactly what its first occurrence detects (the module is
/// combinational): under dropping it detects nothing new, without
/// dropping it counts the same faults again.
FaultSimResult MapToAllRows(FaultSimResult result,
                            const netlist::DistinctRows& rows, bool drop) {
  for (std::uint32_t& p : result.first_detect) {
    if (p != FaultSimResult::kNotDetected) p = rows.first[p];
  }
  std::vector<std::uint32_t> counts(rows.of.size(), 0);
  if (drop) {
    for (std::size_t d = 0; d < rows.first.size(); ++d) {
      counts[rows.first[d]] = result.detects_per_pattern[d];
    }
  } else {
    for (std::size_t p = 0; p < rows.of.size(); ++p) {
      counts[p] = result.detects_per_pattern[rows.of[p]];
    }
  }
  result.detects_per_pattern = std::move(counts);
  return result;
}

/// Simulates each distinct row of `patterns` once, at `lanes` lanes or,
/// when unset, at PickLanes(distinct rows), and maps the report back.
FaultSimResult SimulateDistinctRows(std::optional<int> lanes,
                                    const Netlist& nl,
                                    const PatternSet& patterns,
                                    const std::vector<Fault>& faults,
                                    const BitVec* skip,
                                    const FaultSimOptions& options) {
  const netlist::DistinctRows rows = netlist::FindDistinctRows(patterns);
  if (rows.all_distinct()) {
    return SimulateRows(lanes.value_or(PickLanes(patterns.size())), nl,
                        patterns, faults, skip, options);
  }
  const PatternSet distinct = patterns.Select(rows.first);
  return MapToAllRows(
      SimulateRows(lanes.value_or(PickLanes(distinct.size())), nl, distinct,
                   faults, skip, options),
      rows, options.drop_detected);
}

}  // namespace

FaultSimResult RunFaultSimAtLanes(int lanes, const Netlist& nl,
                                  const PatternSet& patterns,
                                  const std::vector<Fault>& faults,
                                  const BitVec* skip,
                                  const FaultSimOptions& options) {
  return SimulateDistinctRows(lanes, nl, patterns, faults, skip, options);
}

}  // namespace internal

FaultSimResult RunFaultSim(const Netlist& nl, const PatternSet& patterns,
                           const std::vector<Fault>& faults, const BitVec* skip,
                           const FaultSimOptions& options) {
  return internal::SimulateDistinctRows(std::nullopt, nl, patterns, faults,
                                        skip, options);
}

double CoveragePercent(std::size_t detected, std::size_t total) {
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(detected) / static_cast<double>(total);
}

}  // namespace gpustl::fault
