// Parallel execution support for the PPSFP simulators.
//
// Every run of RunFaultSim / RunTransitionFaultSim has two parallel
// phases, both sized by FaultSimOptions::num_threads:
//
//  1. The good pass (fault/trim.cpp): the pattern blocks are split into
//     contiguous ranges, one per worker; each worker simulates its range
//     on its own BitSimulator, writes the values straight into the run's
//     GoodTable and folds them into private early-exit tables that merge
//     after the join. The good machine is simulated exactly once per run.
//  2. Propagation: the live work list — whole fanout-free regions for
//     stuck-at (a stem propagation is shared by every class of a region,
//     so the region is the indivisible unit), faults for transition — is
//     sharded across the workers, each worker runs the unmodified serial
//     PPSFP loop over its shard with private propagation scratch (the
//     GoodTable is read-only by then, shared without any lock), and a
//     deterministic merge reconstructs the serial report.
//
// The merge is exact — not approximately equal — because the serial
// loop's accounting is per-fault independent:
//
//  * `first_detect[f]` and `detected_mask[f]` depend only on fault f's own
//    propagation history;
//  * dropping fault f (after its first detection) changes only fault f's
//    contribution to later blocks, never another fault's;
//  * `detects_per_pattern` is a sum of per-fault indicator counts, and
//    integer addition is order-independent.
//
// Summing shard histograms in (pattern, fault-id) order therefore replays
// the serial drop-ordered accounting bit-for-bit, for any shard count and
// any thread interleaving. The differential suites in
// tests/test_faultsim_parallel.cpp and tests/test_good_pass.cpp lock this
// equivalence down.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/faultsim.h"

namespace gpustl::fault {

/// The good-machine values of one run, at the engine's width: one
/// pre-sized allocation indexed (wide block, net, lane). Wide block `wb`
/// holds patterns [64*L*wb, 64*L*wb + count(wb)); lane k of a net is the
/// good word of 64-pattern block L*wb + k, so a net's L lanes form one
/// aligned Wide<L> bundle (fault/wide.h).
/// Filled once by the good pass — each 64-pattern block by exactly one
/// worker — and read-only afterwards. Lanes past the last 64-pattern block
/// are zero.
class GoodTable {
 public:
  GoodTable(std::size_t nets, std::size_t num_patterns, int lanes);

  int lanes() const { return lanes_; }
  std::size_t nets() const { return nets_; }

  /// Wide blocks: ceil(patterns / (64 * lanes)).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Patterns in wide block `wb` (1 .. 64 * lanes).
  int count(std::size_t wb) const;

  /// The nets x lanes words of wide block `wb`: net n's lane k is word
  /// n * lanes + k. Aligned to 64 bytes, so every net's bundle is aligned
  /// to its own size.
  const std::uint64_t* block(std::size_t wb) const {
    return words_.get() + wb * nets_ * static_cast<std::size_t>(lanes_);
  }

  /// Writes the per-net good words of 64-pattern block `b` into lane
  /// b % lanes of wide block b / lanes. Concurrent calls for distinct `b`
  /// are safe (they write disjoint words).
  void Store(std::size_t b, const std::uint64_t* values);

 private:
  struct AlignedDelete {
    void operator()(std::uint64_t* p) const;
  };

  std::size_t nets_;
  std::size_t num_patterns_;
  int lanes_;
  std::size_t num_blocks_;
  std::unique_ptr<std::uint64_t[], AlignedDelete> words_;
};

/// Resolves a FaultSimOptions::num_threads request against the amount of
/// shardable work: 0 = std::thread::hardware_concurrency(), otherwise the
/// requested count, clamped to [1, work_items].
int ResolveNumThreads(int requested, std::size_t work_items);

/// Partitions `live` (ascending work-item ids: fault classes or FFR
/// groups) into `shards` strided sub-lists: shard t owns live[t],
/// live[t + shards], ... Striding balances load when item difficulty
/// correlates with netlist position, and keeps every shard list in
/// ascending id order (the serial iteration order).
std::vector<std::vector<std::uint32_t>> StrideShards(
    const std::vector<std::uint32_t>& live, int shards);

/// Worker `t`'s contiguous share [first, last) of `items` items split over
/// `workers` workers: the shares differ in size by at most one.
struct WorkerRange {
  std::size_t first;
  std::size_t last;
};
WorkerRange ContiguousRange(std::size_t items, int workers, int t);

/// Runs `kernel(t)` once per worker t on `workers` threads (worker 0 runs
/// on the calling thread). After all workers join, a single failed worker
/// rethrows its original exception (type intact, so the campaign's error
/// classification still sees it); multiple failures are aggregated into
/// one Error listing every failed shard index and message — no failure is
/// ever silently dropped. The good pass runs on this directly.
void RunOnWorkers(int workers, const std::function<void(int)>& kernel);

/// RunOnWorkers for the propagation shards, plus the chaos site
/// `worker-throw` (common/chaos.h): pre-drawn once per shard on the calling
/// thread before workers spawn, keeping the injection schedule independent
/// of thread interleaving.
void RunOnShards(int shards, const std::function<void(int)>& kernel);

/// Throws DeadlineError when `options.cancel` is armed and expired. The
/// engines call this after their workers join (and after the serial loop):
/// workers return early with partial shards on expiry, and this turns the
/// partial state into a clean abort instead of a wrong report.
inline void AbortIfCancelled(const FaultSimOptions& options) {
  if (options.cancel != nullptr && options.cancel->Expired()) {
    throw DeadlineError(options.cancel->cancel_requested()
                            ? "fault sim cancelled"
                            : "fault sim aborted: stage deadline exceeded");
  }
}

/// An empty report with first_detect / per-pattern histogram / mask sized
/// for `num_faults` x `num_patterns`.
FaultSimResult InitFaultSimResult(std::size_t num_faults,
                                  std::size_t num_patterns);

/// Deterministic sharded merge (see the file comment for why this equals
/// the serial result exactly): shard fault ids are disjoint, so
/// first_detect / detected_mask scatter without conflicts and the
/// per-pattern histogram sums.
void MergeShardResults(const std::vector<FaultSimResult>& shards,
                       FaultSimResult& out);

/// One shard kernel call: simulates the work items `shard` (ascending ids)
/// and accumulates into `result`, pre-sized by InitFaultSimResult.
using ShardKernel = std::function<void(std::vector<std::uint32_t> shard,
                                       FaultSimResult& result)>;

/// The propagation phase of one run over `work` (ascending work-item ids):
/// at one resolved thread the kernel runs inline on the whole list;
/// otherwise StrideShards -> RunOnShards -> MergeShardResults. Throws
/// DeadlineError after the kernels return when `options.cancel` expired.
FaultSimResult RunSharded(const FaultSimOptions& options,
                          std::size_t num_faults, std::size_t num_patterns,
                          std::vector<std::uint32_t> work,
                          const ShardKernel& kernel);

}  // namespace gpustl::fault
