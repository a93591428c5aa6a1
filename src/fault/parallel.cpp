#include "fault/parallel.h"

#include <algorithm>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "common/chaos.h"
#include "common/error.h"

namespace gpustl::fault {

namespace {
constexpr std::align_val_t kTableAlign{64};
}  // namespace

void GoodTable::AlignedDelete::operator()(std::uint64_t* p) const {
  ::operator delete[](p, kTableAlign);
}

GoodTable::GoodTable(std::size_t nets, std::size_t num_patterns, int lanes)
    : nets_(nets),
      num_patterns_(num_patterns),
      lanes_(lanes),
      num_blocks_((num_patterns + 64 * lanes - 1) / (64 * lanes)) {
  GPUSTL_ASSERT(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8,
                "good table lane count must be 1, 2, 4 or 8");
  const std::size_t block_words = nets_ * static_cast<std::size_t>(lanes);
  if (num_blocks_ == 0 || block_words == 0) return;
  // Left uninitialized: the good pass writes every word of every pattern
  // block, each page first by the worker that owns it.
  words_.reset(static_cast<std::uint64_t*>(::operator new[](
      num_blocks_ * block_words * sizeof(std::uint64_t), kTableAlign)));
  // Zero the last wide block's lanes past the final pattern block.
  const std::size_t used =
      (num_patterns + 63) / 64 - (num_blocks_ - 1) * lanes;
  std::uint64_t* last = words_.get() + (num_blocks_ - 1) * block_words;
  for (std::size_t n = 0; n < nets_; ++n) {
    for (std::size_t k = used; k < static_cast<std::size_t>(lanes); ++k) {
      last[n * lanes + k] = 0;
    }
  }
}

int GoodTable::count(std::size_t wb) const {
  const std::size_t first = wb * 64 * lanes_;
  return static_cast<int>(
      std::min<std::size_t>(num_patterns_ - first, 64 * lanes_));
}

void GoodTable::Store(std::size_t b, const std::uint64_t* values) {
  const std::size_t lanes = lanes_;
  std::uint64_t* dst =
      words_.get() + (b / lanes) * nets_ * lanes + b % lanes;
  for (std::size_t n = 0; n < nets_; ++n) dst[n * lanes] = values[n];
}

int ResolveNumThreads(int requested, std::size_t work_items) {
  GPUSTL_ASSERT(requested >= 0, "num_threads must be >= 0");
  std::size_t n = requested == 0
                      ? std::max(1u, std::thread::hardware_concurrency())
                      : static_cast<std::size_t>(requested);
  if (n > work_items) n = work_items;
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<std::vector<std::uint32_t>> StrideShards(
    const std::vector<std::uint32_t>& live, int shards) {
  GPUSTL_ASSERT(shards >= 1, "shard count must be positive");
  std::vector<std::vector<std::uint32_t>> out(shards);
  const std::size_t per_shard = live.size() / shards + 1;
  for (auto& shard : out) shard.reserve(per_shard);
  for (std::size_t i = 0; i < live.size(); ++i) {
    out[i % shards].push_back(live[i]);
  }
  return out;
}

WorkerRange ContiguousRange(std::size_t items, int workers, int t) {
  const auto share = [&](int k) {
    return items * static_cast<std::size_t>(k) /
           static_cast<std::size_t>(workers);
  };
  return {share(t), share(t + 1)};
}

void RunOnWorkers(int workers, const std::function<void(int)>& kernel) {
  std::vector<std::exception_ptr> errors(workers);
  auto guarded = [&](int t) {
    try {
      kernel(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int t = 1; t < workers; ++t) threads.emplace_back(guarded, t);
  guarded(0);
  for (std::thread& w : threads) w.join();

  // Aggregate after the join: one failed shard rethrows its original
  // exception (the type carries the error classification); several are
  // folded into one Error naming every failed shard — previously only the
  // first was reported and the rest vanished.
  std::vector<int> failed;
  for (int t = 0; t < workers; ++t) {
    if (errors[t]) failed.push_back(t);
  }
  if (failed.empty()) return;
  if (failed.size() == 1) std::rethrow_exception(errors[failed[0]]);

  std::string msg = "parallel: " + std::to_string(failed.size()) + " of " +
                    std::to_string(workers) + " shards failed:";
  for (const int t : failed) {
    msg += "\n  shard " + std::to_string(t) + ": ";
    try {
      std::rethrow_exception(errors[t]);
    } catch (const std::exception& e) {
      msg += e.what();
    } catch (...) {
      msg += "unknown exception";
    }
  }
  throw Error(msg);
}

void RunOnShards(int shards, const std::function<void(int)>& kernel) {
  // Chaos worker-throw decisions are drawn HERE, on the calling thread,
  // one per shard, before any worker spawns: drawing inside the workers
  // would make the injection schedule depend on thread interleaving and
  // break same-seed reproducibility.
  std::vector<char> inject(shards, 0);
  if (chaos::Armed()) {
    for (int t = 0; t < shards; ++t) {
      inject[t] = chaos::Fail(chaos::Site::kWorkerThrow) ? 1 : 0;
    }
  }
  RunOnWorkers(shards, [&](int t) {
    if (inject[t] != 0) {
      throw Error("chaos: injected worker failure in shard " +
                  std::to_string(t));
    }
    kernel(t);
  });
}

FaultSimResult InitFaultSimResult(std::size_t num_faults,
                                  std::size_t num_patterns) {
  FaultSimResult result;
  result.first_detect.assign(num_faults, FaultSimResult::kNotDetected);
  result.detects_per_pattern.assign(num_patterns, 0);
  result.detected_mask.Resize(num_faults, false);
  return result;
}

void MergeShardResults(const std::vector<FaultSimResult>& shards,
                       FaultSimResult& out) {
  for (const FaultSimResult& shard : shards) {
    out.num_detected += shard.num_detected;
    out.detected_mask |= shard.detected_mask;
    for (std::size_t fi = 0; fi < out.first_detect.size(); ++fi) {
      if (shard.first_detect[fi] != FaultSimResult::kNotDetected) {
        out.first_detect[fi] = shard.first_detect[fi];
      }
    }
    for (std::size_t p = 0; p < out.detects_per_pattern.size(); ++p) {
      out.detects_per_pattern[p] += shard.detects_per_pattern[p];
    }
  }
}

FaultSimResult RunSharded(const FaultSimOptions& options,
                          std::size_t num_faults, std::size_t num_patterns,
                          std::vector<std::uint32_t> work,
                          const ShardKernel& kernel) {
  FaultSimResult result = InitFaultSimResult(num_faults, num_patterns);
  const int threads = ResolveNumThreads(options.num_threads, work.size());
  if (threads <= 1) {
    kernel(std::move(work), result);
    AbortIfCancelled(options);
    return result;
  }
  std::vector<std::vector<std::uint32_t>> shards = StrideShards(work, threads);
  std::vector<FaultSimResult> partial(
      threads, InitFaultSimResult(num_faults, num_patterns));
  RunOnShards(threads,
              [&](int t) { kernel(std::move(shards[t]), partial[t]); });
  AbortIfCancelled(options);
  MergeShardResults(partial, result);
  return result;
}

}  // namespace gpustl::fault
