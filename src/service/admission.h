// Admission control for the gpustld job queue.
//
// The queue is the daemon's only backpressure mechanism: it bounds total
// depth (a client flooding submits gets an explicit `queue-full` rejection
// instead of unbounded memory growth) and enforces a per-tenant quota over
// queued + running jobs, so one tenant cannot starve the others even when
// the global queue has room. Within the queue, jobs dispatch by priority
// class, FIFO within a class.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gpustl::service {

enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };

std::optional<Priority> ParsePriority(std::string_view name);

struct Ticket {
  std::uint64_t id = 0;       // job id, assigned by the caller
  std::string tenant;
  Priority priority = Priority::kNormal;
  std::uint64_t seq = 0;      // admission order, assigned by the queue
};

struct AdmissionConfig {
  std::size_t max_queue_depth = 64;
  std::size_t per_tenant_quota = 16;  // queued + running, per tenant
};

struct AdmissionDecision {
  bool admitted = false;
  // One of the documented rejection tokens: "queue-full", "tenant-quota",
  // "draining". Empty when admitted.
  std::string reason;
  std::size_t position = 0;  // tickets ahead of this one when admitted
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config) : config_(config) {}

  /// Admits or rejects a ticket. `on_accept`, when set, runs under the
  /// queue lock after the ticket is queued — the service uses it to emit
  /// the `queued` event before any worker can observe the job, which is
  /// what makes the queued -> admitted ordering a protocol guarantee.
  AdmissionDecision Enqueue(Ticket ticket,
                            const std::function<void(std::size_t position)>&
                                on_accept = nullptr);

  /// Blocks until a ticket is available or the queue is closed.
  /// Dispatch order: priority class, then admission order. The ticket's
  /// tenant stays charged against its quota until MarkDone.
  std::optional<Ticket> Pop();

  /// Releases the tenant-quota slot a popped ticket holds.
  void MarkDone(const std::string& tenant);

  /// Stops admission ("draining" rejections) and wakes all Pop callers.
  void Close();

  /// Close, plus hand back every still-queued ticket so the caller can
  /// emit terminal events for jobs that will never run.
  std::vector<Ticket> CloseAndFlush();

  std::size_t QueuedDepth() const;

 private:
  AdmissionConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::uint64_t next_seq_ = 0;
  std::vector<Ticket> queue_;
  // tenant -> queued + running count
  std::unordered_map<std::string, std::size_t> tenant_load_;
};

}  // namespace gpustl::service
