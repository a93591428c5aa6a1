#include "service/admission.h"

#include <algorithm>

namespace gpustl::service {

std::optional<Priority> ParsePriority(std::string_view name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal" || name.empty()) return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  return std::nullopt;
}

AdmissionDecision AdmissionQueue::Enqueue(
    Ticket ticket,
    const std::function<void(std::size_t position)>& on_accept) {
  AdmissionDecision decision;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      decision.reason = "draining";
      return decision;
    }
    if (queue_.size() >= config_.max_queue_depth) {
      decision.reason = "queue-full";
      return decision;
    }
    if (tenant_load_[ticket.tenant] >= config_.per_tenant_quota) {
      decision.reason = "tenant-quota";
      return decision;
    }
    ++tenant_load_[ticket.tenant];
    ticket.seq = next_seq_++;
    decision.admitted = true;
    decision.position = queue_.size();
    queue_.push_back(std::move(ticket));
    if (on_accept) on_accept(decision.position);
  }
  cv_.notify_one();
  return decision;
}

std::optional<Ticket> AdmissionQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  auto best = std::min_element(
      queue_.begin(), queue_.end(), [](const Ticket& a, const Ticket& b) {
        if (a.priority != b.priority) return a.priority < b.priority;
        return a.seq < b.seq;
      });
  Ticket ticket = std::move(*best);
  queue_.erase(best);
  return ticket;
}

void AdmissionQueue::MarkDone(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_load_.find(tenant);
  if (it == tenant_load_.end()) return;
  if (it->second <= 1) {
    tenant_load_.erase(it);
  } else {
    --it->second;
  }
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<Ticket> AdmissionQueue::CloseAndFlush() {
  std::vector<Ticket> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    flushed.swap(queue_);
    // Flushed jobs will never reach MarkDone; release their quota here.
    for (const Ticket& t : flushed) {
      auto it = tenant_load_.find(t.tenant);
      if (it == tenant_load_.end()) continue;
      if (it->second <= 1) {
        tenant_load_.erase(it);
      } else {
        --it->second;
      }
    }
  }
  cv_.notify_all();
  return flushed;
}

std::size_t AdmissionQueue::QueuedDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace gpustl::service
