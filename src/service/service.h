// CampaignService: the compaction campaign engine behind gpustld.
//
// One service instance owns everything that is expensive to build and safe
// to share across campaigns:
//   * the four module netlists and their ModulePrep (collapsed fault lists,
//     equivalence plans, digests) — built once, shared read-only by every
//     job's compactors;
//   * one content-addressed ResultStore — concurrent campaigns with
//     overlapping inputs hit each other's fault-sim results.
//
// Jobs enter through an AdmissionQueue (bounded depth, per-tenant quotas,
// priority classes) and run on a fixed worker pool. Each job streams
// lifecycle events to its EventSink:
//   queued -> admitted -> (stage | entry-done)* -> complete | failed
// and produces a campaign report byte-identical to what `gpustlc campaign
// --report` renders for the same inputs — the report path is the exact
// same code (compact/campaign_plan.h + compact/report.h), and the report
// deliberately excludes everything nondeterministic.
//
// Failure domains are per entry (PR 5 semantics): an entry blowing its
// stage deadline degrades that entry and the job completes `degraded`,
// not `failed`. `failed` is reserved for the job-level wreckage: a plan
// that cannot be built, a checkpoint directory that cannot be written, an
// escaped exception.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "compact/stl_campaign.h"
#include "netlist/netlist.h"
#include "service/admission.h"
#include "service/json.h"
#include "service/protocol.h"
#include "store/result_store.h"

namespace gpustl::service {

struct ServiceOptions {
  int workers = 2;
  AdmissionConfig admission;
  /// Whole-job wall-clock budget applied when a submit does not set its
  /// own (CancelToken::ArmRunDeadline); <= 0 = unlimited.
  double default_deadline_seconds = 0.0;
  /// Per-stage budget applied when a submit does not set its own.
  double stage_deadline_seconds = 0.0;
  /// Content-addressed result store shared by all jobs; empty = no cache.
  std::string cache_dir;
  std::uint64_t cache_limit_bytes = 0;
  /// Distributed prefetch (src/distrib): when set — cache_dir must be set
  /// too — every job runs a Coordinator::Prefetch over this dir before its
  /// campaign, posting work units for external gpustl-worker processes.
  /// The daemon never forks workers (it is threaded) and never writes
  /// campaign.done (the dir keeps serving jobs): point workers here with
  /// `gpustl-worker --dir` and stop them with SIGTERM when retiring the
  /// daemon. Prefetch failures degrade to live simulation, never to a
  /// failed job.
  std::string distrib_dir;
  /// Claim staleness horizon for the distrib dir.
  double distrib_stale_seconds = 30.0;
  /// Baseline compactor knobs (threads) that per-job overrides start from.
  compact::CompactorOptions base;
};

/// Receives one protocol event (service/protocol.h). Called from worker
/// and submitter threads; calls for one job are serialized and ordered,
/// calls for different jobs may interleave. Must not call back into the
/// service and must not block for long (it runs inside the job's event
/// critical section).
using EventSink = std::function<void(const Json& event)>;

/// A fully-resolved job. Negative numeric overrides mean "service
/// default"; the plan is pre-built (see BuildPlan) so admission control
/// never waits on file I/O.
struct JobSpec {
  std::string tenant = "default";
  Priority priority = Priority::kNormal;
  double deadline_seconds = -1.0;
  double stage_deadline_seconds = -1.0;
  std::vector<compact::PlanEntry> plan;
  int threads = -1;
  std::string checkpoint_dir;
};

/// Builds the campaign plan for a submit request by assembling its
/// inline entries. Throws Error on any bad input — callers turn that into
/// a `rejected: bad-request` before admission.
std::vector<compact::PlanEntry> BuildPlan(const SubmitRequest& request);

/// Converts a parsed submit request into a JobSpec (BuildPlan included).
/// Throws Error on bad input.
JobSpec MakeJobSpec(const SubmitRequest& request);

struct SubmitResult {
  std::uint64_t job_id = 0;
  bool admitted = false;
  std::string reason;  // rejection token when !admitted
};

/// One tenant's slice of the shared cache's traffic, accumulated from the
/// per-job ScopedStoreAttribution records as jobs reach a terminal state.
struct TenantCacheStats {
  store::StoreAttribution traffic;
  std::uint64_t jobs = 0;  // jobs that contributed (complete/degraded/failed)
};

/// Monotonic service counters (a snapshot; see CampaignService::counters).
struct ServiceCounters {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;   // terminal `complete` with status complete
  std::uint64_t degraded = 0;    // terminal `complete` with status degraded
  std::uint64_t failed = 0;      // terminal `failed` (incl. drain flushes)
};

class CampaignService {
 public:
  explicit CampaignService(ServiceOptions options);
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Submits a job. The terminal event (`rejected`, `complete` or
  /// `failed`) always reaches the sink, including on rejection (emitted
  /// before this returns) and on drain. Thread-safe.
  SubmitResult Submit(JobSpec spec, EventSink sink);

  /// Stops admission, emits `failed` for every still-queued job, and —
  /// when `cancel_inflight` — cancels running jobs via their CancelToken
  /// (they finish fast as degraded). Joins the worker pool. Idempotent.
  void Drain(bool cancel_inflight);

  /// `status` op payload: queue depth, counters, cache stats.
  Json Status() const;

  ServiceCounters counters() const;
  store::StoreStats cache_stats() const;
  /// Per-tenant cache traffic snapshot (tenant id -> stats), also rendered
  /// into Status()'s "tenants" object.
  std::map<std::string, TenantCacheStats> tenant_cache_stats() const;
  std::size_t queued_depth() const { return queue_.QueuedDepth(); }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    EventSink sink;
    CancelToken token;
    // Serializes event emission for this job: Submit holds it across
    // enqueue + `queued`, so a worker that pops the ticket immediately
    // still blocks before `admitted`. That lock ordering is the protocol's
    // queued-before-admitted guarantee.
    std::mutex event_mu;
  };

  void WorkerLoop(int worker_index);
  void RunJob(Job& job, int worker_index);
  void Emit(Job& job, const Json& event);
  std::shared_ptr<Job> FindJob(std::uint64_t id);
  void EraseJob(std::uint64_t id);

  ServiceOptions options_;

  // Shared immutable campaign inputs (built once in the constructor).
  netlist::Netlist du_;
  netlist::Netlist sp_;
  netlist::Netlist sfu_;
  netlist::Netlist fp32_;
  compact::ModulePrepSet preps_;

  // Shared mutable campaign state (each thread-safe on its own).
  std::optional<store::ResultStore> store_;

  AdmissionQueue queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  bool drained_ = false;

  mutable std::mutex counters_mu_;
  ServiceCounters counters_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantCacheStats> tenants_;
};

}  // namespace gpustl::service
