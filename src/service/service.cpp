#include "service/service.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "compact/report.h"
#include "distrib/coordinator.h"
#include "isa/assembler.h"
#include "isa/binary.h"

namespace gpustl::service {

namespace {

std::string ReadFileOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

isa::Program LoadPtpFile(const std::string& path) {
  if (EndsWith(path, ".asm") || EndsWith(path, ".s")) {
    return isa::Assemble(ReadFileOrThrow(path));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  return isa::LoadBinary(in);
}

}  // namespace

std::vector<compact::PlanEntry> LoadManifestPlan(const std::string& path) {
  const std::string manifest = ReadFileOrThrow(path);
  // PTP paths in a manifest are relative to the manifest, not to the
  // reader's working directory — the same manifest `gpustlc campaign`
  // runs from the manifest's own directory.
  const std::filesystem::path base = std::filesystem::path(path).parent_path();
  return compact::ParseManifestPlan(manifest, [&](const std::string& p) {
    const std::filesystem::path ptp(p);
    return LoadPtpFile(ptp.is_absolute() ? ptp.string()
                                         : (base / ptp).string());
  });
}

std::vector<compact::PlanEntry> BuildPlan(const SubmitRequest& request) {
  if (!request.manifest.empty()) return LoadManifestPlan(request.manifest);
  std::vector<compact::PlanEntry> plan;
  for (const SubmitEntry& e : request.entries) {
    compact::PlanEntry pe;
    pe.entry.ptp =
        e.path.empty() ? isa::Assemble(e.asm_text) : LoadPtpFile(e.path);
    const auto module = compact::ParseTargetModule(e.module);
    if (!module) throw Error("bad module " + e.module);
    pe.entry.target = *module;
    pe.entry.compactable = e.compact;
    pe.entry.reverse_patterns = e.reverse;
    pe.target_token = std::string(trace::TargetModuleName(*module));
    pe.fp = compact::FingerprintPlanEntry(pe.entry, pe.target_token);
    plan.push_back(std::move(pe));
  }
  return plan;
}

JobSpec MakeJobSpec(const SubmitRequest& request) {
  JobSpec spec;
  spec.tenant = request.tenant;
  spec.priority = ParsePriority(request.priority).value_or(Priority::kNormal);
  spec.deadline_seconds = request.deadline_seconds;
  spec.stage_deadline_seconds = request.stage_deadline_seconds;
  spec.threads = request.threads;
  spec.checkpoint_dir = request.checkpoint_dir;
  spec.plan = BuildPlan(request);
  return spec;
}

CampaignService::CampaignService(ServiceOptions options)
    : options_(std::move(options)),
      du_(circuits::BuildDecoderUnit()),
      sp_(circuits::BuildSpCore()),
      sfu_(circuits::BuildSfu()),
      fp32_(circuits::BuildFp32()),
      queue_(options_.admission) {
  preps_.du = compact::BuildModulePrep(du_);
  preps_.sp = compact::BuildModulePrep(sp_);
  preps_.sfu = compact::BuildModulePrep(sfu_);
  preps_.fp32 = compact::BuildModulePrep(fp32_);
  if (!options_.cache_dir.empty()) {
    store_.emplace(options_.cache_dir, options_.cache_limit_bytes);
  }
  const int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

CampaignService::~CampaignService() { Drain(true); }

SubmitResult CampaignService::Submit(JobSpec spec, EventSink sink) {
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->sink = std::move(sink);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->id = next_job_id_++;
    jobs_[job->id] = job;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
  }

  SubmitResult result;
  result.job_id = job->id;

  Ticket ticket;
  ticket.id = job->id;
  ticket.tenant = job->spec.tenant;
  ticket.priority = job->spec.priority;

  // event_mu held across enqueue + `queued`: a worker that pops the
  // ticket before we return blocks in Emit until `queued` is on the wire.
  std::unique_lock<std::mutex> events(job->event_mu);
  const AdmissionDecision decision = queue_.Enqueue(std::move(ticket));
  if (!decision.admitted) {
    if (job->sink) job->sink(EventRejected(job->id, decision.reason, ""));
    events.unlock();
    EraseJob(job->id);
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.rejected;
    result.reason = decision.reason;
    return result;
  }
  if (job->sink) job->sink(EventQueued(job->id, decision.position));
  result.admitted = true;
  return result;
}

void CampaignService::WorkerLoop(int worker_index) {
  while (auto ticket = queue_.Pop()) {
    if (auto job = FindJob(ticket->id)) {
      RunJob(*job, worker_index);
      EraseJob(job->id);
    }
    queue_.MarkDone(ticket->tenant);
  }
}

void CampaignService::RunJob(Job& job, int worker_index) {
  Emit(job, EventAdmitted(job.id, worker_index));

  const JobSpec& spec = job.spec;
  const double run_deadline = spec.deadline_seconds >= 0
                                  ? spec.deadline_seconds
                                  : options_.default_deadline_seconds;
  if (run_deadline > 0) job.token.ArmRunDeadline(run_deadline);

  // All store traffic below — the campaign's AND the distrib prefetch's
  // inline units — happens on this worker thread, so the scoped record
  // captures exactly this job's slice of the shared cache.
  store::StoreAttribution attribution;
  store::ScopedStoreAttribution attribution_scope(&attribution);

  // Folded into the per-tenant totals BEFORE the job's terminal event
  // goes on the wire: a client that reads `status` the moment it sees
  // `complete` must find this job already accounted.
  const auto merge_attribution = [this, &spec, &attribution] {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    TenantCacheStats& t = tenants_[spec.tenant];
    t.traffic.hits += attribution.hits;
    t.traffic.misses += attribution.misses;
    t.traffic.stores += attribution.stores;
    t.traffic.bytes_read += attribution.bytes_read;
    t.traffic.bytes_written += attribution.bytes_written;
    ++t.jobs;
  };

  try {
    compact::CompactorOptions opt = options_.base;
    if (spec.threads >= 0) opt.num_threads = spec.threads;
    opt.stage_deadline_seconds = spec.stage_deadline_seconds >= 0
                                     ? spec.stage_deadline_seconds
                                     : options_.stage_deadline_seconds;
    opt.cancel = &job.token;
    opt.result_store = store_ ? &*store_ : nullptr;

    const bool distrib = !options_.distrib_dir.empty() && store_.has_value();
    if (distrib) {
      // The prefetch only warms the store: if it fails, the job's
      // full-list simulations miss and run live, with the same result.
      try {
        distrib::CoordinatorOptions copt;
        copt.dir = options_.distrib_dir;
        copt.fork_workers = 0;  // threaded process: external workers only
        copt.stale_seconds = options_.distrib_stale_seconds;
        copt.finalize = false;  // the dir outlives this job
        distrib::Coordinator coordinator(
            copt, distrib::ModuleSet{&du_, &sp_, &sfu_, &fp32_, &preps_},
            opt);
        coordinator.Prefetch(spec.plan);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "gpustld: distrib prefetch for job %llu failed (%s); "
                     "running live\n",
                     static_cast<unsigned long long>(job.id), e.what());
      }
    }

    struct {
      std::size_t index = 0;
      std::string name;
    } current;
    opt.stage_observer = [this, &job, &current](std::string_view stage) {
      Emit(job, EventStage(job.id, current.index, current.name, stage));
    };

    compact::StlCampaign campaign(du_, sp_, sfu_, opt, &fp32_, &preps_);

    compact::CampaignCheckpointer ckpt;
    std::size_t restored = 0;
    if (!spec.checkpoint_dir.empty()) {
      restored = ckpt.TryRestore(campaign, spec.plan, spec.checkpoint_dir)
                     .restored;
      if (restored == 0) ckpt.Write(campaign, spec.checkpoint_dir);
    }

    const auto mode = [](const compact::CampaignRecord& r) {
      return std::string(r.degraded      ? "DEGRADED"
                         : r.compacted   ? "compacted"
                                         : "carried");
    };
    for (std::size_t i = 0; i < spec.plan.size(); ++i) {
      const std::string name = spec.plan[i].entry.ptp.name();
      if (i < restored) {
        Emit(job, EventEntryDone(job.id, i, name, "checkpointed", "", ""));
        continue;
      }
      current.index = i;
      current.name = name;
      const compact::CampaignRecord& rec = campaign.Process(spec.plan[i].entry);
      Emit(job, EventEntryDone(
                    job.id, i, name, mode(rec), rec.error_stage,
                    rec.degraded ? std::string(ErrorClassName(rec.error_class))
                                 : ""));
      if (!spec.checkpoint_dir.empty()) {
        ckpt.Record(campaign, spec.plan[i], rec, spec.checkpoint_dir);
      }
    }

    const compact::CampaignSummary summary = campaign.Summary();
    const std::string report =
        compact::RenderCampaignReport(campaign.records(), summary);
    const bool degraded = summary.degraded_records > 0;
    const store::StoreStats cache = cache_stats();
    merge_attribution();
    Emit(job, EventComplete(job.id, degraded ? "degraded" : "complete",
                            campaign.records().size(),
                            summary.degraded_records, report, cache.hits,
                            cache.misses));
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++(degraded ? counters_.degraded : counters_.completed);
  } catch (const std::exception& e) {
    merge_attribution();
    Emit(job, EventFailed(job.id, std::string(ErrorClassName(ClassifyError(e))),
                          e.what()));
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.failed;
  }
}

void CampaignService::Emit(Job& job, const Json& event) {
  std::lock_guard<std::mutex> lock(job.event_mu);
  if (job.sink) job.sink(event);
}

std::shared_ptr<CampaignService::Job> CampaignService::FindJob(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second : nullptr;
}

void CampaignService::EraseJob(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  jobs_.erase(id);
}

void CampaignService::Drain(bool cancel_inflight) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (drained_) return;
    drained_ = true;
  }
  // Jobs still queued will never run: give each its terminal event.
  for (const Ticket& t : queue_.CloseAndFlush()) {
    if (auto job = FindJob(t.id)) {
      Emit(*job, EventFailed(job->id,
                             std::string(ErrorClassName(ErrorClass::kDeadline)),
                             "cancelled: service draining"));
      EraseJob(job->id);
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.failed;
    }
  }
  if (cancel_inflight) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    // In-flight jobs degrade at the next stage boundary / pattern block
    // and complete (degraded) on their own workers.
    for (auto& [id, job] : jobs_) job->token.RequestCancel();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

Json CampaignService::Status() const {
  const ServiceCounters c = counters();
  Json status = Json::Object();
  status.Set("event", "status");
  status.Set("queue_depth", queue_.QueuedDepth());
  status.Set("workers", static_cast<std::int64_t>(workers_.size()));
  Json jobs = Json::Object();
  jobs.Set("submitted", c.submitted);
  jobs.Set("rejected", c.rejected);
  jobs.Set("completed", c.completed);
  jobs.Set("degraded", c.degraded);
  jobs.Set("failed", c.failed);
  status.Set("jobs", std::move(jobs));
  const store::StoreStats s = cache_stats();
  Json cache = Json::Object();
  cache.Set("enabled", store_.has_value());
  cache.Set("hits", s.hits);
  cache.Set("misses", s.misses);
  cache.Set("stores", s.stores);
  cache.Set("evictions", s.evictions);
  status.Set("cache", std::move(cache));
  Json tenants = Json::Object();
  for (const auto& [tenant, t] : tenant_cache_stats()) {
    Json entry = Json::Object();
    entry.Set("jobs", t.jobs);
    entry.Set("cache_hits", t.traffic.hits);
    entry.Set("cache_misses", t.traffic.misses);
    entry.Set("cache_stores", t.traffic.stores);
    entry.Set("cache_bytes_read", t.traffic.bytes_read);
    entry.Set("cache_bytes_written", t.traffic.bytes_written);
    tenants.Set(tenant, std::move(entry));
  }
  status.Set("tenants", std::move(tenants));
  return status;
}

ServiceCounters CampaignService::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

store::StoreStats CampaignService::cache_stats() const {
  return store_ ? store_->stats() : store::StoreStats{};
}

std::map<std::string, TenantCacheStats> CampaignService::tenant_cache_stats()
    const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_;
}

}  // namespace gpustl::service
