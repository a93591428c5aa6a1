#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "compact/report.h"
#include "isa/disasm.h"

namespace perfbench {

namespace fs = std::filesystem;
using gpustl::compact::CompactorOptions;
using gpustl::compact::PlanEntry;
using gpustl::service::Json;

namespace {

constexpr const char* kSecret = "perfbench";

std::string ProcPath(int pid, const char* file) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + file;
}

/// Bytes of one frame on the wire: "<len>\n<payload>\n".
double FrameBytes(const Json& doc) {
  const std::size_t len = doc.Dump().size();
  return static_cast<double>(len + std::to_string(len).size() + 2);
}

}  // namespace

double Since(std::int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void ResetPeakRss(int pid) {
  if (pid == 0) ::malloc_trim(0);
  std::ofstream(ProcPath(pid, "clear_refs")) << "5";
}

double PeakRssMb(int pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double ChildrenPeakRssMb() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

std::string StageSpanName(std::string_view stage) {
  std::string name = "compact.";
  for (const char c : stage) name += c == '-' ? '_' : c;
  return name;
}

CampaignRun RunCampaign(const Modules& m, const std::vector<PlanEntry>& plan,
                        CompactorOptions options, const std::string& req) {
  Span root("compact.campaign", req);
  if (Tracer::Get().enabled()) {
    options.stage_observer = [](std::string_view stage) {
      Tracer::Get().OpenStage(StageSpanName(stage));
    };
  }
  gpustl::compact::StlCampaign campaign(m.du, m.sp, m.sfu, options, &m.fp32,
                                        &m.preps);
  for (const PlanEntry& pe : plan) {
    Span entry("compact.entry");
    campaign.Process(pe.entry);
    Tracer::Get().CloseStage();
  }
  CampaignRun run;
  run.summary = campaign.Summary();
  run.report =
      gpustl::compact::RenderCampaignReport(campaign.records(), run.summary);
  return run;
}

void StoreMetrics(const gpustl::store::StoreStats& s, Result& out) {
  out.values["store.hits"] = static_cast<double>(s.hits);
  out.values["store.misses"] = static_cast<double>(s.misses);
  out.values["store.hit_pct"] = s.hit_rate_percent();
  out.values["store.bytes_read"] = static_cast<double>(s.bytes_read);
  out.values["store.bytes_written"] = static_cast<double>(s.bytes_written);
  out.values["store.bad_entries"] = static_cast<double>(s.bad_entries);
}

DistribRun RunDistrib(const Modules& m, const std::vector<PlanEntry>& plan,
                      const std::string& dir, int workers, int threads,
                      const std::string& req) {
  fs::remove_all(dir);
  DistribRun run;
  {
    gpustl::store::ResultStore store(dir + "/cache");
    CompactorOptions options;
    options.num_threads = threads;
    options.result_store = &store;
    options.distrib_replay = true;
    gpustl::distrib::CoordinatorOptions copt;
    copt.dir = dir + "/units";
    copt.fork_workers = workers;
    {
      Span span("distrib.prefetch", req);
      gpustl::distrib::Coordinator coordinator(
          copt,
          gpustl::distrib::ModuleSet{&m.du, &m.sp, &m.sfu, &m.fp32, &m.preps},
          options);
      run.prefetch = coordinator.Prefetch(plan);
    }
    const auto before = store.stats();
    const std::int64_t t0 = NowNs();
    run.campaign = RunCampaign(m, plan, options, req);
    run.campaign_s = Since(t0);
    run.store = store.stats();
    run.lookups = static_cast<double>(run.store.hits + run.store.misses -
                                      before.hits - before.misses);
  }
  fs::remove_all(dir);
  return run;
}

void DistribMetrics(const std::vector<DistribRun>& runs, Result& out) {
  const double n = static_cast<double>(runs.size());
  auto& v = out.values;
  for (const char* key :
       {"distrib.wave1_s", "distrib.plan_s", "distrib.wave2_s",
        "distrib.replay_campaign_s", "distrib.worker_units",
        "distrib.inline_units", "distrib.steals"}) {
    v[key] = 0.0;
  }
  for (const DistribRun& r : runs) {
    v["distrib.wave1_s"] += r.prefetch.wave1_seconds / n;
    v["distrib.plan_s"] += r.prefetch.plan_seconds / n;
    v["distrib.wave2_s"] += r.prefetch.wave2_seconds / n;
    v["distrib.replay_campaign_s"] += r.campaign_s / n;
    v["distrib.worker_units"] +=
        static_cast<double>(r.prefetch.worker_units) / n;
    v["distrib.inline_units"] +=
        static_cast<double>(r.prefetch.inline_units) / n;
    v["distrib.steals"] += static_cast<double>(r.prefetch.steals) / n;
  }
}

void Daemon::Start(const Config& config, const std::string& cache_dir,
                   const std::string& log_prefix) {
  Stop();
  const std::string out_path = log_prefix + ".out";
  const std::string err_path = log_prefix + ".log";
  const std::string workers = std::to_string(config.threads);
  fs::remove(out_path);  // the listening line must be this daemon's
  pid_ = ::fork();
  if (pid_ < 0) throw gpustl::Error("perfbench: fork failed");
  if (pid_ == 0) {
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out < 0 || err < 0) ::_exit(127);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execl(config.daemon.c_str(), config.daemon.c_str(), "--listen",
            "127.0.0.1:0", "--secret", kSecret, "--workers", workers.c_str(),
            "--threads", "1", "--cache-dir", cache_dir.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const std::int64_t deadline = NowNs() + 60'000'000'000;
  while (NowNs() < deadline) {
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
      const auto at = line.find("listening on tcp ");
      if (at == std::string::npos) continue;
      const auto colon = line.find(':', at + 17);
      port_ = std::stoi(line.substr(colon + 1));
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw gpustl::Error("perfbench: gpustld exited during start-up");
    }
    ::usleep(2000);
  }
  throw gpustl::Error("perfbench: gpustld did not start");
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 3000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    ::usleep(10000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

gpustl::net::ChannelOptions Daemon::Channel() const {
  gpustl::net::ChannelOptions o;
  o.endpoint.host = "127.0.0.1";
  o.endpoint.port = static_cast<std::uint16_t>(port_);
  o.secret = kSecret;
  return o;
}

Json EntryJson(const PlanEntry& pe) {
  Json e = Json::Object();
  e.Set("asm", gpustl::isa::DisassembleProgram(pe.entry.ptp));
  e.Set("module", pe.target_token);
  e.Set("mode", pe.entry.compactable ? "compact" : "carry");
  if (pe.entry.reverse_patterns) e.Set("reverse", true);
  return e;
}

Json SubmitRequest(std::vector<Json> entries, const std::string& tenant,
                   int threads) {
  Json request = Json::Object();
  request.Set("op", "submit");
  request.Set("tenant", tenant);
  if (threads > 0) request.Set("threads", threads);
  Json list = Json::Array();
  for (Json& e : entries) list.Append(std::move(e));
  request.Set("entries", std::move(list));
  return request;
}

JobTrace SubmitJob(gpustl::net::NetChannel& channel, const Json& request) {
  JobTrace job;
  job.client_job = gpustl::net::GenerateClientJobId();
  job.bytes_out = FrameBytes(request) + 60.0;  // + client_job, after_seq
  job.submit = NowNs();
  const auto outcome = gpustl::net::ResumableSubmit(
      channel, request, job.client_job, [&job](const Json& event) {
        const std::int64_t t = NowNs();
        job.bytes_in += FrameBytes(event);
        const std::string kind = event.GetString("event");
        const auto entry = static_cast<std::size_t>(event.GetInt("entry"));
        if (kind == "queued") {
          job.queued = t;
        } else if (kind == "admitted") {
          job.admitted = t;
        } else if (kind == "stage") {
          job.stages.push_back({t, entry, event.GetString("stage")});
        } else if (kind == "entry-done") {
          job.stages.push_back({t, entry, ""});
        }
      });
  job.terminal = NowNs();
  if (outcome.transport_error) {
    job.outcome = "transport";
    job.detail = outcome.transport_detail;
  } else {
    const Json& t = outcome.terminal;
    const std::string kind = t.GetString("event");
    job.outcome = kind == "complete" ? t.GetString("status") : kind;
    job.detail = t.GetString("report");
  }
  return job;
}

void RecordJobSpans(const JobTrace& job, std::uint64_t parent) {
  Tracer& tr = Tracer::Get();
  const std::string& req = job.client_job;
  const std::uint64_t root =
      tr.Record("net.job", job.submit, job.terminal, parent, req);
  if (job.queued == 0 || job.admitted == 0) return;
  tr.Record("net.submit_ack", job.submit, job.queued, root, req);
  tr.Record("service.queue_wait", job.queued, job.admitted, root, req);
  const std::uint64_t run =
      tr.Record("service.run", job.admitted, job.terminal, root, req);
  // Each entry runs from its first stage event to its entry-done event;
  // each stage from its event to the next one of the entry.
  std::size_t i = 0;
  while (i < job.stages.size()) {
    const std::size_t entry = job.stages[i].entry;
    std::size_t j = i;
    while (j < job.stages.size() && job.stages[j].entry == entry &&
           !job.stages[j].name.empty()) {
      ++j;
    }
    const std::int64_t end =
        j < job.stages.size() ? job.stages[j].t : job.terminal;
    const std::uint64_t e =
        tr.Record("compact.entry", job.stages[i].t, end, run, req);
    for (std::size_t k = i; k < j; ++k) {
      const std::int64_t stage_end = k + 1 < j ? job.stages[k + 1].t : end;
      tr.Record(StageSpanName(job.stages[k].name), job.stages[k].t, stage_end,
                e, req);
    }
    i = j < job.stages.size() ? j + 1 : j;
  }
}

}  // namespace perfbench
