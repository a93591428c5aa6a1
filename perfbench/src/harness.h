// Pieces the workloads and the probes share: timing helpers, the traced
// in-process campaign, the gpustld child process and the client side of
// one submitted job.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compact/campaign_plan.h"
#include "compact/stl_campaign.h"
#include "distrib/coordinator.h"
#include "net/client.h"
#include "service/json.h"
#include "store/result_store.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

/// Seconds since `t0_ns` (a NowNs() value).
double Since(std::int64_t t0_ns);
double Median(std::vector<double> v);

/// Resets the peak resident set of process `pid` (0 = this one) to its
/// current resident set (Linux /proc/<pid>/clear_refs). For this process
/// the allocator first returns its free memory to the system, so the next
/// peak is the next operation's own, not what earlier operations left in
/// the allocator's per-thread arenas.
void ResetPeakRss(int pid = 0);
/// Peak resident set of process `pid` (0 = this one) since it started or
/// since the last reset, in MB.
double PeakRssMb(int pid = 0);
/// Largest peak resident set of this process's reaped children, in MB.
double ChildrenPeakRssMb();

/// "logic-trace" -> "compact.logic_trace".
std::string StageSpanName(std::string_view stage);
inline constexpr const char* kStages[] = {
    "logic_trace", "fault_sim", "label", "reduce", "validate", "measure"};

struct CampaignRun {
  std::string report;
  gpustl::compact::CampaignSummary summary;
};

/// One in-process whole-STL campaign, configured as gpustlc and gpustld
/// configure theirs; a compact.campaign span with entry and stage spans
/// when tracing.
CampaignRun RunCampaign(const Modules& m,
                        const std::vector<gpustl::compact::PlanEntry>& plan,
                        gpustl::compact::CompactorOptions options,
                        const std::string& req);

/// Per-operation stage seconds over the spans whose request id passes
/// `keep`, divided by `ops`.
template <typename Keep>
void StageMetrics(const std::vector<SpanRecord>& spans, double ops, Keep keep,
                  Result& out) {
  for (const char* stage : kStages) {
    const std::string name = std::string("compact.") + stage;
    double seconds = 0.0;
    for (const SpanRecord& s : spans) {
      if (s.name == name && keep(s.req)) {
        seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    out.values[name + "_s"] = seconds / ops;
  }
}

void StoreMetrics(const gpustl::store::StoreStats& s, Result& out);

/// One distributed campaign: a fresh store under `dir`, a
/// distrib::Coordinator prefetch with `workers` forked workers, then the
/// replaying campaign.
struct DistribRun {
  CampaignRun campaign;
  gpustl::distrib::PrefetchStats prefetch;
  gpustl::store::StoreStats store;  // the coordinator's, at the end
  double lookups = 0.0;             // store lookups of the final campaign
  double campaign_s = 0.0;          // wall of the final campaign
};
DistribRun RunDistrib(const Modules& m,
                      const std::vector<gpustl::compact::PlanEntry>& plan,
                      const std::string& dir, int workers, int threads,
                      const std::string& req);

/// Per-operation distrib.* metrics over `runs`.
void DistribMetrics(const std::vector<DistribRun>& runs, Result& out);

/// A gpustld child process listening on loopback TCP, `config.threads`
/// workers, job threads 1, a result store at `cache_dir`. Stopped (SIGTERM,
/// then waited for) by Stop() or the destructor.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the daemon and waits for its listening line. Throws on failure.
  void Start(const Config& config, const std::string& cache_dir,
             const std::string& log_prefix);
  void Stop();
  int pid() const { return pid_; }
  gpustl::net::ChannelOptions Channel() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One inline `asm` entry of a submit request.
gpustl::service::Json EntryJson(const gpustl::compact::PlanEntry& pe);
gpustl::service::Json SubmitRequest(std::vector<gpustl::service::Json> entries,
                                    const std::string& tenant, int threads);

/// One job as the client saw it; times are arrival times at the client.
struct JobTrace {
  std::string client_job;
  std::int64_t submit = 0, queued = 0, admitted = 0, terminal = 0;
  std::string outcome;  // complete | degraded | failed | rejected | transport
  std::string detail;   // transport error or the report of a complete job
  double bytes_out = 0.0, bytes_in = 0.0;
  struct Stage {
    std::int64_t t;
    std::size_t entry;
    std::string name;  // stage name, or "" for entry-done
  };
  std::vector<Stage> stages;
};

/// Submits `request` through net::ResumableSubmit and records its events.
JobTrace SubmitJob(gpustl::net::NetChannel& channel,
                   const gpustl::service::Json& request);

/// Rebuilds the job's span tree from the event arrival times, under
/// `parent` (0 = a root span).
void RecordJobSpans(const JobTrace& job, std::uint64_t parent);

}  // namespace perfbench
