#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/replay.h"
#include "harness.h"
#include "stl/atpg_convert.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gpustl::compact::CampaignSummary;
using gpustl::compact::CompactorOptions;
using gpustl::compact::PlanEntry;
using gpustl::service::Json;

/// Set-ups per run; the median is reported. Starting the daemon is slower
/// and comes with a warm-up submission, so service_mixed starts it fewer
/// times. The other workloads set up in fresh perfbench processes (see
/// SetupsInFreshProcesses).
constexpr int kSetupReps = 15;
constexpr int kDaemonStarts = 3;

/// Runs `fn()` until `seconds` have passed, at least once.
template <typename Fn>
void Repeat(double seconds, Fn&& fn) {
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    fn();
  } while (NowNs() < end);
}

/// One completed operation: its latency and when it completed.
struct Op {
  double ms;
  std::int64_t end_ns;
};

/// The operation that started at `t0_ns` and completes now.
Op Finish(std::int64_t t0_ns) {
  const std::int64_t t1 = NowNs();
  return {static_cast<double>(t1 - t0_ns) * 1e-6, t1};
}

std::vector<double> Latencies(const std::vector<Op>& ops) {
  std::vector<double> ms;
  for (const Op& op : ops) ms.push_back(op.ms);
  return ms;
}

/// Runs the measured phase: `phase(seconds)` returns the operations it
/// completed. A traced run measures half its time untraced and half traced,
/// and reports the difference of the two median latencies as
/// trace_overhead_pct; the tracer stays on afterwards.
template <typename Phase>
void Measure(const Config& config, Result& out, Phase&& phase) {
  std::vector<Op> plain;
  double seconds = config.seconds;
  if (config.trace) {
    seconds = config.seconds / 2;
    plain = phase(seconds);
    Tracer::Get().Enable(true);
  }
  const std::int64_t t0 = NowNs();
  const std::vector<Op> ops = phase(seconds);
  out.ops = ops.size();
  std::vector<double>& ends = out.samples["op_end_s"];
  for (const Op& op : ops) {
    ends.push_back(static_cast<double>(op.end_ns - t0) * 1e-9);
  }
  std::sort(ends.begin(), ends.end());
  out.samples["op_ms"] = Latencies(ops);
  if (config.trace) {
    out.values["trace_overhead_pct"] =
        (Median(out.samples["op_ms"]) / Median(Latencies(plain)) - 1.0) *
        100.0;
  }
}

struct Setup {
  std::unique_ptr<Modules> modules;
  std::vector<PlanEntry> plan;
};

/// Runs `perfbench setup` for this workload and seed kSetupReps times, one
/// fresh process after another, and records each set-up time. A set-up
/// takes about the same time on every repeat within one process but up to
/// half again as long in another, so repeats within the run's own process
/// would give a median that moves from run to run.
void SetupsInFreshProcesses(const Config& config, Result& out) {
  const std::string path = config.work_dir + "/setup-seconds";
  const std::string seed = std::to_string(config.seed);
  for (int i = 0; i < kSetupReps; ++i) {
    fs::remove(path);
    const pid_t pid = ::fork();
    if (pid < 0) throw gpustl::Error("perfbench: fork failed");
    if (pid == 0) {
      ::execl("/proc/self/exe", "perfbench", "setup", "--workload",
              config.workload.c_str(), "--seed", seed.c_str(), "--inputs",
              config.inputs_dir.c_str(), "--out", path.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    double seconds = 0.0;
    std::ifstream in(path);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(in >> seconds)) {
      throw gpustl::Error("perfbench: set-up process failed");
    }
    out.samples["setup_s"].push_back(seconds);
  }
}

/// Times the set-ups, then builds the modules and loads the STL for the run.
Setup TimedSetup(const Config& config, Result& out) {
  SetupsInFreshProcesses(config, out);
  return {BuildModules(), LoadStl(config.inputs_dir, config.seed)};
}

/// atpg_tpgen's set-up: the SP netlist and a fixed random sixteenth of its
/// collapsed faults, in list order, so one ATPG run takes about as long as
/// one campaign.
struct AtpgSetup {
  std::unique_ptr<gpustl::netlist::Netlist> sp;
  std::vector<gpustl::fault::Fault> sample;
};

AtpgSetup BuildAtpgSetup() {
  constexpr std::size_t kSampleShare = 16;
  AtpgSetup s;
  s.sp = std::make_unique<gpustl::netlist::Netlist>(
      gpustl::circuits::BuildSpCore());
  const auto faults = gpustl::fault::CollapsedFaultList(*s.sp);
  std::vector<std::size_t> index(faults.size());
  for (std::size_t f = 0; f < index.size(); ++f) index[f] = f;
  gpustl::Rng rng(1);
  const std::size_t n = faults.size() / kSampleShare;
  for (std::size_t f = 0; f < n; ++f) {
    std::swap(index[f], index[f + rng() % (index.size() - f)]);
  }
  std::sort(index.begin(), index.begin() + n);
  for (std::size_t f = 0; f < n; ++f) s.sample.push_back(faults[index[f]]);
  return s;
}

/// The report every compaction workload's output must equal, and its size
/// reduction: the same STL compacted in-process on one thread. Not timed,
/// never traced. Kept in `config.ref_dir` (when set) under the seed, so
/// runs of one build on one seed compute it once.
struct Reference {
  std::string report;
  double size_reduction_pct = 0.0;
};

Reference ReferenceRun(const Config& config, const Modules& m,
                       const std::vector<PlanEntry>& plan) {
  const std::string path =
      config.ref_dir + "/seed-" + std::to_string(config.seed) + ".txt";
  Reference ref;
  if (!config.ref_dir.empty()) {
    std::ifstream in(path, std::ios::binary);
    if (in >> ref.size_reduction_pct && in.get() == '\n') {
      ref.report.assign(std::istreambuf_iterator<char>(in), {});
      return ref;
    }
  }
  CompactorOptions options;
  options.num_threads = 1;
  const CampaignRun run = RunCampaign(m, plan, options, "reference");
  ref.report = run.report;
  ref.size_reduction_pct = run.summary.size_reduction_percent();
  if (!config.ref_dir.empty()) {
    fs::create_directories(config.ref_dir);
    const std::string tmp = path + "." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      char head[64];
      std::snprintf(head, sizeof head, "%.17g\n", ref.size_reduction_pct);
      out << head << ref.report;
    }
    fs::rename(tmp, path);
  }
  return ref;
}

void TrimMetrics(const CampaignSummary& last, Result& out) {
  out.values["fault.trim_blocks_replayed"] =
      static_cast<double>(last.trim_blocks_replayed);
  out.values["fault.trim_faults_early_exited"] =
      static_cast<double>(last.trim_faults_early_exited);
  out.values["fault.trim_warm_hits"] = static_cast<double>(last.trim_warm_hits);
}

bool Any(const std::string&) { return true; }

}  // namespace

double SetupOnce(const Config& config) {
  const std::int64_t t0 = NowNs();
  if (config.workload == "atpg_tpgen") {
    BuildAtpgSetup();
  } else {
    BuildModules();
    LoadStl(config.inputs_dir, config.seed);
  }
  return Since(t0);
}

Result RunStlCold(const Config& config) {
  Result out;
  const Setup s = TimedSetup(config, out);
  const std::string reference =
      ReferenceRun(config, *s.modules, s.plan).report;

  CompactorOptions options;
  options.num_threads = config.threads;
  CampaignSummary last;
  int campaign = 0;
  std::vector<double> rss;
  Measure(config, out, [&](double seconds) {
    std::vector<Op> ops;
    rss.clear();
    Repeat(seconds, [&] {
      ResetPeakRss();
      const std::int64_t t0 = NowNs();
      const CampaignRun run =
          RunCampaign(*s.modules, s.plan, options,
                      "campaign-" + std::to_string(campaign++));
      ops.push_back(Finish(t0));
      rss.push_back(PeakRssMb());
      ++out.attempted;
      if (run.report != reference) {
        out.Fail("stl_cold: report differs from the 1-thread report");
      }
      last = run.summary;
    });
    return ops;
  });
  out.values["quality_pct"] = last.size_reduction_percent();
  out.values["peak_rss_mb"] = Median(rss);
  if (!config.trace) return out;

  StageMetrics(Tracer::Get().Spans(), static_cast<double>(out.ops), Any, out);
  TrimMetrics(last, out);
  // Fault simulations per campaign, counted as lookups in an empty store.
  // Untraced: it is not one of the measured operations.
  const std::string dir = config.work_dir + "/count-store";
  fs::remove_all(dir);
  Tracer::Get().Enable(false);
  {
    gpustl::store::ResultStore store(dir);
    CompactorOptions counted = options;
    counted.result_store = &store;
    RunCampaign(*s.modules, s.plan, counted, "count-fault-sims");
    const auto stats = store.stats();
    out.values["compact.fault_sims"] =
        static_cast<double>(stats.hits + stats.misses);
    StoreMetrics(stats, out);
  }
  Tracer::Get().Enable(true);
  fs::remove_all(dir);
  RunProbes(config, *s.modules, s.plan, out);
  return out;
}

Result RunStlDistrib(const Config& config) {
  Result out;
  const Setup s = TimedSetup(config, out);
  const std::string reference =
      ReferenceRun(config, *s.modules, s.plan).report;

  std::vector<DistribRun> runs;  // of the current phase
  std::uint64_t replays = 0;     // over the current phase
  std::vector<double> rss;       // of the current phase
  int rep = 0;
  Measure(config, out, [&](double seconds) {
    runs.clear();
    rss.clear();
    const auto& counter = gpustl::fault::GlobalReplayCounters().replays;
    const std::uint64_t replays0 = counter.load();
    std::vector<Op> ops;
    Repeat(seconds, [&] {
      const std::string tag = "distrib-" + std::to_string(rep++);
      ResetPeakRss();
      const std::int64_t t0 = NowNs();
      {
        Span op("bench.op", tag);
        runs.push_back(RunDistrib(*s.modules, s.plan,
                                  config.work_dir + "/" + tag, 4,
                                  config.threads, tag));
      }
      ops.push_back(Finish(t0));
      // The coordinator's peak in this operation, or a worker's (workers
      // are forked afresh each operation).
      rss.push_back(std::max(PeakRssMb(), ChildrenPeakRssMb()));
      ++out.attempted;
      if (runs.back().campaign.report != reference) {
        out.Fail("stl_distrib: report differs from the 1-thread report");
      }
    });
    replays = counter.load() - replays0;
    return ops;
  });
  const CampaignSummary& last = runs.back().campaign.summary;
  out.values["quality_pct"] = last.size_reduction_percent();
  out.values["peak_rss_mb"] = Median(rss);
  if (!config.trace) return out;

  const double n = static_cast<double>(runs.size());
  StageMetrics(Tracer::Get().Spans(), n, Any, out);
  TrimMetrics(last, out);
  DistribMetrics(runs, out);
  double lookups = 0.0;
  for (const DistribRun& r : runs) lookups += r.lookups;
  out.values["compact.fault_sims"] = lookups / n;
  out.values["fault.replays"] = static_cast<double>(replays) / n;
  StoreMetrics(runs.back().store, out);
  RunProbes(config, *s.modules, s.plan, out);
  return out;
}

Result RunServiceMixed(const Config& config) {
  Result out;
  const std::string cache_dir = config.work_dir + "/service-cache";
  fs::remove_all(cache_dir);

  // Set-up: daemon start (its netlists and prep) plus input load,
  // kDaemonStarts times, then one warm-up submission of the canonical STL
  // that fills the shared store. Every set-up sample includes the warm-up.
  Daemon daemon;
  std::vector<PlanEntry> plan;
  std::vector<double> starts;
  std::vector<double> connect_ms;
  const auto connect = [&](gpustl::net::NetChannel& channel) {
    std::string error;
    const std::int64_t t0 = NowNs();
    if (!channel.EnsureConnected(&error)) throw gpustl::Error(error);
    connect_ms.push_back(Since(t0) * 1e3);
  };
  for (int i = 0; i < kDaemonStarts; ++i) {
    daemon.Stop();
    const std::int64_t t0 = NowNs();
    daemon.Start(config, cache_dir,
                 config.work_dir + "/gpustld-" + std::to_string(i));
    gpustl::net::NetChannel ping(daemon.Channel());
    connect(ping);
    plan = LoadStl(config.inputs_dir, config.seed);
    starts.push_back(Since(t0));
  }
  std::vector<Json> canonical_entries;
  for (const PlanEntry& pe : plan) canonical_entries.push_back(EntryJson(pe));
  const Json canonical = SubmitRequest(canonical_entries, "bench", -1);

  const auto modules = BuildModules();
  const Reference reference = ReferenceRun(config, *modules, plan);

  const std::int64_t w0 = NowNs();
  {
    gpustl::net::NetChannel channel(daemon.Channel());
    const JobTrace warmup = SubmitJob(
        channel, SubmitRequest(canonical_entries, "warmup", config.threads));
    if (warmup.outcome != "complete" || warmup.detail != reference.report) {
      throw gpustl::Error("perfbench: warm-up submission failed: " +
                          warmup.outcome);
    }
  }
  const double warmup_s = Since(w0);
  ResetPeakRss(daemon.pid());
  for (const double start : starts) {
    out.samples["setup_s"].push_back(start + warmup_s);
  }

  // A closed loop of `threads` client connections, each waiting for its
  // job's terminal event before submitting the next.
  const int clients = config.threads;
  std::vector<std::unique_ptr<gpustl::net::NetChannel>> channels;
  for (int i = 0; i < clients; ++i) {
    channels.push_back(
        std::make_unique<gpustl::net::NetChannel>(daemon.Channel()));
    connect(*channels.back());
  }
  std::mutex mu;  // guards `out`, `jobs`, `connect_ms` and `reconnects`
  std::vector<JobTrace> jobs;  // of the current phase
  double reconnects = 0.0;
  std::atomic<std::uint64_t> next_job{0};

  const auto run_job = [&](gpustl::net::NetChannel& channel, std::uint64_t k) {
    // Three jobs in four resubmit the canonical STL (store hits); the
    // fourth replaces IMM, MEM and CNTRL with fresh variants (cold DU
    // simulations and store writes next to the reads).
    const bool canonical_job = k % 4 != 3;
    Json request;
    if (canonical_job) {
      request = canonical;
    } else {
      std::vector<Json> entries;
      for (const PlanEntry& pe : DuVariants(DeriveSeed(config.seed, k + 1))) {
        entries.push_back(EntryJson(pe));
      }
      for (std::size_t i = entries.size(); i < plan.size(); ++i) {
        entries.push_back(canonical_entries[i]);
      }
      request = SubmitRequest(std::move(entries), "bench", -1);
    }
    if (!channel.connected()) {
      std::string error;
      const std::int64_t t0 = NowNs();
      if (channel.EnsureConnected(&error)) {
        std::lock_guard<std::mutex> lock(mu);
        connect_ms.push_back(Since(t0) * 1e3);
        reconnects += 1.0;
      }
    }
    JobTrace job = SubmitJob(channel, request);
    std::string why;
    if (job.outcome == "transport") {
      why = "transport error: " + job.detail;
    } else if (job.outcome != "complete") {
      why = "job ended " + job.outcome;
    } else if (canonical_job && job.detail != reference.report) {
      why = "canonical job report differs from the 1-thread report";
    }
    job.detail.clear();
    std::lock_guard<std::mutex> lock(mu);
    ++out.attempted;
    if (!why.empty()) out.Fail("service_mixed: " + why);
    jobs.push_back(std::move(job));
  };

  Measure(config, out, [&](double seconds) {
    jobs.clear();
    const std::int64_t end =
        NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        do {
          run_job(*channels[i], next_job++);
        } while (NowNs() < end);
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<Op> ops;
    for (const JobTrace& job : jobs) {
      ops.push_back(
          {static_cast<double>(job.terminal - job.submit) * 1e-6, job.terminal});
    }
    return ops;
  });
  out.values["quality_pct"] = reference.size_reduction_pct;

  if (config.trace) {
    std::vector<double> queue_wait, run_ms, ack;
    double bytes_out = 0.0, bytes_in = 0.0;
    std::map<std::string, double> outcomes;
    for (const JobTrace& job : jobs) {
      RecordJobSpans(job, 0);
      outcomes[job.outcome] += 1.0;
      bytes_out += job.bytes_out;
      bytes_in += job.bytes_in;
      if (job.queued == 0 || job.admitted == 0) continue;
      ack.push_back(static_cast<double>(job.queued - job.submit) * 1e-6);
      queue_wait.push_back(static_cast<double>(job.admitted - job.queued) *
                           1e-6);
      run_ms.push_back(static_cast<double>(job.terminal - job.admitted) *
                       1e-6);
    }
    const double n = static_cast<double>(jobs.size());
    StageMetrics(Tracer::Get().Spans(), n, Any, out);
    auto& v = out.values;
    v["service.queue_wait_ms"] = Median(queue_wait);
    v["service.run_ms"] = Median(run_ms);
    v["service.completed"] = outcomes["complete"];
    v["service.degraded"] = outcomes["degraded"];
    v["service.failed"] = outcomes["failed"];
    v["service.rejected"] = outcomes["rejected"];
    v["net.connect_ms"] = Median(connect_ms);
    v["net.submit_ack_ms"] = Median(ack);
    v["net.reconnects"] = reconnects;
    v["net.bytes_out"] = bytes_out;
    v["net.bytes_in"] = bytes_in;

    // The daemon's store traffic for the measured tenant (status op).
    gpustl::net::NetChannel channel(daemon.Channel());
    std::string error;
    Json request = Json::Object();
    request.Set("op", "status");
    const auto status = channel.EnsureConnected(&error)
                            ? channel.Call(request, 30000)
                            : std::nullopt;
    const Json* tenants = status ? status->Find("tenants") : nullptr;
    const Json* t = tenants != nullptr ? tenants->Find("bench") : nullptr;
    if (t == nullptr) throw gpustl::Error("perfbench: status op failed");
    gpustl::store::StoreStats s;
    s.hits = static_cast<std::uint64_t>(t->GetInt("cache_hits"));
    s.misses = static_cast<std::uint64_t>(t->GetInt("cache_misses"));
    s.bytes_read = static_cast<std::uint64_t>(t->GetInt("cache_bytes_read"));
    s.bytes_written =
        static_cast<std::uint64_t>(t->GetInt("cache_bytes_written"));
    StoreMetrics(s, out);
    v.erase("store.bad_entries");  // the status op does not report it
    // Every job looks each of its fault simulations up once.
    v["compact.fault_sims"] = static_cast<double>(s.hits + s.misses) /
                              static_cast<double>(t->GetInt("jobs"));
  }
  out.values["peak_rss_mb"] = PeakRssMb(daemon.pid());
  channels.clear();
  daemon.Stop();
  if (config.trace) RunProbes(config, *modules, plan, out);
  return out;
}

Result RunAtpgTpgen(const Config& config) {
  Result out;
  // The seed varies the ATPG's own random stream (random phase and
  // don't-care fill).
  SetupsInFreshProcesses(config, out);
  const AtpgSetup setup = BuildAtpgSetup();
  const auto& sp = setup.sp;
  const auto& sample = setup.sample;

  const auto options = TpgenAtpgOptions();
  const std::uint64_t rng_seed = DeriveSeed(kTpgenAtpgSeed, config.seed);
  gpustl::atpg::AtpgRunResult last;
  int rep = 0;
  std::vector<double> rss;
  Measure(config, out, [&](double seconds) {
    std::vector<Op> ops;
    rss.clear();
    Repeat(seconds, [&] {
      ResetPeakRss();
      const std::int64_t t0 = NowNs();
      gpustl::atpg::AtpgRunResult run;
      gpustl::isa::Program ptp;
      {
        Span op("bench.op", "atpg-" + std::to_string(rep++));
        {
          Span span("atpg.generate");
          run = gpustl::atpg::GeneratePatternSet(
              *sp, sample, gpustl::Rng(rng_seed), options);
        }
        Span span("stl.convert");
        ptp = gpustl::stl::ConvertSpPatterns(run.patterns);
      }
      ops.push_back(Finish(t0));
      rss.push_back(PeakRssMb());
      // Re-simulating the generated patterns must reproduce the detected
      // count, and the conversion must produce a program.
      gpustl::fault::FaultSimOptions sim;
      sim.num_threads = config.threads;
      const auto check = gpustl::fault::RunFaultSim(*sp, run.patterns, sample,
                                                    nullptr, sim);
      ++out.attempted;
      if (check.num_detected != run.detected || ptp.size() == 0) {
        out.Fail("atpg_tpgen: fault simulation detects " +
                 std::to_string(check.num_detected) + " faults, ATPG claims " +
                 std::to_string(run.detected));
      }
      last = std::move(run);
    });
    return ops;
  });
  out.values["quality_pct"] = 100.0 * static_cast<double>(last.detected) /
                              static_cast<double>(sample.size());
  out.values["peak_rss_mb"] = Median(rss);
  if (!config.trace) return out;

  const auto spans = Tracer::Get().Spans();
  const double n = static_cast<double>(out.ops);
  auto& v = out.values;
  v["atpg.generate_s"] = SpanSeconds(spans, "atpg.generate") / n;
  v["stl.convert_s"] = SpanSeconds(spans, "stl.convert") / n;
  v["atpg.patterns"] = static_cast<double>(last.patterns.size());
  v["atpg.aborted"] = static_cast<double>(last.aborted);
  v["atpg.untestable"] = static_cast<double>(last.untestable);
  const auto modules = BuildModules();
  RunProbes(config, *modules, LoadStl(config.inputs_dir, config.seed), out);
  return out;
}

}  // namespace perfbench
