#include "net/remote_worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "distrib/units.h"
#include "store/result_store.h"

namespace gpustl::net {

namespace fs = std::filesystem;
using service::Json;

namespace {

/// The renew period for a daemon-supplied lease: a third of it, within
/// [0.5 s, 1 h]. The bound keeps wait_for's conversion to integer
/// nanoseconds defined for any double on the wire (1e300, inf; NaN reads
/// as 0.5 s).
double RenewPeriod(double lease_seconds) {
  const double period = lease_seconds / 3.0;
  return period >= 0.5 ? std::min(period, 3600.0) : 0.5;
}

/// Sends `renew` every lease/3 seconds while a simulation runs. Owns the
/// channel for its lifetime — the compute thread must not touch it until
/// the destructor joins.
class RenewThread {
 public:
  RenewThread(NetChannel& channel, std::string unit, double lease_seconds,
              int rpc_deadline_ms)
      : channel_(channel),
        unit_(std::move(unit)),
        period_(RenewPeriod(lease_seconds)),
        rpc_deadline_ms_(rpc_deadline_ms),
        thread_([this] { Loop(); }) {}

  ~RenewThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  /// The lease is gone (server said lease-lost, or the connection died).
  bool lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_),
                         [this] { return stop_; })) {
      Json renew;
      renew.Set("op", "renew");
      renew.Set("unit", unit_);
      const auto reply = channel_.Call(renew, rpc_deadline_ms_, "renew");
      if (!reply || reply->GetString("op", "") != "ok") {
        lost_.store(true, std::memory_order_relaxed);
        return;  // keep computing; the result is still worth publishing
      }
    }
  }

  NetChannel& channel_;
  const std::string unit_;
  const double period_;
  const int rpc_deadline_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> lost_{false};
  std::thread thread_;
};

}  // namespace

distrib::WorkerStats RunRemoteWorker(const RemoteWorkerOptions& options) {
  const std::string owner =
      options.owner.empty() ? "pid:" + std::to_string(::getpid())
                            : options.owner;

  std::string scratch = options.scratch_dir;
  bool own_scratch = false;
  if (scratch.empty()) {
    std::string tmpl = (fs::temp_directory_path() / "gpustl-net-XXXXXX");
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw Error("remote worker: cannot create scratch dir");
    }
    scratch = tmpl;
    own_scratch = true;
  }

  store::ResultStore store(scratch);
  distrib::UnitRunner::Config runner_config;
  runner_config.threads = options.threads;
  distrib::UnitRunner runner(store, runner_config);

  ChannelOptions copts;
  copts.endpoint = options.endpoint;
  copts.secret = options.secret;
  copts.role = "worker";
  copts.retry = options.retry;
  NetChannel channel(copts);

  distrib::WorkerStats stats;
  const auto stopping = [&options] {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  while (!stopping()) {
    std::string error;
    bool fatal = false;
    if (!channel.EnsureConnected(&error, &fatal)) {
      if (fatal) {
        if (own_scratch) {
          std::error_code ec;
          fs::remove_all(scratch, ec);
        }
        throw Error("remote worker: " + error);
      }
      // The daemon is unreachable right now; a worker is a patient
      // process. EnsureConnected already slept through its backoff
      // schedule — go around again until stopped.
      continue;
    }

    Json fetch;
    fetch.Set("op", "fetch");
    const auto reply = channel.Call(fetch, options.rpc_deadline_ms, "fetch");
    if (!reply) continue;  // dropped; reconnect next pass

    const std::string op = reply->GetString("op", "");
    if (op == "idle") {
      if (reply->GetBool("done", false)) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_ms));
      continue;
    }
    if (op != "unit") {
      std::fprintf(stderr, "gpustl-worker[%s]: daemon says: %s\n",
                   owner.c_str(),
                   reply->GetString("error", "unexpected reply").c_str());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_ms));
      continue;
    }

    const std::string name = reply->GetString("unit", "");
    const double lease = reply->GetDouble("lease_seconds", 30.0);
    const auto bytes = HexDecode(reply->GetString("data", ""));
    if (name.empty() || !bytes) {
      ++stats.failures;
      continue;
    }
    // The unit codec is path-based; round-trip through the scratch dir.
    const std::string unit_path = scratch + "/" + name + ".unit";
    {
      std::ofstream out(unit_path, std::ios::binary | std::ios::trunc);
      out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    }
    const auto unit = distrib::ReadUnitFile(unit_path);
    {
      std::error_code ec;
      fs::remove(unit_path, ec);
    }
    if (!unit) {
      ++stats.failures;
      continue;
    }

    try {
      store::StoreKey key;
      {
        RenewThread renew(channel, name, lease, options.rpc_deadline_ms);
        key = runner.Run(*unit);
        if (renew.lost()) ++stats.steals;  // re-issued elsewhere; harmless
      }

      std::string entry_bytes;
      {
        std::ifstream in(store.EntryPath(key), std::ios::binary);
        entry_bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
      }
      if (entry_bytes.empty()) {
        throw Error("remote worker: missing scratch entry for " + name);
      }

      Json publish;
      publish.Set("op", "publish");
      publish.Set("key", key.ToHex());
      publish.Set("data", HexEncode(entry_bytes));
      auto pub = channel.Call(publish, options.rpc_deadline_ms, "publish");
      if (!pub) {
        // Publish the result on a fresh connection: it is content-
        // addressed, so landing it late is never wrong.
        if (!channel.EnsureConnected(&error, &fatal) || fatal) {
          throw Error("remote worker: publish failed: " + error);
        }
        pub = channel.Call(publish, options.rpc_deadline_ms, "publish");
      }
      if (!pub || pub->GetString("op", "") != "ok") {
        throw Error("remote worker: publish rejected: " +
                    (pub ? pub->GetString("error", "?") : "disconnected"));
      }

      Json done;
      done.Set("op", "done");
      done.Set("unit", name);
      channel.Call(done, options.rpc_deadline_ms, "done");

      ++stats.units_done;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gpustl-worker[%s]: unit %s failed: %s\n",
                   owner.c_str(), name.c_str(), e.what());
      ++stats.failures;
      Json release;
      release.Set("op", "release");
      release.Set("unit", name);
      channel.Call(release, options.rpc_deadline_ms, "release");
    }
  }

  if (own_scratch) {
    std::error_code ec;
    fs::remove_all(scratch, ec);
  }
  return stats;
}

}  // namespace gpustl::net
