// gpustl-worker — a distributed-campaign work-stealing worker process.
//
// Point any number of these at the distrib dir of a `gpustlc campaign
// --distrib-dir` run (or a `gpustld --distrib-dir` daemon) and they claim
// posted work units, run each unit's logic trace + full-fault-list fault
// simulation, and publish the results into the shared result store. The
// protocol is crash-safe by construction: a killed worker's stale claim is
// expired and re-stolen, and the coordinator computes anything left over
// inline — the campaign report is byte-identical for every fleet size and
// failure pattern (see src/distrib/worker.h).
//
// With --connect the same worker runs OFF-BOX: work units arrive over the
// daemon's TCP listener (or its unix socket, `unix:<path>`) as RPCs,
// results are uploaded as store-entry bytes, and a lost connection (or
// SIGKILL) surrenders the unit's lease so it is re-issued exactly like a
// stale local claim.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/chaos.h"
#include "common/error.h"
#include "common/strutil.h"
#include "distrib/worker.h"
#include "net/net.h"
#include "net/remote_worker.h"

namespace gpustl::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "gpustl-worker — distributed campaign worker\n"
      "\n"
      "usage: gpustl-worker (--dir <distrib-dir> | --connect <host:port>)\n"
      "                     [options]\n"
      "\n"
      "options:\n"
      "  --dir <path>        distrib dir of the campaign (local mode)\n"
      "  --connect <h:p>     a gpustld --listen address, or\n"
      "                      unix:<path> for its --socket (remote mode:\n"
      "                      units and results travel over the\n"
      "                      connection; the worker reconnects with\n"
      "                      backoff forever)\n"
      "  --secret <s>        handshake secret for --connect (default:\n"
      "                      $GPUSTL_NET_SECRET)\n"
      "  --scratch <dir>     remote mode: local scratch store (default: a\n"
      "                      fresh temp dir, removed on exit)\n"
      "  --owner <id>        claim owner label (default pid:<pid>)\n"
      "  --cache-dir <dir>   result store (default: the coordinator's,\n"
      "                      from <dir>/meta.txt)\n"
      "  --threads N         fault-sim threads per unit (default 1;\n"
      "                      0 = all cores)\n"
      "  --stale S           claim staleness horizon override in seconds\n"
      "                      (default: meta.txt value, else 30)\n"
      "  --poll-ms N         idle poll interval (default 50)\n"
      "  --chaos <spec>      deterministic failure injection (gpustlc\n"
      "  --chaos-seed N      syntax; sites worker-kill and stale-claim\n"
      "                      target this tool)\n"
      "\n"
      "The worker exits 0 when the campaign is marked done, or after\n"
      "SIGTERM/SIGINT (it finishes its current unit first). Exit 1 is a\n"
      "setup error (bad dir, no store).\n");
  return 2;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "gpustl-worker: %s\n", msg.c_str());
  std::exit(1);
}

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Main(int argc, char** argv) {
  distrib::WorkerOptions options;
  std::string connect;
  std::string secret;
  std::string scratch;
  std::string chaos;
  std::uint64_t chaos_seed = 1;
  if (const char* env = std::getenv("GPUSTL_NET_SECRET")) secret = env;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) Die("flag " + arg + " needs a value");
      return argv[i];
    };
    if (arg == "--dir") options.dir = next();
    else if (arg == "--connect") connect = next();
    else if (arg == "--secret") secret = next();
    else if (arg == "--scratch") scratch = next();
    else if (arg == "--owner") options.owner = next();
    else if (arg == "--cache-dir") options.cache_dir = next();
    else if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
      if (options.threads < 0) Die("--threads must be >= 0");
    }
    else if (arg == "--stale") {
      const auto v = ParseFloat(next());
      if (!v || *v <= 0) Die("--stale must be > 0 seconds");
      options.stale_seconds = *v;
    }
    else if (arg == "--poll-ms") {
      options.poll_ms = std::atoi(next().c_str());
      if (options.poll_ms < 1) Die("--poll-ms must be >= 1");
    }
    else if (arg == "--chaos") chaos = next();
    else if (arg == "--chaos-seed") {
      const auto v = ParseInt(next());
      if (!v || *v < 0) Die("--chaos-seed must be >= 0");
      chaos_seed = static_cast<std::uint64_t>(*v);
    }
    else return Usage();
  }
  if (options.dir.empty() == connect.empty()) return Usage();

  if (!chaos.empty()) {
    chaos::Install(chaos, chaos_seed);
  } else {
    chaos::ConfigureFromEnv();
  }

  options.stop = &g_stop;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  try {
    distrib::WorkerStats stats;
    if (!connect.empty()) {
      std::string error;
      const auto endpoint = net::ParseEndpoint(connect, &error);
      if (!endpoint) Die(error);
      net::RemoteWorkerOptions remote;
      remote.endpoint = *endpoint;
      remote.secret = secret;
      remote.owner = options.owner;
      remote.threads = options.threads;
      remote.poll_ms = std::max(options.poll_ms, 50);
      remote.scratch_dir = scratch;
      remote.stop = &g_stop;
      stats = net::RunRemoteWorker(remote);
    } else {
      stats = distrib::RunWorker(options);
    }
    std::printf("gpustl-worker: %llu units, %llu steals, %llu failures\n",
                static_cast<unsigned long long>(stats.units_done),
                static_cast<unsigned long long>(stats.steals),
                static_cast<unsigned long long>(stats.failures));
    return 0;
  } catch (const Error& e) {
    Die(e.what());
  }
}

}  // namespace
}  // namespace gpustl::tools

int main(int argc, char** argv) { return gpustl::tools::Main(argc, argv); }
