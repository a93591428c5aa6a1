// gpustld — the compaction-as-a-service daemon.
//
// Accepts compaction campaign jobs over a local AF_UNIX socket speaking
// newline-delimited JSON (docs/FORMATS.md), runs them on a worker pool
// sharing one result store and per-module fault prep,
// admission-controls the queue (bounded depth, per-tenant quotas, priority
// classes) and streams per-job lifecycle events back to each client.
//
// SIGTERM/SIGINT trigger a graceful drain: stop admitting (later submits
// are rejected `draining`), flush the queue (queued jobs fail with a
// terminal event), finish or cancel in-flight jobs (--drain-cancel), then
// exit 0. The report a job returns is byte-identical to what `gpustlc
// campaign --report` writes for the same inputs.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <thread>

#include "common/chaos.h"
#include "common/error.h"
#include "common/strutil.h"
#include "net/broker.h"
#include "net/net.h"
#include "net/tcp_server.h"
#include "service/server.h"
#include "service/service.h"

namespace gpustl::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "gpustld — compaction campaign daemon\n"
      "\n"
      "usage: gpustld [--socket <path>] [--listen <host:port>] [options]\n"
      "\n"
      "options (at least one of --socket / --listen is required):\n"
      "  --socket <path>        AF_UNIX socket to listen on\n"
      "  --listen <host:port>   TCP listener for off-box clients and\n"
      "                         workers (port 0 = ephemeral; the bound\n"
      "                         port is printed at startup)\n"
      "  --secret <s>           shared handshake secret for --listen\n"
      "                         (default: $GPUSTL_NET_SECRET; empty\n"
      "                         accepts any peer)\n"
      "  --workers N            campaign worker threads (default 2)\n"
      "  --queue-depth N        max queued jobs before `queue-full`\n"
      "                         rejections (default 64)\n"
      "  --tenant-quota N       max queued+running jobs per tenant\n"
      "                         (default 16)\n"
      "  --deadline S           default whole-job wall-clock budget in\n"
      "                         seconds (0 = unlimited; a submit may set\n"
      "                         its own)\n"
      "  --stage-deadline S     default per-stage budget (0 = unlimited)\n"
      "  --cache-dir <dir>      shared content-addressed result store\n"
      "  --cache-limit-mb N     evict oldest entries over N MiB\n"
      "  --distrib-dir <dir>    distributed prefetch: post each job's work\n"
      "                         units here for external `gpustl-worker\n"
      "                         --dir` processes (requires --cache-dir;\n"
      "                         the daemon never forks workers and never\n"
      "                         writes campaign.done — SIGTERM the workers\n"
      "                         when retiring the daemon)\n"
      "  --distrib-stale S      claim staleness horizon in seconds\n"
      "                         (default 30)\n"
      "  --threads N            fault-sim workers per job (default 1)\n"
      "  --drain-cancel         on drain, cancel in-flight jobs instead of\n"
      "                         letting them finish\n"
      "  --chaos <spec>         deterministic failure injection (gpustlc\n"
      "  --chaos-seed N         syntax)\n"
      "\n"
      "exit codes: 0 clean drain, 1 fatal error, 2 usage.\n");
  return 2;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "gpustld: %s\n", msg.c_str());
  std::exit(1);
}

service::SocketServer* g_server = nullptr;
net::TcpServer* g_tcp_server = nullptr;

void HandleSignal(int) {
  // Both stops are a single self-pipe write: async-signal-safe.
  if (g_server != nullptr) g_server->RequestStop();
  if (g_tcp_server != nullptr) g_tcp_server->RequestStop();
}

struct Args {
  std::string socket_path;
  std::string listen;
  std::string secret;
  std::string chaos;
  std::uint64_t chaos_seed = 1;
  bool drain_cancel = false;
  service::ServiceOptions service;

  Args(int argc, char** argv) {
    if (const char* env = std::getenv("GPUSTL_NET_SECRET")) secret = env;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (++i >= argc) Die("flag " + arg + " needs a value");
        return argv[i];
      };
      auto next_int = [&](std::int64_t min) {
        const auto v = ParseInt(next());
        if (!v || *v < min) Die("bad value for " + arg);
        return *v;
      };
      auto next_float = [&]() {
        const auto v = ParseFloat(next());
        if (!v || *v < 0) Die(arg + " must be >= 0");
        return *v;
      };
      if (arg == "--socket") socket_path = next();
      else if (arg == "--listen") listen = next();
      else if (arg == "--secret") secret = next();
      else if (arg == "--workers") service.workers = static_cast<int>(next_int(1));
      else if (arg == "--queue-depth")
        service.admission.max_queue_depth = static_cast<std::size_t>(next_int(1));
      else if (arg == "--tenant-quota")
        service.admission.per_tenant_quota = static_cast<std::size_t>(next_int(1));
      else if (arg == "--deadline") service.default_deadline_seconds = next_float();
      else if (arg == "--stage-deadline")
        service.stage_deadline_seconds = next_float();
      else if (arg == "--cache-dir") service.cache_dir = next();
      else if (arg == "--cache-limit-mb")
        service.cache_limit_bytes =
            static_cast<std::uint64_t>(next_int(0)) * 1024ull * 1024ull;
      else if (arg == "--distrib-dir") service.distrib_dir = next();
      else if (arg == "--distrib-stale") {
        service.distrib_stale_seconds = next_float();
        if (service.distrib_stale_seconds <= 0)
          Die("--distrib-stale must be > 0");
      }
      else if (arg == "--threads")
        service.base.num_threads = static_cast<int>(next_int(0));
      else if (arg == "--drain-cancel") drain_cancel = true;
      else if (arg == "--chaos") chaos = next();
      else if (arg == "--chaos-seed")
        chaos_seed = static_cast<std::uint64_t>(next_int(0));
      else Die("unknown flag " + arg);
    }
  }
};

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.socket_path.empty() && args.listen.empty()) return Usage();
  if (!args.service.distrib_dir.empty() && args.service.cache_dir.empty()) {
    Die("--distrib-dir requires --cache-dir (the shared store is the "
        "data plane workers publish to)");
  }
  if (!args.chaos.empty()) {
    chaos::Install(args.chaos, args.chaos_seed);
  } else {
    chaos::ConfigureFromEnv();
  }

  try {
    service::CampaignService service(args.service);
    std::string error;

    std::unique_ptr<service::SocketServer> server;
    if (!args.socket_path.empty()) {
      server = std::make_unique<service::SocketServer>(service,
                                                       args.socket_path);
      if (!server->Start(&error)) Die(error);
    }

    std::unique_ptr<net::TcpServer> tcp_server;
    if (!args.listen.empty()) {
      const auto endpoint = net::ParseEndpoint(args.listen, &error);
      if (!endpoint) Die(error);
      net::BrokerOptions broker;
      broker.distrib_dir = args.service.distrib_dir;
      broker.cache_dir = args.service.cache_dir;
      broker.lease_seconds = args.service.distrib_stale_seconds;
      net::TcpServerOptions topts;
      topts.endpoint = *endpoint;
      topts.secret = args.secret;
      tcp_server = std::make_unique<net::TcpServer>(
          service, net::WorkBroker(broker), topts);
      if (!tcp_server->Start(&error)) Die(error);
      // A shutdown op arriving over TCP must also stop the AF_UNIX loop.
      tcp_server->set_on_shutdown([&server] {
        if (server) server->RequestStop();
      });
    }

    g_server = server.get();
    g_tcp_server = tcp_server.get();
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // The smoke tests (and any wrapper) wait for these lines before
    // connecting; keep them first and flushed. The tcp line prints the
    // BOUND port, so `--listen 127.0.0.1:0` wrappers learn the address.
    if (server) {
      std::printf("gpustld: listening on %s (%d workers)\n",
                  args.socket_path.c_str(), args.service.workers);
    }
    if (tcp_server) {
      const auto ep = net::ParseEndpoint(args.listen);
      std::printf("gpustld: listening on tcp %s:%u (%d workers)\n",
                  ep->host.c_str(), tcp_server->bound_port(),
                  args.service.workers);
    }
    std::fflush(stdout);

    if (server) {
      std::thread tcp_thread;
      if (tcp_server) {
        tcp_thread = std::thread([&tcp_server] { tcp_server->Serve(); });
      }
      server->Serve();
      if (tcp_server) {
        tcp_server->RequestStop();
        tcp_thread.join();
      }
    } else {
      tcp_server->Serve();
    }

    std::printf("gpustld: draining (%s in-flight jobs)\n",
                args.drain_cancel ? "cancelling" : "finishing");
    std::fflush(stdout);
    service.Drain(args.drain_cancel);
    if (server) server->JoinConnections();
    if (tcp_server) tcp_server->JoinConnections();

    const service::ServiceCounters c = service.counters();
    std::printf("gpustld: drained — %llu submitted, %llu completed, "
                "%llu degraded, %llu failed, %llu rejected\n",
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.degraded),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.rejected));
    return 0;
  } catch (const Error& e) {
    Die(e.what());
  }
}

}  // namespace
}  // namespace gpustl::tools

int main(int argc, char** argv) { return gpustl::tools::Main(argc, argv); }
