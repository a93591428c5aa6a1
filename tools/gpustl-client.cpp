// gpustl-client — command-line client for the gpustld daemon.
//
// Speaks the daemon's framed protocol (docs/FORMATS.md) over its AF_UNIX
// socket or its TCP listener — the same handshake, frames and submit on
// both:
//
//   gpustl-client --socket /run/gpustld.sock submit --manifest stl.txt
//   gpustl-client --connect buildhost:7777 submit --manifest stl.txt
//   gpustl-client --socket /run/gpustld.sock ping | status | shutdown
//
// `submit` reads the manifest and its PTPs here (paths relative to the
// manifest's directory) and sends every entry inline, streams the job's
// lifecycle events until the terminal one and maps it to the exit code;
// --report writes the campaign report text (the same bytes `gpustlc
// campaign --report` would produce) to a file. The submit is idempotent
// and resumable: a mid-stream disconnect reconnects with backoff and
// resumes the event stream where it left off, with no duplicated and no
// lost events.
//
// exit codes: 0 job complete (or ping/status/shutdown ok), 1 failed,
// 2 usage (--checkpoint with --connect too), 3 job complete DEGRADED,
// 4 rejected, 5 transport error (connect attempts exhausted, connection
// lost beyond recovery).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/chaos.h"
#include "common/error.h"
#include "common/strutil.h"
#include "net/client.h"
#include "net/net.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"

namespace gpustl::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "gpustl-client — client for the gpustld campaign daemon\n"
      "\n"
      "usage: gpustl-client (--socket <path> | --connect <host:port>)\n"
      "                     <command> [options]\n"
      "\n"
      "transport:\n"
      "  --socket <path>        daemon's AF_UNIX socket\n"
      "  --connect <host:port>  daemon's TCP listener\n"
      "                         (either way the client reconnects with\n"
      "                         backoff and resumes event streams)\n"
      "  --secret <s>           handshake secret (default:\n"
      "                         $GPUSTL_NET_SECRET)\n"
      "  --retries N            connect attempts per cycle (default 8)\n"
      "\n"
      "commands:\n"
      "  submit --manifest <file> [options]   submit a campaign (its PTPs\n"
      "                                       sent inline) and stream its\n"
      "                                       events until it finishes\n"
      "  ping                                 liveness check\n"
      "  status                               queue/counter/cache snapshot\n"
      "  shutdown                             ask the daemon to drain\n"
      "\n"
      "submit options:\n"
      "  --tenant <name>        tenant for quota accounting (default\n"
      "                         \"default\")\n"
      "  --priority P           high, normal or low (default normal)\n"
      "  --deadline S           whole-job wall-clock budget in seconds\n"
      "  --stage-deadline S     per-stage budget in seconds\n"
      "  --threads N            fault-sim workers for this job\n"
      "  --checkpoint <dir>     checkpoint after every PTP; resume from a\n"
      "                         matching checkpoint in <dir> (--socket\n"
      "                         only: the daemon writes <dir>)\n"
      "  --report <file>        write the campaign report text\n"
      "  --json                 print raw event lines instead of summaries\n"
      "\n"
      "exit codes: 0 complete, 1 failed, 2 usage, 3 complete DEGRADED,\n"
      "4 rejected, 5 transport error.\n");
  return 2;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "gpustl-client: %s\n", msg.c_str());
  std::exit(1);
}

/// Transport failures get their own exit code (5) so wrappers can retry
/// or re-point without mistaking a dead network for a failed job.
[[noreturn]] void DieTransport(const std::string& msg) {
  std::fprintf(stderr, "gpustl-client: transport error: %s\n", msg.c_str());
  std::exit(5);
}

struct SubmitArgs {
  std::string manifest;
  std::string tenant;
  std::string priority;
  std::string checkpoint_dir;
  std::string report_path;
  double deadline = -1.0;
  double stage_deadline = -1.0;
  int threads = -1;
  bool raw_json = false;
};

service::Json BuildSubmitRequest(const SubmitArgs& args) {
  if (args.manifest.empty()) Die("submit needs --manifest <file>");
  service::Json entries = service::Json::Array();
  try {
    for (const auto& pe : service::LoadManifestPlan(args.manifest)) {
      entries.Append(service::EncodeEntry(pe));
    }
  } catch (const Error& e) {
    Die(e.what());
  }
  service::Json req = service::Json::Object();
  req.Set("op", "submit");
  req.Set("entries", std::move(entries));
  if (!args.tenant.empty()) req.Set("tenant", args.tenant);
  if (!args.priority.empty()) req.Set("priority", args.priority);
  if (args.deadline >= 0) req.Set("deadline", args.deadline);
  if (args.stage_deadline >= 0) req.Set("stage_deadline", args.stage_deadline);
  if (args.threads >= 0) req.Set("threads", args.threads);
  if (!args.checkpoint_dir.empty()) {
    // The daemon writes it, from its own working directory.
    req.Set("checkpoint_dir",
            std::filesystem::absolute(args.checkpoint_dir).string());
  }
  return req;
}

/// Renders one job event. Returns true (with the exit code in `rc`) on
/// the terminal event.
bool ProcessEvent(const service::Json& event, const SubmitArgs& args,
                  int* rc) {
  {
    if (args.raw_json) {
      std::printf("%s\n", event.Dump().c_str());
      std::fflush(stdout);
    }
    const std::string kind = event.GetString("event");
    if (kind == "rejected") {
      std::fprintf(stderr, "gpustl-client: rejected: %s%s%s\n",
                   event.GetString("reason").c_str(),
                   event.Find("detail") != nullptr ? " — " : "",
                   event.GetString("detail").c_str());
      *rc = 4;
      return true;
    }
    if (kind == "failed") {
      std::fprintf(stderr, "gpustl-client: job failed [%s]: %s\n",
                   event.GetString("class").c_str(),
                   event.GetString("message").c_str());
      *rc = 1;
      return true;
    }
    if (kind == "error") {
      Die("daemon: " + event.GetString("message"));
    }
    if (!args.raw_json) {
      if (kind == "queued") {
        std::printf("queued: job %lld, %lld ahead\n",
                    static_cast<long long>(event.GetInt("job")),
                    static_cast<long long>(event.GetInt("position")));
      } else if (kind == "admitted") {
        std::printf("admitted: worker %lld\n",
                    static_cast<long long>(event.GetInt("worker")));
      } else if (kind == "entry-done") {
        std::printf("  %-12s %s%s\n", event.GetString("name").c_str(),
                    event.GetString("mode").c_str(),
                    event.Find("error_class") != nullptr
                        ? (" [" + event.GetString("error_class") + " at " +
                           event.GetString("error_stage") + "]")
                              .c_str()
                        : "");
      }
      std::fflush(stdout);
    }
    if (kind == "complete") {
      const std::string status = event.GetString("status");
      if (!args.report_path.empty()) {
        std::ofstream out(args.report_path);
        if (!out) Die("cannot write " + args.report_path);
        out << event.GetString("report");
        if (!args.raw_json) {
          std::printf("report -> %s\n", args.report_path.c_str());
        }
      }
      if (!args.raw_json) {
        std::printf("%s: %lld entries, %lld degraded\n", status.c_str(),
                    static_cast<long long>(event.GetInt("entries")),
                    static_cast<long long>(event.GetInt("degraded_entries")));
      }
      *rc = status == "degraded" ? 3 : 0;
      return true;
    }
  }
  return false;
}

int RunSubmit(net::NetChannel& channel, const SubmitArgs& args) {
  int rc = 0;
  bool terminal = false;
  const net::SubmitOutcome outcome = net::ResumableSubmit(
      channel, BuildSubmitRequest(args), net::GenerateClientJobId(),
      [&](const service::Json& event) {
        if (ProcessEvent(event, args, &rc)) terminal = true;
      });
  if (outcome.transport_error) DieTransport(outcome.transport_detail);
  if (!terminal) DieTransport("event stream ended without a terminal event");
  return rc;
}

int RunSimpleOp(net::NetChannel& channel, const std::string& op) {
  std::string error;
  bool fatal = false;
  if (!channel.EnsureConnected(&error, &fatal)) {
    if (fatal) Die(error);
    DieTransport(error);
  }
  service::Json req = service::Json::Object();
  req.Set("op", op);
  const auto reply = channel.Call(req, /*read_deadline_ms=*/30000, op);
  if (!reply) DieTransport("no response from daemon");
  std::printf("%s\n", reply->Dump().c_str());
  return reply->GetString("event") == "error" ? 1 : 0;
}

int Main(int argc, char** argv) {
  std::string socket_path;
  std::string connect;
  std::string secret;
  std::string chaos;
  std::uint64_t chaos_seed = 1;
  int retries = 8;
  std::string command;
  SubmitArgs submit;
  if (const char* env = std::getenv("GPUSTL_NET_SECRET")) secret = env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) Die("flag " + arg + " needs a value");
      return argv[i];
    };
    auto next_float = [&]() {
      const auto v = ParseFloat(next());
      if (!v || *v < 0) Die(arg + " must be >= 0");
      return *v;
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--connect") connect = next();
    else if (arg == "--secret") secret = next();
    else if (arg == "--retries") {
      const auto v = ParseInt(next());
      if (!v || *v < 1) Die("--retries must be >= 1");
      retries = static_cast<int>(*v);
    }
    else if (arg == "--chaos") chaos = next();
    else if (arg == "--chaos-seed") {
      const auto v = ParseInt(next());
      if (!v || *v < 0) Die("--chaos-seed must be >= 0");
      chaos_seed = static_cast<std::uint64_t>(*v);
    }
    else if (arg == "--manifest") submit.manifest = next();
    else if (arg == "--tenant") submit.tenant = next();
    else if (arg == "--priority") submit.priority = next();
    else if (arg == "--deadline") submit.deadline = next_float();
    else if (arg == "--stage-deadline") submit.stage_deadline = next_float();
    else if (arg == "--threads") {
      const auto v = ParseInt(next());
      if (!v || *v < 0) Die("--threads must be >= 0");
      submit.threads = static_cast<int>(*v);
    }
    else if (arg == "--checkpoint") submit.checkpoint_dir = next();
    else if (arg == "--report") submit.report_path = next();
    else if (arg == "--json") submit.raw_json = true;
    else if (!arg.empty() && arg[0] == '-') Die("unknown flag " + arg);
    else if (command.empty()) command = arg;
    else Die("unexpected argument " + arg);
  }

  if (command.empty()) return Usage();
  if (socket_path.empty() && connect.empty()) {
    Die("--socket <path> or --connect <host:port> required");
  }
  if (!socket_path.empty() && !connect.empty()) {
    Die("--socket and --connect are mutually exclusive");
  }
  std::string error;
  const auto endpoint = net::ParseEndpoint(
      socket_path.empty() ? connect : "unix:" + socket_path, &error);
  if (!endpoint) Die(error);
  if (!connect.empty() && endpoint->is_unix()) {
    Die("--connect takes <host:port>; a unix socket is --socket <path>");
  }
  if (!connect.empty() && !submit.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "gpustl-client: --checkpoint needs --socket: a daemon "
                 "reached over TCP writes no directory a client names\n");
    return 2;
  }
  if (!chaos.empty()) chaos::Install(chaos, chaos_seed);

  net::ChannelOptions copts;
  copts.endpoint = *endpoint;
  copts.secret = secret;
  copts.retry.attempts = retries;
  net::NetChannel channel(copts);
  if (command == "submit") return RunSubmit(channel, submit);
  if (command == "ping" || command == "status" || command == "shutdown") {
    return RunSimpleOp(channel, command);
  }
  return Usage();
}

}  // namespace
}  // namespace gpustl::tools

int main(int argc, char** argv) { return gpustl::tools::Main(argc, argv); }
