#include "distrib/worker.h"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/error.h"
#include "common/strutil.h"
#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "distrib/claims.h"
#include "distrib/units.h"
#include "gpu/sm.h"
#include "store/result_store.h"
#include "trace/trace.h"

namespace gpustl::distrib {
namespace {

/// Lazily built per-target state. Workers typically see one or two targets
/// per campaign; building a netlist + ModulePrep for a target they never
/// claim would waste their first seconds. Forked fleets skip the build
/// entirely: they borrow the coordinator's netlist and prep through
/// WorkerOptions::modules (shared parent pages).
struct TargetState {
  std::shared_ptr<const netlist::Netlist> owned;  // null when borrowed
  const netlist::Netlist* nl = nullptr;
  std::shared_ptr<const compact::ModulePrep> prep;
};

netlist::Netlist BuildTarget(trace::TargetModule target) {
  switch (target) {
    case trace::TargetModule::kDecoderUnit:
      return circuits::BuildDecoderUnit();
    case trace::TargetModule::kSpCore:
      return circuits::BuildSpCore();
    case trace::TargetModule::kSfu:
      return circuits::BuildSfu();
    case trace::TargetModule::kFp32:
      return circuits::BuildFp32();
  }
  throw Error("distrib: unknown target module");
}

TargetState MakeTargetState(trace::TargetModule target,
                            const ModuleSet& modules) {
  TargetState state;
  const compact::ModulePrepSet none;
  const compact::ModulePrepSet& preps =
      modules.preps != nullptr ? *modules.preps : none;
  switch (target) {
    case trace::TargetModule::kDecoderUnit:
      state.nl = modules.du;
      state.prep = preps.du;
      break;
    case trace::TargetModule::kSpCore:
      state.nl = modules.sp;
      state.prep = preps.sp;
      break;
    case trace::TargetModule::kSfu:
      state.nl = modules.sfu;
      state.prep = preps.sfu;
      break;
    case trace::TargetModule::kFp32:
      state.nl = modules.fp32;
      state.prep = preps.fp32;
      break;
  }
  if (state.nl == nullptr) {
    state.owned =
        std::make_shared<const netlist::Netlist>(BuildTarget(target));
    state.nl = state.owned.get();
    state.prep = nullptr;  // a borrowed prep must match the borrowed netlist
  }
  if (state.prep == nullptr) state.prep = compact::BuildModulePrep(*state.nl);
  return state;
}

/// Touches the claim every stale/3 seconds while a simulation runs, so a
/// slow unit is not mistaken for a dead worker.
class HeartbeatThread {
 public:
  HeartbeatThread(ClaimBoard& board, const std::string& unit)
      : board_(board), unit_(unit), thread_([this] { Loop(); }) {}

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void Loop() {
    const auto period = std::chrono::duration<double>(
        std::max(0.1, board_.stale_seconds() / 3.0));
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      board_.Heartbeat(unit_);
    }
  }

  ClaimBoard& board_;
  const std::string unit_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::string SanitizeOwner(const std::string& owner) {
  std::string out = owner;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == ' ') c = '_';
  }
  return out;
}

void WriteStatsFile(const std::string& dir, const std::string& owner,
                    const WorkerStats& stats) {
  std::ofstream os(StatsDir(dir) + "/" + SanitizeOwner(owner) + ".txt",
                   std::ios::trunc);
  os << "units_done=" << stats.units_done << "\n"
     << "steals=" << stats.steals << "\n"
     << "stale_left=" << stats.stale_left << "\n"
     << "failures=" << stats.failures << "\n";
}

}  // namespace

struct UnitRunner::State {
  std::map<std::string, TargetState> targets;
};

UnitRunner::UnitRunner(store::ResultStore& store, Config config)
    : store_(store),
      config_(std::move(config)),
      state_(std::make_unique<State>()) {}

UnitRunner::~UnitRunner() = default;

store::StoreKey UnitRunner::Run(const WorkUnit& unit) {
  const auto target = compact::ParseTargetModule(unit.target_token);
  if (!target) {
    throw Error("distrib: unknown target '" + unit.target_token + "'");
  }
  auto it = state_->targets.find(unit.target_token);
  if (it == state_->targets.end()) {
    it = state_->targets
             .emplace(unit.target_token,
                      MakeTargetState(*target, config_.modules))
             .first;
  }
  const TargetState& ts = it->second;

  // Stage 2: the unit's logic trace. Default SmConfig — the same one the
  // coordinator and the single-process compactor use, so the captured
  // patterns (and hence the store key) match exactly.
  trace::PatternProbe probe(*target);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(unit.ptp);
  const netlist::PatternSet patterns = unit.reverse_patterns
                                           ? probe.patterns().Reversed()
                                           : probe.TakePatterns();

  const fault::FaultSimOptions sim{
      .drop_detected = true,
      .num_threads = config_.threads,
      .collapse_plan = &ts.prep->collapse,
  };
  store::SimulateWithStore(&store_, *ts.nl, patterns, ts.prep->faults,
                           /*skip=*/nullptr, sim, store::SimModel::kStuckAt,
                           &ts.prep->faults_fp);
  return store::FaultSimKeyWith(*ts.nl, patterns, ts.prep->faults_fp,
                                /*skip=*/nullptr, /*drop_detected=*/true,
                                store::SimModel::kStuckAt);
}

WorkerStats RunWorker(const WorkerOptions& options) {
  if (options.dir.empty()) throw Error("distrib: worker needs a dir");

  std::string cache_dir = options.cache_dir;
  if (cache_dir.empty()) {
    if (const auto v = ReadMetaValue(options.dir, "cache_dir")) {
      cache_dir = *v;
    }
  }
  if (cache_dir.empty()) {
    throw Error(
        "distrib: no result-store directory (pass --cache-dir or run a "
        "coordinator first so meta.txt exists)");
  }

  double stale = options.stale_seconds;
  if (stale <= 0.0) {
    stale = 30.0;
    if (const auto v = ReadMetaValue(options.dir, "stale_seconds")) {
      if (const auto parsed = ParseFloat(*v); parsed && *parsed > 0.0) {
        stale = *parsed;
      }
    }
  }

  const std::string owner =
      options.owner.empty() ? "pid:" + std::to_string(::getpid())
                            : options.owner;

  store::ResultStore store(cache_dir);
  ClaimBoard board(options.dir, owner, stale);
  WorkerStats stats;
  UnitRunner runner(store,
                    {.threads = options.threads, .modules = options.modules});
  std::map<std::string, int> attempts;
  std::set<std::string> blacklist;

  const auto stopping = [&options] {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  while (!stopping()) {
    bool all_done = true;
    bool claimed_any = false;

    for (const std::string& name : ListUnits(options.dir)) {
      if (stopping()) break;
      if (board.IsDone(name)) continue;
      all_done = false;
      if (blacklist.count(name) != 0) continue;

      const ClaimResult claim = board.TryClaim(name);
      if (!claim.claimed) continue;
      claimed_any = true;
      if (claim.stole) ++stats.steals;

      if (chaos::Fail(chaos::Site::kWorkerKill, name)) {
        // Die the hard way, claim left behind: the stale-claim expiry is
        // what the chaos run is exercising.
        ::kill(::getpid(), SIGKILL);
      }
      if (chaos::Fail(chaos::Site::kStaleClaim, name)) {
        board.Backdate(name, stale * 10.0);
        ++stats.stale_left;
        continue;  // abandoned: somebody (maybe us, next pass) must steal it
      }

      try {
        const auto unit =
            ReadUnitFile(UnitsDir(options.dir) + "/" + name + ".unit");
        if (!unit) throw Error("distrib: unreadable unit " + name);

        // Publish the full-fault-list dropped stuck-at result. The
        // heartbeat keeps the claim fresh through long simulations.
        HeartbeatThread heartbeat(board, name);
        runner.Run(*unit);
        board.MarkDone(name);
        board.Release(name);
        ++stats.units_done;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gpustl-worker[%s]: unit %s failed: %s\n",
                     owner.c_str(), name.c_str(), e.what());
        board.Release(name);
        ++stats.failures;
        if (++attempts[name] >= options.max_unit_attempts) {
          std::fprintf(stderr,
                       "gpustl-worker[%s]: giving up on unit %s after %d "
                       "attempts\n",
                       owner.c_str(), name.c_str(), options.max_unit_attempts);
          blacklist.insert(name);
        }
      }
    }

    if (all_done && CampaignDone(options.dir)) break;
    if (!claimed_any) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }

  WriteStatsFile(options.dir, owner, stats);
  return stats;
}

}  // namespace gpustl::distrib
