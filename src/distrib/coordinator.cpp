#include "distrib/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/error.h"
#include "common/strutil.h"
#include "common/timer.h"
#include "distrib/claims.h"
#include "distrib/units.h"
#include "distrib/worker.h"
#include "store/result_store.h"

namespace gpustl::distrib {

Coordinator::Coordinator(CoordinatorOptions options, ModuleSet modules,
                         const compact::CompactorOptions& base)
    : options_(std::move(options)), modules_(modules), base_(base) {}

Coordinator::~Coordinator() {
  for (const pid_t pid : children_) {
    ::kill(pid, SIGTERM);
  }
  ReapWorkers();
}

void Coordinator::ForkWorkers() {
  for (int i = 0; i < options_.fork_workers; ++i) {
    // Flush before forking so buffered output is not emitted twice.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "gpustl-distrib: fork failed, continuing with %d "
                   "workers\n", i);
      return;
    }
    if (pid == 0) {
      // Child: run the worker loop and leave without C++ teardown of the
      // parent's inherited state.
      int code = 0;
      try {
        WorkerOptions wo;
        wo.dir = options_.dir;
        wo.owner = "fork:" + std::to_string(i) + ":" +
                   std::to_string(::getpid());
        wo.threads = options_.worker_threads;
        wo.stale_seconds = options_.stale_seconds;
        wo.poll_ms = options_.poll_ms;
        // Borrow the parent's netlists/preps: fork shares the pages, so
        // the child skips the rebuild that would otherwise dominate its
        // first unit.
        wo.modules = modules_;
        RunWorker(wo);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gpustl-distrib: forked worker died: %s\n",
                     e.what());
        code = 1;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      ::_exit(code);
    }
    children_.push_back(pid);
  }
}

void Coordinator::ReapWorkers() {
  for (const pid_t pid : children_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  children_.clear();
}

void Coordinator::ProcessUnitInline(const std::string& name) {
  const auto unit = ReadUnitFile(UnitsDir(options_.dir) + "/" + name + ".unit");
  if (!unit) {
    // Unreadable unit: nothing to prefetch. The final campaign simulates
    // whatever this unit would have provided live.
    return;
  }
  if (runner_ == nullptr) {
    runner_ = std::make_unique<UnitRunner>(
        *base_.result_store,
        UnitRunner::Config{.threads = base_.num_threads, .modules = modules_});
  }
  runner_->Run(*unit);
}

void Coordinator::Await(const std::vector<std::string>& units) {
  if (units.empty()) return;
  ClaimBoard board(options_.dir, "coordinator:" + std::to_string(::getpid()),
                   options_.stale_seconds);

  Timer progress;
  std::size_t last_done = 0;
  for (;;) {
    std::size_t done = 0;
    std::vector<const std::string*> pending;
    for (const std::string& name : units) {
      if (board.IsDone(name)) {
        ++done;
      } else {
        pending.push_back(&name);
      }
    }
    if (done == units.size()) return;
    if (done > last_done) {
      last_done = done;
      progress = Timer();
    }

    bool any_live = false;
    for (const std::string* name : pending) {
      if (board.HasLiveClaim(*name)) {
        any_live = true;
        break;
      }
    }

    if (!any_live && progress.Seconds() >= options_.grace_seconds) {
      // The fleet is dead or absent: compute pending units here. TryClaim
      // still guards each unit — a worker waking up mid-pass keeps its
      // claim and we skip it.
      for (const std::string* name : pending) {
        if (board.IsDone(*name)) continue;
        const ClaimResult claim = board.TryClaim(*name);
        if (!claim.claimed) continue;
        if (claim.stole) ++stats_.steals;
        try {
          ProcessUnitInline(*name);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "gpustl-distrib: inline unit %s failed (%s); the "
                       "campaign will simulate it live\n",
                       name->c_str(), e.what());
        }
        // Mark done either way: the marker means "stop waiting", not "the
        // store has it" — a miss later is just a live simulation.
        board.MarkDone(*name);
        board.Release(*name);
        ++stats_.inline_units;
      }
      progress = Timer();
      continue;
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
  }
}

PrefetchStats Coordinator::Prefetch(
    const std::vector<compact::PlanEntry>& plan) {
  if (options_.dir.empty()) throw Error("distrib: coordinator needs a dir");
  if (base_.result_store == nullptr) {
    throw Error("distrib: distributed execution requires a result store "
                "(--cache): the store is the data plane workers publish to");
  }
  if (base_.fault_model != compact::FaultModel::kStuckAt ||
      !base_.drop_within_ptp) {
    throw Error("distrib: the prefetch wave requires dropped stuck-at "
                "fault simulations");
  }

  stats_ = PrefetchStats{};
  InitDistribDir(options_.dir);
  ClearCampaignDone(options_.dir);
  {
    char stale[64];
    std::snprintf(stale, sizeof stale, "%.3f", options_.stale_seconds);
    WriteMeta(options_.dir, {{"cache_dir", base_.result_store->dir()},
                             {"stale_seconds", stale}});
  }

  // The one wave: every entry's original patterns, full fault list — all
  // the full-list simulations the campaign runs (its stage 5 derives the
  // rest from them). Content naming dedups identical (target, order, PTP)
  // triples across entries.
  Timer wave1_timer;
  std::set<std::string> wave1;
  for (const compact::PlanEntry& pe : plan) {
    WorkUnit unit;
    unit.wave = 1;
    unit.target_token = pe.target_token;
    // Carry entries are measured on un-reversed patterns
    // (Compactor::MeasureStandalone); only compactable entries honour the
    // per-PTP reverse flag.
    unit.reverse_patterns =
        pe.entry.compactable && pe.entry.reverse_patterns;
    unit.ptp = pe.entry.ptp;
    wave1.insert(WriteUnitFile(options_.dir, unit));
  }
  stats_.wave1_units = wave1.size();

  ForkWorkers();
  Await(std::vector<std::string>(wave1.begin(), wave1.end()));
  stats_.wave1_seconds = wave1_timer.Seconds();

  if (options_.finalize) {
    MarkCampaignDone(options_.dir);
    ReapWorkers();

    // Fold in the workers' exit stats (best effort; a SIGKILLed worker
    // never wrote one, so these are lower bounds).
    namespace fs = std::filesystem;
    std::error_code ec;
    for (fs::directory_iterator it(StatsDir(options_.dir), ec), end;
         !ec && it != end; it.increment(ec)) {
      std::ifstream is(it->path());
      std::string line;
      while (std::getline(is, line)) {
        const auto eq = line.find('=');
        if (eq == std::string::npos) continue;
        const auto value = ParseInt(line.substr(eq + 1));
        if (!value) continue;
        const std::string key = line.substr(0, eq);
        if (key == "units_done") {
          stats_.worker_units += static_cast<std::uint64_t>(*value);
        } else if (key == "steals") {
          stats_.steals += static_cast<std::uint64_t>(*value);
        }
      }
    }
  }
  return stats_;
}

}  // namespace gpustl::distrib
