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
#include "fault/replay.h"
#include "gpu/sm.h"
#include "isa/cfg.h"
#include "store/result_store.h"
#include "trace/trace.h"

namespace gpustl::distrib {

/// Everything phase `plan` needs per target module: the netlist, the
/// (possibly shared) fault prep, and the replayed cross-PTP drop state.
struct Coordinator::TargetState {
  const netlist::Netlist* nl = nullptr;
  std::shared_ptr<const compact::ModulePrep> prep;
  BitVec detected;
};

namespace {

fault::FaultSimOptions FullSimOptions(
    const compact::CompactorOptions& base,
    const compact::ModulePrep& prep) {
  return fault::FaultSimOptions{
      .drop_detected = true,
      .num_threads = base.num_threads,
      .backend = base.backend,
      .collapse_plan = &prep.collapse,
  };
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options, ModuleSet modules,
                         const compact::CompactorOptions& base)
    : options_(std::move(options)), modules_(modules), base_(base) {}

Coordinator::~Coordinator() {
  for (const pid_t pid : children_) {
    ::kill(pid, SIGTERM);
  }
  ReapWorkers();
}

Coordinator::TargetState& Coordinator::StateFor(const std::string& token) {
  const auto it = states_.find(token);
  if (it != states_.end()) return *it->second;

  const auto target = compact::ParseTargetModule(token);
  if (!target) throw Error("distrib: unknown target module '" + token + "'");

  auto state = std::make_shared<TargetState>();
  const compact::ModulePrepSet none;
  const compact::ModulePrepSet& preps =
      modules_.preps != nullptr ? *modules_.preps : none;
  switch (*target) {
    case trace::TargetModule::kDecoderUnit:
      state->nl = modules_.du;
      state->prep = preps.du;
      break;
    case trace::TargetModule::kSpCore:
      state->nl = modules_.sp;
      state->prep = preps.sp;
      break;
    case trace::TargetModule::kSfu:
      state->nl = modules_.sfu;
      state->prep = preps.sfu;
      break;
    case trace::TargetModule::kFp32:
      state->nl = modules_.fp32;
      state->prep = preps.fp32;
      break;
  }
  if (state->nl == nullptr) {
    throw Error("distrib: no netlist for target module '" + token + "'");
  }
  if (state->prep == nullptr) state->prep = compact::BuildModulePrep(*state->nl);
  state->detected = BitVec(state->prep->faults.size(), false);
  return *states_.emplace(token, std::move(state)).first->second;
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
  TargetState& ts = StateFor(unit->target_token);
  const auto target = compact::ParseTargetModule(unit->target_token);

  trace::PatternProbe probe(*target);
  gpu::Sm sm(base_.sm);
  sm.AddMonitor(&probe);
  sm.Run(unit->ptp);
  const netlist::PatternSet patterns = unit->reverse_patterns
                                           ? probe.patterns().Reversed()
                                           : probe.patterns();
  store::SimulateWithStore(base_.result_store, *ts.nl, patterns,
                           ts.prep->faults, /*skip=*/nullptr,
                           FullSimOptions(base_, *ts.prep),
                           store::SimModel::kStuckAt, &ts.prep->faults_fp);
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
    throw Error("distrib: the two-phase schedule requires dropped stuck-at "
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

  // Wave 1: every entry's original patterns, full fault list. Content
  // naming dedups identical (target, order, PTP) triples across entries.
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

  // Phase `plan`: replay the sequential drop order over the wave-1 results
  // and derive each compacted PTP — the exact computation the final
  // campaign will repeat (Compactor stages 1..4), so the wave-2 units below
  // are precisely the simulations it will ask for.
  Timer plan_timer;
  std::set<std::string> wave2;
  for (const compact::PlanEntry& pe : plan) {
    if (!pe.entry.compactable) continue;
    try {
      TargetState& ts = StateFor(pe.target_token);
      const auto target = compact::ParseTargetModule(pe.target_token);
      const isa::Program& ptp = pe.entry.ptp;

      const isa::Cfg cfg(ptp);
      const std::vector<bool> admissible = cfg.AdmissibleMask();
      const std::vector<compact::SmallBlock> sbs =
          compact::SegmentSmallBlocks(ptp, admissible);

      trace::TraceRecorder recorder;
      trace::PatternProbe probe(*target);
      gpu::Sm sm(base_.sm);
      sm.AddMonitor(&recorder);
      sm.AddMonitor(&probe);
      sm.Run(ptp);
      const netlist::PatternSet patterns =
          pe.entry.reverse_patterns ? probe.patterns().Reversed()
                                    : probe.patterns();

      const fault::FaultSimResult full = store::SimulateWithStore(
          base_.result_store, *ts.nl, patterns, ts.prep->faults,
          /*skip=*/nullptr, FullSimOptions(base_, *ts.prep),
          store::SimModel::kStuckAt, &ts.prep->faults_fp);

      const fault::FaultSimResult replayed =
          fault::ReplaySkipFromFull(full, ts.detected);

      const std::vector<bool> labels = compact::LabelInstructions(
          ptp, recorder.report(), patterns, replayed);
      const std::vector<std::size_t> removals =
          compact::SelectRemovals(sbs, labels);
      isa::Program compacted = ptp.RemoveInstructions(removals);
      compact::RelocateData(compacted);

      // Advance the drop state exactly as CompactPtp does (stage-3
      // detections only; validation detections are never merged).
      ts.detected |= replayed.detected_mask;

      WorkUnit unit;
      unit.wave = 2;
      unit.target_token = pe.target_token;
      unit.reverse_patterns = pe.entry.reverse_patterns;
      unit.ptp = std::move(compacted);
      wave2.insert(WriteUnitFile(options_.dir, unit));
      ++stats_.planned_entries;
    } catch (const std::exception& e) {
      // Planning is advisory: this entry's compacted simulations will miss
      // the store and run live in the final campaign. Later entries keep
      // planning against the pre-entry drop state, mirroring a degraded
      // campaign entry.
      std::fprintf(stderr,
                   "gpustl-distrib: planning '%s' failed (%s); its wave-2 "
                   "simulations will run live\n",
                   pe.entry.ptp.name().c_str(), e.what());
      ++stats_.plan_failures;
    }
  }
  stats_.wave2_units = wave2.size();
  stats_.plan_seconds = plan_timer.Seconds();

  Timer wave2_timer;
  Await(std::vector<std::string>(wave2.begin(), wave2.end()));
  stats_.wave2_seconds = wave2_timer.Seconds();

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
