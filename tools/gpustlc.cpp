// gpustlc — command-line front end for the gpustl library.
//
// Subcommands (run `gpustlc help` for details):
//   assemble  <in.asm> -o <out.gptp>         assemble to the binary format
//   disasm    <in.gptp|in.asm>               print canonical assembly
//   run       <ptp> [--sp N] [--dump addr n] execute on the GPU model
//   trace     <ptp> --module DU|SP|SFU       stage-2 artifacts (trace+VCDE)
//   faultsim  <ptp> --module DU|SP|SFU       stage-3 fault simulation
//   compact   <ptp> --module DU|SP|SFU -o f  the five-stage compaction
//   campaign  <manifest>                     whole-STL campaign
//
// A <ptp> argument is loaded as assembly when it ends in ".asm"/".s",
// otherwise as the GPTP binary container.
//
// Manifest format for `campaign` (one PTP per line, '#' comments):
//   <file> <DU|SP|SFU> <compact|carry> [reverse]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/error.h"
#include "common/status.h"
#include "common/strutil.h"
#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/coordinator.h"
#include "fault/backend.h"
#include "fault/collapse.h"
#include "fault/faultsim.h"
#include "gpu/sm.h"
#include "isa/binary.h"
#include "isa/disasm.h"
#include "isa/lint.h"
#include "fault/faultlist_io.h"
#include "fault/transition.h"
#include "netlist/patterns.h"
#include "netlist/vcd.h"
#include "store/result_store.h"
#include "trace/trace.h"

namespace gpustl::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "gpustlc — STL compaction for GPU in-field test\n"
      "\n"
      "usage: gpustlc <command> [args]\n"
      "\n"
      "commands:\n"
      "  assemble <in.asm> -o <out.gptp>       assemble to binary container\n"
      "  disasm   <ptp>                        print canonical assembly\n"
      "  lint     <ptp>                        static checks (exit 1 on errors)\n"
      "  run      <ptp> [--sp N] [--dump A N]  execute; optionally dump N\n"
      "                                        words of global memory at A\n"
      "  trace    <ptp> --module M [-o base]   write base.trace.txt + base.vcde\n"
      "           [--vcd]                       (+ base.vcd waveform)\n"
      "  faultsim <ptp> --module M [--no-drop] fault-simulate captured patterns\n"
      "           [--fault-model stuck-at|transition]\n"
      "  compact  <ptp> --module M -o <out>    five-stage compaction\n"
      "           [--reverse] [--report base]\n"
      "  campaign <manifest> [--state base]    compact a whole STL; --state\n"
      "           [--resume dir]               persists the fault lists;\n"
      "           [--report file]              --resume checkpoints after\n"
      "                                        every PTP and continues an\n"
      "                                        interrupted run; --report\n"
      "                                        writes the deterministic\n"
      "                                        campaign report\n"
      "\n"
      "distributed campaigns: campaign --distrib-dir <dir> runs the\n"
      "store-coordinated prefetch wave: every full-list fault simulation\n"
      "the campaign needs is posted as a work unit under <dir> and computed\n"
      "by workers into the shared result store, then the campaign replays\n"
      "the sequential drop order over the cached results. Requires\n"
      "--cache-dir.\n"
      "--distrib-workers N forks N worker processes for the run;\n"
      "--workers-external relies on separately started gpustl-worker\n"
      "processes instead; --distrib-stale S sets the claim staleness\n"
      "horizon (default 30 s). Reports are byte-identical to the same\n"
      "campaign run without any of these flags, for every worker count,\n"
      "including workers killed mid-run (their stale claims are re-stolen;\n"
      "anything never computed is simulated inline).\n"
      "\n"
      "modules M: DU (Decoder Unit), SP (SP core), SFU, FP32\n"
      "\n"
      "faultsim/compact/campaign accept --threads N: fault-parallel PPSFP\n"
      "with N workers (0 = all cores, default 1 = serial). Reports are\n"
      "bit-identical for every N.\n"
      "\n"
      "The fault simulator picks its own word width: one 64-pattern word\n"
      "when the patterns fit one block, else 512-pattern bundles on CPUs\n"
      "with AVX-512F and 256-pattern bundles otherwise. Reports are\n"
      "bit-identical for every width; summaries name the multi-block width\n"
      "as 'backend: avx512' or 'backend: wide'.\n"
      "\n"
      "caching: --cache-dir <dir> (or GPUSTL_CACHE_DIR) enables the\n"
      "content-addressed result store: fault simulations whose inputs are\n"
      "unchanged are loaded from disk instead of recomputed, so warm\n"
      "re-runs and one-PTP edits only resimulate what changed. --no-cache\n"
      "overrides; --cache-limit-mb N evicts oldest entries over N MiB.\n"
      "Cached results are bit-identical to live runs; corrupt entries are\n"
      "detected and recomputed.\n"
      "\n"
      "robustness: --deadline S caps every pipeline stage at S wall-clock\n"
      "seconds; a blown budget degrades that PTP (carried uncompacted, no\n"
      "fault-list update) and the campaign continues. --chaos <spec> (or\n"
      "GPUSTL_CHAOS) arms deterministic failure injection — spec is\n"
      "comma-separated rules 'site[@qualifier](=prob|#nth)', sites:\n"
      "store-read-short, store-read-corrupt, store-write, ckpt-write,\n"
      "ckpt-truncate, worker-throw, deadline, worker-kill (a distributed\n"
      "worker SIGKILLs itself right after claiming a unit), stale-claim (a\n"
      "worker abandons a claim with a backdated mtime, forcing the steal\n"
      "path) — with --chaos-seed N (or GPUSTL_CHAOS_SEED, default 1)\n"
      "selecting the schedule.\n"
      "\n"
      "exit codes: 0 success, 1 fatal error, 2 usage, 3 campaign finished\n"
      "DEGRADED (at least one entry failed and was carried uncompacted).\n");
  return 2;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "gpustlc: %s\n", msg.c_str());
  std::exit(1);
}

std::optional<trace::TargetModule> ParseModule(const std::string& name) {
  return compact::ParseTargetModule(name);
}

netlist::Netlist BuildModule(trace::TargetModule module) {
  switch (module) {
    case trace::TargetModule::kDecoderUnit:
      return circuits::BuildDecoderUnit();
    case trace::TargetModule::kSpCore:
      return circuits::BuildSpCore();
    case trace::TargetModule::kSfu:
      return circuits::BuildSfu();
    case trace::TargetModule::kFp32:
      return circuits::BuildFp32();
  }
  Die("bad module");
}

/// Minimal flag scanner: collects positionals, handles the known flags.
struct Args {
  std::vector<std::string> positional;
  std::string out;
  std::string report;
  std::string module;
  std::string fault_model = "stuck-at";
  std::string state;
  std::string cache_dir;
  std::string resume;
  std::string chaos;
  std::string distrib_dir;
  int distrib_workers = 0;
  bool workers_external = false;
  double distrib_stale = 30.0;
  std::uint64_t chaos_seed = 1;
  double deadline = 0.0;  // per-stage wall-clock budget; 0 = unlimited
  std::uint64_t cache_limit_mb = 0;
  int sp_cores = 8;
  int threads = 1;
  bool reverse = false;
  bool no_drop = false;
  bool no_cache = false;
  bool vcd = false;
  std::uint32_t dump_addr = 0;
  int dump_count = 0;

  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (++i >= argc) Die("flag " + arg + " needs a value");
        return argv[i];
      };
      if (arg == "-o") out = next();
      else if (arg == "--module") module = next();
      else if (arg == "--report") report = next();
      else if (arg == "--reverse") reverse = true;
      else if (arg == "--vcd") vcd = true;
      else if (arg == "--fault-model") fault_model = next();
      else if (arg == "--state") state = next();
      else if (arg == "--no-drop") no_drop = true;
      else if (arg == "--cache-dir") cache_dir = next();
      else if (arg == "--no-cache") no_cache = true;
      else if (arg == "--resume") resume = next();
      else if (arg == "--distrib-dir") distrib_dir = next();
      else if (arg == "--distrib-workers") {
        distrib_workers = std::atoi(next().c_str());
        if (distrib_workers < 0) Die("--distrib-workers must be >= 0");
      }
      else if (arg == "--workers-external") workers_external = true;
      else if (arg == "--distrib-stale") {
        const auto v = ParseFloat(next());
        if (!v || *v <= 0) Die("--distrib-stale must be > 0 seconds");
        distrib_stale = *v;
      }
      else if (arg == "--chaos") chaos = next();
      else if (arg == "--chaos-seed") {
        const auto v = ParseInt(next());
        if (!v || *v < 0) Die("--chaos-seed must be >= 0");
        chaos_seed = static_cast<std::uint64_t>(*v);
      }
      else if (arg == "--deadline") {
        const auto v = ParseFloat(next());
        if (!v || *v < 0) Die("--deadline must be >= 0 seconds");
        deadline = *v;
      }
      else if (arg == "--cache-limit-mb") {
        const auto v = ParseInt(next());
        if (!v || *v < 0) Die("--cache-limit-mb must be >= 0");
        cache_limit_mb = static_cast<std::uint64_t>(*v);
      }
      else if (arg == "--sp") sp_cores = std::atoi(next().c_str());
      else if (arg == "--threads") {
        threads = std::atoi(next().c_str());
        if (threads < 0) Die("--threads must be >= 0");
      }
      else if (arg == "--dump") {
        dump_addr = static_cast<std::uint32_t>(
            ParseInt(next()).value_or(0));
        dump_count = std::atoi(next().c_str());
      } else if (!arg.empty() && arg[0] == '-') {
        Die("unknown flag " + arg);
      } else {
        positional.push_back(arg);
      }
    }
  }

  trace::TargetModule RequireModule() const {
    const auto m = ParseModule(module);
    if (!m) Die("--module DU|SP|SFU required");
    return *m;
  }

  const std::string& RequireInput() const {
    if (positional.empty()) Die("input file required");
    return positional[0];
  }
};

/// Opens the result store selected by --cache-dir / $GPUSTL_CACHE_DIR
/// (--no-cache wins). Null = caching disabled. Heap-held: the store owns
/// mutexes (it is shared by concurrent users) and cannot move.
std::unique_ptr<store::ResultStore> MakeStore(const Args& args) {
  if (args.no_cache) return nullptr;
  std::string dir = args.cache_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("GPUSTL_CACHE_DIR")) dir = env;
  }
  if (dir.empty()) return nullptr;
  return std::make_unique<store::ResultStore>(
      dir, args.cache_limit_mb * 1024ull * 1024ull);
}

void PrintCacheStats(const store::StoreStats& s) {
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit rate), "
              "%llu stored, %llu bad, %llu evicted, %llu B read, "
              "%llu B written\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              s.hit_rate_percent(),
              static_cast<unsigned long long>(s.stores),
              static_cast<unsigned long long>(s.bad_entries),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.bytes_read),
              static_cast<unsigned long long>(s.bytes_written));
}

int CmdAssemble(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  if (args.out.empty()) Die("-o <out.gptp> required");
  std::ofstream out(args.out, std::ios::binary);
  if (!out) Die("cannot write " + args.out);
  isa::SaveBinary(out, prog);
  std::printf("%s: %zu instructions, %zu data words -> %s\n",
              prog.name().empty() ? "<anon>" : prog.name().c_str(),
              prog.size(), prog.DataWords(), args.out.c_str());
  return 0;
}

int CmdLint(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  const auto findings = isa::Lint(prog);
  std::fputs(isa::FormatFindings(findings).c_str(), stdout);
  int errors = 0;
  for (const auto& f : findings) {
    errors += f.severity == isa::LintSeverity::kError ? 1 : 0;
  }
  std::printf("%zu findings (%d errors) in %s\n", findings.size(), errors,
              prog.name().c_str());
  return errors == 0 ? 0 : 1;
}

int CmdDisasm(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  std::fputs(isa::DisassembleProgram(prog).c_str(), stdout);
  return 0;
}

int CmdRun(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  gpu::SmConfig config;
  config.num_sp = args.sp_cores;
  gpu::Sm sm(config);
  const gpu::RunResult res = sm.Run(prog);
  std::printf("%s: %llu clock cycles, %llu warp-instructions, %zu global "
              "words written\n",
              prog.name().c_str(),
              static_cast<unsigned long long>(res.total_cycles),
              static_cast<unsigned long long>(res.dynamic_instructions),
              res.global.size());
  for (int k = 0; k < args.dump_count; ++k) {
    const std::uint32_t addr = args.dump_addr + static_cast<std::uint32_t>(k) * 4;
    std::printf("  [0x%08x] = 0x%08x\n", addr, res.global.Load(addr));
  }
  return 0;
}

int CmdTrace(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  const trace::TargetModule module = args.RequireModule();
  const std::string base = args.out.empty() ? prog.name() : args.out;

  trace::TraceRecorder recorder;
  trace::PatternProbe probe(module);
  gpu::Sm sm;
  sm.AddMonitor(&recorder);
  sm.AddMonitor(&probe);
  const gpu::RunResult res = sm.Run(prog);

  std::ofstream trace_file(base + ".trace.txt");
  recorder.report().Write(trace_file);
  std::ofstream vcde_file(base + ".vcde");
  netlist::WriteVcde(vcde_file, std::string(trace::TargetModuleName(module)),
                     probe.patterns());
  if (args.vcd) {
    const netlist::Netlist nl = BuildModule(module);
    std::ofstream wave(base + ".vcd");
    wave << netlist::DumpVcd(nl, probe.patterns());
  }
  std::printf("%s: %llu ccs, %zu trace entries, %zu %s patterns -> "
              "%s.trace.txt, %s.vcde\n",
              prog.name().c_str(),
              static_cast<unsigned long long>(res.total_cycles),
              recorder.report().size(), probe.patterns().size(),
              trace::TargetModuleName(module).data(), base.c_str(),
              base.c_str());
  return 0;
}

int CmdFaultsim(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  const trace::TargetModule module = args.RequireModule();
  const netlist::Netlist nl = BuildModule(module);

  trace::PatternProbe probe(module);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(prog);

  const auto faults = fault::CollapsedFaultList(nl);
  const auto patterns =
      args.reverse ? probe.patterns().Reversed() : probe.TakePatterns();
  CancelToken deadline_token;
  if (args.deadline > 0) deadline_token.ArmDeadline(args.deadline);
  const fault::FaultSimOptions sim_options{
      .drop_detected = !args.no_drop,
      .num_threads = args.threads,
      .cancel = args.deadline > 0 ? &deadline_token : nullptr};
  const std::unique_ptr<store::ResultStore> cache = MakeStore(args);
  const store::SimModel model = args.fault_model == "transition"
                                    ? store::SimModel::kTransition
                                    : store::SimModel::kStuckAt;
  const auto report =
      store::SimulateWithStore(cache.get(), nl, patterns,
                               faults, nullptr, sim_options, model);

  std::printf("%s on %s: %zu patterns, %zu/%zu faults detected (FC %.2f%%)\n",
              prog.name().c_str(), nl.name().c_str(), patterns.size(),
              report.num_detected, faults.size(),
              fault::CoveragePercent(report.num_detected, faults.size()));
  if (args.fault_model != "transition") {
    const auto stats = fault::BuildFaultCollapse(nl, faults).Stats();
    std::printf("  collapsed: %zu classes for %zu faults (-%.1f%%), "
                "%zu dominance edges\n",
                stats.num_classes, stats.num_faults,
                stats.reduction_percent(), stats.dominance_edges);
  }
  std::size_t detecting = 0;
  for (const auto d : report.detects_per_pattern) detecting += d > 0 ? 1 : 0;
  std::printf("  %zu patterns contribute detections\n", detecting);
  std::printf("  backend: %s\n",
              fault::BackendName(fault::ResolveBackend()).data());
  if (cache) PrintCacheStats(cache->stats());
  return 0;
}

int CmdCompact(const Args& args) {
  const isa::Program prog = compact::LoadPtpFile(args.RequireInput());
  const trace::TargetModule module = args.RequireModule();
  if (args.out.empty()) Die("-o <out> required");
  const netlist::Netlist nl = BuildModule(module);

  compact::CompactorOptions options;
  options.reverse_patterns = args.reverse;
  options.drop_within_ptp = !args.no_drop;
  options.num_threads = args.threads;
  options.stage_deadline_seconds = args.deadline;
  if (args.fault_model == "transition") {
    options.fault_model = compact::FaultModel::kTransition;
  } else if (args.fault_model != "stuck-at") {
    Die("--fault-model must be stuck-at or transition");
  }
  const std::unique_ptr<store::ResultStore> cache = MakeStore(args);
  options.result_store = cache.get();
  compact::Compactor compactor(nl, module, options);
  const compact::CompactionResult res = compactor.CompactPtp(prog);

  if (compact::IsAssemblyPath(args.out)) {
    std::ofstream out(args.out);
    out << isa::DisassembleProgram(res.compacted);
  } else {
    std::ofstream out(args.out, std::ios::binary);
    isa::SaveBinary(out, res.compacted);
  }

  std::printf(
      "%s: %zu -> %zu instructions (%.2f%%), %llu -> %llu ccs (%.2f%%), "
      "diff FC %+.2f, %zu/%zu SBs removed, %.2fs -> %s\n",
      prog.name().c_str(), res.original.size_instr, res.result.size_instr,
      -100.0 * (1.0 - static_cast<double>(res.result.size_instr) /
                          static_cast<double>(res.original.size_instr)),
      static_cast<unsigned long long>(res.original.duration_cc),
      static_cast<unsigned long long>(res.result.duration_cc),
      -100.0 * (1.0 - static_cast<double>(res.result.duration_cc) /
                          static_cast<double>(res.original.duration_cc)),
      res.diff_fc, res.removed_sbs, res.num_sbs, res.compaction_seconds,
      args.out.c_str());

  if (!args.report.empty()) {
    std::ofstream report_file(args.report + ".report.txt");
    compact::WriteCompactionReport(report_file, prog, res);
    std::ofstream trace_file(args.report + ".trace.txt");
    res.tracing.Write(trace_file);
    std::ofstream label_file(args.report + ".labels.txt");
    for (std::size_t i = 0; i < res.labels.size(); ++i) {
      label_file << i << " "
                 << (res.labels[i] ? "essential" : "unessential") << " "
                 << isa::Disassemble(prog.code()[i]) << "\n";
    }
    std::printf("reports -> %s.report.txt, %s.trace.txt, %s.labels.txt\n",
                args.report.c_str(), args.report.c_str(), args.report.c_str());
  }
  if (cache) PrintCacheStats(cache->stats());
  return 0;
}

int CmdCampaign(const Args& args) {
  // Parse the whole manifest up front: the checkpoint prefix-match needs
  // every entry's content fingerprint before any processing starts.
  const std::vector<compact::PlanEntry> plan =
      compact::LoadManifestPlan(args.RequireInput());

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const netlist::Netlist fp32 = circuits::BuildFp32();
  compact::CompactorOptions base;
  base.num_threads = args.threads;
  base.stage_deadline_seconds = args.deadline;
  const std::unique_ptr<store::ResultStore> cache = MakeStore(args);
  base.result_store = cache.get();

  // Distributed mode: the coordinator's inline units and the campaign
  // share one prep set (the collapse plans are the expensive part of
  // construction); the campaign's full-list fault simulations are store
  // hits on the results the workers publish.
  compact::ModulePrepSet preps;
  const bool distrib = !args.distrib_dir.empty();
  if (distrib) {
    if (cache == nullptr) {
      Die("--distrib-dir requires a result store (--cache-dir)");
    }
    preps.du = compact::BuildModulePrep(du);
    preps.sp = compact::BuildModulePrep(sp);
    preps.sfu = compact::BuildModulePrep(sfu);
    preps.fp32 = compact::BuildModulePrep(fp32);
  }
  compact::StlCampaign campaign(du, sp, sfu, base, &fp32,
                                distrib ? &preps : nullptr);

  const auto modules = {trace::TargetModule::kDecoderUnit,
                        trace::TargetModule::kSpCore,
                        trace::TargetModule::kSfu, trace::TargetModule::kFp32};

  // Distributed prefetch: post work units, drive the fleet (forked here —
  // before any thread exists — unless external workers were requested),
  // and wait for the store to hold every full-list simulation the campaign
  // needs.
  // The campaign below then runs exactly as in single-process mode.
  if (distrib) {
    distrib::CoordinatorOptions copt;
    copt.dir = args.distrib_dir;
    copt.fork_workers = args.workers_external ? 0 : args.distrib_workers;
    copt.stale_seconds = args.distrib_stale;
    const distrib::ModuleSet mods{&du, &sp, &sfu, &fp32, &preps};
    distrib::Coordinator coordinator(std::move(copt), mods, base);
    const distrib::PrefetchStats d = coordinator.Prefetch(plan);
    std::printf(
        "distrib: %zu units (%llu by workers, %llu inline, %llu steals), "
        "wave %.2fs\n",
        d.wave1_units, static_cast<unsigned long long>(d.worker_units),
        static_cast<unsigned long long>(d.inline_units),
        static_cast<unsigned long long>(d.steals), d.wave1_seconds);
  }

  // Resume a persistent fault-list state (cross-invocation dropping).
  if (!args.state.empty()) {
    for (const auto m : modules) {
      const std::string path = args.state + "." +
                               std::string(trace::TargetModuleName(m)) +
                               ".flist";
      std::ifstream in(path);
      if (!in) continue;  // first run: no state yet
      auto& compactor = campaign.compactor(m);
      compactor.MutableDetected() = fault::ReadFaultList(
          in, compactor.module().name(), compactor.faults());
      std::printf("resumed %s: %.2f%% already detected\n", path.c_str(),
                  compactor.CumulativeFcPercent());
    }
  }

  // --resume: restore the longest checkpointed prefix that exactly matches
  // the manifest. Any divergence (edited PTP, reordered/changed manifest)
  // discards the checkpoint — with a cache dir the re-run still skips every
  // fault simulation whose inputs didn't change. The plan runner is shared
  // with the gpustld service (compact/campaign_plan.h).
  const auto mode = [](const compact::CampaignRecord& r) {
    return r.degraded ? "DEGRADED" : r.compacted ? "compacted" : "carried";
  };
  compact::RunPlan(
      campaign, plan, args.resume,
      [&](std::size_t i, const compact::CampaignRecord& rec,
          const compact::RestoreResult& restore) {
        if (i == 0 && restore.restored > 0) {
          std::printf("resumed %zu/%zu entries from %s\n", restore.restored,
                      plan.size(), args.resume.c_str());
        } else if (i == 0 && restore.mismatch) {
          std::fprintf(stderr,
                       "gpustlc: checkpoint in %s does not match the "
                       "manifest; starting fresh\n",
                       args.resume.c_str());
        }
        const bool restored = i < restore.restored;
        std::printf("  %-12s [%s] %s: %zu -> %zu instr%s\n", rec.name.c_str(),
                    trace::TargetModuleName(rec.target).data(), mode(rec),
                    rec.original_size, rec.final_size,
                    restored ? " (checkpointed)" : "");
        if (!restored && rec.degraded) {
          std::fprintf(stderr, "gpustlc: %s degraded at stage %s [%s]: %s\n",
                       rec.name.empty() ? "<anon>" : rec.name.c_str(),
                       rec.error_stage.c_str(),
                       std::string(ErrorClassName(rec.error_class)).c_str(),
                       rec.error_message.c_str());
        }
      });

  if (!args.state.empty()) {
    for (const auto m : modules) {
      const std::string path = args.state + "." +
                               std::string(trace::TargetModuleName(m)) +
                               ".flist";
      auto& compactor = campaign.compactor(m);
      std::ofstream out(path);
      fault::WriteFaultList(out, compactor.module().name(),
                            compactor.faults(), compactor.detected());
    }
    std::printf("fault-list state saved to %s.*.flist\n", args.state.c_str());
  }

  const auto summary = campaign.Summary();
  if (!args.report.empty()) {
    std::ofstream report_file(args.report);
    if (!report_file) Die("cannot write " + args.report);
    compact::WriteCampaignReport(report_file, campaign.records(), summary);
    std::printf("campaign report -> %s\n", args.report.c_str());
  }
  std::printf(
      "STL: size %zu -> %zu (-%.2f%%), duration %llu -> %llu (-%.2f%%), "
      "%.2fs\n",
      summary.original_size, summary.final_size,
      summary.size_reduction_percent(),
      static_cast<unsigned long long>(summary.original_duration),
      static_cast<unsigned long long>(summary.final_duration),
      summary.duration_reduction_percent(), summary.compaction_seconds);
  std::printf(
      "fault lists: %zu classes simulated for %zu faults (-%.1f%%)\n",
      summary.simulated_classes, summary.total_faults,
      summary.fault_collapse_percent());
  std::printf("backend: %s\n", summary.backend.c_str());
  std::printf(
      "early-exit: %llu faults\n",
      static_cast<unsigned long long>(summary.trim_faults_early_exited));
  if (summary.cache_enabled) PrintCacheStats(summary.cache);
  if (summary.degraded_records > 0) {
    std::printf("campaign DEGRADED: %zu of %zu entries carried uncompacted "
                "after failures\n",
                summary.degraded_records, campaign.records().size());
    return 3;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    // Explicit --chaos wins over the environment; neither set = disarmed
    // (the zero-overhead default).
    if (!args.chaos.empty()) {
      chaos::Install(args.chaos, args.chaos_seed);
    } else {
      chaos::ConfigureFromEnv();
    }
    if (cmd == "assemble") return CmdAssemble(args);
    if (cmd == "disasm") return CmdDisasm(args);
    if (cmd == "lint") return CmdLint(args);
    if (cmd == "run") return CmdRun(args);
    if (cmd == "trace") return CmdTrace(args);
    if (cmd == "faultsim") return CmdFaultsim(args);
    if (cmd == "compact") return CmdCompact(args);
    if (cmd == "campaign") return CmdCampaign(args);
  } catch (const Error& e) {
    Die(e.what());
  }
  return Usage();
}

}  // namespace
}  // namespace gpustl::tools

int main(int argc, char** argv) { return gpustl::tools::Main(argc, argv); }
