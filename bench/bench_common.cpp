#include "bench/bench_common.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "atpg/podem.h"
#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "stl/atpg_convert.h"
#include "stl/generators.h"

namespace gpustl::bench {

StlFixture BuildFixture(const StlScale& scale, bool verbose) {
  Timer timer;
  auto log = [&](const char* what) {
    if (verbose) {
      std::fprintf(stderr, "[fixture %6.2fs] %s\n", timer.Seconds(), what);
    }
  };

  StlFixture fx{circuits::BuildDecoderUnit(), circuits::BuildSpCore(),
                circuits::BuildSfu(),         {}, {}, {}, {}, {}, {}};
  log("gate-level modules built");

  fx.imm = stl::GenerateImm(scale.imm_sbs, /*seed=*/0xA11CE);
  fx.mem = stl::GenerateMem(scale.mem_sbs, 0xB0B);
  fx.cntrl = stl::GenerateCntrl(scale.cntrl_sbs, 0xC0FFEE);
  fx.rand = stl::GenerateRand(scale.rand_sbs, 0xDEAD);
  log("pseudorandom PTPs generated");

  // TPGEN: ATPG over the SP integer datapath, converted to instructions.
  // The pattern fixup keeps the micro-op and comparison fields inside the
  // instruction-expressible space, so the parser can convert (almost)
  // every pattern — mirroring what a constrained ATPG run would emit.
  {
    auto faults = fault::CollapsedFaultList(fx.sp);
    if (scale.tpgen_fault_cap != 0 && faults.size() > scale.tpgen_fault_cap) {
      faults.resize(scale.tpgen_fault_cap);
    }
    static constexpr int kSpOps[] = {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11,
                                     12, 13, 14, 15, 16, 18, 34};
    atpg::AtpgOptions sp_options;
    sp_options.random_phase_patterns = 1024;
    sp_options.backtrack_limit = 50;
    sp_options.pattern_fixup = [](std::uint64_t* row) {
      const auto uop = static_cast<int>(row[0] & 0x3F);
      const auto cmp = static_cast<int>((row[0] >> 6) & 0x7);
      bool valid = false;
      for (int op : kSpOps) valid |= op == uop;
      if (!valid) {
        row[0] = (row[0] & ~0x3Full) |
                 static_cast<std::uint64_t>(kSpOps[uop % std::size(kSpOps)]);
      }
      if (cmp > 5) row[0] &= ~(1ull << 8);  // clamp cmp into 0..5
    };
    const atpg::AtpgRunResult run =
        atpg::GeneratePatternSet(fx.sp, faults, Rng(0x7B6E), sp_options);
    stl::ConvertStats stats;
    fx.tpgen = stl::ConvertSpPatterns(run.patterns, &stats);
    if (verbose) {
      std::fprintf(stderr,
                   "[fixture %6.2fs] SP ATPG: %zu patterns, %zu/%zu faults "
                   "covered, parser converted %zu / skipped %zu\n",
                   timer.Seconds(), run.patterns.size(), run.detected,
                   faults.size(), stats.converted, stats.skipped);
    }
  }

  // SFU_IMM: ATPG over the SFU datapath.
  {
    auto faults = fault::CollapsedFaultList(fx.sfu);
    if (scale.sfu_fault_cap != 0 && faults.size() > scale.sfu_fault_cap) {
      faults.resize(scale.sfu_fault_cap);
    }
    atpg::AtpgOptions sfu_options;
    // The SFU is multiplier-heavy: random patterns cover it well and PODEM
    // backtracks a lot, so run a long random phase and give up quickly on
    // the deterministic residue.
    sfu_options.random_phase_patterns = 4096;
    sfu_options.backtrack_limit = 20;
    sfu_options.deterministic_fault_budget = 2500;
    sfu_options.pattern_fixup = [](std::uint64_t* row) {
      // Clamp the function selector into RCP..EX2 (0..5): selector values
      // 6 and 7 have no equivalent instruction.
      if ((row[0] & 0x7) > 5) row[0] &= ~0x4ull;
    };
    const atpg::AtpgRunResult run =
        atpg::GeneratePatternSet(fx.sfu, faults, Rng(0x5F0), sfu_options);
    stl::ConvertStats stats;
    fx.sfu_imm = stl::ConvertSfuPatterns(run.patterns, &stats);
    if (verbose) {
      std::fprintf(stderr,
                   "[fixture %6.2fs] SFU ATPG: %zu patterns, %zu/%zu faults "
                   "covered, parser converted %zu / skipped %zu\n",
                   timer.Seconds(), run.patterns.size(), run.detected,
                   faults.size(), stats.converted, stats.skipped);
    }
  }

  log("fixture complete");
  return fx;
}

std::string BenchJsonPath() {
  const char* env = std::getenv("GPUSTL_BENCH_JSON");
  if (env != nullptr && *env != '\0') return env;
  return "BENCH_faultsim.json";
}

void AppendBenchJson(const std::string& path, const BenchRecord& record) {
  // Escaping is unnecessary: every string field is a label this repo
  // controls (no quotes/backslashes).
  std::string entry = "  {";
  entry += "\"bench\": \"" + record.bench + "\", ";
  entry += "\"name\": \"" + record.name + "\", ";
  entry += "\"module\": \"" + record.module + "\", ";
  entry += Format("\"wall_seconds\": %.6f, ", record.wall_seconds);
  entry += Format("\"faults_per_sec\": %.1f, ", record.faults_per_sec);
  entry += Format("\"patterns\": %zu, ", record.patterns);
  entry += Format("\"faults\": %zu, ", record.faults);
  entry += Format("\"threads\": %d, ", record.threads);
  entry += "\"backend\": \"" + record.backend + "\"";
  for (const auto& [key, value] : record.extra) {
    entry += Format(", \"%s\": %.6f", key.c_str(), value);
  }
  entry += "}";

  // Keep the file a valid JSON array after every append, and make the
  // append atomic against concurrent emitters (several benches writing one
  // BENCH_*.json): the read-modify-write runs under an exclusive flock on
  // a sidecar lock file, and the rewrite lands via temp + rename so a
  // reader never sees a partially written array.
  const std::string lock_path = path + ".lock";
  const int lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);

  std::string existing;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    existing = ss.str();
  }
  std::string body;
  const auto open = existing.find('[');
  const auto close = existing.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    body = existing.substr(open + 1, close - open - 1);
    // Trim whitespace-only bodies down to empty.
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
  }
  const std::string tmp =
      path + "." + std::to_string(static_cast<unsigned long>(::getpid())) +
      ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "[\n" << body;
    if (!body.empty()) out << ",\n";
    out << entry << "\n]\n";
  }
  std::rename(tmp.c_str(), path.c_str());

  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
}

int BenchThreads() {
  const char* env = std::getenv("GPUSTL_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const int threads = std::atoi(env);
  return threads < 0 ? 1 : threads;
}

compact::CompactorOptions BenchCompactorOptions() {
  compact::CompactorOptions options;
  options.num_threads = BenchThreads();
  return options;
}

std::string Pct(double value) { return Format("%.2f", value); }

std::string SignedPct(double value) {
  return Format("%+.2f", value);
}

std::string Count(std::size_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int n = 0;
  for (std::size_t i = digits.size(); i-- > 0;) {
    out.insert(out.begin(), digits[i]);
    if (++n % 3 == 0 && i != 0) out.insert(out.begin(), ',');
  }
  return out;
}

std::string Cycles(std::uint64_t value) {
  return Count(static_cast<std::size_t>(value));
}

std::vector<std::string> CompactionRow(const std::string& name,
                                       const compact::CompactionResult& res) {
  const double size_pct =
      res.original.size_instr == 0
          ? 0.0
          : -100.0 * (1.0 - static_cast<double>(res.result.size_instr) /
                                static_cast<double>(res.original.size_instr));
  const double dur_pct =
      res.original.duration_cc == 0
          ? 0.0
          : -100.0 * (1.0 - static_cast<double>(res.result.duration_cc) /
                                static_cast<double>(res.original.duration_cc));
  return {name,
          Count(res.result.size_instr),
          SignedPct(size_pct),
          Cycles(res.result.duration_cc),
          SignedPct(dur_pct),
          SignedPct(res.diff_fc),
          Format("%.2f", res.compaction_seconds)};
}

}  // namespace gpustl::bench
