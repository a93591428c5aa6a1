// Shared fixture for the table-reproduction benches.
//
// Builds the gate-level modules and the evaluated STL once, with fixed
// seeds, at a laptop-scale version of the paper's workload (Table I): the
// same PTP mix (IMM, MEM, CNTRL for the Decoder Unit; TPGEN, RAND for the
// SP cores; SFU_IMM for the SFUs) with sizes scaled down ~20x so each bench
// finishes in seconds instead of EPYC-hours. Relative quantities
// (compaction %, FC deltas, orderings) are what the benches compare against
// the paper; see EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>

#include "common/strutil.h"
#include "compact/compactor.h"
#include "isa/program.h"
#include "netlist/netlist.h"

namespace gpustl::bench {

/// Default SB counts (paper sizes / ~20).
struct StlScale {
  int imm_sbs = 110;
  int mem_sbs = 105;
  int cntrl_sbs = 20;
  int rand_sbs = 180;
  /// Fault-list slices driving TPGEN / SFU_IMM ATPG (0 = whole list).
  std::size_t tpgen_fault_cap = 0;
  std::size_t sfu_fault_cap = 0;
};

/// The evaluated STL plus its target modules.
struct StlFixture {
  netlist::Netlist du;
  netlist::Netlist sp;
  netlist::Netlist sfu;

  isa::Program imm;
  isa::Program mem;
  isa::Program cntrl;
  isa::Program tpgen;
  isa::Program rand;
  isa::Program sfu_imm;
};

/// Builds everything (modules, pseudorandom PTPs, ATPG-derived PTPs).
/// Deterministic; prints progress to stderr when `verbose`.
StlFixture BuildFixture(const StlScale& scale = {}, bool verbose = true);

/// Fault-sim worker threads for the table benches, from the
/// GPUSTL_BENCH_THREADS environment variable (default 1 = serial;
/// 0 = all cores). The parallel engine is bit-identical to serial, so the
/// table contents do not change — only the compaction-time column does.
int BenchThreads();

/// CompactorOptions preset with BenchThreads() applied.
compact::CompactorOptions BenchCompactorOptions();

/// One machine-readable fault-sim bench record for BENCH_faultsim.json.
struct BenchRecord {
  std::string bench;   // emitting benchmark, e.g. "distrib"
  std::string name;    // configuration label, e.g. "w4"
  std::string module;  // target module name ("" when campaign-level)
  double wall_seconds = 0.0;
  double faults_per_sec = 0.0;  // reported faults / wall second
  std::size_t patterns = 0;
  std::size_t faults = 0;
  int threads = 1;
  /// Resolved engine backend the row was measured on ("scalar", "avx2", ...).
  std::string backend = "scalar";
  /// Additional numeric fields, appended verbatim (e.g. classes, speedup).
  std::vector<std::pair<std::string, double>> extra;
};

/// Appends `record` to the JSON array at `path`, creating the file on first
/// use. The file stays a valid JSON array after every call so partial bench
/// runs are still parseable.
void AppendBenchJson(const std::string& path, const BenchRecord& record);

/// Output path for fault-sim bench records: $GPUSTL_BENCH_JSON when set,
/// else "BENCH_faultsim.json" in the working directory.
std::string BenchJsonPath();

/// Formats helpers shared by the table benches.
std::string Pct(double value);                  // "97.30"
std::string SignedPct(double value);            // "-97.30" / "+0.06"
std::string Count(std::size_t value);           // "32,736"
std::string Cycles(std::uint64_t value);

/// Renders one compaction-result row in the Tables II/III layout.
std::vector<std::string> CompactionRow(const std::string& name,
                                       const compact::CompactionResult& res);

}  // namespace gpustl::bench
