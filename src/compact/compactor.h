// The paper's compaction method (Section III), as a library.
//
// Five stages per PTP:
//  1. PTP partitioning  — CFG/basic-block analysis, ARC selection
//                         (isa::Cfg::AdmissibleMask) and Small-Block (SB)
//                         segmentation;
//  2. Logic tracing     — ONE logic simulation of the PTP on the GPU model
//                         with the hardware monitor attached, producing the
//                         Tracing Report and the per-cc module test-pattern
//                         report (VCDE);
//  3. Fault analysis    — ONE optimized gate-level fault simulation of the
//                         target module against the captured patterns
//                         (module-level observability, fault dropping) over
//                         the full fault list, filtered by the persistent
//                         fault-list report (fault/replay.h), then
//                         instruction labeling (Fig. 2): an instruction is
//                         `essential` iff at least one of its issue cycles
//                         carries a fault-detecting pattern in any warp;
//  4. PTP reduction     — SB removal (Fig. 3): an SB is removed iff all of
//                         its instructions are unessential; input-data
//                         segments no longer referenced are relocated out;
//  5. Reassembly        — branch retargeting, validation of the
//                         compacted PTP (logic sim + its full-list detected
//                         set) to report the FC difference.
//
// So a compacted PTP costs ONE full-list fault simulation, of its original
// patterns: it is the standalone coverage measurement and, filtered, the
// stage-3 dropped run. Stage 5 needs only the detected set of the
// compacted patterns, and for stuck-at faults derives it from that run
// (fault/revalidate.h): compaction drops rows and adds a few, so only the
// faults whose first-detecting row is gone and the never-detected faults
// against the new rows are simulated. Its result is cached as a small
// validation entry. The transition model keeps a full-list stage-5 run.
// The full-list runs are exactly what the distributed schedule
// (src/distrib/) prefetches into the result store.
//
// A Compactor instance owns the persistent fault-list report: compacting a
// sequence of PTPs that target the same module drops already-detected
// faults from later fault simulations, exactly as in the paper (this is why
// MEM compacts harder than IMM, and why RAND collapses after TPGEN).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.h"
#include "common/status.h"
#include "compact/run_guard.h"
#include "fault/collapse.h"
#include "fault/faultsim.h"
#include "gpu/sm.h"
#include "isa/program.h"
#include "netlist/netlist.h"
#include "trace/trace.h"

namespace gpustl::store {
class ResultStore;  // store/result_store.h
}

namespace gpustl::compact {

/// One Small Block: a load-operands / execute / propagate sequence inside a
/// basic block's admissible region.
struct SmallBlock {
  std::uint32_t begin = 0;  // instruction index, inclusive
  std::uint32_t end = 0;    // exclusive
  bool admissible = true;   // false: outside the ARC, never removed

  std::uint32_t size() const { return end - begin; }
};

/// Stage-1 output: SB segmentation of a PTP. An SB closes at each
/// observable-propagation instruction (memory write), at admissibility
/// boundaries and at basic-block boundaries.
std::vector<SmallBlock> SegmentSmallBlocks(const isa::Program& prog,
                                           const std::vector<bool>& admissible);

/// Instruction labeling (the paper's Fig. 2): joins the tracing report with
/// the fault-sim report through the cc stamps and returns one flag per
/// instruction — true = essential.
std::vector<bool> LabelInstructions(const isa::Program& prog,
                                    const trace::TracingReport& tracing,
                                    const netlist::PatternSet& patterns,
                                    const fault::FaultSimResult& fault_report);

/// Reduction (the paper's Fig. 3): indices of all instructions inside
/// removable SBs (admissible SBs whose instructions are all unessential).
std::vector<std::size_t> SelectRemovals(const std::vector<SmallBlock>& sbs,
                                        const std::vector<bool>& labels);

/// Drops input-data segments that are no longer referenced by any
/// immediate operand of the surviving code (stage-4 data relocation).
void RelocateData(isa::Program& prog);

/// Size/duration/coverage features of a PTP (Table I columns).
struct PtpStats {
  std::size_t size_instr = 0;
  std::uint64_t duration_cc = 0;
  double fc_percent = 0.0;   // marginal FC given the current fault list
  double arc_percent = 0.0;  // fraction of instructions inside the ARC
};

/// Full per-PTP compaction outcome (Tables II/III columns + reports).
struct CompactionResult {
  isa::Program compacted;

  PtpStats original;
  PtpStats result;

  std::size_t num_sbs = 0;
  std::size_t removed_sbs = 0;
  std::size_t essential_instructions = 0;

  /// FC difference in percent points (result - original, both standalone
  /// against the module's full fault list); negative = loss.
  double diff_fc = 0.0;

  /// Marginal detections of the compacted PTP under the campaign's
  /// dropping state (the stage-5 validation).
  std::size_t validation_detections = 0;

  /// Wall-clock seconds spent compacting this PTP.
  double compaction_seconds = 0.0;

  /// Stage-2/3 artifacts, for inspection and report I/O.
  trace::TracingReport tracing;
  fault::FaultSimResult fault_report;
  std::vector<bool> labels;  // the LPTP
};

/// Fault model driving the stage-3/stage-5 fault simulations. The paper
/// works on stuck-at faults and notes the method "can be adapted
/// considering other fault models as well"; kTransition is that extension
/// (slow-to-rise/slow-to-fall over consecutive per-cc pattern pairs).
enum class FaultModel { kStuckAt, kTransition };

struct CompactorOptions {
  /// Fault model for all fault simulations of this compactor.
  FaultModel fault_model = FaultModel::kStuckAt;

  /// Intra-PTP fault dropping during the stage-3 fault simulation.
  bool drop_within_ptp = true;

  /// Apply the captured patterns in reverse order during stage 3 (the
  /// paper's SFU_IMM configuration).
  bool reverse_patterns = false;

  /// Persist detections into the fault-list report so later PTPs compact
  /// against the remaining faults only (inter-PTP dropping).
  bool update_fault_list = true;

  /// Worker threads for every fault simulation this compactor runs
  /// (stage 3, stage-5 validation, standalone measurements). 1 = serial,
  /// 0 = hardware_concurrency. Results are bit-identical for every value,
  /// so campaigns parallelize without perturbing the tables.
  int num_threads = 1;

  /// Content-addressed result store consulted before every fault
  /// simulation (and written back after a miss). Null = caching off. Not
  /// owned; must outlive every Compactor sharing it. A cached result is
  /// bit-identical to a live run by key construction, so campaigns warm
  /// from the store without perturbing any table.
  store::ResultStore* result_store = nullptr;

  /// No effect: every skip-masked dropped run is now derived from the
  /// full-list run of the same patterns. Kept only so perfbench/, its one
  /// caller, still compiles.
  bool distrib_replay = false;

  /// Wall-clock budget per pipeline stage (logic trace, fault sim, label,
  /// reduce, validate, measure), in seconds; <= 0 = unlimited. A blown
  /// budget aborts the stage cleanly (cooperatively inside the fault
  /// simulators, post hoc elsewhere) and surfaces as a StageError with
  /// class `deadline` — in a campaign the module degrades, the rest of
  /// the STL continues.
  double stage_deadline_seconds = 0.0;

  /// External cancellation token (not owned; null = none). Sharing one
  /// token across a campaign's compactors cancels the whole run at the
  /// next stage boundary or fault-sim pattern block.
  CancelToken* cancel = nullptr;

  /// Per-stage progress hook (see compact/run_guard.h); empty = none.
  StageObserver stage_observer;

  gpu::SmConfig sm;
};

/// Immutable per-module fault data every Compactor needs: the collapsed
/// fault list, the structural-equivalence plan, and the fault-list digest
/// for store keys. Building it is the expensive part of constructing a
/// Compactor, and it depends only on the netlist — a service constructing
/// thousands of short-lived campaigns against the same four modules builds
/// each prep once and shares it (read-only, thread-safe by immutability).
struct ModulePrep {
  std::vector<fault::Fault> faults;
  fault::FaultCollapse collapse;
  Hash128 faults_fp;
};

std::shared_ptr<const ModulePrep> BuildModulePrep(
    const netlist::Netlist& module);

/// Compacts PTPs targeting one gate-level module.
class Compactor {
 public:
  /// `module` must outlive the Compactor. The fault list starts full.
  /// `prep` (optional) supplies pre-built fault data for `module` —
  /// callers constructing many compactors against one module share it;
  /// when null the compactor builds its own.
  Compactor(const netlist::Netlist& module, trace::TargetModule target,
            CompactorOptions options = {},
            std::shared_ptr<const ModulePrep> prep = nullptr);

  /// Runs the five stages on one PTP.
  CompactionResult CompactPtp(const isa::Program& ptp);

  /// Measures a PTP's standalone features (Table I): duration, size, ARC%
  /// and FC against the full fault list (no dropping state).
  PtpStats MeasureStandalone(const isa::Program& ptp) const;

  /// Runs one logic + fault simulation of `ptp` under the current dropping
  /// state, merges its detections into the persistent fault list, and
  /// returns the new cumulative coverage in percent. This is how union
  /// ("IMM+MEM+CNTRL"-style) coverage rows are computed without compacting.
  double AbsorbCoverage(const isa::Program& ptp);

  /// Faults detected so far across all compacted PTPs (the fault-list
  /// report after dropping).
  const BitVec& detected() const { return detected_; }

  /// Mutable fault-list state, for transplanting dropping state between
  /// compactors that target the same module (see StlCampaign).
  BitVec& MutableDetected() { return detected_; }

  /// Marginal coverage state in percent.
  double CumulativeFcPercent() const;

  const std::vector<fault::Fault>& faults() const { return prep_->faults; }
  const netlist::Netlist& module() const { return *module_; }

  /// The (possibly shared) per-module fault data; never null. Campaigns
  /// hand it to sibling compactors of the same module instead of
  /// rebuilding the collapse plan.
  const std::shared_ptr<const ModulePrep>& prep() const { return prep_; }

  /// Collapsed-vs-total numbers of this module's fault list (classes the
  /// engine propagates vs faults it reports on), for campaign stats.
  fault::CollapseStats collapse_stats() const {
    return prep_->collapse.Stats();
  }

  /// Faults retired by early-exit across every fault simulation of this
  /// compactor (FaultSimOptions::faults_early_exited). Observability only —
  /// backend- and store-state-dependent, excluded from every deterministic
  /// report.
  std::uint64_t faults_early_exited() const { return early_exited_->load(); }

  /// Counts this compactor's early exits into `owner`'s counter from now
  /// on: a sibling compactor of the same module (see StlCampaign) reports
  /// its retired faults through the module's compactor.
  void ShareEarlyExitCounter(const Compactor& owner) {
    early_exited_ = owner.early_exited_;
  }

 private:
  /// Stage 2: one logic simulation with monitors attached.
  struct TraceRun {
    trace::TracingReport tracing;
    netlist::PatternSet patterns;
    gpu::RunResult run;
  };
  TraceRun RunLogicTrace(const isa::Program& ptp) const;

  /// Options of every fault simulation this compactor runs.
  fault::FaultSimOptions SimOptions(bool drop_detected) const;

  /// Stage-3/5 fault simulation under the configured fault model.
  fault::FaultSimResult SimulateFaults(const netlist::PatternSet& patterns,
                                       const BitVec* skip,
                                       bool drop_detected) const;

  /// Stage 5: the full-list detected set of `after`. Stuck-at derives it
  /// from stage 3's full-list run `before_full` over `before`
  /// (store::DetectedWithStore); transition simulates it.
  BitVec ValidateDetected(const netlist::PatternSet& before,
                          const fault::FaultSimResult& before_full,
                          const netlist::PatternSet& after) const;

  /// The token fault simulations poll and stage guards arm: the external
  /// one when provided, else the compactor's own when a stage deadline is
  /// configured, else null (no polling overhead at all).
  CancelToken* ActiveToken() const;

  const netlist::Netlist* module_;
  trace::TargetModule target_;
  CompactorOptions options_;
  // Fault list + collapse plan + digest: immutable, possibly shared with
  // other compactors of the same module (never null).
  std::shared_ptr<const ModulePrep> prep_;
  BitVec detected_;
  // Early-exit counter of every fault simulation of this compactor.
  // Heap-held to keep the Compactor movable.
  std::shared_ptr<std::atomic<std::uint64_t>> early_exited_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  // Deadline token owned by this compactor (used when no external token
  // is configured). Heap-held because the atomics inside a CancelToken
  // would otherwise pin the Compactor (campaigns move them into a map).
  std::unique_ptr<CancelToken> own_token_ = std::make_unique<CancelToken>();
};

}  // namespace gpustl::compact
