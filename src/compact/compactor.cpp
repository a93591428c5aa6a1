#include "compact/compactor.h"

#include <unordered_map>

#include "common/error.h"
#include "common/timer.h"
#include "compact/run_guard.h"
#include "fault/replay.h"
#include "isa/cfg.h"
#include "store/result_store.h"

namespace gpustl::compact {

using fault::FaultSimResult;
using isa::Program;
using netlist::PatternSet;

std::vector<SmallBlock> SegmentSmallBlocks(const Program& prog,
                                           const std::vector<bool>& admissible) {
  GPUSTL_ASSERT(admissible.size() == prog.size(), "mask size mismatch");
  const isa::Cfg cfg(prog);
  std::vector<SmallBlock> sbs;

  for (const isa::BasicBlock& bb : cfg.blocks()) {
    std::uint32_t cursor = bb.begin;
    while (cursor < bb.end) {
      SmallBlock sb;
      sb.begin = cursor;
      sb.admissible = admissible[cursor];
      // Extend while admissibility stays constant; close after a
      // propagation instruction (memory write).
      while (cursor < bb.end && admissible[cursor] == sb.admissible) {
        const bool propagates = prog.code()[cursor].info().writes_memory;
        ++cursor;
        if (propagates) break;
      }
      sb.end = cursor;
      sbs.push_back(sb);
    }
  }
  return sbs;
}

std::vector<bool> LabelInstructions(const Program& prog,
                                    const trace::TracingReport& tracing,
                                    const PatternSet& patterns,
                                    const FaultSimResult& fault_report) {
  GPUSTL_ASSERT(fault_report.detects_per_pattern.size() == patterns.size(),
                "fault report does not match pattern set");

  // Detecting clock cycles: cc stamp -> number of faults detected there.
  std::unordered_map<std::uint64_t, std::uint32_t> detects_at_cc;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::uint32_t d = fault_report.detects_per_pattern[p];
    if (d != 0) detects_at_cc[patterns.cc(p)] += d;
  }

  // Fig. 2: for each instruction, for each warp execution (= each decode
  // cc), the instruction is essential as soon as one of its cycles detects
  // a fault.
  std::vector<bool> essential(prog.size(), false);
  const auto ccs_by_pc = tracing.CcsByPc(prog.size());
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    for (std::uint64_t cc : ccs_by_pc[pc]) {
      const auto it = detects_at_cc.find(cc);
      if (it != detects_at_cc.end() && it->second > 0) {
        essential[pc] = true;
        break;
      }
    }
  }
  return essential;
}

std::vector<std::size_t> SelectRemovals(const std::vector<SmallBlock>& sbs,
                                        const std::vector<bool>& labels) {
  std::vector<std::size_t> removals;
  for (const SmallBlock& sb : sbs) {
    if (!sb.admissible) continue;
    bool any_essential = false;
    for (std::uint32_t i = sb.begin; i < sb.end; ++i) {
      if (labels[i]) {
        any_essential = true;
        break;
      }
    }
    if (any_essential) continue;  // Fig. 3: the SB stays in the CPTP
    for (std::uint32_t i = sb.begin; i < sb.end; ++i) {
      removals.push_back(i);
    }
  }
  return removals;
}

void RelocateData(Program& prog) {
  auto referenced = [&](const isa::DataSegment& seg) {
    const std::uint64_t lo = seg.addr;
    const std::uint64_t hi = seg.addr + seg.words.size() * 4;
    for (const isa::Instruction& inst : prog.code()) {
      if (!inst.has_imm) continue;
      if (inst.info().format == isa::Format::kBranch) continue;
      if (inst.imm >= lo && inst.imm < hi) return true;
    }
    return false;
  };
  auto& data = prog.data();
  std::vector<isa::DataSegment> kept;
  for (auto& seg : data) {
    if (referenced(seg)) kept.push_back(std::move(seg));
  }
  data = std::move(kept);
}

std::shared_ptr<const ModulePrep> BuildModulePrep(
    const netlist::Netlist& module) {
  auto prep = std::make_shared<ModulePrep>();
  prep->faults = fault::CollapsedFaultList(module);
  prep->collapse = fault::BuildFaultCollapse(module, prep->faults);
  prep->faults_fp = store::FingerprintFaults(prep->faults);
  return prep;
}

Compactor::Compactor(const netlist::Netlist& module,
                     trace::TargetModule target, CompactorOptions options,
                     std::shared_ptr<const ModulePrep> prep)
    : module_(&module),
      target_(target),
      options_(std::move(options)),
      prep_(prep != nullptr ? std::move(prep) : BuildModulePrep(module)),
      detected_(prep_->faults.size(), false) {}

Compactor::TraceRun Compactor::RunLogicTrace(const Program& ptp) const {
  TraceRun out;
  trace::TraceRecorder recorder;
  trace::PatternProbe probe(target_);
  gpu::Sm sm(options_.sm);
  sm.AddMonitor(&recorder);
  sm.AddMonitor(&probe);
  out.run = sm.Run(ptp);
  out.tracing = recorder.report();
  out.patterns = probe.patterns();
  return out;
}

fault::FaultSimResult Compactor::SimulateFaults(
    const netlist::PatternSet& patterns, const BitVec* skip,
    bool drop_detected) const {
  const fault::FaultSimOptions sim_options{
      .drop_detected = drop_detected,
      .num_threads = options_.num_threads,
      .backend = options_.backend,
      .collapse_plan = &prep_->collapse,
      .cancel = ActiveToken(),
      .faults_early_exited = early_exited_.get()};
  const store::SimModel model = options_.fault_model == FaultModel::kTransition
                                    ? store::SimModel::kTransition
                                    : store::SimModel::kStuckAt;
  return store::SimulateWithStore(options_.result_store, *module_, patterns,
                                  prep_->faults, skip, sim_options, model,
                                  &prep_->faults_fp);
}

CompactionResult Compactor::CompactPtp(const Program& ptp) {
  Timer timer;
  CompactionResult res;
  RunGuard guard(options_.stage_deadline_seconds, ActiveToken(),
                 options_.stage_observer);

  // Stages 1+2 share one failure domain: partitioning is pure CFG analysis
  // feeding straight into the single traced logic simulation.
  std::vector<SmallBlock> sbs;
  TraceRun original_run;
  PatternSet patterns;
  double arc_fraction = 0.0;
  guard.Run(kStageLogicTrace, [&] {
    const isa::Cfg cfg(ptp);
    const std::vector<bool> admissible = cfg.AdmissibleMask();
    sbs = SegmentSmallBlocks(ptp, admissible);
    arc_fraction = cfg.ArcFraction();
    original_run = RunLogicTrace(ptp);
    patterns = options_.reverse_patterns ? original_run.patterns.Reversed()
                                         : original_run.patterns;
  });

  // Stage 3: one optimized fault simulation of the original patterns
  // against the full fault list — the original PTP's standalone coverage
  // too — filtered by the dropping state (fault/replay.h), then labeling.
  // Without intra-PTP dropping labeling needs every detection, which no
  // first-detect filter can supply, so that run stays live.
  FaultSimResult full_before;
  guard.Run(kStageFaultSim, [&] {
    full_before = SimulateFaults(patterns, nullptr, true);
    res.fault_report =
        options_.drop_within_ptp
            ? fault::ReplaySkipFromFull(full_before, detected_)
            : SimulateFaults(patterns, &detected_, false);
  });
  guard.Run(kStageLabel, [&] {
    res.labels = LabelInstructions(ptp, original_run.tracing, patterns,
                                   res.fault_report);
  });

  // Stage 4: reduction.
  guard.Run(kStageReduce, [&] {
    const std::vector<std::size_t> removals = SelectRemovals(sbs, res.labels);
    res.compacted = ptp.RemoveInstructions(removals);
    RelocateData(res.compacted);
  });

  // Stage 5: reassembly + validation (logic trace of the CPTP and one
  // full-list fault simulation of its patterns, filtered by the same
  // fault-list state, for the FC difference).
  guard.Run(kStageValidate, [&] {
    const TraceRun compacted_run = RunLogicTrace(res.compacted);
    const PatternSet compacted_patterns =
        options_.reverse_patterns ? compacted_run.patterns.Reversed()
                                  : compacted_run.patterns;
    const FaultSimResult full_after =
        SimulateFaults(compacted_patterns, nullptr, true);
    res.validation_detections =
        fault::ReplaySkipFromFull(full_after, detected_).num_detected;

    // FC bookkeeping follows the paper's tables: the FC of a PTP (and hence
    // the "Diff FC" column) is its STANDALONE coverage of the module's full
    // fault list — the two full-list runs themselves. This is what makes
    // RAND lose coverage after TPGEN: the instructions removed as
    // unessential (because TPGEN already detected their faults in the
    // dropped flow) did detect faults standalone.

    res.original.size_instr = ptp.size();
    res.original.duration_cc = original_run.run.total_cycles;
    res.original.arc_percent = arc_fraction * 100.0;
    res.original.fc_percent = fault::CoveragePercent(
        full_before.num_detected, prep_->faults.size());

    res.result.size_instr = res.compacted.size();
    res.result.duration_cc = compacted_run.run.total_cycles;
    res.result.arc_percent = isa::Cfg(res.compacted).ArcFraction() * 100.0;
    res.result.fc_percent = fault::CoveragePercent(
        full_after.num_detected, prep_->faults.size());

    res.diff_fc = res.result.fc_percent - res.original.fc_percent;
    res.compaction_seconds = timer.Seconds();
  });

  res.num_sbs = 0;
  res.removed_sbs = 0;
  for (const SmallBlock& sb : sbs) {
    if (!sb.admissible) continue;
    ++res.num_sbs;
    bool any_essential = false;
    for (std::uint32_t i = sb.begin; i < sb.end; ++i) {
      if (res.labels[i]) any_essential = true;
    }
    if (!any_essential) ++res.removed_sbs;
  }
  std::size_t essentials = 0;
  for (bool e : res.labels) essentials += e ? 1 : 0;
  res.essential_instructions = essentials;

  res.tracing = original_run.tracing;

  // Update the persistent fault-list report (inter-PTP dropping): the list
  // is updated after each stage-3 fault simulation, as in the paper.
  if (options_.update_fault_list) {
    detected_ |= res.fault_report.detected_mask;
  }

  return res;
}

PtpStats Compactor::MeasureStandalone(const Program& ptp) const {
  RunGuard guard(options_.stage_deadline_seconds, ActiveToken(),
                 options_.stage_observer);
  return guard.Run(kStageMeasure, [&] {
    PtpStats stats;
    const TraceRun run = RunLogicTrace(ptp);
    const FaultSimResult report =
        SimulateFaults(run.patterns, nullptr, true);
    stats.size_instr = ptp.size();
    stats.duration_cc = run.run.total_cycles;
    stats.fc_percent =
        fault::CoveragePercent(report.num_detected, prep_->faults.size());
    stats.arc_percent = isa::Cfg(ptp).ArcFraction() * 100.0;
    return stats;
  });
}

double Compactor::AbsorbCoverage(const isa::Program& ptp) {
  const TraceRun run = RunLogicTrace(ptp);
  const PatternSet patterns = options_.reverse_patterns
                                  ? run.patterns.Reversed()
                                  : run.patterns;
  // Skipping only hides faults already in detected_, so the full-list run
  // adds exactly the detections the skip-masked run would.
  detected_ |= SimulateFaults(patterns, nullptr, true).detected_mask;
  return CumulativeFcPercent();
}

double Compactor::CumulativeFcPercent() const {
  return fault::CoveragePercent(detected_.Count(), prep_->faults.size());
}

CancelToken* Compactor::ActiveToken() const {
  if (options_.cancel != nullptr) return options_.cancel;
  if (options_.stage_deadline_seconds > 0) return own_token_.get();
  return nullptr;
}

}  // namespace gpustl::compact
