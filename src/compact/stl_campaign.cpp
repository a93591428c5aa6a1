#include "compact/stl_campaign.h"

#include "common/error.h"
#include "fault/backend.h"

namespace gpustl::compact {

double CampaignSummary::size_reduction_percent() const {
  if (original_size == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(final_size) /
                            static_cast<double>(original_size));
}

double CampaignSummary::duration_reduction_percent() const {
  if (original_duration == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(final_duration) /
                            static_cast<double>(original_duration));
}

double CampaignSummary::fault_collapse_percent() const {
  if (total_faults == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(simulated_classes) /
                            static_cast<double>(total_faults));
}

StlCampaign::StlCampaign(const netlist::Netlist& du, const netlist::Netlist& sp,
                         const netlist::Netlist& sfu,
                         const CompactorOptions& base,
                         const netlist::Netlist* fp32,
                         const ModulePrepSet* preps)
    : base_(base) {
  const ModulePrepSet none;
  const ModulePrepSet& p = preps != nullptr ? *preps : none;
  compactors_.emplace(
      trace::TargetModule::kDecoderUnit,
      Compactor(du, trace::TargetModule::kDecoderUnit, base, p.du));
  compactors_.emplace(trace::TargetModule::kSpCore,
                      Compactor(sp, trace::TargetModule::kSpCore, base, p.sp));
  compactors_.emplace(trace::TargetModule::kSfu,
                      Compactor(sfu, trace::TargetModule::kSfu, base, p.sfu));
  if (fp32 != nullptr) {
    compactors_.emplace(
        trace::TargetModule::kFp32,
        Compactor(*fp32, trace::TargetModule::kFp32, base, p.fp32));
  }
}

Compactor& StlCampaign::compactor(trace::TargetModule target) {
  const auto it = compactors_.find(target);
  if (it == compactors_.end()) {
    throw Error("STL campaign has no compactor for module '" +
                std::string(trace::TargetModuleName(target)) +
                "' (FP32 requires passing its netlist at construction)");
  }
  return it->second;
}

std::vector<trace::TargetModule> StlCampaign::modules() const {
  std::vector<trace::TargetModule> out;
  out.reserve(compactors_.size());
  for (const auto& [target, c] : compactors_) {
    (void)c;
    out.push_back(target);
  }
  return out;
}

namespace {
/// Converts a mid-pipeline failure into a degraded record: the original
/// PTP is carried through unchanged (a compaction campaign must never
/// lose test content), compaction artifacts are dropped, and the failure
/// taxonomy is recorded for the report/checkpoint. The per-module fault
/// list was never updated for this entry (CompactPtp merges detections
/// only after every stage succeeds), so later entries compact against the
/// exact pre-failure dropping state.
void MarkDegraded(CampaignRecord& rec, const StlEntry& entry,
                  std::string_view stage, ErrorClass error_class,
                  std::string_view what) {
  rec.compacted = false;
  rec.degraded = true;
  rec.error_stage = std::string(stage);
  rec.error_class = error_class;
  rec.error_message = std::string(what);
  rec.result = CompactionResult{};
  rec.original_size = entry.ptp.size();
  rec.original_duration = 0;  // the traced run did not complete
  rec.final_size = entry.ptp.size();
  rec.final_duration = 0;
}
}  // namespace

const CampaignRecord& StlCampaign::Process(const StlEntry& entry) {
  CampaignRecord rec;
  rec.name = entry.ptp.name();
  rec.target = entry.target;

  try {
    if (!entry.compactable) {
      // Carried through unchanged: measure size/duration only.
      Compactor& c = compactor(entry.target);
      const PtpStats stats = c.MeasureStandalone(entry.ptp);
      rec.compacted = false;
      rec.original_size = stats.size_instr;
      rec.original_duration = stats.duration_cc;
      rec.final_size = stats.size_instr;
      rec.final_duration = stats.duration_cc;
    } else {
      Compactor& c = compactor(entry.target);
      rec.compacted = true;
      if (entry.reverse_patterns != base_.reverse_patterns) {
        // Per-PTP pattern-order override (the SFU_IMM reverse trick): run a
        // compactor with the adjusted options and transplant the persistent
        // fault-list state so inter-PTP dropping is preserved. On failure
        // the transplant back never happens — the module keeps its
        // pre-entry state. Its early exits count as the module's.
        CompactorOptions adjusted = base_;
        adjusted.reverse_patterns = entry.reverse_patterns;
        Compactor tmp(c.module(), entry.target, adjusted, c.prep());
        tmp.MutableDetected() = c.detected();
        tmp.ShareEarlyExitCounter(c);
        rec.result = tmp.CompactPtp(entry.ptp);
        c.MutableDetected() = tmp.detected();
      } else {
        rec.result = c.CompactPtp(entry.ptp);
      }
      rec.original_size = rec.result.original.size_instr;
      rec.original_duration = rec.result.original.duration_cc;
      rec.final_size = rec.result.result.size_instr;
      rec.final_duration = rec.result.result.duration_cc;
    }
  } catch (const StageError& e) {
    MarkDegraded(rec, entry, e.stage(), e.error_class(), e.what());
  } catch (const Error& e) {
    MarkDegraded(rec, entry, "process", ClassifyError(e), e.what());
  } catch (const std::exception& e) {
    MarkDegraded(rec, entry, "process", ErrorClass::kInternal, e.what());
  }

  records_.push_back(std::move(rec));
  return records_.back();
}

const CampaignRecord& StlCampaign::AppendRestoredRecord(CampaignRecord rec) {
  records_.push_back(std::move(rec));
  return records_.back();
}

CampaignSummary StlCampaign::Summary() const {
  CampaignSummary s;
  for (const CampaignRecord& rec : records_) {
    s.original_size += rec.original_size;
    s.original_duration += rec.original_duration;
    s.final_size += rec.final_size;
    s.final_duration += rec.final_duration;
    if (rec.compacted) s.compaction_seconds += rec.result.compaction_seconds;
    if (rec.degraded) ++s.degraded_records;
  }
  for (const auto& [target, c] : compactors_) {
    (void)target;
    const fault::CollapseStats cs = c.collapse_stats();
    s.total_faults += cs.num_faults;
    s.simulated_classes += cs.num_classes;
    s.trim_faults_early_exited += c.faults_early_exited();
  }
  if (base_.result_store != nullptr) {
    s.cache_enabled = true;
    s.cache = base_.result_store->stats();
  }
  s.backend = std::string(fault::BackendName(fault::ResolveBackend()));
  return s;
}

}  // namespace gpustl::compact
