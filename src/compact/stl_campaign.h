// STL-level orchestration: compacting a whole Self-Test Library.
//
// An STL is an ordered list of PTPs, each targeting one gate-level module.
// The campaign keeps one Compactor (and hence one persistent fault-list
// report) per module, compacts the compactable PTPs in order, carries the
// uncompactable remainder (control-unit PTPs, in the paper 9.31% of the STL
// size) through unchanged, and aggregates whole-STL size/duration reduction
// (the paper's 80.71% / 64.43% headline).
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "compact/compactor.h"
#include "store/result_store.h"

namespace gpustl::compact {

/// One STL entry.
struct StlEntry {
  isa::Program ptp;
  trace::TargetModule target = trace::TargetModule::kDecoderUnit;
  bool compactable = true;        // false: carried through unchanged
  bool reverse_patterns = false;  // per-PTP stage-3 pattern order
};

/// Per-PTP campaign record.
struct CampaignRecord {
  std::string name;
  trace::TargetModule target;
  bool compacted = false;
  CompactionResult result;            // valid when compacted
  std::size_t original_size = 0;
  std::uint64_t original_duration = 0;
  std::size_t final_size = 0;
  std::uint64_t final_duration = 0;

  /// Degraded mode: the entry failed mid-pipeline (deadline blown, I/O
  /// gone, chaos injection, ...). The record carries the failure taxonomy
  /// instead of a result, the original PTP is carried through unchanged
  /// (size' = size, a compaction campaign must never lose test content),
  /// and the per-module fault list keeps its pre-entry state — a degraded
  /// module can never contribute silently wrong coverage.
  bool degraded = false;
  std::string error_stage;  // canonical stage name (run_guard.h)
  ErrorClass error_class = ErrorClass::kInternal;
  std::string error_message;
};

/// Whole-STL totals.
struct CampaignSummary {
  std::size_t original_size = 0;
  std::uint64_t original_duration = 0;
  std::size_t final_size = 0;
  std::uint64_t final_duration = 0;
  double compaction_seconds = 0.0;

  /// Entries that failed and were carried through unchanged (degraded
  /// mode). Non-zero = the campaign completed degraded: sizes/durations
  /// above still cover every entry, but the degraded ones contributed no
  /// compaction and no coverage.
  std::size_t degraded_records = 0;

  /// Fault-list sizes summed over the campaign's modules: every fault the
  /// reports cover vs the equivalence-class representatives the simulator
  /// actually propagates.
  std::size_t total_faults = 0;
  std::size_t simulated_classes = 0;

  /// Result-store counters at Summary() time (zeros when no store is
  /// configured). Observability only: wall-clock and cache state, unlike
  /// every other field, are NOT deterministic across runs, which is why
  /// WriteCampaignReport excludes them (and compaction_seconds).
  bool cache_enabled = false;
  store::StoreStats cache;

  /// Name of the engine width this machine runs multi-block pattern sets
  /// at ("avx512" or "wide", see fault/backend.h). Observability only,
  /// like the cache counters: every width produces the same bytes, so the
  /// campaign report excludes it — a report must not differ across
  /// machines with different CPU features.
  std::string backend;

  /// Faults retired by early-exit, summed over the campaign's modules at
  /// Summary() time. Observability only, excluded from the report like
  /// `backend`.
  std::uint64_t trim_faults_early_exited = 0;
  /// Always zero: block dedup and warm-start no longer exist. Kept only
  /// because perfbench/ reads them.
  std::uint64_t trim_blocks_replayed = 0;
  std::uint64_t trim_warm_hits = 0;

  double size_reduction_percent() const;
  double duration_reduction_percent() const;
  double fault_collapse_percent() const;
};

/// Pre-built ModulePrep per campaign module (see compact/compactor.h).
/// Null members are built by the campaign itself; a service running many
/// campaigns against the same netlists fills all of them once.
struct ModulePrepSet {
  std::shared_ptr<const ModulePrep> du;
  std::shared_ptr<const ModulePrep> sp;
  std::shared_ptr<const ModulePrep> sfu;
  std::shared_ptr<const ModulePrep> fp32;
};

/// Runs the compaction method over an ordered STL.
class StlCampaign {
 public:
  /// The module netlists must outlive the campaign. `fp32` is optional
  /// (the paper's STL has no FP32-targeted PTPs; pass the netlist to enable
  /// the extension target). `preps` (optional, copied) shares pre-built
  /// fault data across campaigns.
  StlCampaign(const netlist::Netlist& du, const netlist::Netlist& sp,
              const netlist::Netlist& sfu, const CompactorOptions& base = {},
              const netlist::Netlist* fp32 = nullptr,
              const ModulePrepSet* preps = nullptr);

  /// Compacts (or carries through) one entry; records are appended in call
  /// order. The returned reference stays valid for the campaign's lifetime:
  /// records are stored in a deque precisely so that later Process calls
  /// never invalidate earlier references (a vector would reallocate).
  ///
  /// Failure domain: a failing entry (deadline, I/O, bad input, chaos)
  /// does NOT throw — it is recorded as degraded (original PTP carried
  /// through unchanged, no fault-list update) and the campaign continues
  /// with the next entry. Only construction-level errors (unknown target
  /// module) still propagate.
  const CampaignRecord& Process(const StlEntry& entry);

  /// Appends a record restored from a campaign checkpoint WITHOUT any
  /// recomputation. The caller separately restores the per-module
  /// fault-list state (Compactor::MutableDetected) so subsequent Process
  /// calls continue the inter-PTP dropping exactly where the interrupted
  /// run left off. Only the summary-relevant fields of `rec` need to be
  /// populated (sizes, durations, rec.result.compaction_seconds).
  const CampaignRecord& AppendRestoredRecord(CampaignRecord rec);

  const std::deque<CampaignRecord>& records() const { return records_; }
  CampaignSummary Summary() const;

  Compactor& compactor(trace::TargetModule target);

  /// The campaign's target modules in deterministic (enum) order — the
  /// set checkpoint writers iterate when persisting per-module fault-list
  /// state.
  std::vector<trace::TargetModule> modules() const;

 private:
  CompactorOptions base_;
  std::map<trace::TargetModule, Compactor> compactors_;
  std::deque<CampaignRecord> records_;
};

}  // namespace gpustl::compact
