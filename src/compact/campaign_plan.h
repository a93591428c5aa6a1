// Shared campaign front end: PTP and manifest loading, and the
// checkpointed plan runner.
//
// `gpustlc campaign`, gpustl-client and the gpustld service run the same
// campaigns from the same manifests. There is exactly one code path that
// turns a manifest into StlEntries and one that runs a plan with
// checkpoint restore and record, so "a job through the daemon is
// byte-identical to the same inputs through the CLI" holds by
// construction.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compact/stl_campaign.h"
#include "store/checkpoint.h"

namespace gpustl::compact {

/// Parses a campaign target-module token ("DU", "SP", "SFU", "FP32",
/// case-insensitive) — the inverse of trace::TargetModuleName.
std::optional<trace::TargetModule> ParseTargetModule(std::string_view name);

/// One planned campaign entry: the STL entry plus the identity material
/// the checkpoint layer keys on (module token, content fingerprint of the
/// canonical serialized PTP).
struct PlanEntry {
  StlEntry entry;
  std::string target_token;
  Hash128 fp;
};

/// Builds the StlEntry fingerprint the checkpoint layer keys on (the
/// canonical serialized PTP + processing flags).
Hash128 FingerprintPlanEntry(const StlEntry& entry,
                             std::string_view target_token);

/// A plan entry with its module token and fingerprint filled in.
PlanEntry MakePlanEntry(isa::Program ptp, trace::TargetModule target,
                        bool compactable, bool reverse_patterns);

/// True for the names LoadPtpFile assembles (`.asm`, `.s`); any other
/// name is a GPTP binary container.
bool IsAssemblyPath(std::string_view path);

/// Loads one PTP file, as assembly or as a GPTP container by its name.
/// Throws Error when the file cannot be read or parsed.
isa::Program LoadPtpFile(const std::string& path);

/// Reads a campaign manifest — one `<file> <module> <compact|carry>
/// [reverse]` per line, '#' comments — into a processing plan. Relative
/// PTP paths resolve against the manifest's own directory, whatever the
/// working directory. Each entry's fingerprint covers the canonical
/// serialized form of the PTP, not the source file, so a comment edit or
/// an assemble round trip keeps the same checkpoint identity. Throws
/// Error naming the offending manifest line on malformed input.
std::vector<PlanEntry> LoadManifestPlan(const std::string& path);

/// What a checkpointed run found in its checkpoint directory.
struct RestoreResult {
  std::size_t restored = 0;  // leading plan entries restored, not rerun
  bool mismatch = false;     // a checkpoint existed but did not match
};

/// Called once per plan entry, in plan order: `index < restore.restored`
/// marks an entry restored from the checkpoint, any other was just
/// processed.
using PlanEntryCallback =
    std::function<void(std::size_t index, const CampaignRecord& record,
                       const RestoreResult& restore)>;

/// Runs `plan` through `campaign`, which starts with no records. With a
/// `checkpoint_dir` it first restores the longest checkpointed prefix
/// that exactly matches the plan — records and per-module fault lists.
/// Any divergence (edited PTP, reordered manifest, unreadable fault-list
/// snapshot) discards the checkpoint: restored == 0, mismatch == true.
/// When nothing was restored it writes the fresh state before entry 0
/// runs, and it rewrites the directory atomically after every processed
/// entry. While entry i is processed, `campaign.records().size() == i`.
RestoreResult RunPlan(StlCampaign& campaign, const std::vector<PlanEntry>& plan,
                      const std::string& checkpoint_dir,
                      const PlanEntryCallback& on_entry);

}  // namespace gpustl::compact
