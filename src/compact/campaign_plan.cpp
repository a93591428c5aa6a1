#include "compact/campaign_plan.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/strutil.h"
#include "fault/faultlist_io.h"
#include "isa/assembler.h"
#include "isa/binary.h"

namespace gpustl::compact {

std::optional<trace::TargetModule> ParseTargetModule(std::string_view name) {
  const std::string upper = ToUpper(std::string(name));
  if (upper == "DU") return trace::TargetModule::kDecoderUnit;
  if (upper == "SP") return trace::TargetModule::kSpCore;
  if (upper == "SFU") return trace::TargetModule::kSfu;
  if (upper == "FP32") return trace::TargetModule::kFp32;
  return std::nullopt;
}

Hash128 FingerprintPlanEntry(const StlEntry& entry,
                             std::string_view target_token) {
  // Fingerprint the canonical serialized form, not the source file: an
  // .asm comment edit or assemble-to-.gptp round trip keeps the same
  // identity, so neither invalidates a checkpoint.
  std::ostringstream ptp_bytes;
  isa::SaveBinary(ptp_bytes, entry.ptp);
  return store::FingerprintStlEntry(ptp_bytes.str(), target_token,
                                    entry.compactable,
                                    entry.reverse_patterns);
}

PlanEntry MakePlanEntry(isa::Program ptp, trace::TargetModule target,
                        bool compactable, bool reverse_patterns) {
  PlanEntry pe;
  pe.entry.ptp = std::move(ptp);
  pe.entry.target = target;
  pe.entry.compactable = compactable;
  pe.entry.reverse_patterns = reverse_patterns;
  pe.target_token = std::string(trace::TargetModuleName(target));
  pe.fp = FingerprintPlanEntry(pe.entry, pe.target_token);
  return pe;
}

bool IsAssemblyPath(std::string_view path) {
  return path.ends_with(".asm") || path.ends_with(".s");
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

isa::Program LoadPtpFile(const std::string& path) {
  if (IsAssemblyPath(path)) return isa::Assemble(ReadFile(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  return isa::LoadBinary(in);
}

std::vector<PlanEntry> LoadManifestPlan(const std::string& path) {
  const std::string manifest = ReadFile(path);
  const std::filesystem::path base = std::filesystem::path(path).parent_path();
  std::vector<PlanEntry> plan;
  int line_no = 0;
  for (std::string_view raw : Split(manifest, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = Trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const auto toks = SplitWs(line);
    if (toks.size() < 3) {
      throw Error("manifest line " + std::to_string(line_no) +
                  ": expected <file> <module> <compact|carry> [reverse]");
    }
    // An absolute path stays as it is; `base / ptp` returns it unchanged.
    isa::Program ptp = LoadPtpFile((base / toks[0]).string());
    const auto module = ParseTargetModule(toks[1]);
    if (!module) {
      throw Error("manifest line " + std::to_string(line_no) + ": bad module");
    }
    plan.push_back(MakePlanEntry(std::move(ptp), *module, toks[2] == "compact",
                                 toks.size() > 3 && toks[3] == "reverse"));
  }
  return plan;
}

namespace {

std::string FlistPath(const std::string& dir, trace::TargetModule m) {
  return (std::filesystem::path(dir) /
          ("state." + std::string(trace::TargetModuleName(m)) + ".flist"))
      .string();
}

/// Restores into `campaign` the longest checkpointed prefix of `dir` that
/// exactly matches `plan`, leaving its entries in `ckpt`.
RestoreResult Restore(StlCampaign& campaign, const std::vector<PlanEntry>& plan,
                      const std::string& dir, store::CampaignCheckpoint* ckpt) {
  RestoreResult result;
  auto prior = store::ReadCheckpoint(dir);
  if (!prior) return result;  // absent or damaged: fresh start, no message

  bool match = prior->entries.size() <= plan.size();
  for (std::size_t i = 0; match && i < prior->entries.size(); ++i) {
    match = prior->entries[i].entry_fp == plan[i].fp &&
            ParseTargetModule(prior->entries[i].target).has_value();
  }
  std::map<trace::TargetModule, BitVec> flists;
  if (match) {
    // The fault-list snapshots must all load cleanly before anything is
    // restored; a damaged one invalidates the whole checkpoint.
    for (const auto m : campaign.modules()) {
      std::ifstream in(FlistPath(dir, m));
      if (!in) {
        match = false;
        break;
      }
      auto& compactor = campaign.compactor(m);
      try {
        flists[m] = fault::ReadFaultList(in, compactor.module().name(),
                                         compactor.faults());
      } catch (const Error&) {
        match = false;
        break;
      }
    }
  }
  if (!match) {
    result.mismatch = true;
    return result;
  }

  for (const store::CheckpointEntry& e : prior->entries) {
    CampaignRecord rec;
    rec.name = e.name;
    rec.target = *ParseTargetModule(e.target);
    rec.compacted = e.compacted;
    rec.original_size = e.original_size;
    rec.original_duration = e.original_duration;
    rec.final_size = e.final_size;
    rec.final_duration = e.final_duration;
    rec.result.compaction_seconds = e.compaction_seconds;
    rec.result.diff_fc = e.diff_fc;
    rec.degraded = e.degraded;
    if (e.degraded) {
      // Tokens were validated by ReadCheckpoint; a degraded record
      // resumes as degraded — the resumed report must render exactly
      // what the interrupted run reported, not silently retry.
      rec.error_stage = e.error_stage;
      rec.error_class =
          ErrorClassFromName(e.error_class).value_or(ErrorClass::kInternal);
    }
    campaign.AppendRestoredRecord(std::move(rec));
  }
  for (auto& [m, detected] : flists) {
    campaign.compactor(m).MutableDetected() = std::move(detected);
  }
  ckpt->entries = std::move(prior->entries);
  result.restored = ckpt->entries.size();
  return result;
}

store::CheckpointEntry CheckpointEntryFor(const PlanEntry& plan_entry,
                                          const CampaignRecord& rec) {
  store::CheckpointEntry e;
  e.entry_fp = plan_entry.fp;
  e.name = rec.name;
  e.target = plan_entry.target_token;
  e.compacted = rec.compacted;
  e.original_size = rec.original_size;
  e.original_duration = rec.original_duration;
  e.final_size = rec.final_size;
  e.final_duration = rec.final_duration;
  e.compaction_seconds = rec.compacted ? rec.result.compaction_seconds : 0.0;
  e.diff_fc = rec.compacted ? rec.result.diff_fc : 0.0;
  e.degraded = rec.degraded;
  if (rec.degraded) {
    e.error_class = std::string(ErrorClassName(rec.error_class));
    e.error_stage = rec.error_stage;
  }
  return e;
}

/// Rewrites `dir` from the current state: the checkpoint file and one
/// fault-list snapshot per module, each written atomically.
void WriteState(StlCampaign& campaign, const store::CampaignCheckpoint& ckpt,
                const std::string& dir) {
  store::WriteCheckpoint(dir, ckpt);
  for (const auto m : campaign.modules()) {
    auto& compactor = campaign.compactor(m);
    std::ostringstream ss;
    fault::WriteFaultList(ss, compactor.module().name(), compactor.faults(),
                          compactor.detected());
    store::AtomicWriteFile(FlistPath(dir, m), ss.str());
  }
}

}  // namespace

RestoreResult RunPlan(StlCampaign& campaign, const std::vector<PlanEntry>& plan,
                      const std::string& checkpoint_dir,
                      const PlanEntryCallback& on_entry) {
  const bool checkpointed = !checkpoint_dir.empty();
  store::CampaignCheckpoint ckpt;
  RestoreResult restore;
  if (checkpointed) {
    restore = Restore(campaign, plan, checkpoint_dir, &ckpt);
    if (restore.restored == 0) WriteState(campaign, ckpt, checkpoint_dir);
  }
  for (std::size_t i = 0; i < restore.restored; ++i) {
    on_entry(i, campaign.records()[i], restore);
  }
  for (std::size_t i = restore.restored; i < plan.size(); ++i) {
    const CampaignRecord& rec = campaign.Process(plan[i].entry);
    on_entry(i, rec, restore);
    if (checkpointed) {
      ckpt.entries.push_back(CheckpointEntryFor(plan[i], rec));
      WriteState(campaign, ckpt, checkpoint_dir);
    }
  }
  return restore;
}

}  // namespace gpustl::compact
