// Work units and the on-disk layout of a distributed campaign directory.
//
// A distributed campaign coordinates ONLY through two directories: the
// content-addressed result store (the data plane — workers publish GSRE
// entries there) and a "distrib dir" (the control plane — work units,
// advisory claims, done markers). Layout (docs/FORMATS.md):
//
//   meta.txt          key=value coordination parameters (cache_dir, ...)
//   units/<name>.unit work units (this header's codec)
//   claims/<name>.claim   advisory ownership, heartbeat = mtime (claims.h)
//   done/<name>.done      completion markers (claims.h)
//   stats/<owner>.txt     per-worker exit stats (worker.h)
//   campaign.done         coordinator finished; workers drain and exit
//
// A unit is (wave, target module, pattern order, PTP): "run the stage-2
// logic trace of this PTP and publish the full-fault-list, dropped,
// stuck-at simulation of the captured patterns to the store". Every unit
// is a plan's original PTP, so `wave` is always 1 (the field stays in the
// GWU1 codec and in the name). Units are idempotent — the store
// entry they publish is a pure function of the unit — and content-named
// (`w<wave>-<fingerprint>`), so two plan entries needing the same
// simulation collapse into one unit, and re-running a unit is only wasted
// work, never a wrong answer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "isa/program.h"

namespace gpustl::distrib {

struct WorkUnit {
  int wave = 1;                   // always 1: a plan's original PTP
  std::string target_token;       // "DU" | "SP" | "SFU" | "FP32"
  bool reverse_patterns = false;  // apply the captured patterns reversed
  isa::Program ptp;
};

/// Content fingerprint over (wave, target, pattern order, canonical PTP
/// bytes) — the unit's identity and file-name stem.
Hash128 FingerprintUnit(const WorkUnit& unit);

/// `w<wave>-<fp hex32>`: the stem shared by the unit file, its claim and
/// its done marker.
std::string UnitName(const WorkUnit& unit);

std::string UnitsDir(const std::string& dir);
std::string ClaimsDir(const std::string& dir);
std::string DoneDir(const std::string& dir);
std::string StatsDir(const std::string& dir);
std::string MetaPath(const std::string& dir);
std::string CampaignDonePath(const std::string& dir);

/// Creates the layout (idempotent). Throws IoError on failure.
void InitDistribDir(const std::string& dir);

/// Atomically writes `units/<name>.unit` (unique temp + rename — the bytes
/// are a pure function of the unit, so a lost race is idempotent). Returns
/// the unit name. Throws IoError when the write fails.
std::string WriteUnitFile(const std::string& dir, const WorkUnit& unit);

/// Reads and validates one unit file. Truncated/corrupt/mis-named files
/// return nullopt (logged): a torn unit is skipped by workers and computed
/// inline by the coordinator, never fatal.
std::optional<WorkUnit> ReadUnitFile(const std::string& path);

/// Unit names (file stems) currently present under `units/`, sorted.
std::vector<std::string> ListUnits(const std::string& dir);

/// meta.txt: `key=value` lines, written atomically.
void WriteMeta(
    const std::string& dir,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Value for `key` in meta.txt, or nullopt (missing file or key).
std::optional<std::string> ReadMetaValue(const std::string& dir,
                                         const std::string& key);

/// True when `campaign.done` exists.
bool CampaignDone(const std::string& dir);

/// Writes / removes the campaign.done marker.
void MarkCampaignDone(const std::string& dir);
void ClearCampaignDone(const std::string& dir);

}  // namespace gpustl::distrib
