// gpustld wire protocol: typed requests and event builders.
//
// Each request and event is one JSON object in one frame of the daemon's
// framed transport (net/frame.h; docs/FORMATS.md documents the schema).
// This header is the single place the field names live — the daemon, the
// client and the tests all build/parse through it, so the documented
// protocol and the implemented one cannot drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compact/campaign_plan.h"
#include "service/json.h"

namespace gpustl::service {

/// One inline STL entry of a submit request (alternative to a manifest).
struct SubmitEntry {
  std::string path;      // PTP file (.asm/.s or .gptp); or
  std::string asm_text;  // inline assembly source ("asm" field)
  std::string module;    // DU | SP | SFU | FP32
  bool compact = true;   // "mode": "compact" (default) or "carry"
  bool reverse = false;
};

/// A parsed `submit` request. Unset numeric overrides are negative so the
/// service can distinguish "absent" from an explicit zero.
struct SubmitRequest {
  std::string tenant = "default";
  std::string priority = "normal";
  double deadline_seconds = -1.0;        // whole-job budget; -1 = default
  double stage_deadline_seconds = -1.0;  // per-stage budget; -1 = default
  std::string manifest;                  // manifest path, or:
  std::vector<SubmitEntry> entries;      // inline entries
  int threads = -1;  // fault-sim workers; -1 = default, 0 = all cores
  std::string checkpoint_dir;            // "" = no checkpointing
};

/// Parses a submit request. Returns false (with a diagnostic in `error`)
/// on schema violations — unknown priority, a `threads` value outside
/// -1 .. hardware_concurrency, entry without a source, both manifest and
/// entries, ...
bool ParseSubmitRequest(const Json& request, SubmitRequest* out,
                        std::string* error);

/// The inverse of ParseSubmitRequest for one entry: a planned PTP as an
/// inline `entries` element — its disassembly (which assembles back to
/// the same program) with the entry's module, mode and order.
Json EncodeEntry(const compact::PlanEntry& entry);

/// The first field of `request` that names a daemon-side file —
/// "manifest", "entries[i].path" or "checkpoint_dir" — or "" when the
/// request carries everything inline.
std::string PathField(const SubmitRequest& request);

// --- Event builders (daemon -> client) ---------------------------------
//
// Every event carries "event" and, for job-lifecycle events, "job". The
// lifecycle for an accepted job is:
//   queued -> admitted -> (stage | entry-done)* -> complete | failed
// and for a rejected submission a single `rejected` event.

Json EventRejected(std::uint64_t job_id, const std::string& reason,
                   const std::string& detail);
Json EventQueued(std::uint64_t job_id, std::size_t position);
Json EventAdmitted(std::uint64_t job_id, int worker);
Json EventStage(std::uint64_t job_id, std::size_t entry_index,
                const std::string& entry_name, std::string_view stage);
Json EventEntryDone(std::uint64_t job_id, std::size_t entry_index,
                    const std::string& entry_name, const std::string& mode,
                    const std::string& error_stage,
                    const std::string& error_class);
/// `status` is "complete" or "degraded"; `report` is the deterministic
/// campaign report text (byte-identical to `gpustlc campaign --report`).
Json EventComplete(std::uint64_t job_id, const std::string& status,
                   std::size_t entries, std::size_t degraded_entries,
                   const std::string& report, std::uint64_t cache_hits,
                   std::uint64_t cache_misses);
Json EventFailed(std::uint64_t job_id, const std::string& error_class,
                 const std::string& message);

Json EventPong();
Json EventError(const std::string& message);  // unknown op

}  // namespace gpustl::service
