#include "service/protocol.h"

#include <algorithm>
#include <string>
#include <thread>

#include "isa/disasm.h"
#include "service/admission.h"

namespace gpustl::service {

bool ParseSubmitRequest(const Json& request, SubmitRequest* out,
                        std::string* error) {
  SubmitRequest req;
  req.tenant = request.GetString("tenant", "default");
  if (req.tenant.empty()) {
    *error = "tenant must be non-empty";
    return false;
  }
  req.priority = request.GetString("priority", "normal");
  if (!ParsePriority(req.priority)) {
    *error = "priority must be high, normal or low";
    return false;
  }
  req.deadline_seconds = request.GetDouble("deadline", -1.0);
  req.stage_deadline_seconds = request.GetDouble("stage_deadline", -1.0);
  // Range-checked before narrowing: each fault-sim thread is an OS
  // thread, so a peer must not be able to ask for more than the host has.
  // Checked as the wire double, so no value converts out of range.
  const double threads = request.GetDouble("threads", -1.0);
  const unsigned max_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (!(threads >= -1.0 && threads <= max_threads)) {
    *error = "threads must be -1 (service default), 0 (all cores) or 1.." +
             std::to_string(max_threads);
    return false;
  }
  req.threads = static_cast<int>(threads);
  req.checkpoint_dir = request.GetString("checkpoint_dir");
  req.manifest = request.GetString("manifest");

  const Json* entries = request.Find("entries");
  if (!req.manifest.empty() && entries != nullptr) {
    *error = "submit takes either manifest or entries, not both";
    return false;
  }
  if (entries != nullptr) {
    if (!entries->is_array() || entries->items().empty()) {
      *error = "entries must be a non-empty array";
      return false;
    }
    for (const Json& e : entries->items()) {
      SubmitEntry entry;
      entry.path = e.GetString("path");
      entry.asm_text = e.GetString("asm");
      if (entry.path.empty() == entry.asm_text.empty()) {
        *error = "each entry needs exactly one of path or asm";
        return false;
      }
      entry.module = e.GetString("module");
      if (entry.module.empty()) {
        *error = "each entry needs a module (DU, SP, SFU or FP32)";
        return false;
      }
      const std::string mode = e.GetString("mode", "compact");
      if (mode != "compact" && mode != "carry") {
        *error = "entry mode must be compact or carry";
        return false;
      }
      entry.compact = mode == "compact";
      entry.reverse = e.GetBool("reverse");
      req.entries.push_back(std::move(entry));
    }
  } else if (req.manifest.empty()) {
    *error = "submit needs a manifest or entries";
    return false;
  }
  *out = std::move(req);
  return true;
}

Json EncodeEntry(const compact::PlanEntry& entry) {
  Json e = Json::Object();
  e.Set("asm", isa::DisassembleProgram(entry.entry.ptp));
  e.Set("module", entry.target_token);
  e.Set("mode", entry.entry.compactable ? "compact" : "carry");
  if (entry.entry.reverse_patterns) e.Set("reverse", true);
  return e;
}

std::string PathField(const SubmitRequest& request) {
  if (!request.manifest.empty()) return "manifest";
  for (std::size_t i = 0; i < request.entries.size(); ++i) {
    if (!request.entries[i].path.empty()) {
      return "entries[" + std::to_string(i) + "].path";
    }
  }
  if (!request.checkpoint_dir.empty()) return "checkpoint_dir";
  return "";
}

namespace {

Json JobEvent(const char* event, std::uint64_t job_id) {
  Json j = Json::Object();
  j.Set("event", event);
  j.Set("job", job_id);
  return j;
}

}  // namespace

Json EventRejected(std::uint64_t job_id, const std::string& reason,
                   const std::string& detail) {
  Json j = JobEvent("rejected", job_id);
  j.Set("reason", reason);
  if (!detail.empty()) j.Set("detail", detail);
  return j;
}

Json EventQueued(std::uint64_t job_id, std::size_t position) {
  Json j = JobEvent("queued", job_id);
  j.Set("position", position);
  return j;
}

Json EventAdmitted(std::uint64_t job_id, int worker) {
  Json j = JobEvent("admitted", job_id);
  j.Set("worker", worker);
  return j;
}

Json EventStage(std::uint64_t job_id, std::size_t entry_index,
                const std::string& entry_name, std::string_view stage) {
  Json j = JobEvent("stage", job_id);
  j.Set("entry", entry_index);
  j.Set("name", entry_name);
  j.Set("stage", std::string(stage));
  return j;
}

Json EventEntryDone(std::uint64_t job_id, std::size_t entry_index,
                    const std::string& entry_name, const std::string& mode,
                    const std::string& error_stage,
                    const std::string& error_class) {
  Json j = JobEvent("entry-done", job_id);
  j.Set("entry", entry_index);
  j.Set("name", entry_name);
  j.Set("mode", mode);
  if (!error_class.empty()) {
    j.Set("error_stage", error_stage);
    j.Set("error_class", error_class);
  }
  return j;
}

Json EventComplete(std::uint64_t job_id, const std::string& status,
                   std::size_t entries, std::size_t degraded_entries,
                   const std::string& report, std::uint64_t cache_hits,
                   std::uint64_t cache_misses) {
  Json j = JobEvent("complete", job_id);
  j.Set("status", status);
  j.Set("entries", entries);
  j.Set("degraded_entries", degraded_entries);
  j.Set("cache_hits", cache_hits);
  j.Set("cache_misses", cache_misses);
  j.Set("report", report);
  return j;
}

Json EventFailed(std::uint64_t job_id, const std::string& error_class,
                 const std::string& message) {
  Json j = JobEvent("failed", job_id);
  j.Set("class", error_class);
  j.Set("message", message);
  return j;
}

Json EventPong() {
  Json j = Json::Object();
  j.Set("event", "pong");
  return j;
}

Json EventError(const std::string& message) {
  Json j = Json::Object();
  j.Set("event", "error");
  j.Set("message", message);
  return j;
}

}  // namespace gpustl::service
