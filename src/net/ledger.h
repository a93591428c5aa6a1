// JobLedger: idempotent submits and resumable event streams.
//
// A client cannot tell a lost request from a lost response: if the
// connection dies right after `submit`, the job may or may not be
// running. The ledger makes resubmission safe. Every submit
// carries a client-generated `client_job` id; the first arrival creates
// a ledger entry and actually starts the job, every later arrival with
// the same id attaches to the existing entry instead of starting a
// duplicate.
//
// Each entry records the job's full event history with a per-job
// sequence number ("seq", 1-based) stamped into every event. A client
// that reconnects re-sends the submit with `after_seq` = the last seq it
// saw; the ledger replays everything newer and then attaches the
// connection for live events — atomically, under the entry lock, so no
// event is duplicated or lost in the gap between replay and attach.
//
// Entries whose job reached a terminal event (complete/failed/rejected)
// are retained for a bounded number of jobs (LRU) so a client whose
// connection died just before the terminal event can still recover it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/json.h"

namespace gpustl::net {

class JobLedger {
 public:
  /// Delivery callback for recorded events (seq already stamped). Called
  /// under the entry lock: keep it quick, and never call back into the
  /// ledger for the same job (mark a dead connection and drop instead).
  using Sink = std::function<void(const service::Json& event)>;

  /// `max_terminal`: finished entries retained for late reconnects.
  explicit JobLedger(std::size_t max_terminal = 256);

  struct OpenInfo {
    /// True when this call created the entry — the caller owns starting
    /// the actual job and must feed its events through `record`.
    bool created = false;
    /// Recording sink (only set when `created`): stamps seq, appends to
    /// the history, forwards to the attached delivery sink.
    std::function<void(const service::Json&)> record;
    /// Token for Detach.
    std::uint64_t attach_id = 0;
    /// The job had already reached its terminal event; the replay that
    /// just ran delivered it.
    bool terminal = false;
  };

  /// Idempotent open: creates the entry for `client_job` or attaches to
  /// the existing one. Replays events with seq > `after_seq` into
  /// `deliver` before attaching it (atomically). A later Open for the
  /// same job replaces the previous attachment — last connection wins.
  OpenInfo Open(const std::string& client_job, std::uint64_t after_seq,
                Sink deliver);

  /// Removes the attachment if `attach_id` is still the current one.
  void Detach(const std::string& client_job, std::uint64_t attach_id);

  /// Entries currently tracked (live + retained terminal). For tests.
  std::size_t size() const;

 private:
  struct Entry {
    std::mutex mu;
    std::deque<service::Json> events;  // events[i].seq == i+1
    Sink deliver;                      // attached connection, if any
    std::uint64_t attach_id = 0;
    bool terminal = false;
  };

  void RecordEvent(const std::shared_ptr<Entry>& entry,
                   const std::string& client_job,
                   const service::Json& event);
  void MarkTerminal(const std::string& client_job);

  const std::size_t max_terminal_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<std::string> terminal_lru_;  // oldest first
  std::uint64_t next_attach_id_ = 1;
};

}  // namespace gpustl::net
