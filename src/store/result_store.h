// Content-addressed, on-disk store for fault-simulation results.
//
// The paper's flow already amortizes ONE optimized fault simulation across
// the PTPs of a module via inter-PTP dropping; this store amortizes it
// across PROCESSES: a campaign re-run (or an edited-one-PTP re-run) loads
// every unchanged fault-sim result from disk instead of recomputing it.
// Entries are addressed purely by content (store/fingerprint.h), so any
// invocation — gpustlc faultsim, compact, campaign, a bench — that asks
// the same semantic question hits the same entry.
//
// Entry file `<dir>/<key-hex32>.gsr`, little-endian (docs/FORMATS.md):
//
//   "GSRE"  magic
//   u32     format version (3)
//   u64 u64 key (lo, hi) — must match the file's own address
//   u64     payload size in bytes
//   u64 u64 payload checksum (Hash128 lo, hi)
//   bytes   payload: u32 kind (EntryKind), then a serialized
//           FaultSimResult (kind 0) or a validation entry's detected mask
//           (kind 1)
//
// A query for one kind treats an entry of the other kind as bad.
//
// Corrupt, truncated or mis-keyed entries are detected by construction,
// counted in stats().bad_entries, logged to stderr and treated as a miss —
// the caller recomputes and overwrites. An intact entry of another format
// version (a store written before an upgrade) is a plain miss: recomputed
// and overwritten, but neither counted bad nor logged. A cache can
// therefore never make a run wrong, only slow.
//
// Writes go through a unique temp file + atomic rename, so a killed
// campaign leaves either the old entry or the new one, never a torn file.
// The store object is thread-safe (the service worker pool shares one
// instance), and a directory may be shared by several store handles — even
// across processes (the daemon and a CLI run): entries vanishing mid-scan
// or mid-read are treated as plain misses/skips, never as failures.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "fault/faultsim.h"
#include "store/fingerprint.h"

namespace gpustl::store {

/// Per-caller slice of store traffic. A thread that should be attributed
/// (e.g. a service worker running one tenant's job) installs a
/// ScopedStoreAttribution; every Load/Store issued from that thread adds
/// to the installed record in addition to the store's own stats(). The
/// fault-sim worker threads never touch the store themselves, so
/// thread-local scoping captures exactly the owning job's traffic.
struct StoreAttribution {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Installs `record` as the calling thread's attribution sink for the
/// scope's lifetime; nesting restores the previous sink on destruction.
class ScopedStoreAttribution {
 public:
  explicit ScopedStoreAttribution(StoreAttribution* record);
  ~ScopedStoreAttribution();
  ScopedStoreAttribution(const ScopedStoreAttribution&) = delete;
  ScopedStoreAttribution& operator=(const ScopedStoreAttribution&) = delete;

 private:
  StoreAttribution* prev_;
};

/// Observability counters, surfaced in campaign reports and bench_store.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       // absent entries (bad entries count extra)
  std::uint64_t stores = 0;       // entries written
  std::uint64_t bad_entries = 0;  // corrupt/truncated/mismatched, discarded
  std::uint64_t evictions = 0;    // entries removed by the size budget
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t io_retries = 0;      // write attempts that were re-tried
  std::uint64_t write_failures = 0;  // writes abandoned after all retries

  double hit_rate_percent() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// What an entry's payload holds: its first u32.
enum class EntryKind : std::uint32_t {
  kFaultSim = 0,  // one fault-simulation run's FaultSimResult
  kDetected = 1,  // a validation entry: a detected mask alone
};

/// Verdict on bytes presented as the entry file for one key.
struct EntryCheck {
  enum class Status {
    kValid,
    kStaleVersion,  // intact header of another format version
    kBad,           // truncated, corrupt, mis-keyed or undecodable
  };
  Status status = Status::kBad;
  const char* why = "";  // short reason when not kValid

  bool valid() const { return status == Status::kValid; }
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. `max_bytes` > 0
  /// caps the total entry payload on disk: after each write, the
  /// oldest-written entries are evicted until the cap holds.
  explicit ResultStore(std::string dir, std::uint64_t max_bytes = 0);

  const std::string& dir() const { return dir_; }
  std::string EntryPath(const StoreKey& key) const;

  /// Loads and validates a fault-sim entry. Any defect (missing, short,
  /// bad magic/version/key/checksum, payload of another kind or
  /// undecodable) returns nullopt; defects other than plain absence or
  /// another format version also remove the file and count bad_entries.
  std::optional<fault::FaultSimResult> Load(const StoreKey& key);

  /// The same for a validation entry's detected mask.
  std::optional<BitVec> LoadDetected(const StoreKey& key);

  /// Serializes and atomically writes an entry, then applies the size cap.
  /// Write failures are retried with capped backoff (store/io_retry.h);
  /// a write that still fails is counted and skipped — caching is an
  /// optimization, never a correctness dependency.
  void Store(const StoreKey& key, const fault::FaultSimResult& result);
  void Store(const StoreKey& key, const BitVec& detected);

  /// Removes an entry that decoded but failed a caller-side sanity check
  /// (e.g. shape mismatch against the query); counts it as bad.
  void Discard(const StoreKey& key);

  /// Snapshot of the counters (by value: the store is shared across
  /// threads, so a reference would race with concurrent updates).
  StoreStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Entry-file codec: the complete bytes Store() writes at `key`, and
  /// the check Load() applies to a file's bytes (magic, format version,
  /// embedded key, payload size, checksum, payload kind and decode). The
  /// two-argument check accepts either kind; the others demand theirs and
  /// decode into `*out` on kValid. The network broker validates uploaded
  /// entries with CheckEntry, so the on-disk format is known to this
  /// module only.
  static std::string EncodeEntry(const StoreKey& key,
                                 const fault::FaultSimResult& result);
  static std::string EncodeEntry(const StoreKey& key, const BitVec& detected);
  static EntryCheck CheckEntry(std::string_view bytes, const StoreKey& key);
  static EntryCheck CheckEntry(std::string_view bytes, const StoreKey& key,
                               fault::FaultSimResult* out);
  static EntryCheck CheckEntry(std::string_view bytes, const StoreKey& key,
                               BitVec* out);

  /// Payload codec (kind included), exposed for tests and bench tooling.
  static std::string EncodeResult(const fault::FaultSimResult& result);
  static bool DecodeResult(std::string_view payload,
                           fault::FaultSimResult* out);
  static std::string EncodeDetected(const BitVec& detected);
  static bool DecodeDetected(std::string_view payload, BitVec* out);

 private:
  template <typename T>
  std::optional<T> LoadAs(const StoreKey& key);
  void Write(const StoreKey& key, const std::string& data);
  void EnforceBudget();

  std::string dir_;
  std::uint64_t max_bytes_ = 0;
  // Counter mutations only — file I/O deliberately runs outside any lock
  // (reads race benignly with atomic renames; writes use unique temp
  // names), so concurrent jobs never serialize on the cache.
  mutable std::mutex stats_mu_;
  StoreStats stats_;
  // Single-flight guard for the eviction scan: a Store that finds a scan
  // already running skips its own (the budget is advisory, and the next
  // over-budget Store re-triggers it). In-process contention is settled by
  // the mutex; cross-process contention by a `.eviction.lock` flock
  // sidecar in the directory itself — two processes scanning the same
  // over-budget directory would otherwise both evict and land the cache
  // well under budget.
  std::mutex budget_mu_;
  std::atomic<std::uint64_t> tmp_seq_{0};
};

/// The single choke point callers use: consult `store` (nullable = caching
/// disabled), fall back to the live engine, write back on miss. Cached
/// results are shape-checked against the query (fault/pattern counts)
/// before being trusted; a mismatch — possible only via key collision or a
/// foreign file planted at the right path — is discarded and recomputed.
///
/// `faults_fp`, when non-null, must equal FingerprintFaults(faults)
/// (campaigns precompute it once per module).
fault::FaultSimResult SimulateWithStore(ResultStore* store,
                                        const netlist::Netlist& nl,
                                        const netlist::PatternSet& patterns,
                                        const std::vector<fault::Fault>& faults,
                                        const BitVec* skip,
                                        const fault::FaultSimOptions& options,
                                        SimModel model,
                                        const Hash128* faults_fp = nullptr);

/// Stage-5 validation of a stuck-at campaign through the store: the
/// detected mask of the full-list dropped run of `after`, kept as a
/// validation entry (ValidationKey) of a few KB instead of a full result.
/// A miss derives it with fault::DetectedAfterEdit from
/// `before_first_detect` (the full-list dropped run over `before`) and
/// stores it. A cached mask of the wrong size is discarded and
/// recomputed. `faults_fp` must equal FingerprintFaults(faults).
BitVec DetectedWithStore(ResultStore* store, const netlist::Netlist& nl,
                         const netlist::PatternSet& before,
                         const std::vector<std::uint32_t>& before_first_detect,
                         const netlist::PatternSet& after,
                         const std::vector<fault::Fault>& faults,
                         const fault::FaultSimOptions& options,
                         const Hash128& faults_fp);

}  // namespace gpustl::store
