#include "store/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/status.h"
#include "fault/transition.h"
#include "store/io_retry.h"

namespace gpustl::store {
namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'G', 'S', 'R', 'E'};
// v2 dropped the per-pattern activation histogram from the payload. An
// entry of any other version is a plain miss (recomputed and overwritten),
// not a bad entry: upgrading must not report a whole store as corrupt.
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderBytes = 4 + 4 + 16 + 8 + 16;

void PutU32(std::string& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

/// Bounded little-endian reader over a byte buffer; Ok() goes false on the
/// first out-of-range read and stays false (truncation-safe decoding).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool Ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  std::uint32_t U32() { return static_cast<std::uint32_t>(Raw(4)); }
  std::uint64_t U64() { return Raw(8); }

  bool Expect(const char* bytes, std::size_t n) {
    if (pos_ + n > data_.size()) return ok_ = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (data_[pos_ + i] != bytes[i]) return ok_ = false;
    }
    pos_ += n;
    return true;
  }

 private:
  std::uint64_t Raw(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < n; ++k) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + k]))
           << (8 * k);
    }
    pos_ += n;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Hash128 Checksum(std::string_view payload) {
  Hasher128 h;
  h.AddString("gpustl-entry-v1");
  h.AddBytes(payload.data(), payload.size());
  return h.Finish();
}

void LogBadEntry(const std::string& path, const char* why) {
  std::fprintf(stderr, "gpustl-store: discarding %s (%s); will recompute\n",
               path.c_str(), why);
}

thread_local StoreAttribution* t_attribution = nullptr;

/// Holds `<dir>/.eviction.lock` via flock for the scope's lifetime.
/// flock locks belong to the open file description, so two handles in ONE
/// process contend just like two processes do — which is what makes the
/// cross-process eviction exclusion testable in-process.
class EvictionLock {
 public:
  explicit EvictionLock(const std::string& dir) {
    fd_ = ::open((dir + "/.eviction.lock").c_str(),
                 O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      // Can't create the sidecar (odd permissions?): proceed unlocked —
      // the budget is advisory and a double-evict only over-trims.
      held_ = true;
      return;
    }
    held_ = ::flock(fd_, LOCK_EX | LOCK_NB) == 0;
  }

  ~EvictionLock() {
    if (fd_ >= 0) {
      if (held_) ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }

  bool held() const { return held_; }

 private:
  int fd_ = -1;
  bool held_ = false;
};

}  // namespace

ScopedStoreAttribution::ScopedStoreAttribution(StoreAttribution* record)
    : prev_(t_attribution) {
  t_attribution = record;
}

ScopedStoreAttribution::~ScopedStoreAttribution() { t_attribution = prev_; }

ResultStore::ResultStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw IoError("store: cannot create cache directory '" + dir_ +
                  "': " + ec.message());
  }
}

std::string ResultStore::EntryPath(const StoreKey& key) const {
  return (fs::path(dir_) / (key.ToHex() + ".gsr")).string();
}

std::string ResultStore::EncodeResult(const fault::FaultSimResult& result) {
  std::string out;
  PutU64(out, result.first_detect.size());
  for (const std::uint32_t v : result.first_detect) PutU32(out, v);
  PutU64(out, result.detects_per_pattern.size());
  for (const std::uint32_t v : result.detects_per_pattern) PutU32(out, v);
  PutU64(out, result.num_detected);
  PutU64(out, result.detected_mask.size());
  for (const std::uint64_t w : result.detected_mask.Words()) PutU64(out, w);
  return out;
}

std::string ResultStore::EncodeEntry(const StoreKey& key,
                                     const fault::FaultSimResult& result) {
  const std::string payload = EncodeResult(result);
  const Hash128 sum = Checksum(payload);
  std::string data;
  data.reserve(kHeaderBytes + payload.size());
  data.append(kMagic, 4);
  PutU32(data, kFormatVersion);
  PutU64(data, key.lo);
  PutU64(data, key.hi);
  PutU64(data, payload.size());
  PutU64(data, sum.lo);
  PutU64(data, sum.hi);
  data += payload;
  return data;
}

EntryCheck ResultStore::CheckEntry(std::string_view bytes,
                                   const StoreKey& key,
                                   fault::FaultSimResult* out) {
  const auto bad = [](const char* why) {
    return EntryCheck{EntryCheck::Status::kBad, why};
  };
  Reader r(bytes);
  if (bytes.size() < kHeaderBytes) return bad("truncated header");
  if (!r.Expect(kMagic, 4)) return bad("bad magic");
  if (r.U32() != kFormatVersion) {
    return EntryCheck{EntryCheck::Status::kStaleVersion,
                      "format version mismatch"};
  }
  const std::uint64_t key_lo = r.U64();
  const std::uint64_t key_hi = r.U64();
  const std::uint64_t payload_size = r.U64();
  const std::uint64_t sum_lo = r.U64();
  const std::uint64_t sum_hi = r.U64();
  if (key_lo != key.lo || key_hi != key.hi) return bad("key mismatch");
  if (bytes.size() - kHeaderBytes != payload_size) {
    return bad("payload size mismatch");
  }
  const std::string_view payload = bytes.substr(kHeaderBytes);
  const Hash128 sum = Checksum(payload);
  if (sum.lo != sum_lo || sum.hi != sum_hi) return bad("checksum mismatch");
  fault::FaultSimResult decoded;
  if (!DecodeResult(payload, &decoded)) return bad("undecodable payload");
  if (out != nullptr) *out = std::move(decoded);
  return EntryCheck{EntryCheck::Status::kValid, ""};
}

bool ResultStore::DecodeResult(std::string_view payload,
                               fault::FaultSimResult* out) {
  Reader r(payload);
  fault::FaultSimResult res;

  const std::uint64_t num_faults = r.U64();
  if (!r.Ok() || num_faults > payload.size()) return false;  // size sanity
  res.first_detect.resize(num_faults);
  for (std::uint64_t i = 0; i < num_faults; ++i) res.first_detect[i] = r.U32();

  const std::uint64_t num_patterns = r.U64();
  if (!r.Ok() || num_patterns > payload.size()) return false;
  res.detects_per_pattern.resize(num_patterns);
  for (std::uint64_t i = 0; i < num_patterns; ++i) {
    res.detects_per_pattern[i] = r.U32();
  }

  res.num_detected = r.U64();

  const std::uint64_t mask_bits = r.U64();
  if (!r.Ok() || mask_bits != num_faults) return false;
  res.detected_mask.Resize(mask_bits);
  auto& words = res.detected_mask.MutableWords();
  for (std::uint64_t w = 0; w < words.size(); ++w) words[w] = r.U64();

  if (!r.Ok() || !r.AtEnd()) return false;
  // Internal consistency: the scalar count must match the mask.
  if (res.num_detected != res.detected_mask.Count()) return false;
  *out = std::move(res);
  return true;
}

std::optional<fault::FaultSimResult> ResultStore::Load(const StoreKey& key) {
  const std::string path = EntryPath(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Absent — or vanished between a concurrent user's eviction and this
    // open. Either way a plain miss, never a failure.
    if (t_attribution != nullptr) ++t_attribution->misses;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Chaos: damage the in-memory read buffer. The validation chain below
  // must classify any damage as a bad entry and fall back to recompute.
  if (chaos::Armed() && !data.empty()) {
    if (chaos::Fail(chaos::Site::kStoreReadShort)) {
      data.resize(data.size() / 2);
    }
    if (!data.empty() && chaos::Fail(chaos::Site::kStoreReadCorrupt)) {
      data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
    }
  }

  fault::FaultSimResult result;
  const EntryCheck check = CheckEntry(data, key, &result);
  if (check.status == EntryCheck::Status::kStaleVersion) {
    // Written by another format version: a plain miss. The caller
    // recomputes and Store() overwrites it in place.
    if (t_attribution != nullptr) ++t_attribution->misses;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  if (!check.valid()) {
    LogBadEntry(path, check.why);
    if (t_attribution != nullptr) ++t_attribution->misses;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.bad_entries;
      ++stats_.misses;
    }
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }

  if (t_attribution != nullptr) {
    ++t_attribution->hits;
    t_attribution->bytes_read += data.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.hits;
    stats_.bytes_read += data.size();
  }
  return result;
}

void ResultStore::Store(const StoreKey& key,
                        const fault::FaultSimResult& result) {
  const std::string data = EncodeEntry(key, result);

  const std::string path = EntryPath(key);
  // Unique temp name per write: two handles (threads or processes) storing
  // the same key concurrently must never interleave into one temp file.
  const std::string tmp =
      path + "." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." +
      std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";
  const auto attempt = [&]() -> bool {
    if (chaos::Fail(chaos::Site::kStoreWriteFail)) return false;
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
      if (!out) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
      }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return false;
    }
    return true;
  };
  std::uint64_t retries = 0;
  const bool ok = RetryIo(RetryPolicy{}, attempt, &retries);
  if (ok && t_attribution != nullptr) {
    ++t_attribution->stores;
    t_attribution->bytes_written += data.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.io_retries += retries;
    if (!ok) {
      ++stats_.write_failures;
    } else {
      ++stats_.stores;
      stats_.bytes_written += data.size();
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "gpustl-store: cannot write %s after retries "
                 "(caching skipped)\n",
                 path.c_str());
    return;
  }
  if (max_bytes_ > 0) EnforceBudget();
}

void ResultStore::Discard(const StoreKey& key) {
  const std::string path = EntryPath(key);
  LogBadEntry(path, "query shape mismatch");
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.bad_entries;
  }
  std::error_code ec;
  fs::remove(path, ec);
}

void ResultStore::EnforceBudget() {
  std::unique_lock<std::mutex> single_flight(budget_mu_, std::try_to_lock);
  if (!single_flight.owns_lock()) return;

  // Cross-process single-flight. A daemon, a CLI run and a fleet of
  // distrib workers may all share this directory; if two of them scan an
  // over-budget directory concurrently, each evicts enough on its own and
  // the cache lands far below budget. Skipping on contention is safe for
  // the same reason skipping on the mutex is: whoever holds the lock is
  // already evicting, and the next over-budget Store re-checks.
  EvictionLock eviction_lock(dir_);
  if (!eviction_lock.held()) return;

  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return;
  const fs::directory_iterator end;
  while (it != end) {
    // Every stat below uses its own error code and skips the entry on
    // failure: with several handles sharing the directory a file can
    // vanish between listing and stat (a concurrent eviction), and that
    // must never abort the scan — or worse, half-count the entry.
    if (it->path().extension() == ".gsr") {
      std::error_code type_ec;
      if (it->is_regular_file(type_ec) && !type_ec) {
        Entry e;
        e.path = it->path();
        std::error_code mtime_ec;
        std::error_code size_ec;
        e.mtime = fs::last_write_time(e.path, mtime_ec);
        e.size = fs::file_size(e.path, size_ec);
        if (!mtime_ec && !size_ec) {
          total += e.size;
          entries.push_back(std::move(e));
        }
      }
    }
    it.increment(ec);
    if (ec) break;  // the iterator is end() after a failed increment
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    std::error_code remove_ec;
    const bool removed = fs::remove(e.path, remove_ec);
    if (remove_ec) continue;  // unremovable; try the next oldest
    // removed == false: already gone (the other handle evicted it) — its
    // bytes are freed either way, but only count evictions we performed.
    total -= e.size;
    if (removed) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.evictions;
    }
  }
}

fault::FaultSimResult SimulateWithStore(ResultStore* store,
                                        const netlist::Netlist& nl,
                                        const netlist::PatternSet& patterns,
                                        const std::vector<fault::Fault>& faults,
                                        const BitVec* skip,
                                        const fault::FaultSimOptions& options,
                                        SimModel model,
                                        const Hash128* faults_fp) {
  auto run = [&] {
    return model == SimModel::kTransition
               ? fault::RunTransitionFaultSim(nl, patterns, faults, skip,
                                              options)
               : fault::RunFaultSim(nl, patterns, faults, skip, options);
  };
  if (store == nullptr) return run();

  const StoreKey key =
      faults_fp != nullptr
          ? FaultSimKeyWith(nl, patterns, *faults_fp, skip,
                            options.drop_detected, model)
          : FaultSimKey(nl, patterns, faults, skip, options.drop_detected,
                        model);
  if (auto cached = store->Load(key)) {
    if (cached->first_detect.size() == faults.size() &&
        cached->detects_per_pattern.size() == patterns.size()) {
      return std::move(*cached);
    }
    store->Discard(key);
  }
  fault::FaultSimResult result = run();
  store->Store(key, result);
  return result;
}

}  // namespace gpustl::store
