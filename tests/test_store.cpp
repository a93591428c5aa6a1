// Result-store subsystem tests: fingerprint stability/sensitivity, the
// versioned entry codec, corruption fallback (bit flips, truncation, key
// mismatch — never fatal, always recomputed), older-format entries (a plain
// miss, recomputed and rewritten, never counted bad), validation entries
// (stage 5's detected masks: a kind of their own), cached-vs-live
// bit-identity through Compactor, campaign checkpoint round trips, and the
// interrupted-then-resumed ≡ uninterrupted campaign equivalence.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/hash.h"
#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "isa/disasm.h"
#include "stl/generators.h"
#include "store/checkpoint.h"
#include "store/fingerprint.h"
#include "store/result_store.h"

namespace gpustl::store {
namespace {

namespace fs = std::filesystem;
using fault::Fault;
using fault::FaultSimResult;
using netlist::Netlist;
using netlist::PatternSet;

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_store" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Netlist SmallNetlist(const char* name = "small") {
  Netlist nl{name};
  const auto a = nl.AddInput("a");
  const auto b = nl.AddInput("b");
  const auto c = nl.AddInput("c");
  const auto g1 = nl.AddGate(netlist::CellType::kAnd2, {a, b});
  const auto g2 = nl.AddGate(netlist::CellType::kXor2, {g1, c});
  nl.MarkOutput(g2, "y");
  nl.Freeze();
  return nl;
}

PatternSet SmallPatterns(int n = 8) {
  PatternSet ps(3);
  for (int i = 0; i < n; ++i) {
    ps.Add64(static_cast<std::uint64_t>(10 + i),
             static_cast<std::uint64_t>(i) & 7u);
  }
  return ps;
}

FaultSimResult Simulate(const Netlist& nl, const PatternSet& ps,
                        const std::vector<Fault>& faults) {
  return fault::RunFaultSim(nl, ps, faults);
}

void ExpectSameResult(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.detects_per_pattern, b.detects_per_pattern);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
}

// --- Hash128 / fingerprints -------------------------------------------------

TEST(Hash128Test, HexRoundTrips) {
  Hasher128 h;
  h.AddString("round trip");
  const Hash128 digest = h.Finish();
  Hash128 back;
  ASSERT_TRUE(Hash128::FromHex(digest.ToHex(), &back));
  EXPECT_EQ(back, digest);
  EXPECT_EQ(digest.ToHex().size(), 32u);
  EXPECT_FALSE(Hash128::FromHex("xyz", &back));
  EXPECT_FALSE(Hash128::FromHex(digest.ToHex().substr(1), &back));
}

TEST(Hash128Test, DeterministicAndSensitive) {
  const auto digest = [](std::string_view s) {
    Hasher128 h;
    h.AddString(s);
    return h.Finish();
  };
  EXPECT_EQ(digest("abc"), digest("abc"));
  EXPECT_NE(digest("abc"), digest("abd"));
  EXPECT_NE(digest("abc"), digest("ab"));
  // Length prefixing: splitting the same bytes differently must differ.
  Hasher128 split;
  split.AddString("ab");
  split.AddString("c");
  EXPECT_NE(split.Finish(), digest("abc"));
}

TEST(FingerprintTest, NetlistTopologyNotNames) {
  const Netlist a = SmallNetlist("one");
  const Netlist b = SmallNetlist("two");  // same structure, new names
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  Netlist c{"three"};  // same shape but an OR instead of the AND
  const auto x = c.AddInput("a");
  const auto y = c.AddInput("b");
  const auto z = c.AddInput("c");
  const auto g1 = c.AddGate(netlist::CellType::kOr2, {x, y});
  const auto g2 = c.AddGate(netlist::CellType::kXor2, {g1, z});
  c.MarkOutput(g2, "y");
  c.Freeze();
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(FingerprintTest, PatternsSensitiveToOrderWidthAndStamps) {
  const PatternSet base = SmallPatterns();
  EXPECT_EQ(FingerprintPatterns(base), FingerprintPatterns(base));
  EXPECT_NE(FingerprintPatterns(base), FingerprintPatterns(base.Reversed()));

  PatternSet restamped(3);
  for (std::size_t p = 0; p < base.size(); ++p) {
    restamped.Add(base.cc(p) + 1, base.Row(p));
  }
  EXPECT_NE(FingerprintPatterns(base), FingerprintPatterns(restamped));

  PatternSet wider(4);
  for (std::size_t p = 0; p < base.size(); ++p) {
    wider.Add64(base.cc(p), base.Row(p)[0]);
  }
  EXPECT_NE(FingerprintPatterns(base), FingerprintPatterns(wider));
}

TEST(FingerprintTest, MaskNullVsEmptyVsZeros) {
  const BitVec empty(0);
  const BitVec zeros(64, false);
  BitVec ones(64, false);
  ones.Set(3, true);
  EXPECT_NE(FingerprintMask(nullptr), FingerprintMask(&empty));
  EXPECT_NE(FingerprintMask(&empty), FingerprintMask(&zeros));
  EXPECT_NE(FingerprintMask(&zeros), FingerprintMask(&ones));
}

TEST(FingerprintTest, KeySeparatesModelAndDropMode) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const auto key = [&](bool drop, SimModel model) {
    return FaultSimKey(nl, ps, faults, nullptr, drop, model);
  };
  EXPECT_EQ(key(true, SimModel::kStuckAt), key(true, SimModel::kStuckAt));
  EXPECT_NE(key(true, SimModel::kStuckAt), key(false, SimModel::kStuckAt));
  EXPECT_NE(key(true, SimModel::kStuckAt), key(true, SimModel::kTransition));
  // Precomputed fault digest path must agree with the direct path.
  EXPECT_EQ(key(true, SimModel::kStuckAt),
            FaultSimKeyWith(nl, ps, FingerprintFaults(faults), nullptr, true,
                            SimModel::kStuckAt));
}

// --- entry codec + store ----------------------------------------------------

TEST(ResultStoreTest, CodecRoundTrips) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);

  const std::string payload = ResultStore::EncodeResult(result);
  FaultSimResult back;
  ASSERT_TRUE(ResultStore::DecodeResult(payload, &back));
  ExpectSameResult(result, back);

  // Any truncation must fail to decode, never crash or misread.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                          payload.size() - 1}) {
    FaultSimResult ignored;
    EXPECT_FALSE(ResultStore::DecodeResult(
        std::string_view(payload).substr(0, cut), &ignored))
        << "cut at " << cut;
  }
}

TEST(ResultStoreTest, StoreLoadRoundTripsAndCounts) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);
  const StoreKey key =
      FaultSimKey(nl, ps, faults, nullptr, true, SimModel::kStuckAt);

  ResultStore store(ScratchDir("roundtrip"));
  EXPECT_FALSE(store.Load(key).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  store.Store(key, result);
  EXPECT_EQ(store.stats().stores, 1u);
  ASSERT_TRUE(fs::exists(store.EntryPath(key)));

  const auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameResult(result, *loaded);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_GT(store.stats().bytes_read, 0u);
  EXPECT_GT(store.stats().bytes_written, 0u);
}

TEST(ResultStoreTest, CorruptEntriesAreDetectedAndDiscarded) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);
  const StoreKey key =
      FaultSimKey(nl, ps, faults, nullptr, true, SimModel::kStuckAt);

  ResultStore store(ScratchDir("corrupt"));
  const std::string path = store.EntryPath(key);
  const auto write_entry = [&] { store.Store(key, result); };
  const auto read_all = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto write_all = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Bit flip in the payload -> checksum mismatch.
  write_entry();
  std::string data = read_all();
  data[data.size() - 3] = static_cast<char>(data[data.size() - 3] ^ 0x40);
  write_all(data);
  EXPECT_FALSE(store.Load(key).has_value());
  EXPECT_FALSE(fs::exists(path)) << "bad entry should be removed";

  // Truncation -> payload size mismatch.
  write_entry();
  write_all(read_all().substr(0, 40));
  EXPECT_FALSE(store.Load(key).has_value());

  // Bit flip in the header key bytes -> key mismatch.
  write_entry();
  data = read_all();
  data[9] = static_cast<char>(data[9] ^ 1);
  write_all(data);
  EXPECT_FALSE(store.Load(key).has_value());

  EXPECT_EQ(store.stats().bad_entries, 3u);

  // After every corruption the store still serves a fresh write.
  write_entry();
  const auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameResult(result, *loaded);
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

TEST(ResultStoreTest, FormatOneEntryIsAPlainMissAndIsRewritten) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);
  const StoreKey key =
      FaultSimKey(nl, ps, faults, nullptr, true, SimModel::kStuckAt);

  // An intact format-1 entry, as stores written before v2 hold them: its
  // payload carries a per-pattern activation histogram after the
  // detection histogram.
  std::string payload;
  PutU64(payload, result.first_detect.size());
  for (const std::uint32_t v : result.first_detect) PutU32(payload, v);
  PutU64(payload, result.detects_per_pattern.size());
  for (const std::uint32_t v : result.detects_per_pattern) PutU32(payload, v);
  for (std::size_t p = 0; p < ps.size(); ++p) PutU32(payload, 1);
  PutU64(payload, result.num_detected);
  PutU64(payload, result.detected_mask.size());
  for (const std::uint64_t w : result.detected_mask.Words()) {
    PutU64(payload, w);
  }
  Hasher128 h;
  h.AddString("gpustl-entry-v1");
  h.AddBytes(payload.data(), payload.size());
  const Hash128 sum = h.Finish();
  std::string entry("GSRE", 4);
  PutU32(entry, 1);
  PutU64(entry, key.lo);
  PutU64(entry, key.hi);
  PutU64(entry, payload.size());
  PutU64(entry, sum.lo);
  PutU64(entry, sum.hi);
  entry += payload;

  ResultStore store(ScratchDir("format_one"));
  const std::string path = store.EntryPath(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(entry.data(), static_cast<std::streamsize>(entry.size()));
  }

  ::testing::internal::CaptureStderr();
  const FaultSimResult got = SimulateWithStore(
      &store, nl, ps, faults, nullptr, {}, SimModel::kStuckAt);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "")
      << "an older format is not corruption";
  ExpectSameResult(result, got);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().bad_entries, 0u);
  EXPECT_EQ(store.stats().stores, 1u);

  // Rewritten in place in the current format, so the next lookup hits.
  std::ifstream in(path, std::ios::binary);
  const std::string rewritten((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  ASSERT_GE(rewritten.size(), 8u);
  EXPECT_EQ(rewritten.substr(0, 8), std::string("GSRE\x03\0\0\0", 8));
  const auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameResult(result, *loaded);
  EXPECT_EQ(store.stats().bad_entries, 0u);
}

TEST(ResultStoreTest, SizeBudgetEvictsOldestEntries) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);
  const std::uint64_t entry_bytes =
      ResultStore::EncodeResult(result).size() + 48;

  // Budget fits two entries; storing four must evict the two oldest.
  ResultStore store(ScratchDir("evict"), 2 * entry_bytes);
  std::vector<StoreKey> keys;
  for (int i = 0; i < 4; ++i) {
    BitVec mask(faults.size(), false);
    if (i > 0) mask.Set(static_cast<std::size_t>(i - 1), true);
    keys.push_back(
        FaultSimKey(nl, ps, faults, &mask, true, SimModel::kStuckAt));
    store.Store(keys.back(), result);
  }
  EXPECT_EQ(store.stats().evictions, 2u);
  std::size_t on_disk = 0;
  for (const auto& key : keys) on_disk += fs::exists(store.EntryPath(key));
  EXPECT_EQ(on_disk, 2u);
}

TEST(SimulateWithStoreTest, WarmRunIsBitIdenticalAndCounted) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);

  ResultStore store(ScratchDir("warm"));
  const fault::FaultSimOptions options;
  const FaultSimResult cold = SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, SimModel::kStuckAt);
  const FaultSimResult warm = SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, SimModel::kStuckAt);
  ExpectSameResult(cold, warm);
  ExpectSameResult(cold, Simulate(nl, ps, faults));
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);

  // The thread count is bit-identical by engine contract, so it
  // deliberately shares the entry: this must hit.
  fault::FaultSimOptions variants;
  variants.num_threads = 2;
  const FaultSimResult hit = SimulateWithStore(
      &store, nl, ps, faults, nullptr, variants, SimModel::kStuckAt);
  ExpectSameResult(cold, hit);
  EXPECT_EQ(store.stats().hits, 2u);
}

TEST(SimulateWithStoreTest, CorruptedEntryFallsBackToRecompute) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);

  ResultStore store(ScratchDir("fallback"));
  const fault::FaultSimOptions options;
  const FaultSimResult cold = SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, SimModel::kStuckAt);

  // Flip one payload bit on disk; the warm call must detect, recompute and
  // heal the entry.
  const StoreKey key =
      FaultSimKey(nl, ps, faults, nullptr, true, SimModel::kStuckAt);
  const std::string path = store.EntryPath(key);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(60);
    char byte;
    f.read(&byte, 1);
    f.seekp(60);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  const FaultSimResult healed = SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, SimModel::kStuckAt);
  ExpectSameResult(cold, healed);
  EXPECT_EQ(store.stats().bad_entries, 1u);
  const auto reloaded = store.Load(key);
  ASSERT_TRUE(reloaded.has_value());
  ExpectSameResult(cold, *reloaded);
}

// --- validation entries ------------------------------------------------------

/// The validation fixture: `after` keeps three of `before`'s eight rows
/// and adds none, so its detected set is a strict subset.
struct ValidationCase {
  Netlist nl = SmallNetlist();
  PatternSet before = SmallPatterns(8);
  PatternSet after = SmallPatterns(3);
  std::vector<Fault> faults = fault::CollapsedFaultList(nl);
  Hash128 faults_fp = FingerprintFaults(faults);
  std::vector<std::uint32_t> first_detect =
      fault::RunFaultSim(nl, before, faults).first_detect;
  BitVec expected = fault::RunFaultSim(nl, after, faults).detected_mask;
  StoreKey key = ValidationKey(nl, after, faults_fp, SimModel::kStuckAt);

  BitVec Run(ResultStore* store) const {
    return DetectedWithStore(store, nl, before, first_detect, after, faults,
                             {}, faults_fp);
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(ValidationEntryTest, MissComputesStoresThenHits) {
  const ValidationCase c;
  ASSERT_LT(c.expected.Count(), fault::RunFaultSim(c.nl, c.before, c.faults)
                                    .num_detected);
  EXPECT_EQ(c.Run(nullptr), c.expected);

  ResultStore store(ScratchDir("validation"));
  EXPECT_EQ(c.Run(&store), c.expected);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().stores, 1u);
  ASSERT_TRUE(fs::exists(store.EntryPath(c.key)));

  EXPECT_EQ(c.Run(&store), c.expected);
  EXPECT_EQ(store.stats().hits, 1u);
  // The payload is the kind and the mask alone.
  const std::uint64_t mask_bytes = 8 * ((c.faults.size() + 63) / 64);
  EXPECT_EQ(store.stats().bytes_read, 48 + 4 + 8 + mask_bytes);
  const auto loaded = store.LoadDetected(c.key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, c.expected);
}

TEST(ValidationEntryTest, TruncatedOrCorruptEntriesAreBadAndRecomputed) {
  const ValidationCase c;
  ResultStore store(ScratchDir("validation_bad"));
  const std::string path = store.EntryPath(c.key);
  c.Run(&store);
  const std::string good = ReadFile(path);

  ::testing::internal::CaptureStderr();
  WriteFile(path, good.substr(0, good.size() - 1));
  EXPECT_EQ(c.Run(&store), c.expected);
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  WriteFile(path, flipped);
  EXPECT_EQ(c.Run(&store), c.expected);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(store.stats().bad_entries, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(ReadFile(path), good) << "rewritten after each bad read";

  // A payload that checks out but decodes to a set bit past the last
  // fault is bad too.
  const std::uint64_t bits = c.faults.size();
  ASSERT_NE(bits % 64, 0u);
  std::string payload;
  PutU32(payload, static_cast<std::uint32_t>(EntryKind::kDetected));
  PutU64(payload, bits);
  PutU64(payload, ~0ull);
  BitVec ignored;
  EXPECT_FALSE(ResultStore::DecodeDetected(payload, &ignored));
}

TEST(ValidationEntryTest, FormatTwoEntryIsAPlainMiss) {
  const ValidationCase c;
  // What a v2 store held: a header at version 2 over a fault-sim payload
  // with no kind.
  const std::string payload =
      ResultStore::EncodeResult(fault::RunFaultSim(c.nl, c.after, c.faults))
          .substr(4);
  Hasher128 h;
  h.AddString("gpustl-entry-v1");
  h.AddBytes(payload.data(), payload.size());
  const Hash128 sum = h.Finish();
  std::string entry("GSRE", 4);
  PutU32(entry, 2);
  PutU64(entry, c.key.lo);
  PutU64(entry, c.key.hi);
  PutU64(entry, payload.size());
  PutU64(entry, sum.lo);
  PutU64(entry, sum.hi);
  entry += payload;
  ResultStore store(ScratchDir("validation_v2"));
  WriteFile(store.EntryPath(c.key), entry);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(c.Run(&store), c.expected);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().bad_entries, 0u);
  EXPECT_EQ(ResultStore::CheckEntry(entry, c.key).status,
            EntryCheck::Status::kStaleVersion);
}

TEST(ValidationEntryTest, AQueryForOneKindRejectsTheOther) {
  const ValidationCase c;
  const FaultSimResult full = fault::RunFaultSim(c.nl, c.after, c.faults);
  const StoreKey full_key =
      FaultSimKeyWith(c.nl, c.after, c.faults_fp, nullptr, true,
                      SimModel::kStuckAt);
  EXPECT_NE(full_key, c.key);

  // Both kinds are valid entries to the kind-blind check (the broker's).
  const std::string mask_entry = ResultStore::EncodeEntry(c.key, c.expected);
  const std::string full_at_key = ResultStore::EncodeEntry(c.key, full);
  EXPECT_TRUE(ResultStore::CheckEntry(mask_entry, c.key).valid());
  EXPECT_TRUE(ResultStore::CheckEntry(full_at_key, c.key).valid());
  FaultSimResult as_result;
  BitVec as_mask;
  EXPECT_EQ(std::string(
                ResultStore::CheckEntry(mask_entry, c.key, &as_result).why),
            "payload of another kind");
  EXPECT_FALSE(ResultStore::CheckEntry(full_at_key, c.key, &as_mask).valid());

  ResultStore store(ScratchDir("validation_kinds"));
  ::testing::internal::CaptureStderr();
  // A full-list entry planted at the validation key...
  store.Store(c.key, full);
  EXPECT_EQ(c.Run(&store), c.expected);
  EXPECT_EQ(store.stats().bad_entries, 1u);
  // ...and a mask planted at the full-list key.
  store.Store(full_key, c.expected);
  ExpectSameResult(SimulateWithStore(&store, c.nl, c.after, c.faults,
                                     nullptr, {}, SimModel::kStuckAt,
                                     &c.faults_fp),
                   full);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(store.stats().bad_entries, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(ValidationEntryTest, FlippingAKeyInputMisses) {
  const ValidationCase c;
  ResultStore store(ScratchDir("validation_flips"));
  c.Run(&store);
  ASSERT_EQ(store.stats().misses, 1u);

  // Other patterns (one more row).
  ValidationCase more;
  more.after = SmallPatterns(4);
  more.key = ValidationKey(more.nl, more.after, more.faults_fp,
                           SimModel::kStuckAt);
  more.expected = fault::RunFaultSim(more.nl, more.after, more.faults)
                      .detected_mask;
  EXPECT_NE(more.key, c.key);
  EXPECT_EQ(more.Run(&store), more.expected);
  EXPECT_EQ(store.stats().misses, 2u);

  // Another fault list (the last fault dropped).
  ValidationCase fewer;
  fewer.faults.pop_back();
  fewer.faults_fp = FingerprintFaults(fewer.faults);
  fewer.first_detect.pop_back();
  fewer.expected = fault::RunFaultSim(fewer.nl, fewer.after, fewer.faults)
                       .detected_mask;
  EXPECT_NE(ValidationKey(fewer.nl, fewer.after, fewer.faults_fp,
                          SimModel::kStuckAt),
            c.key);
  EXPECT_EQ(fewer.Run(&store), fewer.expected);
  EXPECT_EQ(store.stats().misses, 3u);
  EXPECT_EQ(store.stats().hits, 0u);

  // Another model.
  EXPECT_NE(ValidationKey(c.nl, c.after, c.faults_fp, SimModel::kTransition),
            c.key);
}

// --- Compactor / campaign integration --------------------------------------

TEST(CompactorStoreTest, WarmCompactionIsBitIdenticalAndSkipsAllSims) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const isa::Program ptp = stl::GenerateImm(12, 7);

  ResultStore store(ScratchDir("compactor"));
  compact::CompactorOptions options;
  options.result_store = &store;

  compact::Compactor cold(du, trace::TargetModule::kDecoderUnit, options);
  const compact::CompactionResult a = cold.CompactPtp(ptp);
  // The cold run may already self-hit (identical sims inside one
  // CompactPtp share a key); what matters is that it stored entries.
  const StoreStats after_cold = store.stats();
  EXPECT_GT(after_cold.stores, 0u);

  compact::Compactor warm(du, trace::TargetModule::kDecoderUnit, options);
  const compact::CompactionResult b = warm.CompactPtp(ptp);
  const StoreStats after_warm = store.stats();
  // Every fault simulation of the warm compaction must be served from disk.
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GE(after_warm.hits, after_cold.stores);

  EXPECT_EQ(isa::DisassembleProgram(a.compacted),
            isa::DisassembleProgram(b.compacted));
  EXPECT_EQ(a.original.size_instr, b.original.size_instr);
  EXPECT_EQ(a.result.size_instr, b.result.size_instr);
  EXPECT_EQ(a.original.fc_percent, b.original.fc_percent);
  EXPECT_EQ(a.result.fc_percent, b.result.fc_percent);
  EXPECT_EQ(a.diff_fc, b.diff_fc);
  EXPECT_EQ(a.removed_sbs, b.removed_sbs);
  ExpectSameResult(a.fault_report, b.fault_report);
  EXPECT_EQ(warm.detected(), cold.detected());
}

TEST(CheckpointTest, RoundTripsBitExactDoubles) {
  CampaignCheckpoint ckpt;
  CheckpointEntry e;
  e.entry_fp = Hash128{0x0123456789abcdefull, 0xfedcba9876543210ull};
  e.name = "imm";
  e.target = "DU";
  e.compacted = true;
  e.original_size = 110;
  e.original_duration = 2200;
  e.final_size = 40;
  e.final_duration = 900;
  e.compaction_seconds = 0.1 + 0.2;  // not exactly representable
  e.diff_fc = -0.0625;
  ckpt.entries.push_back(e);
  CheckpointEntry carried;
  carried.entry_fp = Hash128{1, 2};
  carried.name = "";  // anonymous PTPs round-trip too
  carried.target = "SFU";
  ckpt.entries.push_back(carried);

  const std::string dir = ScratchDir("ckpt");
  WriteCheckpoint(dir, ckpt);
  const auto back = ReadCheckpoint(dir);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0], ckpt.entries[0]);
  EXPECT_EQ(back->entries[1], ckpt.entries[1]);
}

TEST(CheckpointTest, DamagedFilesAreIgnoredNotFatal) {
  const std::string dir = ScratchDir("ckpt_bad");
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());  // absent

  const auto write = [&](const std::string& content) {
    std::ofstream out(CheckpointPath(dir), std::ios::trunc);
    out << content;
  };
  write("");
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());
  write("$bogus v1 entries 1\n");
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());
  write("$campaign v1 entries 2\n");  // truncated record list
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());
  write("$campaign v1 entries 1\nnot-a-fp DU 1 1 1 1 1 0 0 x\n$end\n");
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());

  // A valid checkpoint with a missing $end is damaged too.
  CampaignCheckpoint ckpt;
  WriteCheckpoint(dir, ckpt);
  std::ifstream in(CheckpointPath(dir));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  write(content.substr(0, content.find("$end")));
  EXPECT_FALSE(ReadCheckpoint(dir).has_value());
}

/// Builds the three-module campaign used by the resume/incremental tests.
compact::StlCampaign MakeCampaign(const netlist::Netlist& du,
                                  const netlist::Netlist& sp,
                                  const netlist::Netlist& sfu,
                                  ResultStore* store) {
  compact::CompactorOptions base;
  base.result_store = store;
  return compact::StlCampaign(du, sp, sfu, base);
}

std::vector<compact::StlEntry> SmallStl() {
  std::vector<compact::StlEntry> stl;
  stl.push_back({stl::GenerateImm(10, 3), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateMem(8, 5), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateCntrl(4, 9), trace::TargetModule::kDecoderUnit,
                 false, false});
  return stl;
}

void ExpectSameSummary(const compact::CampaignSummary& a,
                       const compact::CampaignSummary& b) {
  EXPECT_EQ(a.original_size, b.original_size);
  EXPECT_EQ(a.original_duration, b.original_duration);
  EXPECT_EQ(a.final_size, b.final_size);
  EXPECT_EQ(a.final_duration, b.final_duration);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.simulated_classes, b.simulated_classes);
}

TEST(CampaignResumeTest, InterruptedThenResumedMatchesUninterrupted) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const auto stl = SmallStl();

  // Uninterrupted reference run (no cache: the pristine baseline).
  auto full = MakeCampaign(du, sp, sfu, nullptr);
  for (const auto& entry : stl) full.Process(entry);
  const auto reference = full.Summary();

  // "Interrupted" run: process only the first entry, keep its record and
  // fault-list state — exactly what the checkpoint persists.
  auto first = MakeCampaign(du, sp, sfu, nullptr);
  const compact::CampaignRecord rec0 = first.Process(stl[0]);
  const BitVec du_state =
      first.compactor(trace::TargetModule::kDecoderUnit).detected();

  // Resumed run: restore record + state, process the remainder.
  auto resumed = MakeCampaign(du, sp, sfu, nullptr);
  compact::CampaignRecord restored;
  restored.name = rec0.name;
  restored.target = rec0.target;
  restored.compacted = rec0.compacted;
  restored.original_size = rec0.original_size;
  restored.original_duration = rec0.original_duration;
  restored.final_size = rec0.final_size;
  restored.final_duration = rec0.final_duration;
  restored.result.compaction_seconds = rec0.result.compaction_seconds;
  restored.result.diff_fc = rec0.result.diff_fc;
  resumed.AppendRestoredRecord(restored);
  resumed.compactor(trace::TargetModule::kDecoderUnit).MutableDetected() =
      du_state;
  for (std::size_t i = 1; i < stl.size(); ++i) resumed.Process(stl[i]);

  ExpectSameSummary(reference, resumed.Summary());
  ASSERT_EQ(resumed.records().size(), full.records().size());
  for (std::size_t i = 0; i < stl.size(); ++i) {
    EXPECT_EQ(resumed.records()[i].final_size, full.records()[i].final_size);
    EXPECT_EQ(resumed.records()[i].final_duration,
              full.records()[i].final_duration);
  }
  // The deterministic campaign report is byte-identical.
  EXPECT_EQ(compact::RenderCampaignReport(resumed.records(), resumed.Summary()),
            compact::RenderCampaignReport(full.records(), full.Summary()));
}

TEST(PlanRunnerTest, ResumesAMatchingPrefixAndDiscardsAnEditedOne) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  std::vector<compact::PlanEntry> plan;
  for (compact::StlEntry& e : SmallStl()) {
    plan.push_back(compact::MakePlanEntry(std::move(e.ptp), e.target,
                                          e.compactable, e.reverse_patterns));
  }

  struct Run {
    compact::RestoreResult restore;
    std::vector<std::size_t> reported;  // entry indices, in callback order
    std::string report;
  };
  const auto run = [&](const std::vector<compact::PlanEntry>& p,
                       const std::string& dir) {
    auto campaign = MakeCampaign(du, sp, sfu, nullptr);
    Run r;
    r.restore = compact::RunPlan(
        campaign, p, dir,
        [&](std::size_t i, const compact::CampaignRecord& rec,
            const compact::RestoreResult&) {
          EXPECT_EQ(rec.name, p[i].entry.ptp.name());
          r.reported.push_back(i);
        });
    r.report =
        compact::RenderCampaignReport(campaign.records(), campaign.Summary());
    return r;
  };
  const std::vector<std::size_t> all = {0, 1, 2};

  const Run uninterrupted = run(plan, "");
  EXPECT_EQ(uninterrupted.reported, all);

  // "Interrupted" after two entries: the checkpoint holds exactly those.
  const std::string dir = ScratchDir("plan_runner");
  const Run first_two = run({plan[0], plan[1]}, dir);
  EXPECT_EQ(first_two.restore.restored, 0u);
  EXPECT_FALSE(first_two.restore.mismatch);

  const Run resumed = run(plan, dir);
  EXPECT_EQ(resumed.restore.restored, 2u);
  EXPECT_FALSE(resumed.restore.mismatch);
  EXPECT_EQ(resumed.reported, all);
  EXPECT_EQ(resumed.report, uninterrupted.report);

  // An edited PTP changes its fingerprint: nothing is restored.
  std::vector<compact::PlanEntry> edited = plan;
  edited[1] = compact::MakePlanEntry(stl::GenerateMem(8, 6), plan[1].entry.target,
                                     true, false);
  const Run fresh = run(edited, dir);
  EXPECT_EQ(fresh.restore.restored, 0u);
  EXPECT_TRUE(fresh.restore.mismatch);
  EXPECT_EQ(fresh.reported, all);
}

TEST(CampaignResumeTest, MidModuleKillAndResumeIsBitIdentical) {
  // Satellite of the hardened-runtime PR: a campaign killed MID-MODULE —
  // after a PTP's fault simulation was cached but before its labeling
  // finished — resumes to a report byte-identical to an uninterrupted run,
  // and the mid-module fault sim is served from the store, not recomputed.
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const auto stl = SmallStl();

  // Uninterrupted reference (no cache).
  auto full = MakeCampaign(du, sp, sfu, nullptr);
  for (const auto& entry : stl) full.Process(entry);

  // "Killed" run: entry 0 completes; entry 1 dies at its label stage via
  // chaos — AFTER its stage-3 fault simulation went into the store. The
  // degraded record is discarded (the kill happened before checkpointing),
  // only entry 0's record and fault-list state survive.
  ResultStore store(ScratchDir("mid_module_kill"));
  auto killed = MakeCampaign(du, sp, sfu, &store);
  const compact::CampaignRecord rec0 = killed.Process(stl[0]);
  const BitVec du_state =
      killed.compactor(trace::TargetModule::kDecoderUnit).detected();
  {
    chaos::ScopedChaos scoped("deadline@label#1", 1);
    const compact::CampaignRecord& rec1 = killed.Process(stl[1]);
    ASSERT_TRUE(rec1.degraded);
    EXPECT_EQ(rec1.error_stage, "label");
  }
  const std::uint64_t stores_before_resume = store.stats().stores;
  const std::uint64_t hits_before_resume = store.stats().hits;
  ASSERT_GT(stores_before_resume, 0u);

  // Resumed run: restore entry 0 + fault-list state, reprocess 1 and 2
  // chaos-free against the same store.
  auto resumed = MakeCampaign(du, sp, sfu, &store);
  compact::CampaignRecord restored;
  restored.name = rec0.name;
  restored.target = rec0.target;
  restored.compacted = rec0.compacted;
  restored.original_size = rec0.original_size;
  restored.original_duration = rec0.original_duration;
  restored.final_size = rec0.final_size;
  restored.final_duration = rec0.final_duration;
  restored.result.compaction_seconds = rec0.result.compaction_seconds;
  restored.result.diff_fc = rec0.result.diff_fc;
  resumed.AppendRestoredRecord(restored);
  resumed.compactor(trace::TargetModule::kDecoderUnit).MutableDetected() =
      du_state;
  for (std::size_t i = 1; i < stl.size(); ++i) resumed.Process(stl[i]);

  // Entry 1's fault simulation (computed before the kill) is reused.
  EXPECT_GT(store.stats().hits, hits_before_resume);
  // The degraded attempt left no trace in the outcome: report byte-equal
  // to the uninterrupted run.
  ExpectSameSummary(full.Summary(), resumed.Summary());
  EXPECT_EQ(compact::RenderCampaignReport(resumed.records(), resumed.Summary()),
            compact::RenderCampaignReport(full.records(), full.Summary()));
}

TEST(CampaignCacheTest, WarmRerunSkipsAtLeastNinetyPercent) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const auto stl = SmallStl();

  ResultStore store(ScratchDir("campaign_warm"));
  auto cold = MakeCampaign(du, sp, sfu, &store);
  for (const auto& entry : stl) cold.Process(entry);
  const auto cold_summary = cold.Summary();
  const std::uint64_t cold_misses = store.stats().misses;
  EXPECT_GT(cold_misses, 0u);

  auto warm = MakeCampaign(du, sp, sfu, &store);
  for (const auto& entry : stl) warm.Process(entry);
  const auto warm_summary = warm.Summary();

  const std::uint64_t warm_hits = store.stats().hits;
  const std::uint64_t warm_misses = store.stats().misses - cold_misses;
  // Acceptance: a warm re-run skips >= 90% of the fault simulations.
  EXPECT_GE(warm_hits * 10, (warm_hits + warm_misses) * 9);
  ExpectSameSummary(cold_summary, warm_summary);
  EXPECT_EQ(compact::RenderCampaignReport(warm.records(), warm_summary),
            compact::RenderCampaignReport(cold.records(), cold_summary));
  EXPECT_TRUE(warm_summary.cache_enabled);
  EXPECT_EQ(warm_summary.cache.hits, warm_hits);
}

TEST(CampaignCacheTest, EditingOnePtpOnlyResimulatesAffectedEntries) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  auto stl = SmallStl();

  ResultStore store(ScratchDir("campaign_edit"));
  auto cold = MakeCampaign(du, sp, sfu, &store);
  for (const auto& entry : stl) cold.Process(entry);
  const std::uint64_t cold_misses = store.stats().misses;

  // Edit the SECOND PTP (different seed = different program). Entry 0 is
  // upstream and unchanged: its stage-3 run and its validation entry must
  // both hit. Entry 1 changed: both miss and recompute. Entry 2 is carried
  // and unchanged: its one standalone run hits.
  stl[1].ptp = stl::GenerateMem(8, 6);
  auto edited = MakeCampaign(du, sp, sfu, &store);
  const std::uint64_t expected_hits[] = {2, 0, 1};
  const std::uint64_t expected_misses[] = {0, 2, 0};
  for (std::size_t i = 0; i < stl.size(); ++i) {
    const StoreStats before = store.stats();
    edited.Process(stl[i]);
    EXPECT_EQ(store.stats().hits - before.hits, expected_hits[i]) << i;
    EXPECT_EQ(store.stats().misses - before.misses, expected_misses[i]) << i;
  }
  EXPECT_GT(cold_misses, 0u);
}

// --- Shared-directory concurrency -------------------------------------------
//
// The gpustld service shares one store DIRECTORY across concurrent users:
// several worker threads on one handle, and potentially a second handle in
// another process (a CLI run against the same --cache-dir). Entries
// vanishing mid-scan or mid-read must surface as plain misses/skips.

TEST(ResultStoreSharedDirTest, TwoHandlesInterleavedNeverFatal) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);

  const std::string dir = ScratchDir("two_handles");
  // Tiny budget: every Store triggers an eviction scan, so the scans of
  // one handle race the writes/renames/removals of the other.
  ResultStore a(dir, 1);
  ResultStore b(dir, 1);

  const auto key_for = [&](int i) {
    PatternSet variant = SmallPatterns(8 + i % 4);
    return FaultSimKey(nl, variant, faults, nullptr, i % 2 == 0,
                       SimModel::kStuckAt);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    ResultStore* store = t % 2 == 0 ? &a : &b;
    threads.emplace_back([&, store, t] {
      for (int i = 0; i < 25; ++i) {
        const StoreKey key = key_for((t * 25 + i) % 7);
        store->Store(key, result);
        const auto loaded = store->Load(key);  // may be evicted: miss, not
        if (loaded) ExpectSameResult(result, *loaded);
        // A third party (rm -rf of a cache dir, another handle's eviction)
        // can remove entries at any time.
        if (i % 5 == 0) fs::remove(store->EntryPath(key));
      }
    });
  }
  for (auto& t : threads) t.join();

  // No crash/throw above is the real assertion; the counters must also
  // reconcile (every Load is a hit or a miss, nothing disappears).
  const StoreStats sa = a.stats();
  const StoreStats sb = b.stats();
  EXPECT_EQ(sa.hits + sa.misses, 50u);
  EXPECT_EQ(sb.hits + sb.misses, 50u);
  EXPECT_EQ(sa.stores, 50u);
  EXPECT_EQ(sb.stores, 50u);
}

TEST(ResultStoreSharedDirTest, EvictionLockBusySkipsTheScan) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);
  const std::uint64_t entry_bytes =
      ResultStore::EncodeResult(result).size() + 48;

  // Pose as another process mid-eviction. flock is per open file
  // description, so a second descriptor in this process contends with the
  // store's exactly the way a second process would.
  const std::string dir = ScratchDir("flock_busy");
  const int fd =
      ::open((dir + "/.eviction.lock").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);

  ResultStore store(dir, 2 * entry_bytes);
  std::vector<StoreKey> keys;
  for (int i = 0; i < 4; ++i) {
    BitVec mask(faults.size(), false);
    if (i > 0) mask.Set(static_cast<std::size_t>(i - 1), true);
    keys.push_back(
        FaultSimKey(nl, ps, faults, &mask, true, SimModel::kStuckAt));
    store.Store(keys.back(), result);
  }
  // Over budget, but the lock holder is presumed to be evicting already:
  // this handle skips the scan and nothing disappears.
  EXPECT_EQ(store.stats().evictions, 0u);
  std::size_t on_disk = 0;
  for (const auto& key : keys) on_disk += fs::exists(store.EntryPath(key));
  EXPECT_EQ(on_disk, 4u);

  // Lock released: the next over-budget Store picks the scan back up.
  ASSERT_EQ(::flock(fd, LOCK_UN), 0);
  ::close(fd);
  store.Store(keys[0], result);
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(ResultStoreSharedDirTest, TwoProcessesEvictingConcurrentlyStayConsistent) {
  const Netlist nl = SmallNetlist();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, SmallPatterns(), faults);
  const std::uint64_t entry_bytes =
      ResultStore::EncodeResult(result).size() + 48;
  const std::string dir = ScratchDir("two_process_evict");

  // Ten distinct keys, budget for three entries: every Store triggers an
  // eviction scan, and two PROCESSES run those scans over each other's
  // writes — the flock sidecar is what keeps the scans single-flight.
  const auto key_for = [&](int i) {
    PatternSet variant = SmallPatterns(8 + i % 5);
    return FaultSimKey(nl, variant, faults, nullptr, i % 2 == 0,
                       SimModel::kStuckAt);
  };
  const auto hammer = [&]() {
    ResultStore store(dir, 3 * entry_bytes);
    for (int i = 0; i < 40; ++i) {
      const StoreKey key = key_for(i % 10);
      store.Store(key, result);
      store.Load(key);  // may be evicted: a miss, never an error
    }
    return store.stats();
  };

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // gtest assertions don't cross the fork: any throw, crash or counter
    // mismatch becomes a nonzero exit status for the parent to check.
    int bad = 2;
    try {
      const StoreStats s = hammer();
      bad = (s.stores == 40u && s.hits + s.misses == 40u) ? 0 : 1;
    } catch (...) {
    }
    ::_exit(bad);
  }
  const StoreStats mine = hammer();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) != 0 && WEXITSTATUS(status) == 0)
      << "child status " << status;
  EXPECT_EQ(mine.stores, 40u);
  EXPECT_EQ(mine.hits + mine.misses, 40u);

  // Whatever survived both processes' evictions loads cleanly — a torn
  // entry would surface as bad_entries on a fresh handle.
  ResultStore after(dir);
  std::size_t survivors = 0;
  for (int i = 0; i < 10; ++i) {
    const auto loaded = after.Load(key_for(i));
    if (!loaded) continue;
    ++survivors;
    ExpectSameResult(result, *loaded);
  }
  EXPECT_EQ(after.stats().bad_entries, 0u);
  EXPECT_LT(survivors, 10u) << "the budget evicted something";
}

TEST(ResultStoreSharedDirTest, EntryVanishingMidScanIsSkipped) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = Simulate(nl, ps, faults);

  const std::string dir = ScratchDir("vanish");
  ResultStore store(dir);
  const StoreKey key =
      FaultSimKey(nl, ps, faults, nullptr, true, SimModel::kStuckAt);
  store.Store(key, result);

  // Another handle (or process) removed the entry: Load is a miss.
  fs::remove(store.EntryPath(key));
  EXPECT_FALSE(store.Load(key).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().bad_entries, 0u) << "absence is a miss, not damage";

  // And a foreign non-entry file in the directory must not break the
  // eviction scan of a budgeted store.
  { std::ofstream(fs::path(dir) / "not-an-entry.gsr").put('x'); }
  ResultStore budgeted(dir, 1);
  budgeted.Store(key, result);  // triggers the scan; must not throw
  EXPECT_EQ(budgeted.stats().stores, 1u);
}

}  // namespace
}  // namespace gpustl::store
