// Distributed-campaign subsystem tests: skip-mask replay (the first-detect
// filter) bit-identity against the live engine for both fault models, every
// engine width and thread count, the Compactor's derived stage-3/validation
// results and its fault-simulation cost, the work-unit codec (round trip +
// corruption fallback), the advisory claim protocol (exclusive claim,
// heartbeat, stale steal, done markers), and the coordinator's prefetch
// wave end to end — forked fleet and chaos runs must produce reports
// byte-identical to the single-process campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/error.h"
#include "common/rng.h"
#include "compact/campaign_plan.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/claims.h"
#include "distrib/coordinator.h"
#include "distrib/units.h"
#include "fault/engine.h"
#include "fault/faultsim.h"
#include "fault/replay.h"
#include "fault/transition.h"
#include "gpu/sm.h"
#include "stl/generators.h"
#include "store/result_store.h"
#include "trace/trace.h"

namespace gpustl::distrib {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_distrib" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

netlist::PatternSet TracedPatterns(const isa::Program& ptp,
                                   trace::TargetModule target) {
  trace::PatternProbe probe(target);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  return probe.patterns();
}

void ExpectSameResult(const fault::FaultSimResult& a,
                      const fault::FaultSimResult& b) {
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.detects_per_pattern, b.detects_per_pattern);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
}

WorkUnit SmallUnit(int wave, std::uint64_t seed, bool reverse = false) {
  WorkUnit unit;
  unit.wave = wave;
  unit.target_token = "DU";
  unit.reverse_patterns = reverse;
  unit.ptp = stl::GenerateImm(6, seed);
  return unit;
}

std::vector<compact::StlEntry> SmallStl() {
  std::vector<compact::StlEntry> stl;
  stl.push_back({stl::GenerateImm(10, 3), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateMem(8, 5), trace::TargetModule::kDecoderUnit,
                 true, true});
  stl.push_back({stl::GenerateCntrl(4, 9), trace::TargetModule::kDecoderUnit,
                 false, false});
  return stl;
}

std::vector<compact::PlanEntry> SmallPlan() {
  std::vector<compact::PlanEntry> plan;
  for (const compact::StlEntry& entry : SmallStl()) {
    compact::PlanEntry pe;
    pe.entry = entry;
    pe.target_token = std::string(trace::TargetModuleName(entry.target));
    pe.fp = compact::FingerprintPlanEntry(pe.entry, pe.target_token);
    plan.push_back(std::move(pe));
  }
  return plan;
}

std::string RunCampaign(const std::vector<compact::PlanEntry>& plan,
                        const compact::CompactorOptions& base) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  compact::StlCampaign campaign(du, sp, sfu, base);
  for (const auto& pe : plan) campaign.Process(pe.entry);
  return compact::RenderCampaignReport(campaign.records(),
                                       campaign.Summary());
}

// --- Skip-mask replay -------------------------------------------------------

/// 200 patterns over the module's full input width: 128 random ones, then
/// the first 72 again — so 64-pattern block 2 repeats block 0 — leaving a
/// ragged tail for the 64-, 256- and 512-pattern words alike.
netlist::PatternSet TiledRandomPatterns(Rng& rng, std::size_t width) {
  constexpr std::size_t count = 200;
  netlist::PatternSet pats(static_cast<int>(width));
  const std::size_t words = (width + 63) / 64;
  std::vector<std::uint64_t> rows(count * words);
  for (std::size_t p = 0; p < count; ++p) {
    std::uint64_t* row = rows.data() + p * words;
    if (p >= 128) {
      std::copy_n(rows.data() + (p - 128) * words, words, row);
    } else {
      for (std::size_t w = 0; w < words; ++w) row[w] = rng();
      if (width % 64 != 0) row[words - 1] &= (1ull << (width % 64)) - 1;
    }
    pats.Add(p, row);
  }
  return pats;
}

/// The skip masks a campaign produces (none; part of this run's own
/// detections, as after earlier PTPs) plus random ones at two densities.
std::vector<BitVec> SkipMasks(Rng& rng, const fault::FaultSimResult& full) {
  const std::size_t n = full.first_detect.size();
  std::vector<BitVec> masks;
  masks.emplace_back(n, false);
  BitVec some_detected(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    some_detected.Set(i, full.detected_mask.Get(i) && rng.chance(0.5));
  }
  masks.push_back(some_detected);
  for (const double density : {0.3, 0.8}) {
    BitVec skip(n, false);
    for (std::size_t i = 0; i < n; ++i) skip.Set(i, rng.chance(density));
    masks.push_back(skip);
  }
  return masks;
}

fault::FaultSimResult Simulate(compact::FaultModel model,
                               const netlist::Netlist& nl,
                               const netlist::PatternSet& patterns,
                               const std::vector<fault::Fault>& faults,
                               const BitVec* skip,
                               const fault::FaultSimOptions& options) {
  return model == compact::FaultModel::kTransition
             ? fault::RunTransitionFaultSim(nl, patterns, faults, skip,
                                            options)
             : fault::RunFaultSim(nl, patterns, faults, skip, options);
}

/// Simulate at a given engine lane count.
fault::FaultSimResult SimulateAtLanes(compact::FaultModel model, int lanes,
                                      const netlist::Netlist& nl,
                                      const netlist::PatternSet& patterns,
                                      const std::vector<fault::Fault>& faults,
                                      const BitVec* skip,
                                      const fault::FaultSimOptions& options) {
  return model == compact::FaultModel::kTransition
             ? fault::internal::RunTransitionFaultSimAtLanes(
                   lanes, nl, patterns, faults, skip, options)
             : fault::internal::RunFaultSimAtLanes(lanes, nl, patterns, faults,
                                                   skip, options);
}

constexpr compact::FaultModel kModels[] = {compact::FaultModel::kStuckAt,
                                           compact::FaultModel::kTransition};

const char* ModelName(compact::FaultModel model) {
  return model == compact::FaultModel::kTransition ? "transition" : "stuck-at";
}

TEST(ReplayTest, FilterIsBitIdenticalToLiveEngine) {
  struct Module {
    const char* name;
    netlist::Netlist nl;
  };
  Module modules[] = {{"DU", circuits::BuildDecoderUnit()},
                      {"SP", circuits::BuildSpCore()},
                      {"SFU", circuits::BuildSfu()}};
  Rng rng(0x5EEDF117);
  for (Module& m : modules) {
    const auto faults = fault::CollapsedFaultList(m.nl);
    const netlist::PatternSet patterns =
        TiledRandomPatterns(rng, m.nl.num_inputs());
    for (const compact::FaultModel model : kModels) {
      for (const int lanes : fault::internal::SupportedLanes()) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(std::string(m.name) + " " + ModelName(model) + " " +
                       std::to_string(lanes) + " lanes x" +
                       std::to_string(threads));
          fault::FaultSimOptions options;
          options.num_threads = threads;
          const fault::FaultSimResult full = SimulateAtLanes(
              model, lanes, m.nl, patterns, faults, nullptr, options);
          ASSERT_GT(full.num_detected, 0u);
          for (const BitVec& skip : SkipMasks(rng, full)) {
            const std::uint64_t replays_before =
                fault::GlobalReplayCounters().replays.load();
            ExpectSameResult(SimulateAtLanes(model, lanes, m.nl, patterns,
                                             faults, &skip, options),
                             fault::ReplaySkipFromFull(full, skip));
            EXPECT_EQ(fault::GlobalReplayCounters().replays.load(),
                      replays_before + 1);
          }
        }
      }
    }
  }
}

TEST(ReplayTest, MisuseThrowsNeverGuesses) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::PatternSet patterns =
      TracedPatterns(stl::GenerateImm(6, 11), trace::TargetModule::kDecoderUnit);
  const auto faults = fault::CollapsedFaultList(du);
  const fault::FaultSimResult full =
      fault::RunFaultSim(du, patterns, faults, /*skip=*/nullptr, {});

  const BitVec wrong_size(faults.size() + 1, false);
  EXPECT_THROW(fault::ReplaySkipFromFull(full, wrong_size), Error);

  // A no-drop run counts repeated detections: no first-detect filter can
  // reproduce its skip-masked counterpart.
  fault::FaultSimOptions no_drop;
  no_drop.drop_detected = false;
  const fault::FaultSimResult counted =
      fault::RunFaultSim(du, patterns, faults, /*skip=*/nullptr, no_drop);
  const BitVec none(faults.size(), false);
  EXPECT_THROW(fault::ReplaySkipFromFull(counted, none), Error);
}

// --- The Compactor's derived results and cost --------------------------------

TEST(CompactorReplayTest, DerivedStage3AndValidationMatchLiveEngine) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const std::vector<isa::Program> ptps = {stl::GenerateImm(10, 3),
                                          stl::GenerateMem(8, 5),
                                          stl::GenerateImm(6, 11)};
  for (const compact::FaultModel model : kModels) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(ModelName(model)) + " x" +
                   std::to_string(threads));
      compact::CompactorOptions opt;
      opt.fault_model = model;
      opt.num_threads = threads;
      compact::Compactor compactor(du, trace::TargetModule::kDecoderUnit, opt);
      fault::FaultSimOptions live;
      live.num_threads = threads;
      for (const isa::Program& ptp : ptps) {
        const BitVec before = compactor.detected();
        const compact::CompactionResult res = compactor.CompactPtp(ptp);
        ExpectSameResult(
            Simulate(model, du,
                     TracedPatterns(ptp, trace::TargetModule::kDecoderUnit),
                     compactor.faults(), &before, live),
            res.fault_report);
        EXPECT_EQ(res.validation_detections,
                  Simulate(model, du,
                           TracedPatterns(res.compacted,
                                          trace::TargetModule::kDecoderUnit),
                           compactor.faults(), &before, live)
                      .num_detected);
      }
    }
  }
}

/// Entries in `dir` whose payload is a validation entry's detected mask.
std::size_t ValidationEntries(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() != ".gsr") continue;
    std::ifstream in(file.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Hash128 key;
    BitVec detected;
    if (Hash128::FromHex(file.path().stem().string(), &key) &&
        store::ResultStore::CheckEntry(bytes, key, &detected).valid()) {
      ++count;
    }
  }
  return count;
}

TEST(CompactorReplayTest, OneFullListSimulationPerPatternSet) {
  // Against an empty store the lookups count the fault simulations. A
  // stuck-at compacted PTP does one full-list lookup (its original
  // patterns) and one validation lookup (its compacted patterns' detected
  // set, a different key), a carried one a full-list lookup: all misses.
  // A transition compacted PTP does two full-list lookups, and one that
  // lost no instruction finds its compacted patterns already stored. The
  // report matches the store-less campaign.
  const auto plan = SmallPlan();
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  for (const compact::FaultModel model : kModels) {
    SCOPED_TRACE(ModelName(model));
    compact::CompactorOptions opt;
    opt.fault_model = model;
    const std::string reference = RunCampaign(plan, opt);

    const bool stuck_at = model == compact::FaultModel::kStuckAt;
    const std::string dir = ScratchDir("one_sim_per_pattern_set");
    store::ResultStore store(dir);
    opt.result_store = &store;
    compact::StlCampaign campaign(du, sp, sfu, opt);
    std::size_t shrunk = 0;
    std::size_t compacted = 0;
    for (const auto& pe : plan) {
      const store::StoreStats before = store.stats();
      const compact::CampaignRecord& rec = campaign.Process(pe.entry);
      const std::uint64_t misses = store.stats().misses - before.misses;
      const std::uint64_t hits = store.stats().hits - before.hits;
      const bool lost_code = rec.final_size < rec.original_size;
      shrunk += lost_code ? 1 : 0;
      compacted += pe.entry.compactable ? 1 : 0;
      EXPECT_EQ(misses + hits, pe.entry.compactable ? 2u : 1u)
          << pe.entry.ptp.name();
      EXPECT_EQ(hits,
                pe.entry.compactable && !lost_code && !stuck_at ? 1u : 0u)
          << pe.entry.ptp.name();
    }
    EXPECT_GE(shrunk, 1u);
    EXPECT_EQ(ValidationEntries(dir), stuck_at ? compacted : 0u);
    EXPECT_EQ(compact::RenderCampaignReport(campaign.records(),
                                            campaign.Summary()),
              reference);
  }
}

// --- Work-unit codec --------------------------------------------------------

TEST(UnitCodecTest, RoundTripsContentNamedAndIdempotent) {
  const std::string dir = ScratchDir("unit_roundtrip");
  InitDistribDir(dir);

  const WorkUnit unit = SmallUnit(1, 0x5EED);
  const std::string name = WriteUnitFile(dir, unit);
  EXPECT_EQ(name, UnitName(unit));
  EXPECT_EQ(name.rfind("w1-", 0), 0u);

  const auto back = ReadUnitFile(UnitsDir(dir) + "/" + name + ".unit");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wave, unit.wave);
  EXPECT_EQ(back->target_token, unit.target_token);
  EXPECT_EQ(back->reverse_patterns, unit.reverse_patterns);
  EXPECT_EQ(UnitName(*back), name) << "PTP bytes survived the round trip";

  // Rewriting the same unit is a no-op (content-addressed), and every
  // distinct field lands in the name: two entries needing the same
  // simulation collapse, different ones never collide.
  EXPECT_EQ(WriteUnitFile(dir, unit), name);
  EXPECT_EQ(ListUnits(dir).size(), 1u);
  EXPECT_NE(UnitName(SmallUnit(2, 0x5EED)), name);
  EXPECT_NE(UnitName(SmallUnit(1, 0x5EED, /*reverse=*/true)), name);
  EXPECT_NE(UnitName(SmallUnit(1, 0x5EEE)), name);
  EXPECT_EQ(ListUnits(dir), std::vector<std::string>{name});
}

TEST(UnitCodecTest, CorruptUnitFilesAreSkippedNeverFatal) {
  const std::string dir = ScratchDir("unit_corrupt");
  InitDistribDir(dir);
  const std::string name = WriteUnitFile(dir, SmallUnit(1, 0xBAD));
  const std::string path = UnitsDir(dir) + "/" + name + ".unit";

  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  is.close();

  const auto rewrite = [&path](const std::string& content) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
  };

  rewrite(bytes.substr(0, bytes.size() / 2));  // truncated
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // checksum mismatch
  rewrite(flipped);
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  rewrite("not a unit at all");  // bad magic
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  EXPECT_FALSE(ReadUnitFile(UnitsDir(dir) + "/absent.unit").has_value());

  // Intact bytes still parse after all that probing.
  rewrite(bytes);
  EXPECT_TRUE(ReadUnitFile(path).has_value());
}

TEST(UnitCodecTest, MetaAndCampaignDoneRoundTrip) {
  const std::string dir = ScratchDir("unit_meta");
  InitDistribDir(dir);

  WriteMeta(dir, {{"cache_dir", "/tmp/cache"}, {"stale_seconds", "7.5"}});
  EXPECT_EQ(ReadMetaValue(dir, "cache_dir"), "/tmp/cache");
  EXPECT_EQ(ReadMetaValue(dir, "stale_seconds"), "7.5");
  EXPECT_FALSE(ReadMetaValue(dir, "absent").has_value());

  EXPECT_FALSE(CampaignDone(dir));
  MarkCampaignDone(dir);
  EXPECT_TRUE(CampaignDone(dir));
  MarkCampaignDone(dir);  // idempotent
  ClearCampaignDone(dir);
  EXPECT_FALSE(CampaignDone(dir));
}

// --- Claim protocol ---------------------------------------------------------

TEST(ClaimBoardTest, ExactlyOneOwnerStaleStealAndDoneMarkers) {
  const std::string dir = ScratchDir("claims");
  InitDistribDir(dir);
  ClaimBoard alpha(dir, "alpha", 30.0);
  ClaimBoard beta(dir, "beta", 30.0);

  // Exactly one creator wins; a fresh claim is visibly live to everyone.
  const ClaimResult first = alpha.TryClaim("u1");
  EXPECT_TRUE(first.claimed);
  EXPECT_FALSE(first.stole);
  EXPECT_FALSE(beta.TryClaim("u1").claimed);
  EXPECT_TRUE(beta.HasLiveClaim("u1"));

  // A heartbeat refreshes a claim that was about to look dead.
  alpha.Backdate("u1", 300.0);
  EXPECT_FALSE(beta.HasLiveClaim("u1"));
  alpha.Heartbeat("u1");
  EXPECT_TRUE(beta.HasLiveClaim("u1"));
  EXPECT_FALSE(beta.TryClaim("u1").claimed);

  // A claim gone stale for real (owner SIGKILLed) is stolen, exactly once.
  alpha.Backdate("u1", 300.0);
  const ClaimResult stolen = beta.TryClaim("u1");
  EXPECT_TRUE(stolen.claimed);
  EXPECT_TRUE(stolen.stole);
  EXPECT_FALSE(alpha.TryClaim("u1").claimed) << "beta owns it now";

  // Done markers are the only completion signal, visible to all boards.
  EXPECT_FALSE(alpha.IsDone("u1"));
  beta.MarkDone("u1");
  beta.MarkDone("u1");  // idempotent
  EXPECT_TRUE(alpha.IsDone("u1"));
  beta.Release("u1");
  EXPECT_FALSE(alpha.HasLiveClaim("u1"));

  // Release without done: the unit goes back to the pool, a plain claim
  // (not a steal) picks it up.
  EXPECT_TRUE(alpha.TryClaim("u2").claimed);
  alpha.Release("u2");
  const ClaimResult reclaimed = beta.TryClaim("u2");
  EXPECT_TRUE(reclaimed.claimed);
  EXPECT_FALSE(reclaimed.stole);
}

// --- Coordinator end to end -------------------------------------------------

TEST(CoordinatorTest, ForkedFleetReportIsByteIdentical) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_forked");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 2;
  copt.stale_seconds = 2.0;

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  PrefetchStats stats;
  {
    Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
    stats = coordinator.Prefetch(plan);
  }
  EXPECT_EQ(stats.wave1_units, plan.size());
  EXPECT_EQ(stats.plan_seconds, 0.0);
  EXPECT_EQ(stats.wave2_seconds, 0.0);
  // >= : a steal race can compute a unit twice (wasted, never wrong).
  EXPECT_GE(stats.worker_units + stats.inline_units, stats.wave1_units);

  // Every full-list lookup of the final campaign (one per entry) hits;
  // the validation lookups (one per compacted entry) miss in this fresh
  // store and run live. The report is byte-identical to the
  // single-process run.
  std::size_t compactable = 0;
  for (const auto& pe : plan) compactable += pe.entry.compactable ? 1 : 0;
  const store::StoreStats before = store.stats();
  EXPECT_EQ(RunCampaign(plan, opt), reference);
  EXPECT_EQ(store.stats().hits - before.hits, plan.size())
      << "a prefetched campaign never simulates a full fault list live";
  EXPECT_EQ(store.stats().misses - before.misses, compactable);
}

TEST(CoordinatorTest, StaleClaimChaosIsStolenAndStaysByteIdentical) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_chaos");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 1;
  copt.stale_seconds = 1.0;  // abandoned claims expire fast

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  PrefetchStats stats;
  {
    // The forked worker abandons its first claim with a backdated mtime
    // (the chaos arming crosses the fork); somebody must steal the unit.
    chaos::ScopedChaos scoped("stale-claim#1", 1);
    Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
    stats = coordinator.Prefetch(plan);
  }
  EXPECT_GE(stats.steals, 1u);
  EXPECT_EQ(RunCampaign(plan, opt), reference);
}

TEST(CoordinatorTest, NoWorkersAtAllStillCompletesInline) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_inline");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 0;        // nobody is coming
  copt.grace_seconds = 0.1;     // give up on the fleet immediately

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
  const PrefetchStats stats = coordinator.Prefetch(plan);
  EXPECT_EQ(stats.worker_units, 0u);
  EXPECT_EQ(stats.inline_units, stats.wave1_units);
  EXPECT_EQ(RunCampaign(plan, opt), reference);
}

}  // namespace
}  // namespace gpustl::distrib
