// Trim conformance: the redundancy-trimming layer (fault/trim.h) must be
// invisible in the results. Every mechanism — pattern-block dedup,
// per-fault early-exit, cross-run warm-start — and every combination of
// them must produce a FaultSimResult bit-identical to the untrimmed
// engine, on randomized netlists and the bundled DU/SP/SFU modules, for
// stuck-at and transition models, every registered backend, thread counts
// 1/2/5, drop on/off and skip masks. Pattern sets are tiled (the same
// 64-pattern block repeated) so the dedup replay path actually fires, and
// the TrimCounters are asserted non-zero to prove the trimmed code paths
// ran rather than silently falling through to the full computation.
//
// This suite carries the ctest label `tsan` (replay caches and the warm
// cache are shared across the worker pool).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "fault/backend.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/transition.h"
#include "fault/trim.h"
#include "netlist/cell.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault {
namespace {

using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// This suite drives the trim toggles explicitly, so the $GPUSTL_NO_TRIM
/// override (which the no-trim CI leg exports to force the untrimmed
/// engine through every OTHER suite) must not neuter the assertions here
/// — the counter tests would see the trimmed paths never fire.
class UnpinNoTrimEnv : public ::testing::Environment {
 public:
  void SetUp() override { ::unsetenv("GPUSTL_NO_TRIM"); }
};
const ::testing::Environment* const kUnpinNoTrim =
    ::testing::AddGlobalTestEnvironment(new UnpinNoTrimEnv);

TEST(TrimEnv, NoTrimOverrideForcesEverythingOff) {
  ::setenv("GPUSTL_NO_TRIM", "1", 1);
  EXPECT_FALSE(EffectiveTrim(TrimOptions{}).any());
  ::setenv("GPUSTL_NO_TRIM", "0", 1);
  EXPECT_TRUE(EffectiveTrim(TrimOptions{}).any());
  ::unsetenv("GPUSTL_NO_TRIM");
  EXPECT_TRUE(EffectiveTrim(TrimOptions{}).any());
  EXPECT_FALSE(EffectiveTrim(NoTrim()).any());
}

Netlist RandomNetlist(Rng& rng, int num_inputs, int num_gates) {
  static constexpr CellType kTypes[] = {
      CellType::kBuf,   CellType::kInv,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kAnd4,  CellType::kOr2,   CellType::kOr3,   CellType::kOr4,
      CellType::kNand2, CellType::kNand3, CellType::kNand4, CellType::kNor2,
      CellType::kNor3,  CellType::kNor4,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2,  CellType::kAoi21, CellType::kAoi22, CellType::kOai21,
      CellType::kOai22, CellType::kConst0, CellType::kConst1};

  Netlist nl("rand");
  std::vector<NetId> nets;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(nl.AddInput("i" + std::to_string(i)));
  }
  for (int g = 0; g < num_gates; ++g) {
    const CellType type = kTypes[rng.below(std::size(kTypes))];
    std::vector<NetId> fanin(netlist::CellFaninCount(type));
    for (NetId& f : fanin) f = nets[rng.below(nets.size())];
    nets.push_back(nl.AddGate(type, fanin));
  }
  int out = 0;
  nl.MarkOutput(nets[nets.size() - 1], "o" + std::to_string(out++));
  nl.MarkOutput(nets[nets.size() - 2], "o" + std::to_string(out++));
  for (int k = 0; k < 3; ++k) {
    nl.MarkOutput(nets[num_inputs + rng.below(num_gates)],
                  "o" + std::to_string(out++));
  }
  nl.Freeze();
  return nl;
}

/// `reps` copies of the same random 64-pattern block (distinct cc stamps —
/// the dedup fingerprint covers input values only), plus a ragged random
/// tail. Repetition guarantees the replay path has work; the tail keeps
/// the final block from fingerprint-matching anything.
PatternSet TiledPatterns(Rng& rng, int width, int reps, int tail) {
  PatternSet pats(width);
  const std::uint64_t mask = width >= 64 ? ~0ull : ((1ull << width) - 1);
  std::vector<std::uint64_t> block(64);
  for (std::uint64_t& w : block) w = rng() & mask;
  std::uint64_t cc = 0;
  for (int r = 0; r < reps; ++r) {
    for (const std::uint64_t w : block) pats.Add64(cc++, w);
  }
  for (int t = 0; t < tail; ++t) pats.Add64(cc++, rng() & mask);
  return pats;
}

/// Tiled patterns for module widths beyond 64 bits.
PatternSet TiledWidePatterns(Rng& rng, int width, int reps, int tail) {
  PatternSet pats(width);
  const int words_per = (width + 63) / 64;
  std::vector<std::uint64_t> block(64 * words_per);
  for (std::uint64_t& w : block) w = rng();
  std::uint64_t cc = 0;
  for (int r = 0; r < reps; ++r) {
    for (int p = 0; p < 64; ++p) {
      pats.Add(cc++, block.data() + p * words_per);
    }
  }
  std::vector<std::uint64_t> row(words_per);
  for (int t = 0; t < tail; ++t) {
    for (std::uint64_t& w : row) w = rng();
    pats.Add(cc++, row.data());
  }
  return pats;
}

BitVec RandomSkip(Rng& rng, std::size_t n, double p) {
  BitVec skip(n, false);
  for (std::size_t i = 0; i < n; ++i) skip.Set(i, rng.chance(p));
  return skip;
}

void ExpectIdentical(const FaultSimResult& want, const FaultSimResult& got,
                     const std::string& what) {
  EXPECT_EQ(want.first_detect, got.first_detect) << what;
  EXPECT_EQ(want.detects_per_pattern, got.detects_per_pattern) << what;
  EXPECT_EQ(want.num_detected, got.num_detected) << what;
  EXPECT_TRUE(want.detected_mask == got.detected_mask) << what;
}

/// The trim configurations worth distinguishing: each mechanism alone,
/// and all of them together (warm-start alone is covered separately — it
/// is inert without a WarmStartCache).
std::vector<TrimOptions> TrimConfigs() {
  return {
      TrimOptions{true, false, false},   // dedup only
      TrimOptions{false, true, false},   // early-exit only
      TrimOptions{},                     // everything (the default)
  };
}

std::string Describe(const TrimOptions& trim, Backend b, int threads,
                     bool drop) {
  return "trim=" + TrimModeName(trim) + " backend=" +
         std::string(BackendName(b)) + " threads=" + std::to_string(threads) +
         " drop=" + std::to_string(drop);
}

// --- Toggle plumbing ---

TEST(TrimOptionsTest, ModeNamesAndAny) {
  EXPECT_EQ(TrimModeName(TrimOptions{}), "dedup+early-exit+warm-start");
  EXPECT_EQ(TrimModeName(NoTrim()), "off");
  EXPECT_EQ(TrimModeName(TrimOptions{true, false, false}), "dedup");
  EXPECT_EQ(TrimModeName(TrimOptions{false, true, false}), "early-exit");
  EXPECT_EQ(TrimModeName(TrimOptions{false, false, true}), "warm-start");
  EXPECT_TRUE(TrimOptions{}.any());
  EXPECT_FALSE(NoTrim().any());
}

// --- Stuck-at bit identity ---

TEST(TrimConformance, StuckAtBitIdentityRandomNetlists) {
  Rng rng(0x721101);
  for (int c = 0; c < 3; ++c) {
    const int inputs = 4 + static_cast<int>(rng.below(10));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(120)));
    const auto faults = EnumerateFaults(nl);
    // 3 identical blocks + ragged tail: dedup replays, the tail exercises
    // the partial-block seam, early-exit sees multiple blocks.
    const PatternSet pats = TiledPatterns(rng, inputs, 3, 37);
    for (const bool drop : {true, false}) {
      FaultSimOptions oracle_opt;
      oracle_opt.drop_detected = drop;
      oracle_opt.num_threads = 1;
      oracle_opt.backend = Backend::kScalar;
      oracle_opt.trim = NoTrim();
      const auto oracle = RunFaultSim(nl, pats, faults, nullptr, oracle_opt);
      for (const TrimOptions& trim : TrimConfigs()) {
        for (const Backend b : RegisteredBackends()) {
          for (const int threads : {1, 2, 5}) {
            FaultSimOptions opt;
            opt.drop_detected = drop;
            opt.num_threads = threads;
            opt.backend = b;
            opt.trim = trim;
            const auto got = RunFaultSim(nl, pats, faults, nullptr, opt);
            ExpectIdentical(oracle, got, Describe(trim, b, threads, drop));
          }
        }
      }
    }
  }
}

TEST(TrimConformance, StuckAtSkipMasksAndEngineToggles) {
  // Trim must compose with the other exact engine toggles: pre-skipped
  // faults, collapse off, cone off, FFR clustering off.
  Rng rng(0x721102);
  const int inputs = 8;
  const Netlist nl = RandomNetlist(rng, inputs, 90);
  const auto faults = EnumerateFaults(nl);
  const PatternSet pats = TiledPatterns(rng, inputs, 2, 65);
  const BitVec skip = RandomSkip(rng, faults.size(), 0.3);
  for (const bool collapse : {true, false}) {
    for (const bool ffr : {true, false}) {
      FaultSimOptions oracle_opt;
      oracle_opt.num_threads = 1;
      oracle_opt.collapse = collapse;
      oracle_opt.cone_limit = ffr;  // vary both toggles across the matrix
      oracle_opt.ffr_trace = ffr;
      oracle_opt.backend = Backend::kScalar;
      oracle_opt.trim = NoTrim();
      const auto oracle = RunFaultSim(nl, pats, faults, &skip, oracle_opt);
      for (const Backend b : RegisteredBackends()) {
        for (const int threads : {1, 5}) {
          FaultSimOptions opt = oracle_opt;
          opt.num_threads = threads;
          opt.backend = b;
          opt.trim = TrimOptions{};
          const auto got = RunFaultSim(nl, pats, faults, &skip, opt);
          ExpectIdentical(oracle, got,
                          Describe(opt.trim, b, threads, true) +
                              " collapse=" + std::to_string(collapse) +
                              " ffr=" + std::to_string(ffr));
        }
      }
    }
  }
}

TEST(TrimConformance, BundledModulesBitIdentical) {
  // The acceptance bar on the real targets: DU/SP/SFU with repeated
  // pattern blocks, every backend, serial and sharded, trim on vs off.
  Rng rng(0x721103);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    const PatternSet pats =
        TiledWidePatterns(rng, static_cast<int>(nl.num_inputs()), 3, 44);
    FaultSimOptions oracle_opt;
    oracle_opt.num_threads = 1;
    oracle_opt.backend = Backend::kScalar;
    oracle_opt.trim = NoTrim();
    const auto oracle = RunFaultSim(nl, pats, faults, nullptr, oracle_opt);
    for (const Backend b : RegisteredBackends()) {
      for (const int threads : {1, 5}) {
        FaultSimOptions opt;
        opt.num_threads = threads;
        opt.backend = b;
        const auto got = RunFaultSim(nl, pats, faults, nullptr, opt);
        ExpectIdentical(oracle, got,
                        nl.name() + " " + Describe(opt.trim, b, threads, true));
      }
    }
  }
}

// --- Transition bit identity ---

TEST(TrimConformance, TransitionBitIdentity) {
  // The transition engine threads a launch carry across blocks; a replayed
  // block is only valid when the stored carry matches, and early-exit must
  // still advance the carry for exited faults. Tiled patterns make both
  // paths fire.
  Rng rng(0x721104);
  for (int c = 0; c < 2; ++c) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 40 + static_cast<int>(rng.below(100)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats = TiledPatterns(rng, inputs, 3, 29);
    for (const bool drop : {true, false}) {
      FaultSimOptions oracle_opt;
      oracle_opt.drop_detected = drop;
      oracle_opt.num_threads = 1;
      oracle_opt.backend = Backend::kScalar;
      oracle_opt.trim = NoTrim();
      const auto oracle =
          RunTransitionFaultSim(nl, pats, faults, nullptr, oracle_opt);
      for (const TrimOptions& trim : TrimConfigs()) {
        for (const Backend b : RegisteredBackends()) {
          for (const int threads : {1, 2}) {
            FaultSimOptions opt;
            opt.drop_detected = drop;
            opt.num_threads = threads;
            opt.backend = b;
            opt.trim = trim;
            const auto got =
                RunTransitionFaultSim(nl, pats, faults, nullptr, opt);
            ExpectIdentical(oracle, got,
                            "transition " + Describe(trim, b, threads, drop));
          }
        }
      }
    }
  }
}

TEST(TrimConformance, TransitionBundledModules) {
  Rng rng(0x721105);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats =
        TiledWidePatterns(rng, static_cast<int>(nl.num_inputs()), 2, 40);
    FaultSimOptions oracle_opt;
    oracle_opt.num_threads = 1;
    oracle_opt.backend = Backend::kScalar;
    oracle_opt.trim = NoTrim();
    const auto oracle =
        RunTransitionFaultSim(nl, pats, faults, nullptr, oracle_opt);
    for (const Backend b : RegisteredBackends()) {
      FaultSimOptions opt;
      opt.num_threads = 2;
      opt.backend = b;
      const auto got = RunTransitionFaultSim(nl, pats, faults, nullptr, opt);
      ExpectIdentical(oracle, got,
                      nl.name() + " transition " + std::string(BackendName(b)));
    }
  }
}

// --- Counters: the trimmed paths actually fire ---

TEST(TrimCounters_, RepeatedBlocksHitTheReplayCache) {
  Rng rng(0x721106);
  const int inputs = 7;
  const Netlist nl = RandomNetlist(rng, inputs, 80);
  const auto faults = EnumerateFaults(nl);
  // 24 identical 64-pattern blocks and nothing else: enough that every
  // backend sees repeats at its own block granularity (the widest lane
  // count is 8 scalar sub-blocks per wide block), so each one must replay
  // its first block's cached words.
  const PatternSet pats = TiledPatterns(rng, inputs, 24, 0);

  FaultSimOptions oracle_opt;
  oracle_opt.drop_detected = false;  // keep every block's work alive
  oracle_opt.num_threads = 1;
  oracle_opt.backend = Backend::kScalar;
  oracle_opt.trim = NoTrim();
  const auto oracle = RunFaultSim(nl, pats, faults, nullptr, oracle_opt);

  for (const Backend b : RegisteredBackends()) {
    TrimCounters counters;
    FaultSimOptions opt;
    opt.drop_detected = false;
    opt.num_threads = 1;
    opt.backend = b;
    opt.trim = TrimOptions{true, false, false};
    opt.trim_counters = &counters;
    const auto got = RunFaultSim(nl, pats, faults, nullptr, opt);
    ExpectIdentical(oracle, got,
                    "replay " + std::string(BackendName(b)));
    EXPECT_GT(counters.blocks_replayed.load(), 0u)
        << BackendName(b) << ": dedup never replayed a repeated block";
  }
}

TEST(TrimCounters_, DeadTailBlocksEarlyExitFaults) {
  Rng rng(0x721107);
  const int inputs = 7;
  const Netlist nl = RandomNetlist(rng, inputs, 80);
  const auto faults = EnumerateFaults(nl);
  // One random block followed by three all-zero blocks: any fault whose
  // site holds constant 0 under the all-zero input cannot activate as
  // sa1 there, so its last activating block is 0 and the prepass must
  // retire it before the tail.
  PatternSet pats(inputs);
  std::uint64_t cc = 0;
  const std::uint64_t mask = (1ull << inputs) - 1;
  for (int p = 0; p < 64; ++p) pats.Add64(cc++, rng() & mask);
  for (int p = 0; p < 192; ++p) pats.Add64(cc++, 0);

  FaultSimOptions oracle_opt;
  oracle_opt.num_threads = 1;
  oracle_opt.backend = Backend::kScalar;
  oracle_opt.trim = NoTrim();
  const auto oracle = RunFaultSim(nl, pats, faults, nullptr, oracle_opt);

  for (const Backend b : RegisteredBackends()) {
    TrimCounters counters;
    FaultSimOptions opt;
    opt.num_threads = 1;
    opt.backend = b;
    opt.trim = TrimOptions{false, true, false};
    opt.trim_counters = &counters;
    const auto got = RunFaultSim(nl, pats, faults, nullptr, opt);
    ExpectIdentical(oracle, got,
                    "early-exit " + std::string(BackendName(b)));
    EXPECT_GT(counters.faults_early_exited.load(), 0u)
        << BackendName(b) << ": early-exit never retired a fault";
  }
}

// --- Warm start across runs ---

TEST(WarmStart, SecondRunReusesGoodBlocksAndStemObs) {
  Rng rng(0x721108);
  const int inputs = 8;
  const Netlist nl = RandomNetlist(rng, inputs, 100);
  const auto faults = EnumerateFaults(nl);
  const PatternSet pats = TiledPatterns(rng, inputs, 2, 50);

  FaultSimOptions oracle_opt;
  oracle_opt.num_threads = 1;
  oracle_opt.backend = Backend::kScalar;
  oracle_opt.trim = NoTrim();
  const auto oracle = RunFaultSim(nl, pats, faults, nullptr, oracle_opt);

  for (const Backend b : RegisteredBackends()) {
    WarmStartCache cache;
    TrimCounters counters;
    FaultSimOptions opt;
    opt.num_threads = 2;
    opt.backend = b;
    opt.warm_cache = &cache;
    opt.trim_counters = &counters;
    const auto cold = RunFaultSim(nl, pats, faults, nullptr, opt);
    const std::uint64_t hits_after_cold = counters.warm_good_hits.load();
    const auto warm = RunFaultSim(nl, pats, faults, nullptr, opt);
    ExpectIdentical(oracle, cold, "cold " + std::string(BackendName(b)));
    ExpectIdentical(oracle, warm, "warm " + std::string(BackendName(b)));
    EXPECT_GT(counters.warm_good_hits.load(), hits_after_cold)
        << BackendName(b) << ": second run never hit the warm cache";
  }

  // Different patterns must miss (different fingerprint), still exact.
  {
    WarmStartCache cache;
    const PatternSet other = TiledPatterns(rng, inputs, 2, 50);
    FaultSimOptions opt;
    opt.num_threads = 1;
    opt.warm_cache = &cache;
    const auto a = RunFaultSim(nl, pats, faults, nullptr, opt);
    const auto c = RunFaultSim(nl, other, faults, nullptr, opt);
    ExpectIdentical(oracle, a, "warm-mixed same-patterns");
    FaultSimOptions plain;
    plain.num_threads = 1;
    plain.trim = NoTrim();
    ExpectIdentical(RunFaultSim(nl, other, faults, nullptr, plain), c,
                    "warm-mixed other-patterns");
  }
}

TEST(WarmStart, TransitionSharesTheCacheWithStuckAt) {
  // The warm entry is keyed by (netlist, patterns) only — a transition run
  // over the same inputs reuses the stuck-at run's good blocks.
  Rng rng(0x721109);
  const int inputs = 6;
  const Netlist nl = RandomNetlist(rng, inputs, 70);
  const PatternSet pats = TiledPatterns(rng, inputs, 2, 33);

  WarmStartCache cache;
  TrimCounters counters;
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.warm_cache = &cache;
  opt.trim_counters = &counters;

  const auto sa_faults = EnumerateFaults(nl);
  const auto sa = RunFaultSim(nl, pats, sa_faults, nullptr, opt);
  const auto tr_faults = TransitionFaultList(nl);
  const auto tr = RunTransitionFaultSim(nl, pats, tr_faults, nullptr, opt);
  EXPECT_GT(counters.warm_good_hits.load(), 0u)
      << "transition run never reused the stuck-at run's warm entry";

  FaultSimOptions plain;
  plain.num_threads = 1;
  plain.trim = NoTrim();
  ExpectIdentical(RunFaultSim(nl, pats, sa_faults, nullptr, plain), sa,
                  "warm stuck-at");
  ExpectIdentical(RunTransitionFaultSim(nl, pats, tr_faults, nullptr, plain),
                  tr, "warm transition");
}

}  // namespace
}  // namespace gpustl::fault
