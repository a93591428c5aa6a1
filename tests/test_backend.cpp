// Engine conformance: the engine at every lane count this machine runs
// (1 and 4 portable lanes, 8 under AVX-512 where the CPU has it), at 1 and
// 4 threads, must produce the FaultSimResult of the independent reference
// simulator (reference_sim.h) — first_detect, the per-pattern histogram,
// num_detected, detected_mask — on randomized netlists and on the bundled
// DU/SP/SFU modules, for stuck-at and transition models, with and without
// dropping and under random skip masks. The width seams are covered
// deliberately: pattern counts on and just past every word width (ragged
// tails) and the transition launch carry across every lane boundary.
// Duplicate-heavy pattern sets hold the stuck-at row deduplication (each
// distinct row simulated once, the report mapped back) to the
// undeduplicated reference at every width. A seeded differential fuzzer
// closes the gaps the enumerated matrix misses; failures print the seed to
// reproduce.
//
// It also pins the width rule (PickLanes). This suite carries the ctest
// label `tsan` (the engine shards over the worker pool and shares
// good-machine bundles read-only).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/backend.h"
#include "fault/engine.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/transition.h"
#include "fault_test_util.h"
#include "netlist/cell.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"
#include "reference_sim.h"

namespace gpustl::fault {
namespace {

using conformance::ExpectEnginesMatchReference;
using conformance::kBlockEdges;
using conformance::RandomNetlist;
using conformance::RandomPatterns;
using conformance::RandomSkip;
using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;
using reference::Model;

// --- Width selection ---

TEST(EngineWidth, PickLanesFollowsPatternCountAndCpu) {
  // One 64-pattern block runs on one word; wider bundles would be mostly
  // empty.
  for (const std::size_t n : {0, 1, 63, 64}) {
    EXPECT_EQ(internal::PickLanes(n), 1) << n << " patterns";
  }
  // More than one block: 8 lanes where the CPU runs AVX-512F (and the
  // binary has the 8-lane unit), else 4 portable lanes.
  const bool avx512 = ResolveBackend() == Backend::kAvx512;
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  if (!__builtin_cpu_supports("avx512f")) {
    EXPECT_FALSE(avx512);
  }
#endif
  for (const std::size_t n : {65, 256, 177600}) {
    EXPECT_EQ(internal::PickLanes(n), avx512 ? 8 : 4) << n << " patterns";
  }
  EXPECT_EQ(BackendName(ResolveBackend()), avx512 ? "avx512" : "wide");

  const std::vector<int> want =
      avx512 ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 4};
  EXPECT_EQ(internal::SupportedLanes(), want);
}

TEST(EngineWidth, UnsupportedWidthThrows) {
  Netlist nl("tiny");
  const NetId a = nl.AddInput("a");
  nl.MarkOutput(nl.AddGate(CellType::kInv, {a}), "o");
  nl.Freeze();
  PatternSet pats(1);
  pats.Add64(0, 1);
  const auto faults = EnumerateFaults(nl);
  EXPECT_THROW(internal::RunFaultSimAtLanes(2, nl, pats, faults, nullptr, {}),
               SimError);
  EXPECT_THROW(
      internal::RunTransitionFaultSimAtLanes(16, nl, pats, faults, nullptr, {}),
      SimError);
}

// --- Reference conformance ---

TEST(BackendConformance, StuckAtMatchesReferenceOnRandomNetlists) {
  Rng rng(0xBEC0);
  for (int round = 0; round < 4; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const Netlist nl =
        RandomNetlist(rng, inputs, 20 + static_cast<int>(rng.below(100)));
    // Several blocks of every width, ending on a ragged tail most rounds.
    const PatternSet pats =
        RandomPatterns(rng, inputs, 65 + static_cast<int>(rng.below(550)));
    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      for (const bool drop : {true, false}) {
        ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults,
                                    nullptr, {.drop_detected = drop},
                                    "round " + std::to_string(round));
      }
    }
  }
}

TEST(BackendConformance, StuckAtSkipMasks) {
  Rng rng(0xBEC1);
  for (int round = 0; round < 2; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = CollapsedFaultList(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(500)));
    for (const double density : {0.1, 0.5, 1.0}) {
      const BitVec skip = RandomSkip(rng, faults.size(), density);
      for (const bool drop : {true, false}) {
        ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, &skip,
                                    {.drop_detected = drop},
                                    "skip " + std::to_string(density));
      }
    }
  }
}

TEST(BackendConformance, BlockEdgesMatchReference) {
  // Pattern counts on and just past every block width. For transition
  // faults this is the trickiest seam, the launch carry: it crosses every
  // lane boundary (64/128/192/256...) and ragged tails, and at one lane it
  // crosses 64-bit blocks.
  Rng rng(0xBEC3);
  for (const int count : kBlockEdges) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(90)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    const BitVec skip = RandomSkip(rng, faults.size(), 0.2);
    for (const Model model : {Model::kTransition, Model::kStuckAt}) {
      for (const bool drop : {true, false}) {
        ExpectEnginesMatchReference(model, nl, pats, faults, &skip,
                                    {.drop_detected = drop},
                                    "count " + std::to_string(count));
      }
    }
  }
}

TEST(BackendConformance, BundledModulesMatchReference) {
  // The real targets, stuck-at and transition. DU runs its whole fault
  // list; SP and SFU run a random ~3% sample through the skip mask (the
  // reference costs faults x gates per word), which also splits their
  // equivalence classes.
  Rng rng(0xBEC2);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    const bool whole = nl.gate_count() < 1000;
    const BitVec skip = RandomSkip(rng, faults.size(), whole ? 0.0 : 0.97);
    // 300 is deliberately not a multiple of 256 or 512.
    const PatternSet pats =
        RandomPatterns(rng, static_cast<int>(nl.num_inputs()), 300);
    ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, &skip, {},
                                nl.name());
    ExpectEnginesMatchReference(Model::kTransition, nl, pats, faults, &skip,
                                {}, nl.name() + " transition");
  }
}

// --- Repeated rows ---

/// `count` rows of `width` bits, each drawn uniformly from `pool` random
/// rows, so rows repeat once `count` nears `pool`.
PatternSet RowsFromPool(Rng& rng, int width, int count, int pool) {
  const PatternSet rows = RandomPatterns(rng, width, pool);
  PatternSet pats(width);
  for (int p = 0; p < count; ++p) {
    pats.Add(static_cast<std::uint64_t>(p), rows.Row(rng.below(pool)));
  }
  return pats;
}

struct RepeatCase {
  std::string name;
  PatternSet pats;
};

/// Duplicate-heavy pattern sets. The stuck-at engine simulates each
/// distinct row once and maps the report back; the reference simulates
/// every row.
std::vector<RepeatCase> RepeatCases(Rng& rng) {
  std::vector<RepeatCase> cases;
  cases.push_back({"identical", RowsFromPool(rng, 9, 600, 1)});
  // 40-bit rows: 700 random draws repeat none.
  cases.push_back({"distinct", RandomPatterns(rng, 40, 700)});
  // About 540 distinct of 1,400 rows: repeats land on both sides of every
  // 64-pattern and wide-block edge, and the distinct rows span several
  // wide blocks themselves. Each edge row also repeats its predecessor.
  PatternSet straddle = RowsFromPool(rng, 10, 1400, 600);
  {
    PatternSet forced(10);
    for (std::size_t p = 0; p < straddle.size(); ++p) {
      const bool edge = p % 64 == 0 && p > 0;
      forced.Add(p, straddle.Row(edge ? p - 1 : p));
    }
    straddle = forced;
  }
  cases.push_back({"block edges", straddle});
  // Widths that are not a multiple of 64, over two and three words.
  cases.push_back({"width 70", RowsFromPool(rng, 70, 500, 90)});
  cases.push_back({"width 130", RowsFromPool(rng, 130, 300, 70)});
  // Two-word rows that share their first word and differ only in the last.
  {
    PatternSet last_word(72);
    const std::uint64_t head = rng();
    std::uint64_t tails[12];
    for (std::uint64_t& t : tails) t = rng() & 0xFF;
    for (int p = 0; p < 400; ++p) {
      const std::uint64_t row[2] = {head, tails[rng.below(std::size(tails))]};
      last_word.Add(static_cast<std::uint64_t>(p), row);
    }
    cases.push_back({"last word", last_word});
  }
  for (const int count : {0, 1, 65}) {
    cases.push_back({std::to_string(count) + " rows",
                     RowsFromPool(rng, 8, count, 20)});
  }
  return cases;
}

TEST(BackendConformance, RepeatedRowsMatchReference) {
  // Both models: the transition engine simulates every row and is pinned
  // unchanged on the same sets.
  Rng rng(0xBEC5);
  for (const RepeatCase& c : RepeatCases(rng)) {
    const Netlist nl = RandomNetlist(rng, c.pats.width(),
                                     40 + static_cast<int>(rng.below(80)));
    for (const Model model : {Model::kStuckAt, Model::kTransition}) {
      const auto faults = model == Model::kTransition
                              ? TransitionFaultList(nl)
                              : EnumerateFaults(nl);
      const BitVec skip = RandomSkip(rng, faults.size(), 0.3);
      for (const BitVec* mask : {static_cast<const BitVec*>(nullptr), &skip}) {
        for (const bool drop : {true, false}) {
          ExpectEnginesMatchReference(
              model, nl, c.pats, faults, mask, {.drop_detected = drop},
              c.name + (model == Model::kTransition ? " transition" : "") +
                  (mask != nullptr ? " skip" : ""),
              {1, 3, 4});
        }
      }
    }
  }
}

TEST(BackendConformance, RepeatedRowsPickTheirWidthFromDistinctRows) {
  // 640 rows over 20 distinct ones: the public entry simulates one
  // 64-pattern block, and its report is still the reference's.
  Rng rng(0xBEC6);
  const Netlist nl = RandomNetlist(rng, 12, 90);
  const PatternSet pats = RowsFromPool(rng, 12, 640, 20);
  const auto faults = EnumerateFaults(nl);
  for (const bool drop : {true, false}) {
    conformance::ExpectIdentical(
        reference::Simulate(Model::kStuckAt, nl, pats, faults, nullptr, drop),
        RunFaultSim(nl, pats, faults, nullptr,
                    {.drop_detected = drop, .num_threads = 3}),
        "drop=" + std::to_string(drop));
  }
}

// --- Seeded differential fuzz ---

TEST(BackendFuzz, RandomTriplesMatchReference) {
  // Random (netlist, pattern window, fault list, skip mask) quadruples;
  // every supported width must agree with the reference. The seed is in
  // the failure trace — plug it into kFuzzBase below to reproduce a single
  // case deterministically.
  constexpr std::uint64_t kFuzzBase = 0xF122ED00;
  constexpr int kCases = 12;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kFuzzBase + static_cast<std::uint64_t>(c);
    char seed_text[32];
    std::snprintf(seed_text, sizeof(seed_text), "fuzz seed 0x%llx",
                  static_cast<unsigned long long>(seed));
    Rng rng(seed);

    const int inputs = 3 + static_cast<int>(rng.below(14));
    const Netlist nl =
        RandomNetlist(rng, inputs, 15 + static_cast<int>(rng.below(150)));
    // Bias the pattern count toward word-width edges, plus a uniform tail.
    const int count = rng.chance(0.5)
                          ? kBlockEdges[rng.below(std::size(kBlockEdges))]
                          : 1 + static_cast<int>(rng.below(700));
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    const Model model =
        rng.chance(0.25) ? Model::kTransition : Model::kStuckAt;
    const auto faults = model == Model::kTransition ? TransitionFaultList(nl)
                                                    : EnumerateFaults(nl);
    const BitVec skip =
        RandomSkip(rng, faults.size(), rng.chance(0.5) ? 0.0 : 0.3);
    ExpectEnginesMatchReference(model, nl, pats, faults, &skip,
                                {.drop_detected = rng.chance(0.7)}, seed_text,
                                {1, 1 + static_cast<int>(rng.below(5))});
  }
}

}  // namespace
}  // namespace gpustl::fault
