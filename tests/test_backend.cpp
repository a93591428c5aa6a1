// Backend conformance: every registered engine backend (scalar, portable
// wide, AVX2, AVX-512 where the CPU has them), at 1 and 4 threads, must
// produce the FaultSimResult of the independent reference simulator
// (reference_sim.h) — first_detect, the per-pattern histogram,
// num_detected, detected_mask — on randomized netlists and on the bundled
// DU/SP/SFU modules, for stuck-at and transition models, with and without
// dropping and under random skip masks. The width seams are covered
// deliberately: pattern counts on and just past every word width (ragged
// tails) and the transition launch carry across every lane boundary. A
// seeded differential fuzzer closes the gaps the enumerated matrix misses;
// failures print the seed to reproduce.
//
// This suite carries the ctest label `tsan` (wide backends shard over the
// worker pool and share good-machine bundles read-only).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/backend.h"
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

// --- Registry and dispatch semantics ---

TEST(BackendRegistry, NamesRoundTripAndRegistryIsSane) {
  for (const Backend b : {Backend::kAuto, Backend::kScalar, Backend::kWide,
                          Backend::kAvx2, Backend::kAvx512}) {
    const auto parsed = ParseBackend(BackendName(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseBackend("sse9").has_value());
  EXPECT_FALSE(ParseBackend("").has_value());

  const std::vector<Backend> regs = RegisteredBackends();
  ASSERT_GE(regs.size(), 2u);  // scalar + portable wide, always
  EXPECT_EQ(regs.front(), Backend::kScalar);  // the portable fallback
  for (const Backend b : regs) {
    EXPECT_TRUE(BackendSupported(b)) << BackendName(b);
    EXPECT_EQ(ResolveBackend(b), b) << BackendName(b);
    EXPECT_GE(BackendWordBits(b), 64) << BackendName(b);
  }
  EXPECT_EQ(BackendWordBits(Backend::kScalar), 64);
  EXPECT_EQ(BackendWordBits(Backend::kWide), 256);
}

TEST(BackendRegistry, AutoResolvesConcreteAndHonoursEnv) {
  // Isolate from an inherited GPUSTL_BACKEND (the CI scalar-forced leg
  // exports one for the whole suite).
  const char* inherited = std::getenv("GPUSTL_BACKEND");
  const std::string saved = inherited == nullptr ? "" : inherited;

  ::unsetenv("GPUSTL_BACKEND");
  const Backend resolved = ResolveBackend(Backend::kAuto);
  EXPECT_NE(resolved, Backend::kAuto);
  EXPECT_TRUE(BackendSupported(resolved));
  EXPECT_NE(resolved, Backend::kAvx512);  // explicit opt-in only

  ::setenv("GPUSTL_BACKEND", "scalar", 1);
  EXPECT_EQ(ResolveBackend(Backend::kAuto), Backend::kScalar);
  // An explicit concrete request bypasses the env var.
  EXPECT_EQ(ResolveBackend(Backend::kWide), Backend::kWide);

  ::setenv("GPUSTL_BACKEND", "quantum", 1);
  EXPECT_THROW(ResolveBackend(Backend::kAuto), SimError);

  if (inherited == nullptr) {
    ::unsetenv("GPUSTL_BACKEND");
  } else {
    ::setenv("GPUSTL_BACKEND", saved.c_str(), 1);
  }
}

TEST(BackendRegistry, UnsupportedExplicitRequestFailsLoudly) {
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (BackendSupported(b)) continue;
    EXPECT_THROW(ResolveBackend(b), SimError) << BackendName(b);
    // And through the engine itself, not just the resolver.
    Netlist nl("tiny");
    const NetId a = nl.AddInput("a");
    const NetId g = nl.AddGate(CellType::kInv, {a});
    nl.MarkOutput(g, "o");
    nl.Freeze();
    PatternSet pats(1);
    pats.Add64(0, 1);
    const auto faults = EnumerateFaults(nl);
    EXPECT_THROW(RunFaultSim(nl, pats, faults, nullptr, {.backend = b}),
                 SimError)
        << BackendName(b);
  }
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

TEST(BackendConformance, TransitionMatchesReference) {
  // The transition engine's cross-block launch carry is the trickiest
  // width seam: pattern counts land carries on every lane boundary
  // (64/128/192/256...) and on ragged tails.
  Rng rng(0xBEC3);
  for (const int count : kBlockEdges) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(90)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    const BitVec skip = RandomSkip(rng, faults.size(), 0.2);
    for (const bool drop : {true, false}) {
      ExpectEnginesMatchReference(Model::kTransition, nl, pats, faults, &skip,
                                  {.drop_detected = drop},
                                  "count " + std::to_string(count));
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

// --- Seeded differential fuzz ---

TEST(BackendFuzz, RandomTriplesMatchReference) {
  // Random (netlist, pattern window, fault list, skip mask) quadruples;
  // every registered backend must agree with the reference. The seed is in
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
