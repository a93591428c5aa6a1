// Backend conformance: every registered engine backend (scalar oracle,
// portable wide, AVX2, AVX-512 where the CPU has them) must produce a
// bit-identical FaultSimResult — first_detect, both per-pattern histograms,
// num_detected, detected_mask — on randomized netlists and on the bundled
// DU/SP/SFU modules, for stuck-at and transition models, across drop/
// no-drop, skip masks, collapse/cone/ffr toggles and thread counts 1/2/5.
// The width seams are covered deliberately: ragged pattern tails (counts
// that are not multiples of any backend's word width) and drop boundaries
// inside a wide block (the oracle accounts activation per 64-pattern
// sub-block). A seeded differential fuzzer closes the gaps the enumerated
// matrix misses; failures print the seed to reproduce.
//
// This suite carries the ctest label `tsan` (wide backends shard over the
// worker pool and share good-machine bundles read-only).
#include <gtest/gtest.h>

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
#include "netlist/cell.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault {
namespace {

using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

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

PatternSet RandomPatterns(Rng& rng, int width, int count) {
  PatternSet pats(width);
  const std::uint64_t mask = width >= 64 ? ~0ull : ((1ull << width) - 1);
  for (int p = 0; p < count; ++p) {
    pats.Add64(static_cast<std::uint64_t>(p), rng() & mask);
  }
  return pats;
}

/// Like RandomPatterns but for module widths beyond 64 bits.
PatternSet RandomWidePatterns(Rng& rng, int width, int count) {
  PatternSet pats(width);
  std::vector<std::uint64_t> words((width + 63) / 64);
  for (int p = 0; p < count; ++p) {
    for (std::uint64_t& w : words) w = rng();
    pats.Add(static_cast<std::uint64_t>(p), words.data());
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

std::vector<Backend> NonScalarBackends() {
  std::vector<Backend> out;
  for (const Backend b : RegisteredBackends()) {
    if (b != Backend::kScalar) out.push_back(b);
  }
  return out;
}

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
  EXPECT_EQ(regs.front(), Backend::kScalar);  // the oracle leads
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

// --- Stuck-at conformance ---

TEST(BackendConformance, StuckAtMatchesScalarOnRandomNetlists) {
  Rng rng(0xBEC0);
  for (int round = 0; round < 3; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const Netlist nl =
        RandomNetlist(rng, inputs, 20 + static_cast<int>(rng.below(120)));
    // 1..600 patterns: spans multiple 512-bit blocks and lands on ragged
    // tails for every word width most rounds.
    const PatternSet pats =
        RandomPatterns(rng, inputs, 1 + static_cast<int>(rng.below(600)));

    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      for (const bool drop : {true, false}) {
        for (const bool collapse : {false, true}) {
          for (const bool cone : {false, true}) {
            for (const bool ffr : {false, true}) {
              const auto oracle = RunFaultSim(nl, pats, faults, nullptr,
                                              {.drop_detected = drop,
                                               .num_threads = 1,
                                               .collapse = collapse,
                                               .cone_limit = cone,
                                               .ffr_trace = ffr,
                                               .backend = Backend::kScalar});
              for (const Backend b : NonScalarBackends()) {
                const auto got = RunFaultSim(nl, pats, faults, nullptr,
                                             {.drop_detected = drop,
                                              .num_threads = 1,
                                              .collapse = collapse,
                                              .cone_limit = cone,
                                              .ffr_trace = ffr,
                                              .backend = b});
                ExpectIdentical(
                    oracle, got,
                    std::string(BackendName(b)) + " drop=" +
                        std::to_string(drop) + " collapse=" +
                        std::to_string(collapse) + " cone=" +
                        std::to_string(cone) + " ffr=" + std::to_string(ffr));
              }
            }
          }
        }
      }
    }
  }
}

TEST(BackendConformance, StuckAtSkipMasksAndThreads) {
  Rng rng(0xBEC1);
  for (int round = 0; round < 2; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = CollapsedFaultList(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(500)));
    for (const double density : {0.1, 0.5}) {
      const BitVec skip = RandomSkip(rng, faults.size(), density);
      for (const bool drop : {true, false}) {
        const auto oracle = RunFaultSim(nl, pats, faults, &skip,
                                        {.drop_detected = drop,
                                         .num_threads = 1,
                                         .backend = Backend::kScalar});
        for (const Backend b : NonScalarBackends()) {
          for (const int threads : {1, 2, 5}) {
            const auto got = RunFaultSim(nl, pats, faults, &skip,
                                         {.drop_detected = drop,
                                          .num_threads = threads,
                                          .backend = b});
            ExpectIdentical(oracle, got,
                            std::string(BackendName(b)) + " threads=" +
                                std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(BackendConformance, BundledModulesBitIdentical) {
  // The acceptance bar on the real targets: DU/SP/SFU, stuck-at, every
  // registered backend, serial and sharded.
  Rng rng(0xBEC2);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    // 300 is deliberately not a multiple of 256 or 512.
    const PatternSet pats =
        RandomWidePatterns(rng, static_cast<int>(nl.num_inputs()), 300);
    const auto oracle = RunFaultSim(nl, pats, faults, nullptr,
                                    {.num_threads = 1,
                                     .backend = Backend::kScalar});
    for (const Backend b : NonScalarBackends()) {
      for (const int threads : {1, 2, 5}) {
        const auto got = RunFaultSim(nl, pats, faults, nullptr,
                                     {.num_threads = threads, .backend = b});
        ExpectIdentical(oracle, got,
                        nl.name() + " " + std::string(BackendName(b)) +
                            " threads=" + std::to_string(threads));
      }
    }
  }
}

// --- Transition conformance ---

TEST(BackendConformance, TransitionMatchesScalar) {
  // The transition engine's cross-block launch carry is the trickiest
  // width seam: pattern counts are chosen to land carries on every lane
  // boundary (64/128/192/256...) and on ragged tails.
  Rng rng(0xBEC3);
  for (const int count : {1, 63, 64, 65, 129, 256, 257, 449}) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(90)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    for (const bool drop : {true, false}) {
      const auto oracle = RunTransitionFaultSim(nl, pats, faults, nullptr,
                                                {.drop_detected = drop,
                                                 .num_threads = 1,
                                                 .backend = Backend::kScalar});
      for (const Backend b : NonScalarBackends()) {
        for (const int threads : {1, 2}) {
          const auto got = RunTransitionFaultSim(nl, pats, faults, nullptr,
                                                 {.drop_detected = drop,
                                                  .num_threads = threads,
                                                  .backend = b});
          ExpectIdentical(oracle, got,
                          std::string(BackendName(b)) + " count=" +
                              std::to_string(count) + " drop=" +
                              std::to_string(drop));
        }
      }
    }
  }
}

TEST(BackendConformance, TransitionBundledModules) {
  Rng rng(0xBEC4);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats =
        RandomWidePatterns(rng, static_cast<int>(nl.num_inputs()), 200);
    const auto oracle = RunTransitionFaultSim(
        nl, pats, faults, nullptr,
        {.num_threads = 1, .backend = Backend::kScalar});
    for (const Backend b : NonScalarBackends()) {
      const auto got = RunTransitionFaultSim(
          nl, pats, faults, nullptr, {.num_threads = 2, .backend = b});
      ExpectIdentical(oracle, got,
                      nl.name() + " " + std::string(BackendName(b)));
    }
  }
}

// --- Seeded differential fuzz ---

TEST(BackendFuzz, RandomTriplesMatchScalar) {
  // N random (netlist, pattern window, fault list) triples with random
  // toggles; every registered backend must agree with the scalar oracle.
  // The seed is in the failure trace — plug it into kFuzzBase below to
  // reproduce a single case deterministically.
  constexpr std::uint64_t kFuzzBase = 0xF122ED00;
  constexpr int kCases = 12;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kFuzzBase + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("fuzz seed 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(seed));
      return std::string(buf);
    }());
    Rng rng(seed);

    const int inputs = 3 + static_cast<int>(rng.below(14));
    const Netlist nl =
        RandomNetlist(rng, inputs, 15 + static_cast<int>(rng.below(150)));
    // Bias the pattern count toward word-width edges: exact multiples of
    // 64/256/512 and their neighbours, plus a uniform tail.
    static constexpr int kEdges[] = {1,   2,   63,  64,  65,  127, 128,
                                     255, 256, 257, 511, 512, 513};
    const int count = rng.chance(0.5)
                          ? kEdges[rng.below(std::size(kEdges))]
                          : 1 + static_cast<int>(rng.below(700));
    const PatternSet pats = RandomPatterns(rng, inputs, count);

    const bool transition = rng.chance(0.25);
    const BitVec skip =
        RandomSkip(rng, transition ? TransitionFaultList(nl).size()
                                   : EnumerateFaults(nl).size(),
                   rng.chance(0.5) ? 0.0 : 0.3);
    FaultSimOptions opt;
    opt.drop_detected = rng.chance(0.7);
    opt.collapse = rng.chance(0.7);
    opt.cone_limit = rng.chance(0.7);
    opt.ffr_trace = rng.chance(0.7);
    opt.num_threads = 1 + static_cast<int>(rng.below(5));

    FaultSimOptions oracle_opt = opt;
    oracle_opt.num_threads = 1;
    oracle_opt.backend = Backend::kScalar;

    if (transition) {
      const auto faults = TransitionFaultList(nl);
      const auto oracle =
          RunTransitionFaultSim(nl, pats, faults, &skip, oracle_opt);
      for (const Backend b : NonScalarBackends()) {
        FaultSimOptions got_opt = opt;
        got_opt.backend = b;
        const auto got =
            RunTransitionFaultSim(nl, pats, faults, &skip, got_opt);
        ExpectIdentical(oracle, got,
                        "transition " + std::string(BackendName(b)));
      }
    } else {
      const auto faults = EnumerateFaults(nl);
      const auto oracle = RunFaultSim(nl, pats, faults, &skip, oracle_opt);
      for (const Backend b : NonScalarBackends()) {
        FaultSimOptions got_opt = opt;
        got_opt.backend = b;
        const auto got = RunFaultSim(nl, pats, faults, &skip, got_opt);
        ExpectIdentical(oracle, got,
                        "stuck-at " + std::string(BackendName(b)));
      }
    }
  }
}

}  // namespace
}  // namespace gpustl::fault
