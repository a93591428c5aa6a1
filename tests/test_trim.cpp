// Early-exit conformance: the engines retire a fault (stuck-at: a whole
// equivalence class) once no later pattern block can activate it — for
// stuck-at, its site never again holds the value opposite the stuck value;
// for transition, it never again sees a launch-capture pair. Retiring must
// be invisible in the results. Pattern sets here end in constant ("dead")
// tails so most faults do retire early, with ragged block ends; every
// engine width at 1 and 4 threads must still reproduce the independent
// reference simulator (reference_sim.h) for stuck-at and transition
// faults, with and without dropping and under skip masks, on randomized
// netlists and the bundled DU/SP/SFU modules. The early-exit counter is
// asserted non-zero to prove the retiring path ran.
//
// This suite carries the ctest label `tsan` (retiring happens inside the
// sharded loops).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "fault/engine.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/transition.h"
#include "fault_test_util.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"
#include "reference_sim.h"

namespace gpustl::fault {
namespace {

using conformance::ExpectEnginesMatchReference;
using conformance::ExpectIdentical;
using conformance::RandomNetlist;
using conformance::RandomSkip;
using conformance::RunEngine;
using netlist::Netlist;
using netlist::PatternSet;
using reference::Model;

/// `live` random patterns, then `dead` copies of one random pattern: past
/// the live prefix no site toggles, so every transition fault retires, and
/// every stuck-at fault whose site the constant pattern holds at its stuck
/// value retires too.
PatternSet DeadTailPatterns(Rng& rng, int width, int live, int dead) {
  PatternSet pats(width);
  std::vector<std::uint64_t> words((width + 63) / 64);
  std::uint64_t cc = 0;
  for (int p = 0; p < live; ++p) {
    for (std::uint64_t& w : words) w = rng();
    pats.Add(cc++, words.data());
  }
  for (std::uint64_t& w : words) w = rng();
  for (int p = 0; p < dead; ++p) pats.Add(cc++, words.data());
  return pats;
}

TEST(TrimConformance, StuckAtDeadTails) {
  Rng rng(0x721101);
  for (int round = 0; round < 4; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(10));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(120)));
    const auto faults = EnumerateFaults(nl);
    const PatternSet pats =
        DeadTailPatterns(rng, inputs, 1 + static_cast<int>(rng.below(300)),
                         1 + static_cast<int>(rng.below(600)));
    const BitVec skip = RandomSkip(rng, faults.size(), round % 2 ? 0.3 : 0.0);
    for (const bool drop : {true, false}) {
      ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, &skip,
                                  {.drop_detected = drop},
                                  "round " + std::to_string(round));
    }
  }
}

TEST(TrimConformance, TransitionDeadTails) {
  // A fault retires after its last launch-capture pair; the launch carry
  // into the next block must still be exact for the faults that stay.
  Rng rng(0x721104);
  for (int round = 0; round < 4; ++round) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 40 + static_cast<int>(rng.below(100)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats =
        DeadTailPatterns(rng, inputs, 1 + static_cast<int>(rng.below(300)),
                         1 + static_cast<int>(rng.below(600)));
    const BitVec skip = RandomSkip(rng, faults.size(), round % 2 ? 0.3 : 0.0);
    for (const bool drop : {true, false}) {
      ExpectEnginesMatchReference(Model::kTransition, nl, pats, faults, &skip,
                                  {.drop_detected = drop},
                                  "transition round " + std::to_string(round));
    }
  }
}

TEST(TrimConformance, BundledModules) {
  // The real targets with dead tails, stuck-at and transition. DU runs its
  // whole fault list; SP and SFU a ~3% sample through the skip mask.
  Rng rng(0x721103);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    const bool whole = nl.gate_count() < 1000;
    const BitVec skip = RandomSkip(rng, faults.size(), whole ? 0.0 : 0.97);
    const PatternSet pats =
        DeadTailPatterns(rng, static_cast<int>(nl.num_inputs()), 100, 230);
    ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, &skip,
                                {.drop_detected = false}, nl.name());
    ExpectEnginesMatchReference(Model::kTransition, nl, pats, faults, &skip,
                                {}, nl.name() + " transition");
  }
}

// --- Counters: the retiring path actually fires ---

void ExpectEarlyExits(Model model, std::uint64_t seed) {
  Rng rng(seed);
  const int inputs = 7;
  const Netlist nl = RandomNetlist(rng, inputs, 80);
  const auto faults = model == Model::kTransition ? TransitionFaultList(nl)
                                                  : EnumerateFaults(nl);
  // One random block followed by three all-zero blocks: any stuck-at
  // fault whose site holds its stuck value under the all-zero input, and
  // every transition fault, has its last activating block in the prefix
  // and must retire before the tail.
  PatternSet pats(inputs);
  std::uint64_t cc = 0;
  const std::uint64_t mask = (1ull << inputs) - 1;
  for (int p = 0; p < 64; ++p) pats.Add64(cc++, rng() & mask);
  for (int p = 0; p < 1536; ++p) pats.Add64(cc++, 0);

  const FaultSimResult want =
      reference::Simulate(model, nl, pats, faults, nullptr, true);
  for (const int lanes : internal::SupportedLanes()) {
    std::atomic<std::uint64_t> exited{0};
    FaultSimOptions opt;
    opt.faults_early_exited = &exited;
    ExpectIdentical(want,
                    RunEngine(model, lanes, nl, pats, faults, nullptr, opt),
                    "early-exit lanes=" + std::to_string(lanes));
    EXPECT_GT(exited.load(), 0u)
        << lanes << " lanes: early-exit never retired a fault";
  }
}

TEST(TrimCounters_, DeadTailBlocksEarlyExitFaults) {
  ExpectEarlyExits(Model::kStuckAt, 0x721107);
}

TEST(TrimCounters_, DeadTailBlocksEarlyExitTransitionFaults) {
  ExpectEarlyExits(Model::kTransition, 0x721108);
}

}  // namespace
}  // namespace gpustl::fault
