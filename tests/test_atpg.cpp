// PODEM tests: generated patterns must actually detect their target fault
// (verified with the fault simulator), redundancy must be recognized, and
// the full-run driver must reach high coverage with fault dropping.
#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "circuits/blocks.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "fault/faultsim.h"
#include "netlist/logicsim.h"

namespace gpustl::atpg {
namespace {

using fault::Fault;
using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

Netlist SmallCircuit() {
  // y = (a & b) ^ c, z = (a & b) | d  — shared AND with fanout.
  Netlist nl("small");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId c = nl.AddInput("c");
  const NetId d = nl.AddInput("d");
  const NetId ab = nl.AddGate(CellType::kAnd2, {a, b});
  nl.MarkOutput(nl.AddGate(CellType::kXor2, {ab, c}), "y");
  nl.MarkOutput(nl.AddGate(CellType::kOr2, {ab, d}), "z");
  nl.Freeze();
  return nl;
}

/// Checks with the fault simulator that `assignment` (don't-cares as 0)
/// detects `f` on `nl`.
bool PatternDetects(const Netlist& nl, const Fault& f,
                    const std::vector<std::uint8_t>& assignment) {
  PatternSet pats(static_cast<int>(nl.num_inputs()));
  std::vector<std::uint64_t> row((nl.num_inputs() + 63) / 64, 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] == 1) row[i / 64] |= 1ull << (i % 64);
  }
  pats.Add(0, row.data());
  const auto res = fault::RunFaultSim(nl, pats, {f});
  return res.num_detected == 1;
}

TEST(Podem, GeneratesDetectingPatternsForEveryCollapsedFault) {
  const Netlist nl = SmallCircuit();
  const auto faults = fault::CollapsedFaultList(nl);
  ASSERT_FALSE(faults.empty());
  for (const Fault& f : faults) {
    const AtpgResult res = GeneratePattern(nl, f);
    ASSERT_EQ(res.status, AtpgStatus::kDetected) << fault::FaultName(nl, f);
    EXPECT_TRUE(PatternDetects(nl, f, res.assignment))
        << fault::FaultName(nl, f);
  }
}

TEST(Podem, RecognizesRedundantFault) {
  // y = a | !a is constantly 1: a SA0/SA1 on the redundant path cannot be
  // observed; the output SA1 is untestable.
  Netlist nl("red");
  const NetId a = nl.AddInput("a");
  const NetId na = nl.AddGate(CellType::kInv, {a});
  const NetId y = nl.AddGate(CellType::kOr2, {a, na});
  nl.MarkOutput(y, "y");
  nl.Freeze();

  const AtpgResult res = GeneratePattern(nl, {y, Fault::kOutputPin, true});
  EXPECT_EQ(res.status, AtpgStatus::kUntestable);
}

TEST(Podem, DetectsFaultsOnAdder) {
  Netlist nl("adder");
  const auto a = netlist::AddInputBus(nl, "a", 8);
  const auto b = netlist::AddInputBus(nl, "b", 8);
  const auto sum = circuits::Adder(nl, a, b, circuits::ConstBit(nl, false));
  netlist::MarkOutputBus(nl, sum, "s");
  nl.Freeze();

  const auto faults = fault::CollapsedFaultList(nl);
  int checked = 0;
  for (std::size_t i = 0; i < faults.size(); i += 7) {
    const AtpgResult res = GeneratePattern(nl, faults[i]);
    if (res.status == AtpgStatus::kDetected) {
      EXPECT_TRUE(PatternDetects(nl, faults[i], res.assignment))
          << fault::FaultName(nl, faults[i]);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Podem, FullRunCoversAdderWithFewPatterns) {
  Netlist nl("adder");
  const auto a = netlist::AddInputBus(nl, "a", 8);
  const auto b = netlist::AddInputBus(nl, "b", 8);
  const auto sum = circuits::Adder(nl, a, b, circuits::ConstBit(nl, false));
  netlist::MarkOutputBus(nl, sum, "s");
  nl.Freeze();

  const auto faults = fault::CollapsedFaultList(nl);
  const AtpgRunResult run = GeneratePatternSet(nl, faults, Rng(5));

  // Everything not proven redundant is covered (the ripple adder's only
  // untestables are pins tied to the constant carry-in).
  EXPECT_EQ(run.aborted, 0u);
  EXPECT_EQ(run.detected + run.untestable, faults.size());
  EXPECT_GT(fault::CoveragePercent(run.detected, faults.size()), 95.0);
  // Fault dropping keeps the set much smaller than the fault list.
  EXPECT_LT(run.patterns.size(), faults.size() / 2);

  // Re-simulating the generated set reproduces the coverage.
  const auto res = fault::RunFaultSim(nl, run.patterns, faults);
  EXPECT_EQ(res.num_detected, run.detected);
}

TEST(Podem, RunIsDeterministicForSeed) {
  const Netlist nl = SmallCircuit();
  const auto faults = fault::CollapsedFaultList(nl);
  const AtpgRunResult r1 = GeneratePatternSet(nl, faults, Rng(7));
  const AtpgRunResult r2 = GeneratePatternSet(nl, faults, Rng(7));
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_EQ(r1.detected, r2.detected);
}

TEST(Podem, RunCountsEachFaultOnce) {
  // With no random phase and a budget of one PODEM attempt, every other
  // fault is left to collateral detection. A skipped fault that a later
  // batch detects is detected, not aborted.
  const Netlist nl = SmallCircuit();
  const auto faults = fault::CollapsedFaultList(nl);
  AtpgOptions options;
  options.random_phase_patterns = 0;
  options.deterministic_fault_budget = 1;
  const AtpgRunResult run = GeneratePatternSet(nl, faults, Rng(3), options);
  EXPECT_LE(run.detected + run.untestable + run.aborted, faults.size());
  const auto res = fault::RunFaultSim(nl, run.patterns, faults);
  EXPECT_EQ(res.num_detected, run.detected);
}

/// FNV-1a over a byte stream: pins generated patterns without storing them.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
};

/// Status counts and a digest of every status and assignment PODEM gives
/// for every `stride`-th collapsed fault of `nl`.
struct SampleSummary {
  std::size_t detected = 0, untestable = 0, aborted = 0;
  std::uint64_t digest = 0;
};

SampleSummary PodemOverSample(const Netlist& nl, std::size_t stride) {
  const auto faults = fault::CollapsedFaultList(nl);
  SampleSummary s;
  Digest d;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    const AtpgResult res = GeneratePattern(nl, faults[i]);
    d.Add(static_cast<std::uint64_t>(res.status));
    for (const std::uint8_t v : res.assignment) d.Add(v);
    switch (res.status) {
      case AtpgStatus::kDetected: ++s.detected; break;
      case AtpgStatus::kUntestable: ++s.untestable; break;
      case AtpgStatus::kAborted: ++s.aborted; break;
    }
  }
  s.digest = d.h;
  return s;
}

// The figures below were produced by the full-resimulation PODEM that the
// event-driven implication replaced. Any change to a search node's values
// changes some decision, so these pin every decision of the search.
TEST(Podem, SpSampleMatchesPinnedSearch) {
  const SampleSummary s = PodemOverSample(circuits::BuildSpCore(), 97);
  EXPECT_EQ(s.detected, 221u);
  EXPECT_EQ(s.untestable, 34u);
  EXPECT_EQ(s.aborted, 6u);
  EXPECT_EQ(s.digest, 8102529786777170983u);
}

TEST(Podem, SfuSampleMatchesPinnedSearch) {
  const SampleSummary s = PodemOverSample(circuits::BuildSfu(), 149);
  EXPECT_EQ(s.detected, 184u);
  EXPECT_EQ(s.untestable, 69u);
  EXPECT_EQ(s.aborted, 24u);
  EXPECT_EQ(s.digest, 1157771563794339236u);
}

TEST(Podem, SpRunMatchesPinnedPatterns) {
  // The whole run: random phase, PODEM, don't-care fill and batch
  // dropping over a fixed sample of SP faults.
  const Netlist sp = circuits::BuildSpCore();
  const auto all = fault::CollapsedFaultList(sp);
  std::vector<Fault> sample;
  for (std::size_t i = 0; i < all.size(); i += 16) sample.push_back(all[i]);
  AtpgOptions options;
  options.random_phase_patterns = 256;
  options.backtrack_limit = 50;
  const AtpgRunResult run = GeneratePatternSet(sp, sample, Rng(0x7B6E), options);

  Digest d;
  for (std::size_t p = 0; p < run.patterns.size(); ++p) {
    const std::uint64_t* row = run.patterns.Row(p);
    for (std::size_t w = 0; w < run.patterns.words_per_pattern(); ++w) {
      d.Add(row[w]);
    }
  }
  EXPECT_EQ(run.patterns.size(), 308u);
  EXPECT_EQ(run.random_patterns, 76u);
  EXPECT_EQ(run.detected, 1202u);
  EXPECT_EQ(run.untestable, 340u);
  // 39, not 43: four faults PODEM aborted fall to a later batch and count
  // as detected only.
  EXPECT_EQ(run.aborted, 39u);
  EXPECT_EQ(d.h, 5500107770244377086u);
}

TEST(Podem, WorksOnSfuModule) {
  // Spot-check PODEM scales to the real SFU datapath.
  const Netlist sfu = circuits::BuildSfu();
  const auto faults = fault::CollapsedFaultList(sfu);
  int detected = 0;
  for (std::size_t i = 0; i < faults.size() && detected < 10; i += 211) {
    const AtpgResult res = GeneratePattern(sfu, faults[i]);
    if (res.status == AtpgStatus::kDetected) {
      EXPECT_TRUE(PatternDetects(sfu, faults[i], res.assignment));
      ++detected;
    }
  }
  EXPECT_GT(detected, 3);
}

}  // namespace
}  // namespace gpustl::atpg
