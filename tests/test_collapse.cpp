// Property and conformance tests for structural fault collapsing: on
// randomized netlists, the collapsed, cone-limited engine (one propagated
// representative per equivalence class) must reproduce the independent
// reference simulator (reference_sim.h) — first_detect, detected_mask and
// the per-pattern histogram — across drop/no-drop, skip masks that split
// classes, every engine width, thread counts 1 and 4 and both fault-list
// flavours. Plus structural checks on the class partition, the
// primary-output stem exclusion the legacy list-level collapser misses,
// and a known-answer AND-gate class/dominance count.
//
// This suite carries the ctest label `tsan` (the collapsed engine shards
// classes over the same worker pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fault/collapse.h"
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
using conformance::RandomNetlist;
using conformance::RandomPatterns;
using conformance::RandomSkip;
using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;
using reference::Model;

// --- Conformance with the reference: collapsing is exact ---

TEST(FaultCollapse, CollapsedEngineMatchesReference) {
  Rng rng(0xC0113);
  for (int round = 0; round < 5; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const Netlist nl =
        RandomNetlist(rng, inputs, 20 + static_cast<int>(rng.below(120)));
    const PatternSet pats =
        RandomPatterns(rng, inputs, 1 + static_cast<int>(rng.below(200)));
    // Both fault-list flavours: the full universe (every stem/branch and
    // pin/output pair present, so classes have many members) and the
    // legacy collapsed list the compactor feeds the engine.
    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      for (const bool drop : {true, false}) {
        ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults,
                                    nullptr, {.drop_detected = drop},
                                    "round " + std::to_string(round));
      }
    }
  }
}

TEST(FaultCollapse, PartiallySkippedClasses) {
  // A skip mask removes members from a class: a skipped member must not
  // surface even though its classmates are simulated, and a surviving
  // member must still see its own first detection. Includes the
  // degenerate all-skipped mask.
  Rng rng(0x5111);
  for (int round = 0; round < 3; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = EnumerateFaults(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(120)));
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

TEST(FaultCollapse, PrecomputedPlanMatchesReference) {
  // The campaign driver caches one FaultCollapse per module and passes it
  // to every run; the cached path must match the reference like the
  // build-per-run path does.
  Rng rng(0xCAC4E);
  const Netlist nl = RandomNetlist(rng, 8, 90);
  const auto faults = CollapsedFaultList(nl);
  const PatternSet pats = RandomPatterns(rng, 8, 100);
  const FaultCollapse plan = BuildFaultCollapse(nl, faults);
  ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, nullptr,
                              {.collapse_plan = &plan}, "cached plan");
}

TEST(FaultCollapse, TransitionMatchesReference) {
  // The transition engine does not collapse (the launch condition is
  // per-fault history) but shares the cone-limited propagation.
  Rng rng(0x7C0E);
  for (int round = 0; round < 3; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(10));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(100)));
    const auto faults = EnumerateFaults(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 70 + static_cast<int>(rng.below(100)));
    for (const bool drop : {true, false}) {
      ExpectEnginesMatchReference(Model::kTransition, nl, pats, faults,
                                  nullptr, {.drop_detected = drop},
                                  "transition round " + std::to_string(round));
    }
  }
}

// --- Partition structure ---

TEST(FaultCollapse, CsrPartitionIsValid) {
  Rng rng(0xC5A);
  for (int round = 0; round < 4; ++round) {
    const Netlist nl =
        RandomNetlist(rng, 6 + static_cast<int>(rng.below(8)),
                      30 + static_cast<int>(rng.below(100)));
    const auto faults = EnumerateFaults(nl);
    const FaultCollapse fc = BuildFaultCollapse(nl, faults);

    EXPECT_EQ(fc.num_faults, faults.size());
    ASSERT_EQ(fc.class_offsets.size(), fc.num_classes() + 1);
    EXPECT_EQ(fc.class_offsets.front(), 0u);
    EXPECT_EQ(fc.class_offsets.back(), faults.size());
    EXPECT_EQ(fc.members.size(), faults.size());

    // Members are a permutation of the fault indices; within a class they
    // ascend (leader first); classes are ordered by leader.
    std::vector<std::uint32_t> seen = fc.members;
    std::sort(seen.begin(), seen.end());
    for (std::uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
    std::uint32_t prev_leader = 0;
    for (std::size_t c = 0; c < fc.num_classes(); ++c) {
      const auto ms = fc.class_members(c);
      ASSERT_FALSE(ms.empty());
      EXPECT_EQ(fc.leader(c), ms.front());
      EXPECT_TRUE(std::is_sorted(ms.begin(), ms.end()));
      if (c > 0) {
        EXPECT_LT(prev_leader, fc.leader(c));
      }
      prev_leader = fc.leader(c);
    }

    const CollapseStats stats = fc.Stats();
    EXPECT_EQ(stats.num_faults, faults.size());
    EXPECT_EQ(stats.num_classes, fc.num_classes());
    EXPECT_LE(stats.num_classes, stats.num_faults);
  }
}

// --- The stem/branch rules ---

/// Class index of fault `f` in `fc`, or npos.
std::size_t ClassOf(const FaultCollapse& fc, const std::vector<Fault>& faults,
                    const Fault& f) {
  for (std::size_t c = 0; c < fc.num_classes(); ++c) {
    for (std::uint32_t m : fc.class_members(c)) {
      if (faults[m] == f) return c;
    }
  }
  return static_cast<std::size_t>(-1);
}

TEST(FaultCollapse, PrimaryOutputStemIsNotMergedWithItsBranch) {
  // s drives only one branch, but s is itself a primary output: the stem
  // fault is directly observable at s while the branch fault is not, so
  // they are NOT equivalent and must stay in different classes. (The
  // legacy list-level CollapseFaults misses this; the engine-level pass
  // must not.)
  Netlist nl("postem");
  const NetId a = nl.AddInput("a");
  const NetId s = nl.AddGate(CellType::kBuf, {a});
  const NetId g = nl.AddGate(CellType::kInv, {s});
  nl.MarkOutput(s, "s");
  nl.MarkOutput(g, "g");
  nl.Freeze();

  const auto faults = EnumerateFaults(nl);
  const FaultCollapse fc = BuildFaultCollapse(nl, faults);
  const auto stem = ClassOf(fc, faults, {s, Fault::kOutputPin, false});
  const auto branch = ClassOf(fc, faults, {g, 0, false});
  ASSERT_NE(stem, static_cast<std::size_t>(-1));
  ASSERT_NE(branch, static_cast<std::size_t>(-1));
  EXPECT_NE(stem, branch);

  // Positive control: the same structure without observing s directly does
  // merge stem and branch.
  Netlist nl2("stem");
  const NetId a2 = nl2.AddInput("a");
  const NetId s2 = nl2.AddGate(CellType::kBuf, {a2});
  const NetId g2 = nl2.AddGate(CellType::kInv, {s2});
  nl2.MarkOutput(g2, "g");
  nl2.Freeze();

  const auto faults2 = EnumerateFaults(nl2);
  const FaultCollapse fc2 = BuildFaultCollapse(nl2, faults2);
  EXPECT_EQ(ClassOf(fc2, faults2, {s2, Fault::kOutputPin, false}),
            ClassOf(fc2, faults2, {g2, 0, false}));
}

TEST(FaultCollapse, And2KnownClassesAndDominance) {
  // The textbook AND-gate picture. Universe (10 faults): stems of a, b and
  // g plus g's two input pins, SA0/SA1 each. Equivalences: a/b stems merge
  // into g's pins (single fanout), pin SA0 == output SA0 (controlling
  // value) — one 5-member SA0 class, two 2-member SA1 pin classes, the
  // output SA1 singleton. Dominance: each pin SA1 is dominated by output
  // SA1 (2 edges, count-only).
  Netlist nl("and2");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId g = nl.AddGate(CellType::kAnd2, {a, b});
  nl.MarkOutput(g, "z");
  nl.Freeze();

  const auto faults = EnumerateFaults(nl);
  ASSERT_EQ(faults.size(), 10u);
  const FaultCollapse fc = BuildFaultCollapse(nl, faults);
  EXPECT_EQ(fc.num_classes(), 4u);
  EXPECT_EQ(fc.dominance_edges, 2u);

  const auto sa0_class = ClassOf(fc, faults, {g, Fault::kOutputPin, false});
  EXPECT_EQ(fc.class_members(sa0_class).size(), 5u);
  EXPECT_EQ(ClassOf(fc, faults, {a, Fault::kOutputPin, false}), sa0_class);
  EXPECT_EQ(ClassOf(fc, faults, {b, Fault::kOutputPin, false}), sa0_class);
  EXPECT_EQ(ClassOf(fc, faults, {g, 0, false}), sa0_class);
  EXPECT_EQ(ClassOf(fc, faults, {g, 1, false}), sa0_class);

  EXPECT_EQ(ClassOf(fc, faults, {a, Fault::kOutputPin, true}),
            ClassOf(fc, faults, {g, 0, true}));
  EXPECT_NE(ClassOf(fc, faults, {g, 0, true}),
            ClassOf(fc, faults, {g, Fault::kOutputPin, true}));
}

TEST(FaultCollapse, ConstantDegeneratedGateCollapses) {
  // XOR with a TIELO input behaves as a buffer: the free pin's faults
  // collapse into the output exactly like BUF's would — the generalized
  // forced-output rule sees through the structural constant.
  Netlist nl("xorbuf");
  const NetId a = nl.AddInput("a");
  const NetId zero = nl.AddGate(CellType::kConst0, {});
  const NetId x = nl.AddGate(CellType::kXor2, {a, zero});
  const NetId cap = nl.AddGate(CellType::kInv, {x});
  nl.MarkOutput(cap, "z");
  nl.Freeze();

  const auto faults = EnumerateFaults(nl);
  const FaultCollapse fc = BuildFaultCollapse(nl, faults);
  // Pin-a SA0 forces x to 0 (0 XOR 0), SA1 forces 1: both merge with the
  // corresponding output stem fault.
  EXPECT_EQ(ClassOf(fc, faults, {x, 0, false}),
            ClassOf(fc, faults, {x, Fault::kOutputPin, false}));
  EXPECT_EQ(ClassOf(fc, faults, {x, 0, true}),
            ClassOf(fc, faults, {x, Fault::kOutputPin, true}));
}

}  // namespace
}  // namespace gpustl::fault
