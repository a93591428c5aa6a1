// Fanout-free-region decomposition invariants, the FFR class grouping the
// stuck-at engine shards by, and conformance of the FFR critical-path
// tracing engine with the independent reference simulator
// (reference_sim.h): on randomized netlists — including tree-shaped ones
// whose regions are deep single-fanout chains — and on the bundled
// DU/SP/SFU modules, first_detect, detected_mask and the per-pattern
// histogram must match across drop/no-drop, skip masks, both fault-list
// flavours, every backend and thread counts 1 and 4.
//
// This suite carries the ctest label `tsan` (the FFR engine shards whole
// regions over the worker pool and shares good-machine blocks read-only).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "fault/collapse.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault_test_util.h"
#include "netlist/cell.h"
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

/// A netlist whose gates prefer not-yet-consumed nets as fanins, so most
/// nets have fanout 1 and the fanout-free regions are deep trees — the
/// shape where the backward critical-path trace does the most work.
Netlist TreeNetlist(Rng& rng, int num_inputs, int num_gates) {
  static constexpr CellType kTypes[] = {
      CellType::kInv,   CellType::kAnd2,  CellType::kOr3,  CellType::kNand2,
      CellType::kNor2,  CellType::kXor2,  CellType::kXnor2, CellType::kMux2,
      CellType::kAoi21, CellType::kOai22, CellType::kAnd4};
  Netlist nl("tree");
  std::vector<NetId> nets;
  std::vector<NetId> unused;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(nl.AddInput("i" + std::to_string(i)));
    unused.push_back(nets.back());
  }
  for (int g = 0; g < num_gates; ++g) {
    const CellType type = kTypes[rng.below(std::size(kTypes))];
    std::vector<NetId> fanin(netlist::CellFaninCount(type));
    for (NetId& f : fanin) {
      if (!unused.empty() && rng.chance(0.85)) {
        const std::size_t k = rng.below(unused.size());
        f = unused[k];
        unused[k] = unused.back();
        unused.pop_back();
      } else {
        f = nets[rng.below(nets.size())];
      }
    }
    nets.push_back(nl.AddGate(type, fanin));
    unused.push_back(nets.back());
  }
  int out = 0;
  for (const NetId n : unused) {
    if (nl.gate(n).type != CellType::kInput) {
      nl.MarkOutput(n, "o" + std::to_string(out++));
    }
  }
  if (out == 0) nl.MarkOutput(nets.back(), "o0");
  nl.Freeze();
  return nl;
}

/// Recomputes the stem rule from primitives, independently of Freeze's
/// sweep: fanout size != 1, primary output, or single consumer is a DFF.
bool IsStemByRule(const Netlist& nl, NetId net) {
  const auto fo = nl.fanout(net);
  if (fo.size() != 1) return true;
  for (const NetId o : nl.outputs()) {
    if (o == net) return true;
  }
  return nl.gate(fo[0]).type == CellType::kDff;
}

// --- Decomposition structure ---

TEST(FfrDecomposition, PartitionInvariants) {
  Rng rng(0xFF21);
  for (int round = 0; round < 4; ++round) {
    const Netlist nl =
        RandomNetlist(rng, 5 + static_cast<int>(rng.below(10)),
                      30 + static_cast<int>(rng.below(120)));
    const std::size_t n = nl.gate_count();

    // Every net lies in exactly one region: the member lists concatenate
    // to a permutation of all net ids.
    std::vector<NetId> seen;
    for (std::size_t f = 0; f < nl.num_ffrs(); ++f) {
      const auto ms = nl.ffr_members(f);
      ASSERT_FALSE(ms.empty());
      EXPECT_TRUE(std::is_sorted(ms.begin(), ms.end()));
      // The stem is the largest member: every internal net's unique
      // consumer has a larger id, so the chain ends at the maximum.
      EXPECT_EQ(ms.back(), nl.ffr_stem(f));
      for (const NetId m : ms) {
        seen.push_back(m);
        EXPECT_EQ(nl.ffr_of(m), f);
        EXPECT_EQ(nl.stem_of(m), nl.ffr_stem(f));
      }
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), n);
    for (NetId id = 0; id < n; ++id) EXPECT_EQ(seen[id], id);

    // Stems are exactly the nets the independent rule marks; internal
    // members are single-fanout non-outputs whose consumer stays in the
    // region.
    for (NetId id = 0; id < n; ++id) {
      EXPECT_EQ(nl.IsStem(id), IsStemByRule(nl, id)) << "net " << id;
      if (!nl.IsStem(id)) {
        const auto fo = nl.fanout(id);
        ASSERT_EQ(fo.size(), 1u);
        EXPECT_EQ(nl.ffr_of(fo[0]), nl.ffr_of(id));
      }
    }

    // Stems ascend, so regions are deterministically ordered.
    for (std::size_t f = 1; f < nl.num_ffrs(); ++f) {
      EXPECT_LT(nl.ffr_stem(f - 1), nl.ffr_stem(f));
    }
  }
}

TEST(FfrDecomposition, KnownSmallNetlist) {
  // a ─ buf(s) ─┬─ inv(x) ─ and2(z) ─ out
  //             └──────────/
  // b ─ inv(y) ─ and2 pin? no: y feeds z? Keep it simple below.
  //
  // s has fanout 2 -> stem (singleton region {a? no}). a feeds only s ->
  // a is internal to s's region. x feeds only z -> internal to z's
  // region; z is an output -> stem.
  Netlist nl("known");
  const NetId a = nl.AddInput("a");
  const NetId s = nl.AddGate(CellType::kBuf, {a});
  const NetId x = nl.AddGate(CellType::kInv, {s});
  const NetId z = nl.AddGate(CellType::kAnd2, {s, x});
  nl.MarkOutput(z, "z");
  nl.Freeze();

  ASSERT_EQ(nl.num_ffrs(), 2u);
  EXPECT_EQ(nl.ffr_stem(0), s);  // fanout 2
  EXPECT_EQ(nl.ffr_stem(1), z);  // primary output
  EXPECT_EQ(nl.stem_of(a), s);   // a feeds only s
  EXPECT_EQ(nl.stem_of(x), z);   // x feeds only z
  EXPECT_TRUE(nl.IsStem(s));
  EXPECT_TRUE(nl.IsStem(z));
  EXPECT_FALSE(nl.IsStem(a));
  EXPECT_FALSE(nl.IsStem(x));
  const auto r0 = nl.ffr_members(0);
  const auto r1 = nl.ffr_members(1);
  EXPECT_EQ(std::vector<NetId>(r0.begin(), r0.end()),
            (std::vector<NetId>{a, s}));
  EXPECT_EQ(std::vector<NetId>(r1.begin(), r1.end()),
            (std::vector<NetId>{x, z}));

  // A single-fanout net that is itself an output is still a stem (its
  // fault effects are directly observable).
  Netlist nl2("postem");
  const NetId a2 = nl2.AddInput("a");
  const NetId s2 = nl2.AddGate(CellType::kBuf, {a2});
  const NetId g2 = nl2.AddGate(CellType::kInv, {s2});
  nl2.MarkOutput(s2, "s");
  nl2.MarkOutput(g2, "g");
  nl2.Freeze();
  EXPECT_TRUE(nl2.IsStem(s2));
  EXPECT_TRUE(nl2.IsStem(g2));
  EXPECT_EQ(nl2.stem_of(a2), s2);
  EXPECT_EQ(nl2.num_ffrs(), 2u);
}

TEST(FfrClassGroups, GroupingIsValidAndRegionConsistent) {
  Rng rng(0x66F1);
  for (int round = 0; round < 3; ++round) {
    const Netlist nl =
        RandomNetlist(rng, 6 + static_cast<int>(rng.below(8)),
                      40 + static_cast<int>(rng.below(100)));
    const auto faults = EnumerateFaults(nl);
    const FaultCollapse fc = BuildFaultCollapse(nl, faults);
    const FfrClassGroups groups =
        GroupClassesByFfr(nl, faults, fc.class_offsets, fc.members);

    // The grouped class indices are a permutation of all classes.
    std::vector<std::uint32_t> seen = groups.classes;
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), fc.num_classes());
    for (std::uint32_t c = 0; c < seen.size(); ++c) EXPECT_EQ(seen[c], c);

    ASSERT_EQ(groups.group_offsets.size(), groups.num_groups() + 1);
    for (std::size_t g = 0; g < groups.num_groups(); ++g) {
      EXPECT_EQ(nl.ffr_stem(groups.ffrs[g]), groups.stems[g]);
      if (g > 0) EXPECT_LT(groups.stems[g - 1], groups.stems[g]);
      const auto cls = groups.group_classes(g);
      ASSERT_FALSE(cls.empty());
      EXPECT_TRUE(std::is_sorted(cls.begin(), cls.end()));
      // Every member of every class of the group sits in the group's
      // region — the engine's one-propagation-per-region contract.
      for (const std::uint32_t c : cls) {
        for (const std::uint32_t m : fc.class_members(c)) {
          EXPECT_EQ(nl.stem_of(faults[m].gate), groups.stems[g]);
        }
      }
    }
  }
}

// --- Conformance with the reference ---

TEST(FfrTrace, MatchesReferenceOnRandomNetlists) {
  Rng rng(0xFF7A);
  for (int round = 0; round < 6; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const int gates = 20 + static_cast<int>(rng.below(120));
    const Netlist nl = round % 2 == 0 ? TreeNetlist(rng, inputs, gates)
                                      : RandomNetlist(rng, inputs, gates);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 1 + static_cast<int>(rng.below(300)));
    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      for (const bool drop : {true, false}) {
        ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults,
                                    nullptr, {.drop_detected = drop},
                                    nl.name() + " round " +
                                        std::to_string(round));
      }
    }
  }
}

TEST(FfrTrace, SkipMasks) {
  Rng rng(0xFF51);
  for (int round = 0; round < 3; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        TreeNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = EnumerateFaults(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(200)));
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

TEST(FfrTrace, BundledModulesWithoutDropping) {
  // No dropping keeps every region live in every block, so every trace
  // and stem propagation of the run is checked. SP and SFU run a ~3%
  // fault sample through the skip mask.
  Rng rng(0xD0FF);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    const bool whole = nl.gate_count() < 1000;
    const BitVec skip = RandomSkip(rng, faults.size(), whole ? 0.0 : 0.97);
    const PatternSet pats =
        RandomPatterns(rng, static_cast<int>(nl.num_inputs()), 200);
    ExpectEnginesMatchReference(Model::kStuckAt, nl, pats, faults, &skip,
                                {.drop_detected = false}, nl.name());
  }
}

}  // namespace
}  // namespace gpustl::fault
