// The good pass (fault/trim.cpp) must give the same result for every
// thread count: the GoodTable word for word against a plain serial
// BitSimulator pass, and both early-exit tables (stuck-at per class,
// transition per fault) against a serial per-pattern fold, at 1, 2, 3, 4
// and 7 threads and every lane count the engine runs here. Pattern counts
// sit on and around the 64-pattern block and the wide block, and one
// netlist puts its only launch exactly on a worker range boundary. The
// engines built on the pass are then held to the reference simulator at
// 1, 3 and 4 threads, where the contiguous ranges come out uneven.
//
// This suite carries the ctest label `tsan` (the pass writes one table
// from several workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "fault/collapse.h"
#include "fault/engine.h"
#include "fault/fault.h"
#include "fault/parallel.h"
#include "fault/transition.h"
#include "fault_test_util.h"
#include "netlist/logicsim.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"
#include "reference_sim.h"

namespace gpustl::fault {
namespace {

using conformance::ExpectEnginesMatchReference;
using conformance::RandomNetlist;
using conformance::RandomPatterns;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

constexpr int kThreads[] = {1, 2, 3, 4, 7};

/// Per 64-pattern block, every net's good word: one plain BitSimulator.
std::vector<std::vector<std::uint64_t>> SerialGood(const Netlist& nl,
                                                   const PatternSet& pats) {
  std::vector<std::vector<std::uint64_t>> blocks;
  netlist::BitSimulator sim(nl);
  for (std::size_t first = 0; first < pats.size(); first += 64) {
    sim.LoadBlock(pats, first);
    sim.Eval();
    blocks.push_back(sim.values());
  }
  return blocks;
}

bool GoodBit(const std::vector<std::vector<std::uint64_t>>& good, NetId n,
             std::size_t p) {
  return ((good[p / 64][n] >> (p % 64)) & 1) != 0;
}

NetId SiteNet(const Netlist& nl, const Fault& f) {
  return f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
}

/// Serial fold: the last block with a pattern on which the stuck value
/// differs from the good value at the site.
std::int64_t LastStuckAtBlock(
    const Netlist& nl, const std::vector<std::vector<std::uint64_t>>& good,
    std::size_t num_patterns, const Fault& f) {
  std::int64_t last = -1;
  for (std::size_t p = 0; p < num_patterns; ++p) {
    if (GoodBit(good, SiteNet(nl, f), p) != f.sa1) {
      last = static_cast<std::int64_t>(p / 64);
    }
  }
  return last;
}

/// Serial fold: the last block with a launch-capture pair (patterns p-1,
/// p) for the transition fault — slow-to-fall 1 -> 0, slow-to-rise 0 -> 1.
std::int64_t LastTransitionBlock(
    const Netlist& nl, const std::vector<std::vector<std::uint64_t>>& good,
    std::size_t num_patterns, const Fault& f) {
  std::int64_t last = -1;
  const NetId n = SiteNet(nl, f);
  for (std::size_t p = 1; p < num_patterns; ++p) {
    if (GoodBit(good, n, p - 1) == f.sa1 && GoodBit(good, n, p) != f.sa1) {
      last = static_cast<std::int64_t>(p / 64);
    }
  }
  return last;
}

void ExpectTableMatches(const GoodTable& table,
                        const std::vector<std::vector<std::uint64_t>>& want,
                        std::size_t num_patterns, int lanes,
                        const std::string& what) {
  const std::size_t L = static_cast<std::size_t>(lanes);
  ASSERT_EQ(table.lanes(), lanes) << what;
  ASSERT_EQ(table.num_blocks(), (num_patterns + 64 * L - 1) / (64 * L))
      << what;
  for (std::size_t wb = 0; wb < table.num_blocks(); ++wb) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.block(wb)) % (8 * L), 0u)
        << what << " wide block " << wb << " misaligned";
    const std::size_t left = num_patterns - wb * 64 * L;
    EXPECT_EQ(table.count(wb), static_cast<int>(std::min(left, 64 * L)))
        << what;
    for (std::size_t k = 0; k < L; ++k) {
      const std::size_t b = wb * L + k;
      for (std::size_t n = 0; n < table.nets(); ++n) {
        const std::uint64_t got = table.block(wb)[n * L + k];
        const std::uint64_t expect = b < want.size() ? want[b][n] : 0;
        if (got != expect) {
          ADD_FAILURE() << what << " block " << b << " net " << n << ": got "
                        << got << ", want " << expect;
          return;
        }
      }
    }
  }
}

/// Runs both passes at every thread count of kThreads and every supported
/// lane count and checks them against the serial pass and fold.
void ExpectGoodPassMatchesSerial(const Netlist& nl, const PatternSet& pats,
                                 const std::string& what) {
  const std::vector<Fault> faults = CollapsedFaultList(nl);
  const FaultCollapse collapse = BuildFaultCollapse(nl, faults);
  const internal::SimPlan plan = internal::BuildSimPlan(collapse, nullptr);
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < faults.size(); i += 2) live.push_back(i);

  const auto good = SerialGood(nl, pats);
  std::vector<std::int64_t> want_sa(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    want_sa[c] = LastStuckAtBlock(nl, good, pats.size(),
                                  faults[plan.members[plan.offsets[c]]]);
  }
  std::vector<std::int64_t> want_tr(faults.size(), -1);
  for (const std::uint32_t fi : live) {
    want_tr[fi] = LastTransitionBlock(nl, good, pats.size(), faults[fi]);
  }

  for (const int lanes : internal::SupportedLanes()) {
    for (const int t : kThreads) {
      const std::string tag = what + " patterns=" +
                              std::to_string(pats.size()) +
                              " lanes=" + std::to_string(lanes) +
                              " threads=" + std::to_string(t);
      FaultSimOptions options;
      options.num_threads = t;
      const internal::GoodPass sa =
          internal::StuckAtGoodPass(nl, pats, faults, plan, lanes, options);
      ExpectTableMatches(sa.good, good, pats.size(), lanes, tag + " stuck-at");
      EXPECT_EQ(sa.last_act, want_sa) << tag << " stuck-at last activation";

      const internal::GoodPass tr =
          internal::TransitionGoodPass(nl, pats, faults, live, lanes, options);
      ExpectTableMatches(tr.good, good, pats.size(), lanes,
                         tag + " transition");
      EXPECT_EQ(tr.last_act, want_tr) << tag << " transition last activation";
    }
  }
}

/// Two buffered inputs whose only transitions sit at pattern `edge`: i0
/// rises there, i1 falls there.
Netlist EdgeNetlist() {
  Netlist nl("edge");
  const NetId i0 = nl.AddInput("i0");
  const NetId i1 = nl.AddInput("i1");
  nl.MarkOutput(nl.AddGate(netlist::CellType::kBuf, {i0}), "o0");
  nl.MarkOutput(nl.AddGate(netlist::CellType::kBuf, {i1}), "o1");
  nl.Freeze();
  return nl;
}

PatternSet EdgePatterns(std::size_t count, std::size_t edge) {
  PatternSet pats(2);
  for (std::size_t p = 0; p < count; ++p) {
    const std::uint64_t word = p >= edge ? 1 : 2;
    pats.Add(p, &word);
  }
  return pats;
}

TEST(GoodPass, MatchesSerialPassAtEveryThreadCountAndWidth) {
  Rng rng(0x600d);
  const Netlist nl = RandomNetlist(rng, 12, 90);
  for (const int lanes : internal::SupportedLanes()) {
    const int bits = 64 * lanes;
    for (const int count : {1, 63, 64, 65, bits - 1, bits + 1, 5 * bits + 17}) {
      ExpectGoodPassMatchesSerial(nl, RandomPatterns(rng, 12, count),
                                  "random width " + std::to_string(bits));
    }
  }
}

TEST(GoodPass, LaunchOnAWorkerRangeBoundary) {
  // Four wide blocks; at 2..7 threads a range starts at wide block 2, and
  // the edge netlist's only rise and fall are that range's first pattern,
  // launched from the previous range's last pattern.
  const Netlist nl = EdgeNetlist();
  for (const int lanes : internal::SupportedLanes()) {
    const std::size_t bits = 64 * static_cast<std::size_t>(lanes);
    const PatternSet pats = EdgePatterns(4 * bits, 2 * bits);
    ExpectGoodPassMatchesSerial(nl, pats, "edge");

    const std::vector<Fault> faults = CollapsedFaultList(nl);
    ExpectEnginesMatchReference(reference::Model::kTransition, nl, pats,
                                faults, nullptr, {}, "edge", {1, 2, 3, 4});
  }
}

TEST(GoodPass, ExpiredTokenThrowsAfterTheJoin) {
  Rng rng(7);
  const Netlist nl = RandomNetlist(rng, 8, 40);
  const PatternSet pats = RandomPatterns(rng, 8, 2000);
  const std::vector<Fault> faults = CollapsedFaultList(nl);
  const FaultCollapse collapse = BuildFaultCollapse(nl, faults);
  const internal::SimPlan plan = internal::BuildSimPlan(collapse, nullptr);
  CancelToken token;
  token.RequestCancel();
  FaultSimOptions options;
  options.cancel = &token;
  for (const int t : {1, 3}) {
    options.num_threads = t;
    EXPECT_THROW(
        internal::StuckAtGoodPass(nl, pats, faults, plan, 4, options),
        DeadlineError);
    EXPECT_THROW(internal::TransitionGoodPass(nl, pats, faults, {0, 1}, 4,
                                              options),
                 DeadlineError);
  }
}

TEST(GoodPass, EnginesMatchReferenceOnUnevenRanges) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 3; ++trial) {
    const Netlist nl = RandomNetlist(rng, 10, 70);
    const std::vector<Fault> faults = CollapsedFaultList(nl);
    for (const int count : {65, 257, 1100, 2600}) {
      const PatternSet pats = RandomPatterns(rng, 10, count);
      for (const bool drop : {true, false}) {
        FaultSimOptions base;
        base.drop_detected = drop;
        const std::string what = "trial " + std::to_string(trial) +
                                 " patterns=" + std::to_string(count);
        ExpectEnginesMatchReference(reference::Model::kStuckAt, nl, pats,
                                    faults, nullptr, base, what, {1, 3, 4});
        ExpectEnginesMatchReference(reference::Model::kTransition, nl, pats,
                                    faults, nullptr, base, what, {1, 3, 4});
      }
    }
  }
}

}  // namespace
}  // namespace gpustl::fault
