// Differential and property tests for the fault-parallel PPSFP engine:
// randomized netlists x random pattern sets, asserting that the sharded
// engine (num_threads in {2, 4, 8}, and 0 = all cores) reproduces the
// serial oracle (num_threads = 1) bit-for-bit — first_detect,
// detected_mask and both per-pattern histograms — with and without fault
// dropping and under nontrivial skip masks. A repeated-run determinism
// test catches merge-order races that a single diff against serial could
// miss. This suite carries the ctest label `tsan`: build with
// -DGPUSTL_SANITIZE=thread and run `ctest -L tsan` to race-check the
// worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/transition.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault {
namespace {

using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// A random combinational netlist: `num_gates` gates of random library
/// cells over random already-built nets (ids ascending, so the result is
/// acyclic by construction), with the last gates plus a random sample
/// marked as outputs.
Netlist RandomNetlist(Rng& rng, int num_inputs, int num_gates) {
  static constexpr CellType kTypes[] = {
      CellType::kBuf,   CellType::kInv,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kAnd4,  CellType::kOr2,   CellType::kOr3,   CellType::kOr4,
      CellType::kNand2, CellType::kNand3, CellType::kNand4, CellType::kNor2,
      CellType::kNor3,  CellType::kNor4,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2,  CellType::kAoi21, CellType::kAoi22, CellType::kOai21,
      CellType::kOai22};

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
  // Observe the last two gates (so deep logic is visible) plus a few random
  // internal nets — module-level observability with a partial output port.
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
  const std::uint64_t mask =
      width >= 64 ? ~0ull : ((1ull << width) - 1);
  for (int p = 0; p < count; ++p) {
    pats.Add64(static_cast<std::uint64_t>(p), rng() & mask);
  }
  return pats;
}

BitVec RandomSkip(Rng& rng, std::size_t n, double p) {
  BitVec skip(n, false);
  for (std::size_t i = 0; i < n; ++i) skip.Set(i, rng.chance(p));
  return skip;
}

void ExpectIdentical(const FaultSimResult& serial,
                     const FaultSimResult& parallel, const char* what) {
  EXPECT_EQ(serial.first_detect, parallel.first_detect) << what;
  EXPECT_EQ(serial.detects_per_pattern, parallel.detects_per_pattern) << what;
  EXPECT_EQ(serial.num_detected, parallel.num_detected) << what;
  EXPECT_TRUE(serial.detected_mask == parallel.detected_mask) << what;
}

TEST(FaultSimParallel, DifferentialAgainstSerialOracle) {
  Rng rng(0xD1FF);
  for (int round = 0; round < 6; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const int gates = 20 + static_cast<int>(rng.below(120));
    const Netlist nl = RandomNetlist(rng, inputs, gates);
    const auto faults = CollapsedFaultList(nl);
    // Pattern counts straddle the 64-wide block boundary.
    const int npat = 1 + static_cast<int>(rng.below(200));
    const PatternSet pats = RandomPatterns(rng, inputs, npat);

    for (const bool drop : {true, false}) {
      const auto serial =
          RunFaultSim(nl, pats, faults, nullptr,
                      {.drop_detected = drop, .num_threads = 1});
      for (const int threads : {2, 4, 8}) {
        const auto parallel =
            RunFaultSim(nl, pats, faults, nullptr,
                        {.drop_detected = drop, .num_threads = threads});
        ExpectIdentical(serial, parallel,
                        drop ? "drop_detected" : "no-drop");
      }
    }
  }
}

TEST(FaultSimParallel, DifferentialWithSkipMasks) {
  Rng rng(0x5C1B);
  for (int round = 0; round < 4; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = CollapsedFaultList(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(120)));
    // Sweep skip densities including the degenerate all-skipped mask.
    for (const double density : {0.1, 0.5, 0.9, 1.0}) {
      const BitVec skip = RandomSkip(rng, faults.size(), density);
      for (const bool drop : {true, false}) {
        const auto serial =
            RunFaultSim(nl, pats, faults, &skip,
                        {.drop_detected = drop, .num_threads = 1});
        for (const int threads : {2, 4, 8}) {
          const auto parallel =
              RunFaultSim(nl, pats, faults, &skip,
                          {.drop_detected = drop, .num_threads = threads});
          ExpectIdentical(serial, parallel, "skip mask");
          // Skipped faults must never surface in any report field.
          for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (skip.Get(fi)) {
              EXPECT_EQ(parallel.first_detect[fi],
                        FaultSimResult::kNotDetected);
              EXPECT_FALSE(parallel.detected_mask.Get(fi));
            }
          }
        }
      }
    }
  }
}

TEST(FaultSimParallel, TransitionDifferentialAgainstSerial) {
  // The transition engine shards the same way (per-fault launch history
  // partitions with the fault list), so it gets the same differential lock.
  Rng rng(0x7A17);
  for (int round = 0; round < 4; ++round) {
    const int inputs = 4 + static_cast<int>(rng.below(10));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(100)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 70 + static_cast<int>(rng.below(100)));
    const BitVec skip = RandomSkip(rng, faults.size(), 0.3);

    for (const bool drop : {true, false}) {
      for (const BitVec* mask : {static_cast<const BitVec*>(nullptr), &skip}) {
        const auto serial =
            RunTransitionFaultSim(nl, pats, faults, mask,
                                  {.drop_detected = drop, .num_threads = 1});
        for (const int threads : {2, 4, 8}) {
          const auto parallel = RunTransitionFaultSim(
              nl, pats, faults, mask,
              {.drop_detected = drop, .num_threads = threads});
          ExpectIdentical(serial, parallel, "transition");
        }
      }
    }
  }
}

TEST(FaultSimParallel, RepeatedRunsAreDeterministic) {
  // 5x the same parallel run must be bitwise identical each time. A merge
  // that depended on thread completion order would pass a one-shot diff
  // against serial only by luck; repetition flushes such races out.
  Rng rng(0xDE7);
  const Netlist nl = RandomNetlist(rng, 10, 120);
  const auto faults = CollapsedFaultList(nl);
  const PatternSet pats = RandomPatterns(rng, 10, 150);

  for (const int threads : {4, 8}) {
    const auto first = RunFaultSim(nl, pats, faults, nullptr,
                                   {.drop_detected = true,
                                    .num_threads = threads});
    for (int run = 1; run < 5; ++run) {
      const auto again = RunFaultSim(nl, pats, faults, nullptr,
                                     {.drop_detected = true,
                                      .num_threads = threads});
      ExpectIdentical(first, again, "repeated run");
    }
  }
}

TEST(FaultSimParallel, ZeroThreadsUsesAllCoresAndStaysExact) {
  Rng rng(0xAB5);
  const Netlist nl = RandomNetlist(rng, 8, 90);
  const auto faults = CollapsedFaultList(nl);
  const PatternSet pats = RandomPatterns(rng, 8, 130);

  const auto serial = RunFaultSim(nl, pats, faults);
  const auto parallel = RunFaultSim(nl, pats, faults, nullptr,
                                    {.drop_detected = true, .num_threads = 0});
  ExpectIdentical(serial, parallel, "num_threads = 0");
}

TEST(FaultSimParallel, MoreThreadsThanFaults) {
  // Thread counts beyond the live-fault count clamp down instead of
  // spawning empty shards.
  Rng rng(0x91);
  const Netlist nl = RandomNetlist(rng, 5, 20);
  auto faults = CollapsedFaultList(nl);
  faults.resize(3);
  const PatternSet pats = RandomPatterns(rng, 5, 40);

  const auto serial = RunFaultSim(nl, pats, faults);
  const auto parallel = RunFaultSim(nl, pats, faults, nullptr,
                                    {.drop_detected = true, .num_threads = 64});
  ExpectIdentical(serial, parallel, "threads > faults");
}

TEST(FaultSimParallel, EmptyPatternSetAndFullSkip) {
  Rng rng(0x44);
  const Netlist nl = RandomNetlist(rng, 6, 30);
  const auto faults = CollapsedFaultList(nl);

  const PatternSet empty(6);
  const auto no_patterns = RunFaultSim(nl, empty, faults, nullptr,
                                       {.drop_detected = true,
                                        .num_threads = 4});
  EXPECT_EQ(no_patterns.num_detected, 0u);

  const BitVec all(faults.size(), true);
  const PatternSet pats = RandomPatterns(rng, 6, 30);
  const auto all_skipped = RunFaultSim(nl, pats, faults, &all,
                                       {.drop_detected = true,
                                        .num_threads = 4});
  EXPECT_EQ(all_skipped.num_detected, 0u);
  for (const auto fd : all_skipped.first_detect) {
    EXPECT_EQ(fd, FaultSimResult::kNotDetected);
  }
}

// --- Sharding primitives ---

TEST(FaultSimParallel, ResolveNumThreadsClamps) {
  EXPECT_EQ(ResolveNumThreads(1, 1000), 1);
  EXPECT_EQ(ResolveNumThreads(4, 1000), 4);
  EXPECT_EQ(ResolveNumThreads(8, 3), 3);
  EXPECT_EQ(ResolveNumThreads(4, 0), 1);
  EXPECT_GE(ResolveNumThreads(0, 1000), 1);  // hardware_concurrency
}

TEST(FaultSimParallel, StrideShardsPartitionExactly) {
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < 37; ++i) live.push_back(i * 3);

  const auto shards = StrideShards(live, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<std::uint32_t> seen;
  for (const auto& shard : shards) {
    // Each shard preserves the serial (ascending fault-id) order.
    for (std::size_t i = 1; i < shard.size(); ++i) {
      EXPECT_LT(shard[i - 1], shard[i]);
    }
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  // Disjoint and complete: the shards are a partition of `live`.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, live);
  // Balanced to within one element.
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), live.size() / 4);
    EXPECT_LE(shard.size(), live.size() / 4 + 1);
  }
}

TEST(FaultSimParallel, MergeScattersDisjointShards) {
  FaultSimResult a = InitFaultSimResult(4, 3);
  FaultSimResult b = InitFaultSimResult(4, 3);
  a.first_detect[0] = 2;
  a.detected_mask.Set(0, true);
  a.num_detected = 1;
  a.detects_per_pattern = {0, 0, 1};
  b.first_detect[3] = 0;
  b.detected_mask.Set(3, true);
  b.num_detected = 1;
  b.detects_per_pattern = {1, 0, 0};

  FaultSimResult out = InitFaultSimResult(4, 3);
  MergeShardResults({a, b}, out);
  EXPECT_EQ(out.first_detect,
            (std::vector<std::uint32_t>{2, FaultSimResult::kNotDetected,
                                        FaultSimResult::kNotDetected, 0}));
  EXPECT_EQ(out.num_detected, 2u);
  EXPECT_EQ(out.detects_per_pattern, (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_TRUE(out.detected_mask.Get(0));
  EXPECT_FALSE(out.detected_mask.Get(1));
  EXPECT_TRUE(out.detected_mask.Get(3));
}

}  // namespace
}  // namespace gpustl::fault
