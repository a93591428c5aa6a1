// Random inputs and the reference comparison shared by the
// fault-simulation conformance suites (test_backend, test_ffr,
// test_collapse, test_trim, test_good_pass): the engine at every lane count
// this machine runs (internal::SupportedLanes), at 1 and 4 threads, must
// reproduce the independent reference simulator (reference_sim.h).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "fault/engine.h"
#include "fault/faultsim.h"
#include "fault/transition.h"
#include "netlist/cell.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"
#include "reference_sim.h"

namespace gpustl::fault::conformance {

/// A random combinational netlist over every cell type (constants
/// included): `num_gates` gates over random earlier nets, the last two
/// nets plus three random gates as outputs.
inline netlist::Netlist RandomNetlist(Rng& rng, int num_inputs,
                                      int num_gates) {
  using netlist::CellType;
  static constexpr CellType kTypes[] = {
      CellType::kBuf,   CellType::kInv,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kAnd4,  CellType::kOr2,   CellType::kOr3,   CellType::kOr4,
      CellType::kNand2, CellType::kNand3, CellType::kNand4, CellType::kNor2,
      CellType::kNor3,  CellType::kNor4,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2,  CellType::kAoi21, CellType::kAoi22, CellType::kOai21,
      CellType::kOai22, CellType::kConst0, CellType::kConst1};

  netlist::Netlist nl("rand");
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(nl.AddInput("i" + std::to_string(i)));
  }
  for (int g = 0; g < num_gates; ++g) {
    const CellType type = kTypes[rng.below(std::size(kTypes))];
    std::vector<netlist::NetId> fanin(netlist::CellFaninCount(type));
    for (netlist::NetId& f : fanin) f = nets[rng.below(nets.size())];
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

/// `count` uniformly random patterns of any width.
inline netlist::PatternSet RandomPatterns(Rng& rng, int width, int count) {
  netlist::PatternSet pats(width);
  std::vector<std::uint64_t> words((width + 63) / 64);
  for (int p = 0; p < count; ++p) {
    for (std::uint64_t& w : words) w = rng();
    pats.Add(static_cast<std::uint64_t>(p), words.data());
  }
  return pats;
}

/// Pattern counts that end on and just past every engine width.
inline constexpr int kBlockEdges[] = {1,   63,  64,  65,  127, 128, 129,
                                      255, 256, 257, 511, 512, 513};

/// Each fault skipped with probability `p`.
inline BitVec RandomSkip(Rng& rng, std::size_t n, double p) {
  BitVec skip(n, false);
  for (std::size_t i = 0; i < n; ++i) skip.Set(i, rng.chance(p));
  return skip;
}

inline void ExpectIdentical(const FaultSimResult& want,
                            const FaultSimResult& got,
                            const std::string& what) {
  EXPECT_EQ(want.first_detect, got.first_detect) << what;
  EXPECT_EQ(want.detects_per_pattern, got.detects_per_pattern) << what;
  EXPECT_EQ(want.num_detected, got.num_detected) << what;
  EXPECT_TRUE(want.detected_mask == got.detected_mask) << what;
}

/// The engine entry point of `model` at `lanes` lanes.
inline FaultSimResult RunEngine(reference::Model model, int lanes,
                                const netlist::Netlist& nl,
                                const netlist::PatternSet& patterns,
                                const std::vector<Fault>& faults,
                                const BitVec* skip,
                                const FaultSimOptions& options) {
  return model == reference::Model::kTransition
             ? internal::RunTransitionFaultSimAtLanes(lanes, nl, patterns,
                                                      faults, skip, options)
             : internal::RunFaultSimAtLanes(lanes, nl, patterns, faults, skip,
                                            options);
}

/// Runs the reference once, then the engine at every supported lane count
/// and each thread count of `threads`, and expects every report to equal
/// the reference's. `base` supplies the remaining options (drop_detected,
/// collapse_plan, counters); its thread count is overridden.
inline void ExpectEnginesMatchReference(
    reference::Model model, const netlist::Netlist& nl,
    const netlist::PatternSet& patterns, const std::vector<Fault>& faults,
    const BitVec* skip, const FaultSimOptions& base, const std::string& what,
    std::initializer_list<int> threads = {1, 4}) {
  const FaultSimResult want = reference::Simulate(
      model, nl, patterns, faults, skip, base.drop_detected);
  for (const int lanes : internal::SupportedLanes()) {
    for (const int t : threads) {
      FaultSimOptions options = base;
      options.num_threads = t;
      ExpectIdentical(
          want, RunEngine(model, lanes, nl, patterns, faults, skip, options),
          what + " lanes=" + std::to_string(lanes) +
              " threads=" + std::to_string(t) +
              " drop=" + std::to_string(base.drop_detected));
    }
  }
}

}  // namespace gpustl::fault::conformance
