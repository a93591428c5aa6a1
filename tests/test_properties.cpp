// Cross-validation property tests (parameterized sweeps over seeds):
//
//  * random netlists: the PPSFP fault simulator, and the reference
//    simulator the conformance suites use as their oracle
//    (reference_sim.h), are checked fault-by-fault, pattern-by-pattern
//    against a brute-force faulty-circuit evaluator;
//  * PODEM patterns on random netlists are confirmed by the fault sim;
//  * random programs: the GPU model's architectural results are invariant
//    under the SP-core count (timing-only knob) and bit-identical across
//    repeated runs;
//  * generated PTPs survive the disassemble -> assemble round trip;
//  * compaction bookkeeping invariants on generated PTPs.
#include <gtest/gtest.h>

#include <map>

#include "atpg/podem.h"
#include "circuits/decoder_unit.h"
#include "common/rng.h"
#include "compact/compactor.h"
#include "fault/faultsim.h"
#include "gpu/sm.h"
#include "isa/assembler.h"
#include "isa/cfg.h"
#include "isa/disasm.h"
#include "netlist/logicsim.h"
#include "reference_sim.h"
#include "stl/generators.h"

namespace gpustl {
namespace {

using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// Builds a random combinational netlist: `inputs` PIs, `gates` gates of
/// random types over random already-defined nets, last few nets as outputs.
Netlist RandomNetlist(Rng& rng, int inputs, int gates, int outputs) {
  Netlist nl("rand");
  for (int i = 0; i < inputs; ++i) nl.AddInput("i" + std::to_string(i));
  static const CellType kTypes[] = {
      CellType::kBuf,   CellType::kInv,   CellType::kAnd2, CellType::kOr2,
      CellType::kNand2, CellType::kNor2,  CellType::kXor2, CellType::kXnor2,
      CellType::kMux2,  CellType::kAnd3,  CellType::kOr3,  CellType::kAoi21,
      CellType::kOai21, CellType::kAoi22, CellType::kOai22};
  for (int g = 0; g < gates; ++g) {
    const CellType type = kTypes[rng.below(std::size(kTypes))];
    std::vector<NetId> fanin;
    for (int i = 0; i < netlist::CellFaninCount(type); ++i) {
      fanin.push_back(static_cast<NetId>(rng.below(nl.gate_count())));
    }
    nl.AddGate(type, fanin);
  }
  for (int o = 0; o < outputs; ++o) {
    nl.MarkOutput(static_cast<NetId>(nl.gate_count() - 1 - o),
                  "o" + std::to_string(o));
  }
  nl.Freeze();
  return nl;
}

/// Brute-force single-pattern, single-fault evaluation by direct recursion
/// over the netlist (reference model for the PPSFP engine).
struct BruteForce {
  const Netlist& nl;
  const fault::Fault* fault = nullptr;  // nullptr = good machine

  bool Eval(NetId id, const std::vector<bool>& pi_values) const {
    const auto& g = nl.gate(id);
    if (fault != nullptr && fault->pin == fault::Fault::kOutputPin &&
        fault->gate == id) {
      return fault->sa1;
    }
    if (g.type == CellType::kInput) {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        if (nl.inputs()[i] == id) return pi_values[i];
      }
      return false;
    }
    std::uint64_t in[4] = {0, 0, 0, 0};
    for (int i = 0; i < g.fanin_count(); ++i) {
      bool v = Eval(g.fanin[i], pi_values);
      if (fault != nullptr && fault->gate == id && fault->pin == i) {
        v = fault->sa1;
      }
      in[i] = v ? ~0ull : 0ull;
    }
    return netlist::EvalCell(g.type, in) & 1;
  }

  /// True iff the fault is detected by the pattern (any output differs).
  bool Detects(const fault::Fault& f, const std::vector<bool>& pi) const {
    BruteForce good{nl, nullptr};
    BruteForce bad{nl, &f};
    for (NetId o : nl.outputs()) {
      if (good.Eval(o, pi) != bad.Eval(o, pi)) return true;
    }
    return false;
  }
};

class RandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuits, PpsfpMatchesBruteForce) {
  Rng rng(GetParam());
  const Netlist nl = RandomNetlist(rng, 6, 30, 4);
  const auto faults = fault::CollapsedFaultList(nl);

  PatternSet pats(6);
  std::vector<std::vector<bool>> pi_rows;
  for (int p = 0; p < 40; ++p) {
    const std::uint64_t bits = rng() & 0x3F;
    pats.Add64(static_cast<std::uint64_t>(p), bits);
    std::vector<bool> row(6);
    for (int i = 0; i < 6; ++i) row[static_cast<std::size_t>(i)] = (bits >> i) & 1;
    pi_rows.push_back(std::move(row));
  }

  // No dropping so detects_per_pattern records every detection.
  const auto res = fault::RunFaultSim(nl, pats, faults, nullptr,
                                      {.drop_detected = false});

  BruteForce ref{nl, nullptr};
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::uint32_t first = fault::FaultSimResult::kNotDetected;
    for (std::size_t p = 0; p < pi_rows.size(); ++p) {
      if (ref.Detects(faults[fi], pi_rows[p])) {
        first = static_cast<std::uint32_t>(p);
        break;
      }
    }
    EXPECT_EQ(res.first_detect[fi], first)
        << fault::FaultName(nl, faults[fi]) << " seed " << GetParam();
  }
}

TEST_P(RandomCircuits, PerPatternCountsMatchBruteForce) {
  Rng rng(GetParam() + 1000);
  const Netlist nl = RandomNetlist(rng, 5, 20, 3);
  const auto faults = fault::CollapsedFaultList(nl);

  PatternSet pats(5);
  std::vector<std::vector<bool>> pi_rows;
  for (int p = 0; p < 20; ++p) {
    const std::uint64_t bits = rng() & 0x1F;
    pats.Add64(static_cast<std::uint64_t>(p), bits);
    std::vector<bool> row(5);
    for (int i = 0; i < 5; ++i) row[static_cast<std::size_t>(i)] = (bits >> i) & 1;
    pi_rows.push_back(std::move(row));
  }
  const auto res = fault::RunFaultSim(nl, pats, faults, nullptr,
                                      {.drop_detected = false});

  BruteForce ref{nl, nullptr};
  for (std::size_t p = 0; p < pi_rows.size(); ++p) {
    std::uint32_t expect = 0;
    for (const auto& f : faults) {
      expect += ref.Detects(f, pi_rows[p]) ? 1 : 0;
    }
    EXPECT_EQ(res.detects_per_pattern[p], expect) << "pattern " << p;
  }
}

TEST_P(RandomCircuits, ReferenceMatchesBruteForce) {
  // The conformance suites' oracle against this file's: every detection of
  // every fault, stuck-at and transition, over patterns spanning blocks.
  Rng rng(GetParam() + 3000);
  const Netlist nl = RandomNetlist(rng, 6, 30, 4);
  const auto faults = fault::EnumerateFaults(nl);

  PatternSet pats(6);
  std::vector<std::vector<bool>> pi_rows;
  for (int p = 0; p < 100; ++p) {
    const std::uint64_t bits = rng() & 0x3F;
    pats.Add64(static_cast<std::uint64_t>(p), bits);
    std::vector<bool> row(6);
    for (int i = 0; i < 6; ++i) row[i] = (bits >> i) & 1;
    pi_rows.push_back(std::move(row));
  }

  const BruteForce good{nl, nullptr};
  for (const auto model :
       {reference::Model::kStuckAt, reference::Model::kTransition}) {
    const auto res =
        reference::Simulate(model, nl, pats, faults, nullptr, false);
    std::vector<std::uint32_t> counts(pi_rows.size(), 0);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const fault::Fault& f = faults[fi];
      const NetId site = f.pin == fault::Fault::kOutputPin
                             ? f.gate
                             : nl.gate(f.gate).fanin[f.pin];
      std::uint32_t first = fault::FaultSimResult::kNotDetected;
      for (std::size_t p = 0; p < pi_rows.size(); ++p) {
        bool hit = good.Detects(f, pi_rows[p]);
        if (model == reference::Model::kTransition) {
          hit = hit && p > 0 && good.Eval(site, pi_rows[p - 1]) == f.sa1;
        }
        if (!hit) continue;
        ++counts[p];
        if (first == fault::FaultSimResult::kNotDetected) {
          first = static_cast<std::uint32_t>(p);
        }
      }
      EXPECT_EQ(res.first_detect[fi], first)
          << fault::FaultName(nl, f) << " seed " << GetParam();
    }
    EXPECT_EQ(res.detects_per_pattern, counts) << "seed " << GetParam();
  }
}

TEST_P(RandomCircuits, PodemPatternsConfirmedByFaultSim) {
  Rng rng(GetParam() + 2000);
  const Netlist nl = RandomNetlist(rng, 8, 40, 4);
  const auto faults = fault::CollapsedFaultList(nl);

  int detected = 0, untestable = 0;
  for (const auto& f : faults) {
    const auto res = atpg::GeneratePattern(nl, f);
    if (res.status == atpg::AtpgStatus::kUntestable) {
      ++untestable;
      continue;
    }
    if (res.status != atpg::AtpgStatus::kDetected) continue;
    ++detected;
    PatternSet pats(8);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      if (res.assignment[i] == 1) bits |= 1ull << i;
    }
    pats.Add64(0, bits);
    const auto sim = fault::RunFaultSim(nl, pats, {f});
    EXPECT_EQ(sim.num_detected, 1u) << fault::FaultName(nl, f);
  }
  // Random netlists contain redundancy, but most faults must be testable.
  EXPECT_GT(detected, untestable / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- GPU model properties ---

class GeneratedPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedPrograms, MemoryImageInvariantUnderSpCount) {
  const isa::Program p = stl::GenerateRand(8, GetParam());
  gpu::SmConfig c8, c32;
  c8.num_sp = 8;
  c32.num_sp = 32;
  const auto r8 = gpu::Sm(c8).Run(p);
  const auto r32 = gpu::Sm(c32).Run(p);
  EXPECT_EQ(r8.global, r32.global);
  EXPECT_EQ(r8.dynamic_instructions, r32.dynamic_instructions);
}

TEST_P(GeneratedPrograms, ExecutionIsDeterministic) {
  const isa::Program p = stl::GenerateMem(6, GetParam());
  const auto r1 = gpu::Sm().Run(p);
  const auto r2 = gpu::Sm().Run(p);
  EXPECT_EQ(r1.global, r2.global);
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
}

TEST_P(GeneratedPrograms, DisassembleAssembleRoundTrip) {
  for (const isa::Program& p :
       {stl::GenerateImm(5, GetParam()), stl::GenerateMem(5, GetParam()),
        stl::GenerateCntrl(3, GetParam()), stl::GenerateRand(5, GetParam())}) {
    const isa::Program back = isa::Assemble(isa::DisassembleProgram(p));
    EXPECT_EQ(back, p) << p.name();
  }
}

TEST_P(GeneratedPrograms, CompactionBookkeepingInvariants) {
  static const netlist::Netlist du = circuits::BuildDecoderUnit();
  const isa::Program p = stl::GenerateImm(12, GetParam());
  compact::Compactor compactor(du, trace::TargetModule::kDecoderUnit);
  const auto res = compactor.CompactPtp(p);

  // Essential instructions are never removed.
  const isa::Cfg cfg(p);
  const auto sbs = compact::SegmentSmallBlocks(p, cfg.AdmissibleMask());
  const auto removals = compact::SelectRemovals(sbs, res.labels);
  for (const std::size_t idx : removals) {
    EXPECT_FALSE(res.labels[idx]) << "removed essential instruction " << idx;
  }
  // Size bookkeeping is exact.
  EXPECT_EQ(res.result.size_instr, p.size() - removals.size());
  // Removed SBs + kept SBs == all admissible SBs.
  EXPECT_LE(res.removed_sbs, res.num_sbs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPrograms,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace gpustl
