// Architectural fault-injection tests: the gate-level faulty SP model must
// agree with (a) the fault-free reference when the fault is benign for the
// applied operands and (b) flip results exactly when the stuck-at is
// excited; the end-to-end campaign must confirm the paper's observability
// assumption (module-detected faults propagate to the GPU memory image for
// store-propagating PTPs).
#include <gtest/gtest.h>

#include "circuits/reference.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "fault/faultsim.h"
#include "gpu/sm.h"
#include "inject/inject.h"
#include "isa/assembler.h"
#include "stl/generators.h"
#include "trace/trace.h"

namespace gpustl::inject {
namespace {

using isa::CmpOp;
using isa::Opcode;

class InjectFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sp_ = new netlist::Netlist(circuits::BuildSpCore());
  }
  static void TearDownTestSuite() { delete sp_; sp_ = nullptr; }
  static netlist::Netlist* sp_;
};
netlist::Netlist* InjectFixture::sp_ = nullptr;

TEST_F(InjectFixture, UnexcitedFaultMatchesReference) {
  // An output SA1 on a net that is already 1 for these operands changes
  // nothing: the faulty model must equal the reference.
  // Find such a case by scanning a few faults.
  Rng rng(3);
  int checked = 0;
  const auto faults = fault::CollapsedFaultList(*sp_);
  for (std::size_t fi = 0; fi < faults.size() && checked < 20; fi += 97) {
    const FaultySpModel model(*sp_, faults[fi]);
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    bool pred = false;
    const std::uint32_t faulty =
        model.Eval(Opcode::IADD, CmpOp::kEQ, a, b, 0, &pred);
    const circuits::SpResult good =
        circuits::SpIntOp(Opcode::IADD, CmpOp::kEQ, a, b, 0);
    // Either the fault flips the result or it does not — but when the
    // fault simulator says this pattern cannot detect the fault, the
    // results must match.
    netlist::PatternSet pats(circuits::kSpNumInputs);
    std::uint64_t words[2];
    circuits::EncodeSpPattern(static_cast<int>(Opcode::IADD),
                              static_cast<int>(CmpOp::kEQ), a, b, 0, words);
    pats.Add(0, words);
    const auto sim = fault::RunFaultSim(*sp_, pats, {faults[fi]});
    if (sim.num_detected == 0) {
      EXPECT_EQ(faulty, good.value) << fault::FaultName(*sp_, faults[fi]);
    } else {
      EXPECT_NE(faulty, good.value) << fault::FaultName(*sp_, faults[fi]);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 20);
}

TEST_F(InjectFixture, ResultBitStuckPropagatesToMemory) {
  // Fault on a result-mux output bit: any store of an SP result must show
  // the corruption in global memory.
  const isa::Program ptp = isa::Assemble(R"(
    .threads 1
    MOV32I R1, 0x0F0F0F0F
    MOV32I R2, 0x00FF00FF
    XOR R3, R1, R2
    MOV32I R4, 0x100
    STG [R4+0], R3
    EXIT
  )");
  gpu::Sm sm;
  const auto golden = sm.Run(ptp);

  // The SP output nets are the last outputs; pick r[0]'s driver stuck-at.
  const netlist::NetId r0 = sp_->outputs()[0];
  const bool r0_good = (golden.global.Load(0x100) & 1) != 0;
  const fault::Fault f{r0, fault::Fault::kOutputPin, !r0_good};

  const InjectionResult res = RunWithFault(ptp, *sp_, f, golden.global);
  EXPECT_TRUE(res.detected);
  // The corruption reaches either the stored value or — because the same
  // datapath also computes the store address — an exception.
  EXPECT_TRUE(res.exception || res.mismatching_words >= 1);
}

TEST_F(InjectFixture, BenignFaultLeavesMemoryIntact) {
  // A stuck-at on the predicate output is benign for a program that never
  // consumes SP predicates.
  const isa::Program ptp = isa::Assemble(R"(
    .threads 1
    MOV32I R1, 0x1
    MOV32I R4, 0x100
    STG [R4+0], R1
    EXIT
  )");
  gpu::Sm sm;
  const auto golden = sm.Run(ptp);

  const netlist::NetId pred_net = sp_->outputs()[32];
  const fault::Fault f{pred_net, fault::Fault::kOutputPin, true};

  const InjectionResult res = RunWithFault(ptp, *sp_, f, golden.global);
  EXPECT_FALSE(res.detected);
}

TEST_F(InjectFixture, CampaignConfirmsModuleLevelObservability) {
  // For a signature-propagating PTP, faults the module-level simulation
  // detects should overwhelmingly reach the memory image (the paper's
  // stage-3 soundness assumption), modulo MISR aliasing.
  const isa::Program ptp = stl::GenerateRand(6, 5);

  // Module-level detected faults under the PTP's own patterns.
  trace::PatternProbe probe(trace::TargetModule::kSpCore);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  const auto faults = fault::CollapsedFaultList(*sp_);
  const auto report = fault::RunFaultSim(*sp_, probe.patterns(), faults);

  // Sample some module-detected faults and inject them architecturally.
  std::vector<fault::Fault> sample;
  for (std::size_t i = 0; i < faults.size() && sample.size() < 25; i += 131) {
    if (report.detected_mask.Get(i)) sample.push_back(faults[i]);
  }
  ASSERT_GE(sample.size(), 10u);

  const CampaignResult campaign = RunInjectionCampaign(ptp, *sp_, sample);
  EXPECT_EQ(campaign.injected, sample.size());
  EXPECT_GT(campaign.DetectionPercent(), 80.0);
}

TEST_F(InjectFixture, ModuleUndetectedFaultsStaySilent) {
  // Faults the module-level simulation does NOT detect must not corrupt
  // memory either — the direction that justifies module-level
  // observability as an upper bound.
  const isa::Program ptp = stl::GenerateRand(4, 6);
  trace::PatternProbe probe(trace::TargetModule::kSpCore);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  const auto faults = fault::CollapsedFaultList(*sp_);
  const auto report = fault::RunFaultSim(*sp_, probe.patterns(), faults);

  std::vector<fault::Fault> sample;
  for (std::size_t i = 0; i < faults.size() && sample.size() < 15; i += 173) {
    if (!report.detected_mask.Get(i)) sample.push_back(faults[i]);
  }
  ASSERT_GE(sample.size(), 5u);

  const CampaignResult campaign = RunInjectionCampaign(ptp, *sp_, sample);
  EXPECT_EQ(campaign.detected_at_memory, 0u);
}

TEST_F(InjectFixture, CampaignDetectionsArePinned) {
  // A predicated, diverged PTP on a partial warp and a fixed fault
  // sample: how many faults reach memory is pinned to what a lane-by-lane
  // result override gave, so the per-warp override must rewrite exactly
  // the executing lanes.
  const isa::Program ptp = isa::Assemble(R"(
      .threads 40
      S2R R1, SR_TID
      MOV32I R2, 0x9E3779B9
      IMUL R3, R1, R2
      IADD32I R3, R3, 0x7F4A7C15
      XOR R4, R3, R1
      SHL R5, R4, 5
      ISETP.LT P0, R1, 13
      @P0 IADD R4, R4, R5
      @!P0 ISUB R4, R4, R5
      AND R6, R1, 1
      ISETP.EQ P1, R6, 0
      SSY join
      @P1 BRA even
      IMAD R4, R4, R3, R5
      SYNC
    even:
      SAR R4, R4, 3
      SYNC
    join:
      SHL R7, R1, 2
      IADD32I R7, R7, 0x10000
      STG [R7+0], R4
      EXIT
  )");
  const auto faults = fault::CollapsedFaultList(*sp_);
  std::vector<fault::Fault> sample;
  for (std::size_t i = 0; i < faults.size() && sample.size() < 40; i += 89) {
    sample.push_back(faults[i]);
  }
  const CampaignResult campaign = RunInjectionCampaign(ptp, *sp_, sample);
  EXPECT_EQ(campaign.injected, 40u);
  EXPECT_EQ(campaign.detected_at_memory, 28u);
}

}  // namespace
}  // namespace gpustl::inject
