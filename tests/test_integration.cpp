// End-to-end integration: generate PTPs, run the full five-stage compaction
// against the gate-level modules, and check the paper-level invariants
// (size shrinks, branches stay valid, coverage is essentially preserved,
// cross-PTP dropping increases later PTPs' compaction).
#include <gtest/gtest.h>

#include <map>

#include "circuits/decoder_unit.h"
#include "common/rng.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "compact/compactor.h"
#include "compact/stl_campaign.h"
#include "gpu/sm.h"
#include "stl/atpg_convert.h"
#include "stl/generators.h"

namespace gpustl {
namespace {

using compact::CompactionResult;
using compact::Compactor;
using compact::CompactorOptions;
using trace::TargetModule;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    du_ = new netlist::Netlist(circuits::BuildDecoderUnit());
    sp_ = new netlist::Netlist(circuits::BuildSpCore());
    sfu_ = new netlist::Netlist(circuits::BuildSfu());
  }
  static void TearDownTestSuite() {
    delete du_;
    delete sp_;
    delete sfu_;
    du_ = sp_ = sfu_ = nullptr;
  }

  static netlist::Netlist* du_;
  static netlist::Netlist* sp_;
  static netlist::Netlist* sfu_;
};

netlist::Netlist* IntegrationTest::du_ = nullptr;
netlist::Netlist* IntegrationTest::sp_ = nullptr;
netlist::Netlist* IntegrationTest::sfu_ = nullptr;

TEST_F(IntegrationTest, ImmCompactionShrinksAndPreservesCoverage) {
  const isa::Program imm = stl::GenerateImm(40, /*seed=*/1);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(imm);

  EXPECT_LT(res.result.size_instr, res.original.size_instr);
  EXPECT_LT(res.result.duration_cc, res.original.duration_cc);
  EXPECT_GT(res.original.fc_percent, 20.0);
  // Coverage essentially preserved (the paper reports within ~2 points).
  EXPECT_GT(res.diff_fc, -5.0);
  // The compacted program still runs to completion.
  gpu::Sm sm;
  EXPECT_NO_THROW(sm.Run(res.compacted));
}

TEST_F(IntegrationTest, CrossPtpDroppingCompactsSecondPtpHarder) {
  const isa::Program imm = stl::GenerateImm(30, 1);
  const isa::Program mem = stl::GenerateMem(30, 2);

  // MEM compacted alone.
  Compactor alone(*du_, TargetModule::kDecoderUnit);
  const CompactionResult mem_alone = alone.CompactPtp(mem);

  // MEM compacted after IMM (fault list updated by IMM).
  Compactor seq(*du_, TargetModule::kDecoderUnit);
  seq.CompactPtp(imm);
  const CompactionResult mem_after = seq.CompactPtp(mem);

  EXPECT_LE(mem_after.result.size_instr, mem_alone.result.size_instr);
}

TEST_F(IntegrationTest, RandAfterTpgenLosesCoverageToDropping) {
  // ATPG-derived TPGEN first, RAND second: RAND's marginal coverage should
  // collapse (the paper's -17.07% observation has this mechanism).
  const isa::Program rand_ptp = stl::GenerateRand(40, 3);

  Compactor alone(*sp_, TargetModule::kSpCore);
  const CompactionResult rand_alone = alone.CompactPtp(rand_ptp);

  Compactor seq(*sp_, TargetModule::kSpCore);
  seq.CompactPtp(stl::GenerateRand(120, 4));  // stand-in high-coverage PTP
  const CompactionResult rand_after = seq.CompactPtp(rand_ptp);

  // Marginal detections of the second PTP collapse under dropping.
  EXPECT_LT(rand_after.fault_report.num_detected,
            rand_alone.fault_report.num_detected);
  EXPECT_LE(rand_after.result.size_instr, rand_alone.result.size_instr);
}

TEST_F(IntegrationTest, CampaignAggregatesWholeStl) {
  compact::StlCampaign campaign(*du_, *sp_, *sfu_);

  compact::StlEntry imm{stl::GenerateImm(20, 1),
                        TargetModule::kDecoderUnit, true, false};
  compact::StlEntry rand{stl::GenerateRand(20, 2), TargetModule::kSpCore,
                         true, false};
  compact::StlEntry cntrl{stl::GenerateCntrl(4, 3),
                          TargetModule::kDecoderUnit, false, false};

  campaign.Process(imm);
  campaign.Process(rand);
  campaign.Process(cntrl);

  const auto summary = campaign.Summary();
  EXPECT_EQ(campaign.records().size(), 3u);
  EXPECT_GT(summary.original_size, summary.final_size);
  EXPECT_GT(summary.size_reduction_percent(), 0.0);
  EXPECT_LT(summary.size_reduction_percent(), 100.0);
  // The uncompactable entry is carried through unchanged.
  EXPECT_EQ(campaign.records()[2].original_size,
            campaign.records()[2].final_size);
}

TEST_F(IntegrationTest, CompactedProgramProducesSameMemoryImage) {
  // Removing only unessential SBs must not corrupt the surviving stores of
  // an SFU PTP (no data dependence between its SBs).
  netlist::PatternSet pats(circuits::kSfuNumInputs);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    pats.Add64(static_cast<std::uint64_t>(i),
               circuits::EncodeSfuPattern(static_cast<int>(rng.below(6)),
                                          static_cast<std::uint32_t>(rng())));
  }
  const isa::Program sfu_ptp = stl::ConvertSfuPatterns(pats);

  Compactor compactor(*sfu_, TargetModule::kSfu);
  const CompactionResult res = compactor.CompactPtp(sfu_ptp);

  gpu::Sm sm;
  const gpu::RunResult orig = sm.Run(sfu_ptp);
  const gpu::RunResult comp = sm.Run(res.compacted);
  // Every word written by the compacted program matches the original run.
  const auto orig_words = orig.global.words();
  const std::map<std::uint32_t, std::uint32_t> orig_map(orig_words.begin(),
                                                        orig_words.end());
  for (const auto& [addr, value] : comp.global.words()) {
    const auto it = orig_map.find(addr);
    ASSERT_NE(it, orig_map.end());
    EXPECT_EQ(it->second, value) << "at word " << addr;
  }
}

}  // namespace
}  // namespace gpustl
