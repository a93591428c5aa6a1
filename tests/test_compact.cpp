// Compaction-stage unit tests: SB segmentation, the Fig. 2 labeling join,
// the Fig. 3 reduction rule, data relocation, Compactor invariants on
// small controlled inputs, and stage 5 of the real STL against full-list
// runs.
#include <gtest/gtest.h>

#include "circuits/decoder_unit.h"
#include "common/strutil.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "compact/campaign_plan.h"
#include "compact/compactor.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "gpu/sm.h"
#include "isa/assembler.h"
#include "isa/cfg.h"
#include "stl/generators.h"
#include "trace/trace.h"

namespace gpustl::compact {
namespace {

using isa::Assemble;
using isa::Program;
using trace::TargetModule;

TEST(SegmentSmallBlocksTest, ClosesAtStores) {
  const Program p = Assemble(R"(
    MOV32I R1, 1
    IADD R2, R1, R1
    STG [R2+0], R1
    MOV32I R3, 3
    STG [R3+0], R3
    EXIT
  )");
  const isa::Cfg cfg(p);
  const auto sbs = SegmentSmallBlocks(p, cfg.AdmissibleMask());
  // SB0 = [0,3) (closed by STG), SB1 = [3,5), SB2 = EXIT (inadmissible).
  ASSERT_EQ(sbs.size(), 3u);
  EXPECT_EQ(sbs[0].begin, 0u);
  EXPECT_EQ(sbs[0].end, 3u);
  EXPECT_TRUE(sbs[0].admissible);
  EXPECT_EQ(sbs[1].begin, 3u);
  EXPECT_EQ(sbs[1].end, 5u);
  EXPECT_FALSE(sbs[2].admissible);
}

TEST(SegmentSmallBlocksTest, SplitsAtAdmissibilityBoundary) {
  // A parametric loop in the middle must form its own inadmissible SBs.
  const Program p = Assemble(R"(
      MOV32I R3, 0x100
      LDG R2, [R3+0]
      MOV32I R1, 0
    loop:
      IADD32I R1, R1, 1
      ISETP.LT P0, R1, R2
      @P0 BRA loop
      MOV32I R4, 7
      STG [R3+4], R4
      EXIT
  )");
  const isa::Cfg cfg(p);
  const auto mask = cfg.AdmissibleMask();
  const auto sbs = SegmentSmallBlocks(p, mask);
  for (const auto& sb : sbs) {
    for (std::uint32_t i = sb.begin; i < sb.end; ++i) {
      EXPECT_EQ(mask[i], sb.admissible) << "instr " << i;
    }
  }
}

TEST(SegmentSmallBlocksTest, SbsCoverProgramExactlyOnce) {
  const Program p = stl::GenerateMem(10, 3);
  const isa::Cfg cfg(p);
  const auto sbs = SegmentSmallBlocks(p, cfg.AdmissibleMask());
  std::vector<int> covered(p.size(), 0);
  for (const auto& sb : sbs) {
    for (std::uint32_t i = sb.begin; i < sb.end; ++i) covered[i]++;
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "instr " << i;
  }
}

TEST(LabelInstructionsTest, JoinsThroughCcStamps) {
  const Program p = Assemble(R"(
    MOV32I R1, 1
    MOV32I R2, 2
    EXIT
  )");
  // Synthetic tracing report: instruction 0 at cc 10, instruction 1 at cc
  // 20, EXIT at cc 30.
  trace::TracingReport tracing;
  tracing.Add({10, 0, 0, 0, 1, 0});
  tracing.Add({20, 0, 0, 1, 1, 0});
  tracing.Add({30, 0, 0, 2, 1, 0});
  // Patterns at those ccs; only the cc-20 pattern detects faults.
  netlist::PatternSet pats(8);
  pats.Add64(10, 0x1);
  pats.Add64(20, 0x2);
  pats.Add64(30, 0x3);
  fault::FaultSimResult report;
  report.detects_per_pattern = {0, 4, 0};

  const auto labels = LabelInstructions(p, tracing, pats, report);
  EXPECT_FALSE(labels[0]);
  EXPECT_TRUE(labels[1]);
  EXPECT_FALSE(labels[2]);
}

TEST(LabelInstructionsTest, AnyWarpDetectionMakesEssential) {
  const Program p = Assemble("MOV32I R1, 1\nEXIT");
  trace::TracingReport tracing;
  tracing.Add({10, 0, 0, 0, ~0u, 0});  // warp 0 issue
  tracing.Add({50, 0, 1, 0, ~0u, 0});  // warp 1 issue
  tracing.Add({90, 0, 0, 1, ~0u, 0});
  netlist::PatternSet pats(8);
  pats.Add64(10, 0);
  pats.Add64(50, 0);
  fault::FaultSimResult report;
  report.detects_per_pattern = {0, 1};  // only warp 1's pattern detects

  const auto labels = LabelInstructions(p, tracing, pats, report);
  EXPECT_TRUE(labels[0]);
}

TEST(LabelInstructionsTest, ReversedPatternOrderStillJoins) {
  const Program p = Assemble("MOV32I R1, 1\nMOV32I R2, 2\nEXIT");
  trace::TracingReport tracing;
  tracing.Add({5, 0, 0, 0, 1, 0});
  tracing.Add({6, 0, 0, 1, 1, 0});
  tracing.Add({7, 0, 0, 2, 1, 0});
  netlist::PatternSet pats(8);
  pats.Add64(5, 0x1);
  pats.Add64(6, 0x2);
  const netlist::PatternSet reversed = pats.Reversed();
  fault::FaultSimResult report;
  // Index 0 of the REVERSED set = cc 6.
  report.detects_per_pattern = {3, 0};

  const auto labels = LabelInstructions(p, tracing, reversed, report);
  EXPECT_FALSE(labels[0]);
  EXPECT_TRUE(labels[1]);
}

TEST(SelectRemovalsTest, RemovesOnlyAllUnessentialAdmissibleSbs) {
  std::vector<SmallBlock> sbs = {
      {0, 3, true},   // all unessential -> removed
      {3, 6, true},   // one essential -> kept
      {6, 8, false},  // inadmissible -> kept even if unessential
  };
  std::vector<bool> labels(8, false);
  labels[4] = true;
  const auto removals = SelectRemovals(sbs, labels);
  EXPECT_EQ(removals, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RelocateDataTest, DropsUnreferencedSegments) {
  Program p = Assemble(R"(
    .data 0x1000: 1 2 3
    .data 0x2000: 4 5
    MOV32I R1, 0x2000
    LDG R2, [R1+0]
    EXIT
  )");
  RelocateData(p);
  ASSERT_EQ(p.data().size(), 1u);
  EXPECT_EQ(p.data()[0].addr, 0x2000u);
}

TEST(RelocateDataTest, BranchTargetsDoNotCountAsReferences) {
  Program p = Assemble(R"(
    .data 0x2: 1 2
    NOP
    NOP
    @P0 BRA 2
    EXIT
  )");
  RelocateData(p);
  EXPECT_TRUE(p.data().empty());
}

class CompactorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    du_ = new netlist::Netlist(circuits::BuildDecoderUnit());
  }
  static void TearDownTestSuite() { delete du_; du_ = nullptr; }
  static netlist::Netlist* du_;
};
netlist::Netlist* CompactorFixture::du_ = nullptr;

TEST_F(CompactorFixture, RepeatedIdenticalSbsCollapseToFew) {
  // 30 identical SBs apply identical DU patterns: after the first SB
  // detects what it can, the rest must be labeled unessential and removed.
  std::string src = ".entry rep\n.threads 32\n";
  src += "    S2R R1, SR_TID\n    MOV32I R0, 4\n    IMUL R3, R1, R0\n";
  src += "    IADD32I R2, R3, 0x10000\n";
  for (int i = 0; i < 30; ++i) {
    src += "    MOV32I R4, 0x1234\n";
    src += "    IADD R5, R4, R4\n";
    src += "    STG [R2+0x" + std::string(1, "048c"[i % 4]) + "0], R5\n";
  }
  src += "    EXIT\n";
  const Program p = Assemble(src);

  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(p);
  EXPECT_LT(res.result.size_instr, p.size() / 2);
  EXPECT_GE(res.removed_sbs, 25u);
  EXPECT_NEAR(res.diff_fc, 0.0, 1e-9);
}

TEST_F(CompactorFixture, CompactedProgramStillValidates) {
  const Program p = stl::GenerateImm(15, 5);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(p);
  EXPECT_NO_THROW(res.compacted.Validate());
  gpu::Sm sm;
  EXPECT_NO_THROW(sm.Run(res.compacted));
}

TEST_F(CompactorFixture, FaultListPersistsAcrossPtps) {
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  EXPECT_EQ(compactor.detected().Count(), 0u);
  compactor.CompactPtp(stl::GenerateImm(10, 1));
  const std::size_t after_first = compactor.detected().Count();
  EXPECT_GT(after_first, 0u);
  compactor.CompactPtp(stl::GenerateMem(10, 2));
  EXPECT_GE(compactor.detected().Count(), after_first);
  EXPECT_GT(compactor.CumulativeFcPercent(), 0.0);
}

TEST_F(CompactorFixture, UpdateFaultListOptionDisablesPersistence) {
  CompactorOptions options;
  options.update_fault_list = false;
  Compactor compactor(*du_, TargetModule::kDecoderUnit, options);
  compactor.CompactPtp(stl::GenerateImm(10, 1));
  EXPECT_EQ(compactor.detected().Count(), 0u);
}

TEST_F(CompactorFixture, InadmissibleRegionSurvivesCompaction) {
  const Program p = stl::GenerateCntrl(6, 7);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(p);

  // The parametric loop (identified by its LDG-loaded bound) must survive.
  bool loop_load_survives = false;
  for (const auto& inst : res.compacted.code()) {
    if (inst.op == isa::Opcode::LDG) loop_load_survives = true;
  }
  EXPECT_TRUE(loop_load_survives);
  gpu::Sm sm;
  EXPECT_NO_THROW(sm.Run(res.compacted));
}

TEST_F(CompactorFixture, MeasureStandaloneMatchesTableOneShape) {
  const Program p = stl::GenerateImm(10, 2);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const PtpStats stats = compactor.MeasureStandalone(p);
  EXPECT_EQ(stats.size_instr, p.size());
  EXPECT_GT(stats.duration_cc, 0u);
  EXPECT_GT(stats.fc_percent, 0.0);
  EXPECT_LE(stats.fc_percent, 100.0);
  EXPECT_GT(stats.arc_percent, 99.0);
}

TEST_F(CompactorFixture, TransitionModelCompactsConservatively) {
  const Program p = stl::GenerateImm(30, 9);

  Compactor stuck(*du_, TargetModule::kDecoderUnit);
  const CompactionResult sa = stuck.CompactPtp(p);

  CompactorOptions options;
  options.fault_model = compact::FaultModel::kTransition;
  Compactor transition(*du_, TargetModule::kDecoderUnit, options);
  const CompactionResult tr = transition.CompactPtp(p);

  // Transition coverage needs launch+capture: it is a subset of stuck-at
  // coverage, and fewer patterns carry first detections.
  EXPECT_LE(tr.original.fc_percent, sa.original.fc_percent + 1e-9);
  // Both preserve their own model's coverage through compaction.
  EXPECT_NEAR(tr.diff_fc, 0.0, 2.0);
  EXPECT_NEAR(sa.diff_fc, 0.0, 2.0);
  // The compacted program still runs.
  gpu::Sm sm;
  EXPECT_NO_THROW(sm.Run(tr.compacted));
}

TEST_F(CompactorFixture, RenderedReportIsComplete) {
  const Program p = stl::GenerateImm(6, 8);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(p);
  const std::string report = compact::RenderCompactionReport(p, res);
  EXPECT_NE(report.find("Compaction report"), std::string::npos);
  EXPECT_NE(report.find("size"), std::string::npos);
  EXPECT_NE(report.find("SBs"), std::string::npos);
  EXPECT_NE(report.find("disposition"), std::string::npos);
  EXPECT_NE(report.find("Essential instructions:"), std::string::npos);
  // One table row per SB.
  const isa::Cfg cfg(p);
  const auto sbs = SegmentSmallBlocks(p, cfg.AdmissibleMask());
  std::size_t rows = 0;
  for (std::size_t k = 0; k < sbs.size(); ++k) {
    if (report.find(::gpustl::Format("[%u,%u)", sbs[k].begin, sbs[k].end)) !=
        std::string::npos) {
      ++rows;
    }
  }
  EXPECT_EQ(rows, sbs.size());
}

/// A tiny SFU-targeted PTP for campaign tests (the generators cover DU/SP;
/// SFU_IMM normally comes from ATPG, which is too slow for a unit test).
Program SmallSfuPtp() {
  return Assemble(R"(
.entry sfu_small
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x3F800000
    IADD R5, R4, R1
    RCP R6, R5
    STG [R2+0x0], R6
    SIN R7, R5
    STG [R2+0x40], R7
    EXIT
)");
}

TEST(StlCampaignParallel, ThreadsReproduceSerialCampaignExactly) {
  // Campaign-level differential: the full DU/SP/SFU campaign with
  // threads = 4 must reproduce the serial campaign record-for-record —
  // sizes, durations, FC — including the inter-PTP fault dropping state.
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();

  const std::vector<StlEntry> entries = {
      {stl::GenerateImm(6, 21), TargetModule::kDecoderUnit, true, false},
      {stl::GenerateMem(6, 22), TargetModule::kDecoderUnit, true, false},
      {stl::GenerateRand(6, 23), TargetModule::kSpCore, true, false},
      {SmallSfuPtp(), TargetModule::kSfu, true, true},
      {stl::GenerateCntrl(3, 24), TargetModule::kDecoderUnit, false, false},
  };

  CompactorOptions serial_base;
  StlCampaign serial(du, sp, sfu, serial_base);
  CompactorOptions parallel_base;
  parallel_base.num_threads = 4;
  StlCampaign parallel(du, sp, sfu, parallel_base);
  for (const StlEntry& entry : entries) {
    serial.Process(entry);
    parallel.Process(entry);
  }

  ASSERT_EQ(serial.records().size(), parallel.records().size());
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    const CampaignRecord& s = serial.records()[i];
    const CampaignRecord& p = parallel.records()[i];
    EXPECT_EQ(s.name, p.name) << "record " << i;
    EXPECT_EQ(s.compacted, p.compacted) << "record " << i;
    EXPECT_EQ(s.original_size, p.original_size) << "record " << i;
    EXPECT_EQ(s.original_duration, p.original_duration) << "record " << i;
    EXPECT_EQ(s.final_size, p.final_size) << "record " << i;
    EXPECT_EQ(s.final_duration, p.final_duration) << "record " << i;
    if (s.compacted) {
      EXPECT_EQ(s.result.result.size_instr, p.result.result.size_instr);
      EXPECT_DOUBLE_EQ(s.result.original.fc_percent,
                       p.result.original.fc_percent);
      EXPECT_DOUBLE_EQ(s.result.result.fc_percent,
                       p.result.result.fc_percent);
      EXPECT_DOUBLE_EQ(s.result.diff_fc, p.result.diff_fc);
      EXPECT_EQ(s.result.removed_sbs, p.result.removed_sbs);
      EXPECT_EQ(s.result.fault_report.first_detect,
                p.result.fault_report.first_detect);
      EXPECT_EQ(s.result.fault_report.detects_per_pattern,
                p.result.fault_report.detects_per_pattern);
    }
  }

  // The summary and the persistent fault-list (dropping) state must match
  // bit-for-bit; compaction_seconds is wall-clock and exempt.
  const CampaignSummary ss = serial.Summary();
  const CampaignSummary ps = parallel.Summary();
  EXPECT_EQ(ss.original_size, ps.original_size);
  EXPECT_EQ(ss.original_duration, ps.original_duration);
  EXPECT_EQ(ss.final_size, ps.final_size);
  EXPECT_EQ(ss.final_duration, ps.final_duration);
  for (const auto target : {TargetModule::kDecoderUnit, TargetModule::kSpCore,
                            TargetModule::kSfu}) {
    EXPECT_TRUE(serial.compactor(target).detected() ==
                parallel.compactor(target).detected())
        << "module " << static_cast<int>(target);
  }
}

TEST(StlCampaignSummary, ReversedEntryEarlyExitsAreCounted) {
  // An entry whose pattern order differs from the campaign's runs on a
  // temporary compactor; its early exits must still reach the summary, and
  // count exactly what the module compactor counts when the campaign's own
  // options already reverse the patterns.
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const std::vector<StlEntry> entries = {
      {stl::GenerateImm(6, 21), TargetModule::kDecoderUnit, true, true},
      {SmallSfuPtp(), TargetModule::kSfu, true, true},
  };

  StlCampaign per_entry(du, sp, sfu, CompactorOptions{});
  CompactorOptions reversed;
  reversed.reverse_patterns = true;
  StlCampaign whole_campaign(du, sp, sfu, reversed);
  for (const StlEntry& entry : entries) {
    per_entry.Process(entry);
    whole_campaign.Process(entry);
  }

  const std::uint64_t exited = per_entry.Summary().trim_faults_early_exited;
  EXPECT_GT(exited, 0u);
  EXPECT_EQ(exited, whole_campaign.Summary().trim_faults_early_exited);
}

TEST(StlCampaignRecords, ProcessReferencesSurviveReallocation) {
  // Process returns a reference into the record store; with a vector this
  // would dangle as soon as push_back reallocates. The deque-backed store
  // guarantees stability — lock that in with enough entries to have forced
  // several vector growth steps (1 -> 2 -> 4 -> ... -> 32).
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  StlCampaign campaign(du, sp, sfu);

  const Program tiny = stl::GenerateImm(1, 77);
  const StlEntry carry{tiny, TargetModule::kDecoderUnit, false, false};

  const CampaignRecord& first = campaign.Process(carry);
  const CampaignRecord* first_addr = &first;
  const std::size_t first_size = first.original_size;

  for (int i = 0; i < 33; ++i) campaign.Process(carry);

  ASSERT_EQ(campaign.records().size(), 34u);
  EXPECT_EQ(&campaign.records().front(), first_addr);
  EXPECT_EQ(first.original_size, first_size);
  EXPECT_EQ(first.name, campaign.records().front().name);
}

TEST(RealStlValidation, StageFiveMatchesFullListRuns) {
  // The six compactable perfbench PTPs in campaign order, with dropping
  // within and across PTPs and SFU_IMM's patterns reversed. Stage 5
  // derives the compacted PTP's detected set from stage 3; the reference
  // is a plain full-list run of the compacted patterns.
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  CompactorOptions options;
  options.num_threads = 2;
  Compactor du_compactor(du, TargetModule::kDecoderUnit, options);
  Compactor sp_compactor(sp, TargetModule::kSpCore, options);
  options.reverse_patterns = true;
  Compactor sfu_compactor(sfu, TargetModule::kSfu, options);
  struct Entry {
    const char* file;
    Compactor* compactor;
    TargetModule target;
  };
  const Entry entries[] = {
      {"imm.gptp", &du_compactor, TargetModule::kDecoderUnit},
      {"mem.gptp", &du_compactor, TargetModule::kDecoderUnit},
      {"cntrl.gptp", &du_compactor, TargetModule::kDecoderUnit},
      {"tpgen.gptp", &sp_compactor, TargetModule::kSpCore},
      {"rand.gptp", &sp_compactor, TargetModule::kSpCore},
      {"sfu_imm.gptp", &sfu_compactor, TargetModule::kSfu},
  };
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.file);
    Compactor& compactor = *e.compactor;
    const BitVec before = compactor.detected();
    const CompactionResult res = compactor.CompactPtp(
        LoadPtpFile(std::string(GPUSTL_PERFBENCH_INPUTS) + "/" + e.file));

    trace::PatternProbe probe(e.target);
    gpu::Sm sm;
    sm.AddMonitor(&probe);
    sm.Run(res.compacted);
    const netlist::PatternSet patterns = e.target == TargetModule::kSfu
                                             ? probe.patterns().Reversed()
                                             : probe.TakePatterns();
    const fault::FaultSimResult full =
        fault::RunFaultSim(compactor.module(), patterns, compactor.faults(),
                           nullptr, {.num_threads = 2});
    EXPECT_EQ(res.result.fc_percent,
              fault::CoveragePercent(full.num_detected,
                                     compactor.faults().size()));
    EXPECT_EQ(res.validation_detections,
              BitVec(full.detected_mask).AndNot(before).Count());
  }
}

TEST_F(CompactorFixture, ReportsAreConsistent) {
  const Program p = stl::GenerateImm(8, 3);
  Compactor compactor(*du_, TargetModule::kDecoderUnit);
  const CompactionResult res = compactor.CompactPtp(p);
  EXPECT_EQ(res.labels.size(), p.size());
  EXPECT_EQ(res.tracing.size(), res.fault_report.detects_per_pattern.size());
  std::size_t essential = 0;
  for (bool b : res.labels) essential += b ? 1 : 0;
  EXPECT_EQ(essential, res.essential_instructions);
  EXPECT_GE(res.num_sbs, res.removed_sbs);
}

}  // namespace
}  // namespace gpustl::compact
