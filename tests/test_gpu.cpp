// GPU model tests: per-instruction architectural semantics, memory spaces,
// special registers, predication, SIMT divergence/reconvergence, barriers,
// the timing model, the watchdog, and monitor event streams.
#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>
#include <map>
#include <utility>
#include <sstream>

#include "common/error.h"
#include "common/hash.h"
#include "common/strutil.h"
#include "gpu/sm.h"
#include "isa/assembler.h"
#include "netlist/patterns.h"
#include "stl/generators.h"
#include "trace/histogram.h"
#include "trace/trace.h"

namespace gpustl::gpu {
namespace {

using isa::Assemble;
using isa::Program;
using trace::OpcodeHistogram;
using trace::PatternProbe;
using trace::TargetModule;
using trace::TraceRecorder;

/// Runs a program and returns the word stored at `addr`.
std::uint32_t RunAndLoad(const std::string& src, std::uint32_t addr,
                         const SmConfig& config = {}) {
  Sm sm(config);
  const RunResult res = sm.Run(Assemble(src));
  return res.global.Load(addr);
}

TEST(SmExec, IntegerAluAndStore) {
  const auto v = RunAndLoad(R"(
    .threads 1
    MOV32I R1, 21
    IADD R2, R1, R1
    MOV32I R3, 0x100
    STG [R3+0], R2
    EXIT
  )", 0x100);
  EXPECT_EQ(v, 42u);
}

TEST(SmExec, ImmediateOperandForms) {
  const auto v = RunAndLoad(R"(
    .threads 1
    MOV32I R1, 5
    IADD32I R1, R1, 10
    SHL R1, R1, 2
    MOV32I R3, 0x100
    STG [R3+0], R1
    EXIT
  )", 0x100);
  EXPECT_EQ(v, 60u);
}

TEST(SmExec, SpecialRegistersPerThread) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 8
    S2R R1, SR_TID
    MOV32I R2, 4
    IMUL R3, R1, R2
    IADD32I R3, R3, 0x200
    STG [R3+0], R1
    EXIT
  )"));
  for (std::uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(res.global.Load(0x200 + t * 4), t);
  }
}

TEST(SmExec, NtidAndCtaid) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .blocks 2
    .threads 4
    S2R R1, SR_CTAID
    S2R R2, SR_NTID
    S2R R3, SR_TID
    MOV32I R4, 4
    IMUL R5, R1, R2
    IADD R5, R5, R3
    IMUL R5, R5, R4
    IADD32I R5, R5, 0x300
    STG [R5+0], R1
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x300 + 0 * 4), 0u);   // block 0
  EXPECT_EQ(res.global.Load(0x300 + 4 * 4), 1u);   // block 1
  EXPECT_EQ(res.global.Load(0x300 + 7 * 4), 1u);
}

TEST(SmExec, GlobalMemoryDataSegmentsPreloaded) {
  const auto v = RunAndLoad(R"(
    .threads 1
    .data 0x400: 0xAB 0xCD
    MOV32I R1, 0x400
    LDG R2, [R1+4]
    MOV32I R3, 0x100
    STG [R3+0], R2
    EXIT
  )", 0x100);
  EXPECT_EQ(v, 0xCDu);
}

TEST(SmExec, SharedMemoryRoundTrip) {
  const auto v = RunAndLoad(R"(
    .threads 1
    MOV32I R1, 0x77
    MOV32I R2, 0x10
    STS [R2+0], R1
    LDS R3, [R2+0]
    MOV32I R4, 0x100
    STG [R4+0], R3
    EXIT
  )", 0x100);
  EXPECT_EQ(v, 0x77u);
}

TEST(SmExec, LocalMemoryIsPerThread) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 2
    S2R R1, SR_TID
    MOV32I R2, 0
    STL [R2+0], R1
    LDL R3, [R2+0]
    MOV32I R4, 4
    IMUL R5, R1, R4
    IADD32I R5, R5, 0x100
    STG [R5+0], R3
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 0u);
  EXPECT_EQ(res.global.Load(0x104), 1u);
}

TEST(SmExec, FloatPipeline) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0x40400000   // 3.0f
    MOV32I R2, 0x40000000   // 2.0f
    FMUL R3, R1, R2         // 6.0f
    FADD R3, R3, R1         // 9.0f
    MOV32I R4, 0x100
    STG [R4+0], R3
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 0x41100000u);  // 9.0f
}

TEST(SmExec, SfuReciprocal) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0x40000000   // 2.0f
    RCP R2, R1              // 0.5f
    MOV32I R4, 0x100
    STG [R4+0], R2
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 0x3F000000u);
}

TEST(SmExec, PredicationSkipsLanes) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 4
    S2R R1, SR_TID
    MOV32I R5, 0
    ISETP.LT P0, R1, 2
    @P0 MOV32I R5, 1
    MOV32I R2, 4
    IMUL R3, R1, R2
    IADD32I R3, R3, 0x100
    STG [R3+0], R5
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 1u);
  EXPECT_EQ(res.global.Load(0x104), 1u);
  EXPECT_EQ(res.global.Load(0x108), 0u);
  EXPECT_EQ(res.global.Load(0x10C), 0u);
}

TEST(SmExec, NegatedPredicate) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 2
    S2R R1, SR_TID
    MOV32I R5, 7
    ISETP.EQ P1, R1, 0
    @!P1 MOV32I R5, 9
    MOV32I R2, 4
    IMUL R3, R1, R2
    IADD32I R3, R3, 0x100
    STG [R3+0], R5
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 7u);
  EXPECT_EQ(res.global.Load(0x104), 9u);
}

TEST(SmExec, DivergenceReconvergesThroughSsySync) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
      .threads 4
      S2R R1, SR_TID
      MOV32I R5, 0
      ISETP.LT P0, R1, 2
      SSY join
      @P0 BRA taken
      IADD32I R5, R5, 100     // else path (tid 2,3)
      SYNC
    taken:
      IADD32I R5, R5, 1       // taken path (tid 0,1) -- else lanes skip
      SYNC
    join:
      IADD32I R5, R5, 1000    // all lanes reconverged
      MOV32I R2, 4
      IMUL R3, R1, R2
      IADD32I R3, R3, 0x100
      STG [R3+0], R5
      EXIT
  )"));
  // Wait: with take-else-first, else lanes run +100 then the DIV pop sends
  // taken lanes to `taken` (+1); else lanes rejoin at `join`. But the else
  // lanes fall into `taken` only via the stack, so they do NOT add +1.
  EXPECT_EQ(res.global.Load(0x100), 1001u);  // tid 0: taken
  EXPECT_EQ(res.global.Load(0x104), 1001u);  // tid 1: taken
  EXPECT_EQ(res.global.Load(0x108), 1100u);  // tid 2: else
  EXPECT_EQ(res.global.Load(0x10C), 1100u);  // tid 3: else
}

TEST(SmExec, UniformBranchSkipsElse) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
      .threads 4
      MOV32I R5, 0
      SSY join
      ISETP.EQ P0, R5, 0      // uniformly true
      @P0 BRA taken
      IADD32I R5, R5, 100     // never executes
      SYNC
    taken:
      IADD32I R5, R5, 1
      SYNC
    join:
      MOV32I R3, 0x100
      STG [R3+0], R5
      EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 1u);
}

TEST(SmExec, LoopExecutesExactTripCount) {
  const auto v = RunAndLoad(R"(
      .threads 1
      MOV32I R1, 0
      MOV32I R2, 0
    loop:
      IADD32I R1, R1, 1
      IADD32I R2, R2, 3
      ISETP.LT P0, R1, 5
      @P0 BRA loop
      MOV32I R3, 0x100
      STG [R3+0], R2
      EXIT
  )", 0x100);
  EXPECT_EQ(v, 15u);
}

TEST(SmExec, CallAndReturn) {
  const auto v = RunAndLoad(R"(
      .threads 1
      MOV32I R1, 1
      CAL sub
      IADD32I R1, R1, 10
      MOV32I R3, 0x100
      STG [R3+0], R1
      EXIT
    sub:
      IADD32I R1, R1, 100
      RET
  )", 0x100);
  EXPECT_EQ(v, 111u);
}

TEST(SmExec, BarrierSynchronizesWarps) {
  // 64 threads = 2 warps. Warp 0 stores into shared memory, all warps
  // barrier, then every lane (including warp 1) reads the stored value.
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
      .threads 64
      S2R R1, SR_TID
      MOV32I R4, 0x55
      MOV32I R5, 0x0
      ISETP.LT P0, R1, 32
      @P0 STS [R5+0], R4
      BAR
      LDS R7, [R5+0]
      MOV32I R2, 4
      IMUL R3, R1, R2
      IADD32I R3, R3, 0x100
      STG [R3+0], R7
      EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100 + 63 * 4), 0x55u);  // lane in warp 1
  EXPECT_EQ(res.global.Load(0x100), 0x55u);
}

TEST(SmExec, MisalignedAccessThrows) {
  Sm sm;
  EXPECT_THROW(sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0x101
    LDG R2, [R1+0]
    EXIT
  )")), SimError);
}

TEST(SmExec, OutOfRangeSharedThrows) {
  Sm sm;
  EXPECT_THROW(sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0x7FFFFFF0
    LDS R2, [R1+0]
    EXIT
  )")), SimError);
}

TEST(SmExec, WatchdogStopsRunawayKernel) {
  SmConfig config;
  config.max_cycles = 10'000;
  Sm sm(config);
  EXPECT_THROW(sm.Run(Assemble(R"(
    .threads 1
    loop:
    BRA loop
  )")), SimError);
}

TEST(SmTiming, MoreSpCoresRunFaster) {
  const Program p = Assemble(R"(
    .threads 32
    MOV32I R1, 1
    IADD R2, R1, R1
    IADD R2, R2, R1
    IADD R2, R2, R1
    IADD R2, R2, R1
    EXIT
  )");
  SmConfig c8;
  c8.num_sp = 8;
  SmConfig c32;
  c32.num_sp = 32;
  const auto r8 = Sm(c8).Run(p);
  const auto r32 = Sm(c32).Run(p);
  EXPECT_LT(r32.total_cycles, r8.total_cycles);
  EXPECT_EQ(r8.dynamic_instructions, r32.dynamic_instructions);
}

TEST(SmTiming, MoreWarpsTakeLonger) {
  const char* src = R"(
    .threads %d
    MOV32I R1, 1
    IADD R2, R1, R1
    EXIT
  )";
  const auto r1 = Sm().Run(Assemble(Format(src, 32)));
  const auto r4 = Sm().Run(Assemble(Format(src, 128)));
  EXPECT_GT(r4.total_cycles, r1.total_cycles);
  EXPECT_EQ(r4.dynamic_instructions, r1.dynamic_instructions * 4);
}

TEST(SmMonitors, DecodeAndWarpEventsFire) {
  class Counter : public ExecMonitor {
   public:
    void OnDecode(const DecodeEvent& e) override {
      ++decodes;
      last_encoded = e.encoded;
    }
    void OnWarp(const WarpEvent& e) override {
      ++warps;
      lanes += std::popcount(e.exec_mask);
      last_result = e.result[std::countr_zero(e.exec_mask)];
    }
    int decodes = 0, warps = 0, lanes = 0;
    std::uint64_t last_encoded = 0;
    std::uint32_t last_result = 0;
  };

  Counter counter;
  Sm sm;
  sm.AddMonitor(&counter);
  sm.Run(Assemble(R"(
    .threads 4
    MOV32I R1, 5
    IADD R2, R1, R1
    EXIT
  )"));
  EXPECT_EQ(counter.decodes, 3);       // 3 instructions, 1 warp
  EXPECT_EQ(counter.warps, 2);         // one per data instruction
  EXPECT_EQ(counter.lanes, 8);         // 2 data instructions x 4 lanes
  EXPECT_EQ(counter.last_result, 10u); // IADD result
}

TEST(SmMonitors, CcStampsAreSharedBetweenDecodeAndWarp) {
  class Collect : public ExecMonitor {
   public:
    void OnDecode(const DecodeEvent& e) override { decode_ccs.push_back(e.cc); }
    void OnWarp(const WarpEvent& e) override { warp_ccs.push_back(e.cc); }
    std::vector<std::uint64_t> decode_ccs, warp_ccs;
  };
  Collect c;
  Sm sm;
  sm.AddMonitor(&c);
  sm.Run(Assemble(R"(
    .threads 2
    MOV32I R1, 1
    EXIT
  )"));
  ASSERT_EQ(c.decode_ccs.size(), 2u);
  ASSERT_EQ(c.warp_ccs.size(), 1u);
  EXPECT_EQ(c.warp_ccs[0], c.decode_ccs[0]);
}

TEST(SmMonitors, WarpEventsCarryExactlyTheExecutingLanes) {
  // Three data instructions whose exec masks are not the full warp: one on
  // a partial last warp, one predicated and one on each side of a
  // divergent branch. Each warp event must carry exactly its executing
  // lanes, with the operands and results a lane-by-lane loop gives.
  struct Lane {
    std::uint32_t a, b, c, result;
  };
  struct Seen {
    std::uint32_t exec_mask = 0;
    std::uint32_t pred = 0;
    std::map<int, Lane> lanes;  // by thread id
  };
  class Record : public ExecMonitor {
   public:
    void OnDecode(const DecodeEvent&) override {}
    void OnWarp(const WarpEvent& e) override {
      Seen& seen = by_pc_warp[{e.pc, e.warp}];
      seen.exec_mask = e.exec_mask;
      seen.pred = e.pred_result;
      for (std::uint32_t m = e.exec_mask; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        seen.lanes[e.warp * 32 + lane] = {e.a[lane], e.b[lane], e.c[lane],
                                          e.result[lane]};
      }
    }
    std::map<std::pair<std::uint32_t, int>, Seen> by_pc_warp;
  };
  Record rec;
  Sm sm;
  sm.AddMonitor(&rec);
  sm.Run(Assemble(R"(
      .threads 40
      S2R R1, SR_TID
      MOV32I R2, 0x01000193
      IMUL R3, R1, R2           // pc 2: both warps, the second has 8 lanes
      IADD32I R3, R3, 0x55
      ISETP.LT P0, R1, 21       // pc 4
      @!P0 XOR R4, R3, R1       // pc 5: predicated
      AND R5, R1, 3
      ISETP.EQ P1, R5, 1
      SSY join
      @P1 BRA odd
      SHL R6, R3, R5            // pc 10: not-taken side
      SYNC
    odd:
      SAR R6, R3, 2             // pc 12: taken side
      SYNC
    join:
      EXIT
  )"));

  // The same program, one lane at a time.
  std::map<std::pair<std::uint32_t, int>, Seen> want;
  for (int tid = 0; tid < 40; ++tid) {
    const int warp = tid / 32;
    const std::uint32_t bit = 1u << (tid % 32);
    auto add = [&](std::uint32_t pc, Lane lane) {
      Seen& s = want[{pc, warp}];
      s.exec_mask |= bit;
      s.lanes[tid] = lane;
    };
    const auto r1 = static_cast<std::uint32_t>(tid);
    const std::uint32_t r2 = 0x01000193;
    std::uint32_t r3 = (r1 & 0xFFFF) * (r2 & 0xFFFF);
    add(2, {r1, r2, 0, r3});
    r3 += 0x55;
    const bool p0 = tid < 21;
    add(4, {r1, 21, 0, 0});
    if (p0) want[{4, warp}].pred |= bit;
    if (!p0) add(5, {r3, r1, 0, r3 ^ r1});
    const std::uint32_t r5 = r1 & 3;
    if (r5 != 1) {
      add(10, {r3, r5, 0, r3 << r5});
    } else {
      add(12, {r3, 2, 0,
               static_cast<std::uint32_t>(static_cast<std::int32_t>(r3) >> 2)});
    }
  }
  for (const auto& [key, w] : want) {
    SCOPED_TRACE(Format("pc %u warp %d", key.first, key.second));
    const auto it = rec.by_pc_warp.find(key);
    ASSERT_NE(it, rec.by_pc_warp.end());
    const Seen& got = it->second;
    EXPECT_EQ(got.exec_mask, w.exec_mask);
    EXPECT_EQ(got.pred, w.pred);
    ASSERT_EQ(got.lanes.size(), w.lanes.size());
    for (const auto& [tid, lane] : w.lanes) {
      const Lane& g = got.lanes.at(tid);
      EXPECT_EQ(g.a, lane.a) << "tid " << tid;
      EXPECT_EQ(g.b, lane.b) << "tid " << tid;
      EXPECT_EQ(g.c, lane.c) << "tid " << tid;
      EXPECT_EQ(g.result, lane.result) << "tid " << tid;
    }
  }
  EXPECT_EQ(rec.by_pc_warp.at({2, 1}).exec_mask, 0xFFu);
  EXPECT_EQ(rec.by_pc_warp.at({5, 0}).exec_mask, 0xFFFFFFFFu << 21);
}

TEST(SmMonitors, WarpOverrideRewritesResultsBeforeWriteBack) {
  // The override sees each data warp-instruction once; what it writes is
  // what the monitors see and what the registers commit.
  class Results : public ExecMonitor {
   public:
    void OnDecode(const DecodeEvent&) override {}
    void OnWarp(const WarpEvent& e) override {
      if (e.pc == 1) seen = e.result[3];
    }
    std::uint32_t seen = 0;
  };
  Results results;
  int calls = 0;
  Sm sm;
  sm.AddMonitor(&results);
  sm.SetWarpOverride([&](const WarpEvent& e, std::uint32_t* result,
                         std::uint32_t* pred) {
    ++calls;
    if (e.pc == 1) result[3] ^= 0x80000000u;
    if (e.pc == 2) *pred ^= 1u;  // lane 0's outcome
  });
  const RunResult res = sm.Run(Assemble(R"(
    .threads 4
    S2R R1, SR_TID
    IADD32I R2, R1, 0x10
    ISETP.EQ P0, R1, 0
    @!P0 IADD32I R2, R2, 0x100
    SHL R3, R1, 2
    IADD32I R3, R3, 0x1000
    STG [R3+0], R2
    EXIT
  )"));
  EXPECT_EQ(calls, 7);  // every data instruction, STG included
  EXPECT_EQ(results.seen, 0x80000013u);
  // Lane 0's predicate was flipped to false, so it took the add too.
  EXPECT_EQ(res.global.Load(0x1000), 0x110u);
  EXPECT_EQ(res.global.Load(0x1004), 0x111u);
  EXPECT_EQ(res.global.Load(0x100C), 0x80000113u);
}

TEST(SmExec, ImadAndSelSemantics) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 7
    MOV32I R2, 6
    MOV32I R3, 100
    IMAD R4, R1, R2, R3     // 7*6+100 = 142
    MOV32I R5, 0xFF00FF00
    MOV32I R6, 0x12345678
    MOV32I R7, 0xF0F0F0F0
    SEL R8, R6, R5, R7      // (R6 & R7) | (R5 & ~R7)
    MOV32I R9, 0x100
    STG [R9+0], R4
    STG [R9+4], R8
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 142u);
  EXPECT_EQ(res.global.Load(0x104),
            (0x12345678u & 0xF0F0F0F0u) | (0xFF00FF00u & ~0xF0F0F0F0u));
}

TEST(SmExec, FsetpAndConversions) {
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0x40A00000   // 5.0f
    MOV32I R2, 0x40400000   // 3.0f
    FSETP.GT P0, R1, R2     // 5.0 > 3.0
    MOV32I R3, 0
    @P0 MOV32I R3, 1
    F2I R4, R1              // 5
    MOV32I R5, 7
    I2F R6, R5              // 7.0f
    MOV32I R9, 0x100
    STG [R9+0], R3
    STG [R9+4], R4
    STG [R9+8], R6
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 1u);
  EXPECT_EQ(res.global.Load(0x104), 5u);
  EXPECT_EQ(res.global.Load(0x108), 0x40E00000u);  // 7.0f
}

TEST(SmExec, F2iTruncatesAndSaturatesOutOfRangeToIntMin) {
  // The generated STLs feed F2I arbitrary bit patterns: out-of-range
  // values and NaN give 0x80000000, the value the pinned digests hold.
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 1
    MOV32I R1, 0xC0200000   // -2.5f
    MOV32I R2, 0x501502F9   // 1e10f
    MOV32I R3, 0xD01502F9   // -1e10f
    MOV32I R4, 0x7FC00000   // NaN
    MOV32I R5, 0xCF000000   // -2^31, in range
    F2I R1, R1
    F2I R2, R2
    F2I R3, R3
    F2I R4, R4
    F2I R5, R5
    MOV32I R9, 0x100
    STG [R9+0], R1
    STG [R9+4], R2
    STG [R9+8], R3
    STG [R9+12], R4
    STG [R9+16], R5
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 0xFFFFFFFEu);  // -2
  EXPECT_EQ(res.global.Load(0x104), 0x80000000u);
  EXPECT_EQ(res.global.Load(0x108), 0x80000000u);
  EXPECT_EQ(res.global.Load(0x10C), 0x80000000u);
  EXPECT_EQ(res.global.Load(0x110), 0x80000000u);
}

TEST(SmExec, NestedCalls) {
  const auto v = RunAndLoad(R"(
      .threads 1
      MOV32I R1, 0
      CAL outer
      MOV32I R3, 0x100
      STG [R3+0], R1
      EXIT
    outer:
      IADD32I R1, R1, 1
      CAL inner
      IADD32I R1, R1, 10
      RET
    inner:
      IADD32I R1, R1, 100
      RET
  )", 0x100);
  EXPECT_EQ(v, 111u);
}

TEST(SmExec, NestedDivergence) {
  // Two nested SSY regions: outer split on tid<2, inner split on tid odd.
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
      .threads 4
      S2R R1, SR_TID
      MOV32I R5, 0
      MOV32I R6, 1
      AND R7, R1, R6          // tid & 1
      ISETP.LT P0, R1, 2
      ISETP.EQ P1, R7, R6     // odd lanes
      SSY outer_join
      @P0 BRA outer_taken
      IADD32I R5, R5, 1000    // tid 2,3
      SSY inner_join
      @P1 BRA inner_taken
      IADD32I R5, R5, 10      // tid 2
      SYNC
    inner_taken:
      IADD32I R5, R5, 20      // tid 3
      SYNC
    inner_join:
      SYNC
    outer_taken:
      IADD32I R5, R5, 1       // tid 0,1 (else lanes skip via stack)
      SYNC
    outer_join:
      MOV32I R2, 4
      IMUL R3, R1, R2
      IADD32I R3, R3, 0x100
      STG [R3+0], R5
      EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100), 1u);     // tid 0
  EXPECT_EQ(res.global.Load(0x104), 1u);     // tid 1
  EXPECT_EQ(res.global.Load(0x108), 1010u);  // tid 2
  EXPECT_EQ(res.global.Load(0x10C), 1020u);  // tid 3
}

TEST(SmExec, LdcReadsConstantZeros) {
  const auto v = RunAndLoad(R"(
    .threads 1
    MOV32I R1, 0x10
    LDC R2, [R1+0]
    IADD32I R2, R2, 5
    MOV32I R3, 0x100
    STG [R3+0], R2
    EXIT
  )", 0x100);
  EXPECT_EQ(v, 5u);  // constant memory reads as zero
}

TEST(SmExec, PartialLastWarp) {
  // 40 threads = one full warp + one 8-lane warp.
  Sm sm;
  const RunResult res = sm.Run(Assemble(R"(
    .threads 40
    S2R R1, SR_TID
    MOV32I R2, 4
    IMUL R3, R1, R2
    IADD32I R3, R3, 0x100
    STG [R3+0], R1
    EXIT
  )"));
  EXPECT_EQ(res.global.Load(0x100 + 39 * 4), 39u);
  EXPECT_EQ(res.global.words().size(), 40u);
}

TEST(Memory, GlobalSparseDefaultsToZero) {
  GlobalMemory mem;
  EXPECT_EQ(mem.Load(0x1234 * 4), 0u);
  mem.Store(8, 77);
  EXPECT_EQ(mem.Load(8), 77u);
  EXPECT_EQ(mem.words().size(), 1u);
}

TEST(Memory, GlobalWordsAscendAcrossPages) {
  // Stores out of order over several pages; a re-stored word counts once,
  // a stored zero counts as written, and an unwritten word of a written
  // page still reads 0.
  GlobalMemory mem;
  mem.Store(0x10004, 2);
  mem.Store(0x8, 1);
  mem.Store(0x400000, 3);
  mem.Store(0x10000, 0);
  mem.Store(0x8, 5);
  EXPECT_EQ(mem.size(), 4u);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0x2, 5}, {0x4000, 0}, {0x4001, 2}, {0x100000, 3}};
  EXPECT_EQ(mem.words(), want);
  EXPECT_EQ(mem.Load(0x8), 5u);
  EXPECT_EQ(mem.Load(0xC), 0u);
  GlobalMemory same;
  for (const auto& [word, value] : want) same.Store(word * 4, value);
  EXPECT_EQ(mem, same);
  same.Store(0x10008, 0);
  EXPECT_FALSE(mem == same);
}

TEST(Memory, DenseBoundsChecked) {
  DenseMemory mem(4);
  mem.Store(12, 9);
  EXPECT_EQ(mem.Load(12), 9u);
  EXPECT_THROW(mem.Load(16), SimError);
  EXPECT_THROW(mem.Store(100, 1), SimError);
  EXPECT_THROW(mem.Load(2), SimError);  // misaligned
}

// --- Pinned interpreter corpus. ---
//
// Every artifact the interpreter and its monitors produce, digested per
// program: the final global-memory words, total_cycles and
// dynamic_instructions, the Tracing Report text, the VCDE of each of the
// four probes and the OpcodeHistogram render. The corpus is the PTP
// generators at a few seeds plus hand-written programs for the corners
// the generators miss (a partial last warp, several blocks, BAR, nested
// CAL/RET, nested divergence, @!P predication, predicated EXIT, every SFU
// and FP32 arch op). Any change to the SM's data path or the probes must
// keep these bytes.

constexpr const char* kCorpusAllOps = R"(
    .threads 40
    S2R R1, SR_TID
    S2R R2, SR_LANEID
    S2R R3, SR_WARPID
    S2R R4, SR_NTID
    S2R R5, SR_NCTAID
    S2R R6, SR_CTAID
    MOV32I R7, 0x9E3779B9
    IMUL R8, R1, R7
    IADD R8, R8, R7
    IADD32I R8, R8, 0x1234567
    ISUB R9, R8, R1
    IMAD R10, R8, R9, R1
    IMIN R11, R8, R9
    IMAX R12, R8, R9
    IABS R13, R8
    INEG R14, R8
    AND R15, R8, R9
    OR R16, R8, R9
    XOR R17, R8, R9
    NOT R18, R8
    SHL R19, R8, R1
    SHR R20, R8, R1
    SAR R21, R8, R1
    SEL R22, R8, R9, R10
    MOV R23, R22
    SHL R24, R8, 3
    XOR R40, R2, R3
    XOR R40, R40, R4
    XOR R40, R40, R5
    XOR R40, R40, R6
    XOR R40, R40, R10
    XOR R40, R40, R11
    XOR R40, R40, R12
    XOR R40, R40, R13
    XOR R40, R40, R14
    XOR R40, R40, R15
    XOR R40, R40, R16
    XOR R40, R40, R17
    XOR R40, R40, R18
    XOR R40, R40, R19
    XOR R40, R40, R20
    XOR R40, R40, R21
    XOR R40, R40, R23
    XOR R40, R40, R24
    ISETP.LT P0, R8, R9
    @P0 IADD32I R40, R40, 1
    ISETP.LE P1, R1, 20
    @!P1 IADD32I R40, R40, 2
    ISETP.GT P2, R8, 0x40000000
    @P2 IADD32I R40, R40, 4
    ISETP.GE P3, R1, R2
    @!P3 IADD32I R40, R40, 8
    ISETP.EQ P0, R2, 7
    @P0 XOR R40, R40, R8
    ISETP.NE P1, R3, 0
    @P1 XOR R40, R40, R9
    I2F R25, R1
    IADD32I R26, R1, 1
    I2F R26, R26
    FADD R27, R25, R26
    FMUL R28, R27, R26
    FFMA R29, R27, R26, R28
    FMIN R30, R27, R28
    FMAX R31, R27, R28
    FABS R32, R29
    FNEG R33, R29
    F2I R34, R29
    FSETP.GT P2, R27, R28
    @!P2 XOR R40, R40, R34
    FSETP.LT P3, R27, R28
    @P3 XOR R40, R40, R31
    RCP R35, R26
    RSQ R36, R26
    SIN R37, R25
    COS R38, R25
    LG2 R39, R26
    EX2 R41, R25
    XOR R40, R40, R27
    XOR R40, R40, R28
    XOR R40, R40, R29
    XOR R40, R40, R30
    XOR R40, R40, R31
    XOR R40, R40, R32
    XOR R40, R40, R33
    XOR R40, R40, R35
    XOR R40, R40, R36
    XOR R40, R40, R37
    XOR R40, R40, R38
    XOR R40, R40, R39
    XOR R40, R40, R41
    SHL R42, R1, 2
    IADD32I R42, R42, 0x10000
    STG [R42+0], R40
    EXIT
)";

constexpr const char* kCorpusBlocks = R"(
    .blocks 3
    .threads 48
    .data 0x100000: 0x11 0x22 0x33 0x44
    S2R R1, SR_TID
    S2R R2, SR_CTAID
    SHL R3, R1, 2
    MOV32I R4, 0x5A5A0000
    IMAD R5, R2, R4, R1
    STS [R3+0], R5
    MOV32I R6, 0
    STL [R6+4], R5
    BAR
    MOV32I R7, 1
    XOR R8, R1, R7
    SHL R8, R8, 2
    LDS R9, [R8+0]
    LDL R10, [R6+4]
    LDC R11, [R6+8]
    AND R12, R1, 3
    SHL R12, R12, 2
    IADD32I R12, R12, 0x100000
    LDG R13, [R12+0]
    XOR R14, R9, R10
    IADD R14, R14, R11
    IADD R14, R14, R13
    ISETP.LT P0, R1, 16
    @P0 BAR
    @!P0 IADD32I R14, R14, 0x100
    MOV32I R15, 48
    IMAD R16, R2, R15, R1
    SHL R16, R16, 2
    IADD32I R16, R16, 0x10000
    STG [R16+0], R14
    EXIT
)";

constexpr const char* kCorpusControl = R"(
      .threads 64
      S2R R1, SR_TID
      MOV32I R5, 0
      AND R7, R1, 3
      ISETP.LT P0, R1, 20
      ISETP.EQ P1, R7, 1
      CAL outer
      SSY outer_join
      @P0 BRA outer_taken
      IADD32I R5, R5, 1000
      SSY inner_join
      @!P1 BRA inner_taken
      IADD32I R5, R5, 10
      SYNC
    inner_taken:
      IADD32I R5, R5, 20
      SYNC
    inner_join:
      SYNC
    outer_taken:
      IADD32I R5, R5, 1
      SYNC
    outer_join:
      ISETP.GE P2, R1, 60
      SHL R3, R1, 2
      IADD32I R3, R3, 0x10000
      STG [R3+0], R5
      @P2 EXIT
      MOV32I R8, 0
    loop:
      IADD32I R8, R8, 1
      IADD R5, R5, R8
      ISETP.LT P3, R8, R7
      @P3 BRA loop
      STG [R3+0x100], R5
      EXIT
    outer:
      IADD32I R5, R5, 3
      CAL inner
      @!P0 IADD32I R5, R5, 5
      RET
    inner:
      SHL R5, R5, 1
      RET
)";

std::string CorpusDigest(const Program& prog) {
  TraceRecorder recorder;
  PatternProbe du(TargetModule::kDecoderUnit);
  PatternProbe sp(TargetModule::kSpCore);
  PatternProbe sfu(TargetModule::kSfu);
  PatternProbe fp32(TargetModule::kFp32);
  OpcodeHistogram histogram;
  Sm sm;
  for (ExecMonitor* m : std::initializer_list<ExecMonitor*>{
           &recorder, &du, &sp, &sfu, &fp32, &histogram}) {
    sm.AddMonitor(m);
  }
  const RunResult res = sm.Run(prog);

  Hasher128 h;
  h.AddU64(res.global.words().size());
  for (const auto& [addr, value] : res.global.words()) {
    h.AddU32(addr);
    h.AddU32(value);
  }
  h.AddU64(res.total_cycles);
  h.AddU64(res.dynamic_instructions);
  std::ostringstream os;
  recorder.report().Write(os);
  for (const PatternProbe* probe : {&du, &sp, &sfu, &fp32}) {
    netlist::WriteVcde(os, std::string(TargetModuleName(probe->module())),
                       probe->patterns());
  }
  os << histogram.Render();
  h.AddString(os.str());
  return h.Finish().ToHex();
}

TEST(SmCorpus, ArtifactsMatchPinnedDigests) {
  struct Case {
    const char* name;
    Program prog;
    const char* digest;  // from the per-lane interpreter that preceded
                         // the warp-at-a-time one
  };
  const Case cases[] = {
      {"imm s1", stl::GenerateImm(4, 1), "61002c42c4502d45d2e0ccff5c928d33"},
      {"imm s7", stl::GenerateImm(6, 7), "aacb992ad3d8bb356e2e42275f0fb3b0"},
      {"mem s2", stl::GenerateMem(4, 2), "de4e0d631696a82e230a36c7ccc56de9"},
      {"mem s9", stl::GenerateMem(6, 9), "1abf67f211e5373d0fbacef2e703a5c5"},
      {"cntrl s3", stl::GenerateCntrl(2, 3), "ddeb360f7a4523b7cdc7c355a4e4fea5"},
      {"cntrl s5", stl::GenerateCntrl(3, 5), "52b22f245341833d552b77d87e9543dc"},
      {"rand s4", stl::GenerateRand(4, 4), "075bb12b4b165b9feb7d3461244236f8"},
      {"rand s8", stl::GenerateRand(6, 8), "f9f6eafe0e77088830a15d817adbc835"},
      {"fpu s6", stl::GenerateFpu(4, 6), "e266cc983edc4340d2ec2201932ed74f"},
      {"fpu s10", stl::GenerateFpu(6, 10), "f39e16bf940b461a9311d1348e98c96f"},
      {"all ops, partial warp", Assemble(kCorpusAllOps),
       "484b3c8a92813923b8a6d811113d50a4"},
      {"blocks, bar, memories", Assemble(kCorpusBlocks),
       "57fcb4b1ff505a9367f8be51a42acc02"},
      {"cal/ret, divergence, exit", Assemble(kCorpusControl),
       "03de1f894577c8083641e9186a021f5c"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(CorpusDigest(c.prog), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace gpustl::gpu
