// Gate-level module equivalence: every module netlist must agree bit-for-bit
// with its software reference over directed and random sweeps.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/reference.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/rng.h"
#include "isa/instruction.h"
#include "netlist/logicsim.h"

namespace gpustl::circuits {
namespace {

using isa::CmpOp;
using isa::Opcode;
using netlist::BitSimulator;
using netlist::Netlist;
using netlist::PatternSet;

// --- Decoder Unit ---

class DuTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { du_ = new Netlist(BuildDecoderUnit()); }
  static void TearDownTestSuite() { delete du_; du_ = nullptr; }

  /// Simulates one instruction word and packs the outputs like DuReference.
  static std::array<std::uint64_t, 3> Decode(std::uint64_t word) {
    BitSimulator sim(*du_);
    for (int i = 0; i < 64; ++i) {
      sim.SetInputWord(static_cast<std::size_t>(i),
                       (word >> i) & 1 ? ~0ull : 0ull);
    }
    sim.Eval();
    std::array<std::uint64_t, 3> out{0, 0, 0};
    for (std::size_t o = 0; o < du_->num_outputs(); ++o) {
      if (sim.OutputWord(o) & 1) out[o / 64] |= 1ull << (o % 64);
    }
    return out;
  }

  static Netlist* du_;
};
Netlist* DuTest::du_ = nullptr;

TEST_F(DuTest, ArityMatchesIndexMap) {
  EXPECT_EQ(du_->num_inputs(), 64u);
  EXPECT_EQ(du_->num_outputs(),
            static_cast<std::size_t>(DuOutputIndex::kCount));
}

TEST_F(DuTest, EveryOpcodeDecodesLikeReference) {
  for (int k = 0; k < isa::kNumOpcodes; ++k) {
    isa::Instruction inst;
    inst.op = static_cast<Opcode>(k);
    inst.dst = 13;
    inst.src_a = 7;
    const std::uint64_t word = inst.Encode();
    EXPECT_EQ(Decode(word), DuReference(word))
        << isa::GetOpcodeInfo(inst.op).mnemonic;
  }
}

TEST_F(DuTest, InvalidOpcodeFieldYieldsInvalid) {
  const std::uint64_t word = 55;  // opcode field 55 >= 52
  const auto out = Decode(word);
  EXPECT_EQ(out[0] & 1, 0u);  // valid == 0
  EXPECT_EQ(out, DuReference(word));
}

TEST_F(DuTest, RandomWordsMatchReference) {
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t word = rng();
    EXPECT_EQ(Decode(word), DuReference(word)) << "word " << word;
  }
}

TEST_F(DuTest, FieldPassThroughs) {
  isa::Instruction inst = isa::MakeMem(Opcode::LDG, 21, 42, 0x123);
  inst = isa::WithPred(inst, 3, true);
  const auto out = Decode(inst.Encode());
  using I = DuOutputIndex;
  auto bit = [&](int idx) {
    return (out[static_cast<std::size_t>(idx) / 64] >> (idx % 64)) & 1;
  };
  auto field = [&](int idx, int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v |= bit(idx + i) << i;
    return v;
  };
  EXPECT_EQ(bit(I::kValid), 1u);
  EXPECT_EQ(bit(I::kReadsMem), 1u);
  EXPECT_EQ(bit(I::kWritesMem), 0u);
  EXPECT_EQ(bit(I::kHasImm), 1u);
  EXPECT_EQ(bit(I::kPredicated), 1u);
  EXPECT_EQ(bit(I::kPredNeg), 1u);
  EXPECT_EQ(field(I::kPredReg, 2), 3u);
  EXPECT_EQ(field(I::kDst, 6), 21u);
  EXPECT_EQ(field(I::kSrcA, 6), 42u);
  EXPECT_EQ(bit(I::kOpEnable + static_cast<int>(Opcode::LDG)), 1u);
}

// --- SP core ---

class SpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { sp_ = new Netlist(BuildSpCore()); }
  static void TearDownTestSuite() { delete sp_; sp_ = nullptr; }

  static SpResult Execute(Opcode op, CmpOp cmp, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c) {
    std::uint64_t words[2];
    EncodeSpPattern(static_cast<int>(op), static_cast<int>(cmp), a, b, c,
                    words);
    BitSimulator sim(*sp_);
    for (std::size_t i = 0; i < sp_->num_inputs(); ++i) {
      sim.SetInputWord(i, (words[i / 64] >> (i % 64)) & 1 ? ~0ull : 0ull);
    }
    sim.Eval();
    SpResult r;
    for (int bit = 0; bit < 32; ++bit) {
      if (sim.OutputWord(static_cast<std::size_t>(bit)) & 1) {
        r.value |= 1u << bit;
      }
    }
    r.pred = (sim.OutputWord(32) & 1) != 0;
    return r;
  }

  static Netlist* sp_;
};
Netlist* SpTest::sp_ = nullptr;

TEST_F(SpTest, Arity) {
  EXPECT_EQ(sp_->num_inputs(), static_cast<std::size_t>(kSpNumInputs));
  EXPECT_EQ(sp_->num_outputs(), static_cast<std::size_t>(kSpNumOutputs));
}

struct SpOpCase {
  Opcode op;
};

class SpOpSweep : public ::testing::TestWithParam<SpOpCase> {};

TEST_P(SpOpSweep, NetlistMatchesReferenceOnRandomOperands) {
  static Netlist sp = BuildSpCore();
  const Opcode op = GetParam().op;
  Rng rng(static_cast<std::uint64_t>(op) + 99);
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const auto c = static_cast<std::uint32_t>(rng());
    const auto cmp = static_cast<CmpOp>(rng.below(6));

    std::uint64_t words[2];
    EncodeSpPattern(static_cast<int>(op), static_cast<int>(cmp), a, b, c,
                    words);
    BitSimulator sim(sp);
    for (std::size_t k = 0; k < sp.num_inputs(); ++k) {
      sim.SetInputWord(k, (words[k / 64] >> (k % 64)) & 1 ? ~0ull : 0ull);
    }
    sim.Eval();
    std::uint32_t value = 0;
    for (int bit = 0; bit < 32; ++bit) {
      if (sim.OutputWord(static_cast<std::size_t>(bit)) & 1) value |= 1u << bit;
    }
    const bool pred = (sim.OutputWord(32) & 1) != 0;

    const SpResult expect = SpIntOp(op, cmp, a, b, c);
    EXPECT_EQ(value, expect.value)
        << isa::GetOpcodeInfo(op).mnemonic << " a=" << a << " b=" << b;
    EXPECT_EQ(pred, expect.pred);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpOps, SpOpSweep,
    ::testing::Values(SpOpCase{Opcode::IADD}, SpOpCase{Opcode::ISUB},
                      SpOpCase{Opcode::IMUL}, SpOpCase{Opcode::IMAD},
                      SpOpCase{Opcode::IMIN}, SpOpCase{Opcode::IMAX},
                      SpOpCase{Opcode::IABS}, SpOpCase{Opcode::INEG},
                      SpOpCase{Opcode::IADD32I}, SpOpCase{Opcode::AND},
                      SpOpCase{Opcode::OR}, SpOpCase{Opcode::XOR},
                      SpOpCase{Opcode::NOT}, SpOpCase{Opcode::SHL},
                      SpOpCase{Opcode::SHR}, SpOpCase{Opcode::SAR},
                      SpOpCase{Opcode::ISETP}, SpOpCase{Opcode::SEL},
                      SpOpCase{Opcode::MOV}, SpOpCase{Opcode::MOV32I},
                      SpOpCase{Opcode::S2R}));

TEST_F(SpTest, DirectedCornerCases) {
  // INT_MIN negation wraps.
  EXPECT_EQ(Execute(Opcode::INEG, CmpOp::kEQ, 0x80000000u, 0, 0).value,
            0x80000000u);
  EXPECT_EQ(Execute(Opcode::IABS, CmpOp::kEQ, 0x80000000u, 0, 0).value,
            0x80000000u);
  // Shift by zero and by 31.
  EXPECT_EQ(Execute(Opcode::SHL, CmpOp::kEQ, 0xFFFFFFFFu, 0, 0).value,
            0xFFFFFFFFu);
  EXPECT_EQ(Execute(Opcode::SAR, CmpOp::kEQ, 0x80000000u, 31, 0).value,
            0xFFFFFFFFu);
  // Signed comparisons at the boundary.
  EXPECT_TRUE(Execute(Opcode::ISETP, CmpOp::kLT, 0x80000000u, 0, 0).pred);
  EXPECT_FALSE(Execute(Opcode::ISETP, CmpOp::kGT, 0x80000000u, 0, 0).pred);
  EXPECT_TRUE(Execute(Opcode::ISETP, CmpOp::kEQ, 42, 42, 0).pred);
  // 16x16 multiplier semantics.
  EXPECT_EQ(Execute(Opcode::IMUL, CmpOp::kEQ, 0x10002u, 0x10003u, 0).value,
            6u);
}

TEST_F(SpTest, UnknownUopYieldsZero) {
  // FADD is not part of the SP integer datapath: no source is selected.
  EXPECT_EQ(Execute(Opcode::FADD, CmpOp::kEQ, 5, 6, 7).value, 0u);
}

// --- Pattern layouts ---

/// One input field of a module pattern: the low `width` bits of `value`
/// at input bit `lo`.
struct Field {
  int lo;
  int width;
  std::uint64_t value;
};

/// Per-bit reference packer, sharing no code with the encoders.
std::array<std::uint64_t, 2> PackPerBit(std::initializer_list<Field> fields) {
  std::array<std::uint64_t, 2> words{};
  for (const Field& f : fields) {
    for (int i = 0; i < f.width; ++i) {
      const int bit = f.lo + i;
      if ((f.value >> i) & 1) words[bit / 64] |= 1ull << (bit % 64);
    }
  }
  return words;
}

std::array<std::uint64_t, 2> EncodeSp(std::uint64_t uop, std::uint64_t cmp,
                                      std::uint32_t a, std::uint32_t b,
                                      std::uint32_t c) {
  std::array<std::uint64_t, 2> words = {~0ull, ~0ull};  // no stale bits
  EncodeSpPattern(static_cast<int>(uop), static_cast<int>(cmp), a, b, c,
                  words.data());
  return words;
}

std::array<std::uint64_t, 2> ReferenceSp(std::uint64_t uop, std::uint64_t cmp,
                                         std::uint32_t a, std::uint32_t b,
                                         std::uint32_t c) {
  return PackPerBit(
      {{0, 6, uop}, {6, 3, cmp}, {9, 32, a}, {41, 32, b}, {73, 32, c}});
}

TEST(PatternLayoutTest, SpEncoderMatchesPerBitReference) {
  Rng rng(0x5E1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t uop = rng.below(256);  // >= 64 must be masked
    const std::uint64_t cmp = rng.below(16);   // >= 8 must be masked
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const auto c = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(EncodeSp(uop, cmp, a, b, c), ReferenceSp(uop, cmp, a, b, c))
        << "uop=" << uop << " cmp=" << cmp << " a=" << a << " b=" << b
        << " c=" << c;
  }
}

TEST(PatternLayoutTest, SpEncoderFieldEdges) {
  const std::uint32_t ones = 0xFFFFFFFFu;
  EXPECT_EQ(EncodeSp(0x3f, 7, ones, ones, ones),
            ReferenceSp(0x3f, 7, ones, ones, ones));
  // Every input bit set, and nothing beyond input 104.
  EXPECT_EQ(EncodeSp(0x3f, 7, ones, ones, ones)[0], ~0ull);
  EXPECT_EQ(EncodeSp(0x3f, 7, ones, ones, ones)[1], (1ull << 41) - 1);
  // Out-of-field selector bits are dropped, not spilled into neighbours.
  EXPECT_EQ(EncodeSp(64 + 5, 8 + 2, 0, 0, 0), EncodeSp(5, 2, 0, 0, 0));
  EXPECT_EQ(EncodeSp(~0ull, ~0ull, 0, 0, 0), ReferenceSp(0x3f, 7, 0, 0, 0));
  // Each operand alone lands in its own field.
  EXPECT_EQ(EncodeSp(0, 0, ones, 0, 0), ReferenceSp(0, 0, ones, 0, 0));
  EXPECT_EQ(EncodeSp(0, 0, 0, ones, 0), ReferenceSp(0, 0, 0, ones, 0));
  EXPECT_EQ(EncodeSp(0, 0, 0, 0, ones), ReferenceSp(0, 0, 0, 0, ones));
  EXPECT_EQ(EncodeSp(0, 0, 0, 0, ones)[1] >> 41, 0u);  // bits 105..127
}

TEST(PatternLayoutTest, Fp32EncoderMatchesPerBitReference) {
  auto encode = [](int uop, std::uint32_t a, std::uint32_t b) {
    std::array<std::uint64_t, 2> words = {~0ull, ~0ull};
    EncodeFp32Pattern(static_cast<Fp32Uop>(uop), a, b, words.data());
    return words;
  };
  auto reference = [](int uop, std::uint32_t a, std::uint32_t b) {
    return PackPerBit(
        {{0, 2, static_cast<std::uint64_t>(uop)}, {2, 32, a}, {34, 32, b}});
  };
  Rng rng(0xF32);
  for (int i = 0; i < 20000; ++i) {
    const int uop = static_cast<int>(rng.below(4));
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(encode(uop, a, b), reference(uop, a, b))
        << "uop=" << uop << " a=" << a << " b=" << b;
  }
  const std::uint32_t ones = 0xFFFFFFFFu;
  EXPECT_EQ(encode(3, ones, ones), reference(3, ones, ones));
  EXPECT_EQ(encode(3, ones, ones)[0], ~0ull);
  EXPECT_EQ(encode(3, ones, ones)[1], 0x3u);  // bits 66..127 are zero
  EXPECT_EQ(encode(0, 0, ones), reference(0, 0, ones));
}

// --- SFU ---

TEST(SfuTest, NetlistMatchesReference) {
  Netlist sfu = BuildSfu();
  EXPECT_EQ(sfu.num_inputs(), static_cast<std::size_t>(kSfuNumInputs));
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const int fsel = static_cast<int>(rng.below(8));
    const auto x = static_cast<std::uint32_t>(rng());
    const std::uint64_t pattern = EncodeSfuPattern(fsel, x);

    BitSimulator sim(sfu);
    for (std::size_t k = 0; k < sfu.num_inputs(); ++k) {
      sim.SetInputWord(k, (pattern >> k) & 1 ? ~0ull : 0ull);
    }
    sim.Eval();
    std::uint32_t y = 0;
    for (int bit = 0; bit < 32; ++bit) {
      if (sim.OutputWord(static_cast<std::size_t>(bit)) & 1) y |= 1u << bit;
    }
    EXPECT_EQ(y, SfuOp(fsel, x)) << "fsel=" << fsel << " x=" << x;
  }
}

TEST(SfuTest, DistinctSelectorsProduceDistinctOutputs) {
  // The coefficient mixing must actually depend on fsel.
  int distinct = 0;
  for (std::uint32_t x : {0x12345678u, 0xDEADBEEFu, 0x00010001u}) {
    std::uint32_t y0 = SfuOp(0, x);
    for (int fsel = 1; fsel < 6; ++fsel) {
      if (SfuOp(fsel, x) != y0) ++distinct;
    }
  }
  EXPECT_GT(distinct, 10);
}

TEST(ModuleStats, GateAndFaultCountsAreSubstantial) {
  const Netlist du = BuildDecoderUnit();
  const Netlist sp = BuildSpCore();
  const Netlist sfu = BuildSfu();
  EXPECT_GT(du.gate_count(), 400u);
  EXPECT_GT(sp.gate_count(), 2000u);
  EXPECT_GT(sfu.gate_count(), 2000u);
}

}  // namespace
}  // namespace gpustl::circuits
