#include "circuits/reference.h"

#include "circuits/decoder_unit.h"
#include "common/bitops.h"
#include "isa/instruction.h"

namespace gpustl::circuits {

using isa::Opcode;

namespace {
std::uint16_t RotL16(std::uint16_t v, int k) {
  return static_cast<std::uint16_t>((v << k) | (v >> (16 - k)));
}
}  // namespace

std::uint32_t SfuOp(int fsel, std::uint32_t x) {
  const auto xl = static_cast<std::uint16_t>(x & 0xFFFFu);
  const auto xh = static_cast<std::uint16_t>(x >> 16);
  std::uint16_t k = 0;
  for (int i = 0; i < 16; ++i) {
    if ((fsel >> (i % 3)) & 1) k = static_cast<std::uint16_t>(k | (1u << i));
  }
  const std::uint16_t c0 = static_cast<std::uint16_t>(xh ^ RotL16(xh, 3) ^ k);
  const std::uint16_t c1 =
      static_cast<std::uint16_t>((xh & RotL16(xh, 5)) ^ static_cast<std::uint16_t>(~k));
  const std::uint16_t c2 =
      static_cast<std::uint16_t>((xh | RotL16(xh, 7)) ^ RotL16(k, 1));
  const std::uint32_t sq = static_cast<std::uint32_t>(xl) * xl;
  const std::uint16_t sqh = static_cast<std::uint16_t>(sq >> 16);
  return (static_cast<std::uint32_t>(c0) << 16) +
         static_cast<std::uint32_t>(c1) * xl +
         static_cast<std::uint32_t>(c2) * sqh;
}

std::array<std::uint64_t, 3> DuReference(std::uint64_t instr_word) {
  std::array<std::uint64_t, 3> out{0, 0, 0};
  auto set = [&](int index, bool value) {
    if (value) out[static_cast<std::size_t>(index) / 64] |=
        1ull << (static_cast<std::size_t>(index) % 64);
  };
  auto set_field = [&](int index, std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) set(index + i, (value >> i) & 1);
  };

  const std::uint64_t op_field = BitField(instr_word, 0, 8);
  const bool valid = op_field < static_cast<std::uint64_t>(isa::kNumOpcodes);
  using I = DuOutputIndex;
  set(I::kValid, valid);
  if (valid) {
    const auto& info = isa::GetOpcodeInfo(static_cast<Opcode>(op_field));
    set(I::kUnitOneHot + static_cast<int>(info.unit), true);
    set(I::kWritesReg, info.writes_reg);
    set(I::kWritesPred, info.writes_pred);
    set(I::kReadsMem, info.reads_memory);
    set(I::kWritesMem, info.writes_memory);
    set(I::kIsBranch, info.is_branch);
    set(I::kFormatOneHot + static_cast<int>(info.format), true);
    set(I::kOpEnable + static_cast<int>(op_field), true);
  }
  set(I::kHasImm, BitField(instr_word, 30, 1) != 0);
  set(I::kPredicated, BitField(instr_word, 10, 1) != 0);
  set(I::kPredNeg, BitField(instr_word, 11, 1) != 0);
  set_field(I::kPredReg, BitField(instr_word, 8, 2), 2);
  set_field(I::kDst, BitField(instr_word, 12, 6), 6);
  set_field(I::kSrcA, BitField(instr_word, 18, 6), 6);
  set_field(I::kSrcB, BitField(instr_word, 24, 6), 6);
  set_field(I::kSrcC, BitField(instr_word, 32, 6), 6);
  const std::uint64_t cmp_field = BitField(instr_word, 38, 3);
  if (cmp_field < 6) set(I::kCmpOneHot + static_cast<int>(cmp_field), true);

  const std::uint64_t dst = BitField(instr_word, 12, 6);
  set(I::kDstOneHot + static_cast<int>(dst), true);
  set(I::kHazardA, dst == BitField(instr_word, 18, 6));
  set(I::kHazardB, dst == BitField(instr_word, 24, 6));
  set(I::kImmZero, BitField(instr_word, 32, 32) == 0);
  set(I::kImmSign, BitField(instr_word, 63, 1) != 0);
  return out;
}

}  // namespace gpustl::circuits
