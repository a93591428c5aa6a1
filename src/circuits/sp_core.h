// Gate-level SP core integer/logic datapath.
//
// One Streaming Processor lane as a combinational datapath between the
// operand-read and write-back pipeline registers. Inputs are the micro-op
// selector (the opcode value, 6 bits), the comparison selector (3 bits) and
// the three 32-bit operands already resolved by the operand-collect stage
// (immediates and special registers arrive through operand B). Outputs are
// the 32-bit result and the predicate outcome.
//
// Input order:  uop[0..5], cmp[0..2], A[0..31], B[0..31], C[0..31]   (105)
// Output order: R[0..31], pred                                       (33)
//
// SpIntOp() in reference.h is the bit-exact software model.
#pragma once

#include "netlist/netlist.h"

namespace gpustl::circuits {

inline constexpr int kSpNumInputs = 6 + 3 + 32 * 3;
inline constexpr int kSpNumOutputs = 33;

/// Builds and freezes the SP datapath netlist.
netlist::Netlist BuildSpCore();

/// Packs an SP input pattern (uop, cmp, a, b, c) into `words[0..1]`
/// following the input order above ((105+63)/64 = 2 words). uop and cmp
/// are masked to their 6- and 3-bit fields; bits 105..127 are zero.
/// Inline: the pattern probe encodes every executing lane with it.
inline void EncodeSpPattern(int uop, int cmp, std::uint32_t a, std::uint32_t b,
                            std::uint32_t c, std::uint64_t* words) {
  // Fields at bits 0/6/9/41/73, widths 6/3/32/32/32; B straddles the words.
  words[0] = (static_cast<std::uint64_t>(uop) & 0x3f) |
             (static_cast<std::uint64_t>(cmp) & 0x7) << 6 |
             static_cast<std::uint64_t>(a) << 9 |
             static_cast<std::uint64_t>(b) << 41;
  words[1] = static_cast<std::uint64_t>(b) >> 23 |
             static_cast<std::uint64_t>(c) << 9;
}

}  // namespace gpustl::circuits
