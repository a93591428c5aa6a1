// Gate-level Special Function Unit (SFU) datapath.
//
// The G80 SFU evaluates transcendental functions (RCP, RSQ, SIN, COS, LG2,
// EX2) by quadratic interpolation: the operand's high bits index coefficient
// tables and the low bits enter a squarer/multiplier/adder pipeline. This
// module reproduces that structure as a combinational datapath:
//
//   xh = x[31:16], xl = x[15:0]
//   c0 = xh ^ rotl(xh,3) ^ K          (coefficient-generation mixing
//   c1 = (xh & rotl(xh,5)) ^ ~K        network standing in for the ROM
//   c2 = (xh | rotl(xh,7)) ^ rotl(K,1) tables; K = fsel bits replicated)
//   sq = xl * xl;  sqh = sq[31:16]
//   y  = (c0 << 16) + c1*xl + c2*sqh   (mod 2^32)
//
// Input order:  fsel[0..2], x[0..31]   (35)
// Output order: y[0..31]               (32)
//
// SfuOp() in reference.h is the bit-exact software model. Because the
// interpolation pipeline has no inter-operation state, there is no data
// dependence between SFU test operations — the property the paper uses to
// explain why SFU_IMM's fault coverage is unaffected by compaction.
#pragma once

#include "netlist/netlist.h"

namespace gpustl::circuits {

inline constexpr int kSfuNumInputs = 3 + 32;
inline constexpr int kSfuNumOutputs = 32;

/// Builds and freezes the SFU datapath netlist.
netlist::Netlist BuildSfu();

/// Packs an SFU input pattern (fsel, x) into one 64-bit word
/// (bits 0..2 = fsel, bits 3..34 = x).
inline std::uint64_t EncodeSfuPattern(int fsel, std::uint32_t x) {
  return (static_cast<std::uint64_t>(fsel) & 0x7u) |
         (static_cast<std::uint64_t>(x) << 3);
}

}  // namespace gpustl::circuits
