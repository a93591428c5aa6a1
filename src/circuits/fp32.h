// Gate-level FP32 lane datapath ("FP-lite").
//
// The SM contains 8 FP32 units next to the SP cores (paper §II.B). This
// module models one lane as a combinational datapath for FADD / FMUL /
// FABS / FNEG with a REDUCED-PRECISION mantissa (hidden bit + 11 fraction
// bits, truncating, subnormals flushed to zero, overflow saturating to
// infinity encoding, no NaN handling) — the usual area-reduced embedded FP
// datapath. The GPU's architectural FP results remain full IEEE (computed
// in software); like the SP and SFU modules, this netlist only defines the
// fault-simulation behavior for the patterns the FP instructions apply.
//
// Input order:  uop[0..1], A[0..31], B[0..31]   (66)
//   uop: 0 = FADD, 1 = FMUL, 2 = FABS, 3 = FNEG
// Output order: Y[0..31]                        (32)
//
// Fp32LiteOp() in this header is the bit-exact software model.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"

namespace gpustl::circuits {

inline constexpr int kFp32NumInputs = 2 + 32 + 32;
inline constexpr int kFp32NumOutputs = 32;

/// Micro-op selectors of the FP32 module.
enum class Fp32Uop : int { kAdd = 0, kMul = 1, kAbs = 2, kNeg = 3 };

/// Builds and freezes the FP32 datapath netlist.
netlist::Netlist BuildFp32();

/// Bit-exact software model of the datapath.
std::uint32_t Fp32LiteOp(Fp32Uop uop, std::uint32_t a, std::uint32_t b);

/// Packs an FP32 input pattern into `words[0..1]` ((66+63)/64 = 2 words).
inline void EncodeFp32Pattern(Fp32Uop uop, std::uint32_t a, std::uint32_t b,
                              std::uint64_t* words) {
  // A occupies bits [2,34); B occupies [34,66).
  words[0] = static_cast<std::uint64_t>(static_cast<int>(uop) & 0x3) |
             static_cast<std::uint64_t>(a) << 2 |
             static_cast<std::uint64_t>(b) << 34;
  words[1] = static_cast<std::uint64_t>(b) >> 30;
}

}  // namespace gpustl::circuits
