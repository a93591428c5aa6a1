// Bit-exact software reference models of the gate-level modules.
//
// Each gate-level module (Decoder Unit, SP integer datapath, SFU datapath)
// has a pure-function reference here that computes exactly what the netlist
// computes. The references serve three roles:
//  * property tests: netlist-vs-reference equivalence over random sweeps,
//  * the GPU functional model executes SP integer ops through SpIntOp so
//    architectural results and gate-level patterns always agree,
//  * documentation of the module semantics.
#pragma once

#include <array>
#include <cstdint>

#include "isa/opcode.h"

namespace gpustl::circuits {

/// Result of the SP integer datapath.
struct SpResult {
  std::uint32_t value = 0;
  bool pred = false;  // ISETP outcome (valid only for ISETP)
};

/// SP integer/logic datapath semantics.
///
/// Notes matching the gate-level implementation:
///  * IMUL/IMAD multiply the LOW 16-BIT halves of both operands into a full
///    32-bit product (the G80 multiplier is a narrow datapath; FlexGripPlus
///    models it similarly).
///  * Shift amounts are taken modulo 32.
///  * IMIN/IMAX and the LT/LE/GT/GE comparisons are signed.
///  * SEL is the bitwise select (a & c) | (b & ~c).
///  * MOV passes operand A; MOV32I/S2R pass operand B (the resolved
///    immediate/special value).
///
/// Inline so that the GPU model's per-opcode lane loops (gpu/sm.cpp),
/// which call it with a constant `op`, fold the switch away.
inline SpResult SpIntOp(isa::Opcode op, isa::CmpOp cmp, std::uint32_t a,
                        std::uint32_t b, std::uint32_t c) {
  using isa::CmpOp;
  using isa::Opcode;
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  const std::uint32_t mul16 = (a & 0xFFFFu) * (b & 0xFFFFu);

  SpResult r;
  switch (op) {
    case Opcode::IADD:
    case Opcode::IADD32I:
      r.value = a + b;
      break;
    case Opcode::ISUB:
      r.value = a - b;
      break;
    case Opcode::IMUL:
      r.value = mul16;
      break;
    case Opcode::IMAD:
      r.value = mul16 + c;
      break;
    case Opcode::IMIN:
      r.value = sa < sb ? a : b;
      break;
    case Opcode::IMAX:
      r.value = sa < sb ? b : a;
      break;
    case Opcode::IABS:
      r.value = sa < 0 ? 0u - a : a;
      break;
    case Opcode::INEG:
      r.value = 0u - a;
      break;
    case Opcode::AND:
      r.value = a & b;
      break;
    case Opcode::OR:
      r.value = a | b;
      break;
    case Opcode::XOR:
      r.value = a ^ b;
      break;
    case Opcode::NOT:
      r.value = ~a;
      break;
    case Opcode::SHL:
      r.value = a << (b & 31u);
      break;
    case Opcode::SHR:
      r.value = a >> (b & 31u);
      break;
    case Opcode::SAR:
      r.value = static_cast<std::uint32_t>(sa >> (b & 31u));
      break;
    case Opcode::SEL:
      r.value = (a & c) | (b & ~c);
      break;
    case Opcode::MOV:
      r.value = a;
      break;
    case Opcode::MOV32I:
    case Opcode::S2R:
      r.value = b;
      break;
    case Opcode::ISETP: {
      r.value = 0;
      switch (cmp) {
        case CmpOp::kLT: r.pred = sa < sb; break;
        case CmpOp::kLE: r.pred = sa <= sb; break;
        case CmpOp::kGT: r.pred = sa > sb; break;
        case CmpOp::kGE: r.pred = sa >= sb; break;
        case CmpOp::kEQ: r.pred = a == b; break;
        case CmpOp::kNE: r.pred = a != b; break;
      }
      break;
    }
    default:
      // Non-integer opcodes never reach the SP integer datapath.
      r.value = 0;
      break;
  }
  return r;
}

/// SFU datapath semantics: fixed-point quadratic interpolation
/// y = (c0 << 16) + c1*xl + c2*hi16(xl*xl)  (mod 2^32), with the
/// coefficients c0,c1,c2 derived from the high operand half and the
/// function selector by the mixing network described in sfu.cpp.
std::uint32_t SfuOp(int fsel, std::uint32_t x);

/// Decoded control-signal vector produced by the Decoder Unit for one
/// 64-bit instruction word. Bit layout matches BuildDecoderUnit's output
/// order (DuOutputIndex); packed LSB-first across the two words
/// (bit i of the vector = word[i/64] >> (i%64)).
std::array<std::uint64_t, 3> DuReference(std::uint64_t instr_word);

}  // namespace gpustl::circuits
