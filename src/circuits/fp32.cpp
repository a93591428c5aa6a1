#include "circuits/fp32.h"

#include "circuits/blocks.h"
#include "common/error.h"

namespace gpustl::circuits {

using netlist::CellType;
using netlist::Netlist;

// ---------------------------------------------------------------------------
// Software reference. Every step mirrors the netlist structure 1:1 so the
// two stay bit-exact: 12-bit mantissas (hidden bit + 11 fraction bits),
// 10-bit wrap-around exponent arithmetic with the sign in bit 9, truncation
// everywhere, subnormals flushed to zero, overflow saturating to the
// infinity encoding. exp==255 inputs are treated as ordinary large
// exponents (no NaN logic), as in area-reduced embedded FP datapaths.
// ---------------------------------------------------------------------------
namespace {

struct Unpacked {
  std::uint32_t sign;   // 1 bit
  std::uint32_t exp;    // 8 bits
  std::uint32_t mant;   // 12 bits; 0 when exp == 0 (flush to zero)
};

Unpacked Unpack(std::uint32_t x) {
  Unpacked u;
  u.sign = x >> 31;
  u.exp = (x >> 23) & 0xFF;
  const std::uint32_t frac11 = (x >> 12) & 0x7FF;
  u.mant = u.exp != 0 ? (0x800 | frac11) : 0;
  return u;
}

std::uint32_t Pack(std::uint32_t sign, std::uint32_t e10, std::uint32_t mant) {
  if (mant == 0) return sign << 31;
  const bool neg = (e10 >> 9) & 1;
  if (neg || (e10 & 0x3FF) == 0) return sign << 31;  // underflow: zero
  const std::uint32_t low9 = e10 & 0x1FF;
  if (low9 >= 255) return (sign << 31) | 0x7F800000u;  // overflow: infinity
  return (sign << 31) | (low9 << 23) | ((mant & 0x7FF) << 12);
}

std::uint32_t MulLite(std::uint32_t a, std::uint32_t b) {
  const Unpacked ua = Unpack(a), ub = Unpack(b);
  const std::uint32_t sign = ua.sign ^ ub.sign;
  if (ua.mant == 0 || ub.mant == 0) return sign << 31;
  const std::uint32_t p = ua.mant * ub.mant;  // 24 bits
  const std::uint32_t hi = (p >> 23) & 1;
  const std::uint32_t mant = hi ? (p >> 12) & 0xFFF : (p >> 11) & 0xFFF;
  const std::uint32_t e10 = (ua.exp + ub.exp + 897 + hi) & 0x3FF;  // -127
  return Pack(sign, e10, mant);
}

std::uint32_t AddLite(std::uint32_t a, std::uint32_t b) {
  Unpacked ua = Unpack(a), ub = Unpack(b);
  // Swap so |a| >= |b| (lexicographic on exp:mant).
  const std::uint32_t ka = (ua.exp << 12) | ua.mant;
  const std::uint32_t kb = (ub.exp << 12) | ub.mant;
  if (kb > ka) std::swap(ua, ub);

  const std::uint32_t d = (ua.exp - ub.exp) & 0xFF;
  const std::uint32_t sh = d > 15 ? 15 : d;
  const std::uint32_t mb_aligned = ub.mant >> sh;

  if (ua.sign == ub.sign) {
    const std::uint32_t s13 = ua.mant + mb_aligned;
    const std::uint32_t carry = (s13 >> 12) & 1;
    const std::uint32_t mant = carry ? (s13 >> 1) & 0xFFF : s13 & 0xFFF;
    const std::uint32_t e10 = (ua.exp + carry) & 0x3FF;
    return Pack(ua.sign, e10, mant);
  }

  std::uint32_t v = (ua.mant - mb_aligned) & 0xFFF;  // >= 0 by the swap
  if (v == 0) return 0;  // exact cancellation: +0
  std::uint32_t e10 = ua.exp & 0x3FF;
  for (const std::uint32_t k : {8u, 4u, 2u, 1u}) {
    if ((v >> (12 - k)) == 0) {
      v = (v << k) & 0xFFF;
      e10 = (e10 - k) & 0x3FF;
    }
  }
  return Pack(ua.sign, e10, v);
}

}  // namespace

std::uint32_t Fp32LiteOp(Fp32Uop uop, std::uint32_t a, std::uint32_t b) {
  switch (uop) {
    case Fp32Uop::kAdd: return AddLite(a, b);
    case Fp32Uop::kMul: return MulLite(a, b);
    case Fp32Uop::kAbs: return a & 0x7FFFFFFFu;
    case Fp32Uop::kNeg: return a ^ 0x80000000u;
  }
  throw Error("Fp32LiteOp: bad uop");
}

// ---------------------------------------------------------------------------
// Netlist. The same steps, in gates.
// ---------------------------------------------------------------------------
namespace {

struct UnpackedBus {
  netlist::NetId sign;
  Bus exp;   // 8
  Bus mant;  // 12 (hidden bit = exp != 0)
};

UnpackedBus UnpackBus(Netlist& nl, const Bus& x) {
  UnpackedBus u;
  u.sign = x[31];
  u.exp = Slice(x, 23, 8);
  const netlist::NetId nz = ReduceOr(nl, u.exp);
  const Bus frac11 = Slice(x, 12, 11);
  u.mant = AndBus(nl, frac11, Bus(11, nz));
  u.mant.push_back(nz);  // hidden bit
  return u;
}

/// pack: the reference's Pack() in gates. e10 is a 10-bit bus.
Bus PackBus(Netlist& nl, netlist::NetId sign, const Bus& e10,
            const Bus& mant12) {
  const netlist::NetId zero = ConstBit(nl, false);
  const netlist::NetId mant_zero =
      nl.AddGate(CellType::kInv, {ReduceOr(nl, mant12)});
  const netlist::NetId neg = e10[9];
  const netlist::NetId e_all_zero =
      nl.AddGate(CellType::kInv, {ReduceOr(nl, e10)});
  const netlist::NetId flush =
      nl.AddGate(CellType::kOr3, {mant_zero, neg, e_all_zero});

  // low9 >= 255  <=>  low9 in [255, 511]: bit8 set, or bits[0..8) all ones.
  const Bus low9 = Slice(e10, 0, 9);
  const netlist::NetId low8_ones = ReduceAnd(nl, Slice(e10, 0, 8));
  const netlist::NetId ovf_raw =
      nl.AddGate(CellType::kOr2, {e10[8], low8_ones});
  const netlist::NetId nflush = nl.AddGate(CellType::kInv, {flush});
  const netlist::NetId ovf = nl.AddGate(CellType::kAnd2, {ovf_raw, nflush});

  // Normal result bits.
  Bus out(32, zero);
  for (int i = 0; i < 11; ++i) out[static_cast<std::size_t>(12 + i)] = mant12[static_cast<std::size_t>(i)];
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(23 + i)] = low9[static_cast<std::size_t>(i)];

  // Apply flush (everything but sign to 0) then overflow (exp=255, frac=0).
  const netlist::NetId keep = nl.AddGate(
      CellType::kAnd2, {nflush, nl.AddGate(CellType::kInv, {ovf})});
  Bus result(32, zero);
  for (int i = 0; i < 31; ++i) {
    const netlist::NetId normal =
        nl.AddGate(CellType::kAnd2, {out[static_cast<std::size_t>(i)], keep});
    if (i >= 23) {
      // Exponent bits are 1 under overflow.
      result[static_cast<std::size_t>(i)] =
          nl.AddGate(CellType::kOr2, {normal, ovf});
    } else {
      result[static_cast<std::size_t>(i)] = normal;
    }
  }
  result[31] = nl.AddGate(CellType::kBuf, {sign});
  return result;
}

}  // namespace

netlist::Netlist BuildFp32() {
  Netlist nl("fp32");
  const Bus uop = netlist::AddInputBus(nl, "uop", 2);
  const Bus a = netlist::AddInputBus(nl, "a", 32);
  const Bus b = netlist::AddInputBus(nl, "b", 32);

  const netlist::NetId zero = ConstBit(nl, false);

  const UnpackedBus ua = UnpackBus(nl, a);
  const UnpackedBus ub = UnpackBus(nl, b);

  // ---- FMUL path ----
  Bus mul_result;
  {
    const netlist::NetId sign = nl.AddGate(CellType::kXor2, {ua.sign, ub.sign});
    const Bus p = Multiplier(nl, ua.mant, ub.mant);  // 24 bits
    const netlist::NetId hi = p[23];
    const Bus mant = MuxBus(nl, hi, Slice(p, 11, 12), Slice(p, 12, 12));
    // e10 = ea + eb + 897 + hi (10-bit wrap).
    const Bus ea10 = ZeroExtend(nl, ua.exp, 10);
    const Bus eb10 = ZeroExtend(nl, ub.exp, 10);
    const Bus esum = Adder(nl, ea10, eb10, zero);
    const Bus ebiased = Adder(nl, esum, ConstWord(nl, 897, 10), hi);
    // Zero operands force a zero mantissa into Pack.
    const netlist::NetId nz =
        nl.AddGate(CellType::kAnd2, {ua.mant[11], ub.mant[11]});
    const Bus gated = AndBus(nl, mant, Bus(12, nz));
    mul_result = PackBus(nl, sign, ebiased, gated);
  }

  // ---- FADD path ----
  Bus add_result;
  {
    // Magnitude keys (20 bits) and the swap.
    Bus ka = ua.mant;
    ka.insert(ka.end(), ua.exp.begin(), ua.exp.end());
    Bus kb = ub.mant;
    kb.insert(kb.end(), ub.exp.begin(), ub.exp.end());
    const netlist::NetId swap = LessUnsigned(nl, ka, kb);  // |a| < |b|

    const netlist::NetId s_big = nl.AddGate(CellType::kMux2, {ua.sign, ub.sign, swap});
    const netlist::NetId s_small = nl.AddGate(CellType::kMux2, {ub.sign, ua.sign, swap});
    const Bus e_big = MuxBus(nl, swap, ua.exp, ub.exp);
    const Bus e_small = MuxBus(nl, swap, ub.exp, ua.exp);
    const Bus m_big = MuxBus(nl, swap, ua.mant, ub.mant);
    const Bus m_small = MuxBus(nl, swap, ub.mant, ua.mant);

    // Alignment shift: sh = min(e_big - e_small, 15).
    const Bus d = Subtractor(nl, e_big, e_small);  // 8 bits, >= 0
    const netlist::NetId big_shift = ReduceOr(nl, Slice(d, 4, 4));
    const Bus sh = MuxBus(nl, big_shift, Slice(d, 0, 4), ConstWord(nl, 15, 4));
    const Bus m_small16 = ZeroExtend(nl, m_small, 16);
    const Bus aligned16 =
        BarrelShifter(nl, m_small16, sh, ShiftDir::kRight, false);
    const Bus m_aligned = Slice(aligned16, 0, 12);

    const netlist::NetId same_sign =
        nl.AddGate(CellType::kXnor2, {s_big, s_small});

    // Same-sign: 13-bit sum with 1-bit normalize.
    const Bus sum13 = [&] {
      Bus s = Adder(nl, ZeroExtend(nl, m_big, 13), ZeroExtend(nl, m_aligned, 13), zero);
      return s;
    }();
    const netlist::NetId carry = sum13[12];
    const Bus mant_same = MuxBus(nl, carry, Slice(sum13, 0, 12), Slice(sum13, 1, 12));
    const Bus e_same = Adder(nl, ZeroExtend(nl, e_big, 10),
                             ConstWord(nl, 0, 10), carry);

    // Opposite-sign: subtract and renormalize (shift-by-{8,4,2,1}).
    Bus v = Subtractor(nl, m_big, m_aligned);  // 12 bits, >= 0
    Bus e_diff = ZeroExtend(nl, e_big, 10);
    for (const int k : {8, 4, 2, 1}) {
      const netlist::NetId top_zero = nl.AddGate(
          CellType::kInv, {ReduceOr(nl, Slice(v, 12 - k, k))});
      // v <<= k when the top k bits are all zero.
      Bus shifted(12, zero);
      for (int i = 11; i >= k; --i) {
        shifted[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(i - k)];
      }
      v = MuxBus(nl, top_zero, v, shifted);
      const Bus e_adj =
          Subtractor(nl, e_diff, ConstWord(nl, static_cast<std::uint64_t>(k), 10));
      e_diff = MuxBus(nl, top_zero, e_diff, e_adj);
    }

    const Bus mant_sel = MuxBus(nl, same_sign, v, mant_same);
    const Bus e_sel = MuxBus(nl, same_sign, e_diff, e_same);

    // Exact cancellation gives +0: zero mantissa already flushes in Pack,
    // but the sign must also drop to +.
    const netlist::NetId v_zero = nl.AddGate(CellType::kInv, {ReduceOr(nl, v)});
    const netlist::NetId cancel = nl.AddGate(
        CellType::kAnd2, {nl.AddGate(CellType::kInv, {same_sign}), v_zero});
    const netlist::NetId sign_out = nl.AddGate(
        CellType::kAnd2, {s_big, nl.AddGate(CellType::kInv, {cancel})});

    add_result = PackBus(nl, sign_out, e_sel, mant_sel);
  }

  // ---- FABS / FNEG paths ----
  Bus abs_result = a;
  abs_result[31] = zero;
  Bus neg_result = a;
  neg_result[31] = nl.AddGate(CellType::kInv, {a[31]});

  // ---- uop select: 0=add, 1=mul, 2=abs, 3=neg ----
  const Bus lo = MuxBus(nl, uop[0], add_result, mul_result);
  const Bus hi = MuxBus(nl, uop[0], abs_result, neg_result);
  const Bus y = MuxBus(nl, uop[1], lo, hi);
  netlist::MarkOutputBus(nl, y, "y");

  GPUSTL_ASSERT(static_cast<int>(nl.num_inputs()) == kFp32NumInputs,
                "FP32 input arity drifted");
  GPUSTL_ASSERT(static_cast<int>(nl.num_outputs()) == kFp32NumOutputs,
                "FP32 output arity drifted");
  nl.Freeze();
  return nl;
}

}  // namespace gpustl::circuits
