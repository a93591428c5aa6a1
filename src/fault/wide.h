// Width-parameterized pattern-word bundles for the PPSFP engines.
//
// A Wide<L> carries 64*L patterns: lane k, bit b is pattern 64*k + b of the
// block, so lane order IS pattern order and "lowest set bit" means the
// earliest pattern. The bundle is an aligned structure-of-lanes with only
// lane-wise bitwise operators — exactly the operations cell evaluation,
// activation, observability and detection masks need — so a translation
// unit compiled with -mavx512f lowers every operator to one vector
// instruction, while the same header compiled without SIMD flags stays
// portable code with identical semantics. Wide<1> is one 64-bit word.
//
// Internal header — include from src/fault/*.cpp / engine_wide.h only.
//
// Everything is in an anonymous namespace: each engine translation unit
// must own a private instantiation of these templates under its own codegen
// flags. With ordinary (vague) linkage the linker could keep a single copy
// of an operator shared by backend_wide.cpp and backend_avx512.cpp —
// handing AVX-512 code to the portable kernels on a CPU without it.
#pragma once

#include <cstdint>

#include "common/bitops.h"
#include "netlist/cell.h"

namespace gpustl::fault::internal {
namespace {

template <int L>
struct alignas(sizeof(std::uint64_t) * L) Wide {
  static_assert(L == 1 || L == 2 || L == 4 || L == 8,
                "lane count must be a power of two (alignment)");
  static constexpr int kLanes = L;
  static constexpr int kBits = 64 * L;

  std::uint64_t lane[L];

  static Wide Zeros() {
    Wide w;
    for (int k = 0; k < L; ++k) w.lane[k] = 0;
    return w;
  }
  static Wide Ones() {
    Wide w;
    for (int k = 0; k < L; ++k) w.lane[k] = ~0ull;
    return w;
  }

  friend Wide operator&(Wide a, const Wide& b) {
    for (int k = 0; k < L; ++k) a.lane[k] &= b.lane[k];
    return a;
  }
  friend Wide operator|(Wide a, const Wide& b) {
    for (int k = 0; k < L; ++k) a.lane[k] |= b.lane[k];
    return a;
  }
  friend Wide operator^(Wide a, const Wide& b) {
    for (int k = 0; k < L; ++k) a.lane[k] ^= b.lane[k];
    return a;
  }
  friend Wide operator~(Wide a) {
    for (int k = 0; k < L; ++k) a.lane[k] = ~a.lane[k];
    return a;
  }
  Wide& operator&=(const Wide& b) { return *this = *this & b; }
  Wide& operator|=(const Wide& b) { return *this = *this | b; }
  Wide& operator^=(const Wide& b) { return *this = *this ^ b; }

  friend bool operator==(const Wide& a, const Wide& b) {
    bool eq = true;
    for (int k = 0; k < L; ++k) eq &= a.lane[k] == b.lane[k];
    return eq;
  }
  friend bool operator!=(const Wide& a, const Wide& b) { return !(a == b); }

  bool IsZero() const {
    std::uint64_t any = 0;
    for (int k = 0; k < L; ++k) any |= lane[k];
    return any == 0;
  }

  /// Pattern index (0-based within the block) of the earliest set bit.
  /// Undefined when IsZero().
  int FirstSetBit() const {
    for (int k = 0; k < L; ++k) {
      if (lane[k] != 0) return 64 * k + LowestSetBit(lane[k]);
    }
    return kBits;
  }

  /// Bit at pattern index `p` within the block.
  bool Bit(int p) const { return ((lane[p / 64] >> (p % 64)) & 1) != 0; }

  /// Validity mask for a block holding `count` patterns (ragged tail:
  /// full lanes, then one partial lane, then zero lanes).
  static Wide ValidMask(int count) {
    Wide w;
    for (int k = 0; k < L; ++k) {
      const int in_lane = count - 64 * k;
      w.lane[k] = in_lane >= 64 ? ~0ull
                  : in_lane <= 0 ? 0ull
                                 : (1ull << in_lane) - 1;
    }
    return w;
  }

  /// Shift every bit one pattern later, feeding `carry_in` into pattern 0;
  /// the carry crosses lane boundaries (lane k bit 0 <- lane k-1 bit 63),
  /// as the per-fault history bit carries it across blocks.
  Wide ShiftLeftOneCarry(bool carry_in) const {
    Wide w;
    std::uint64_t carry = carry_in ? 1 : 0;
    for (int k = 0; k < L; ++k) {
      w.lane[k] = (lane[k] << 1) | carry;
      carry = lane[k] >> 63;
    }
    return w;
  }

  /// Visits the pattern index of every set bit, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (int k = 0; k < L; ++k) {
      for (std::uint64_t bits = lane[k]; bits != 0; bits &= bits - 1) {
        fn(64 * k + LowestSetBit(bits));
      }
    }
  }
};

/// Bundle-wise cell evaluation: the same Boolean network as
/// netlist::EvalCell, expressed through the Wide operators so each case is
/// a handful of vector ops. Kept in lockstep with netlist/cell.cpp (the
/// conformance suite would catch any divergence as a detection mismatch).
template <typename W>
W EvalCellWide(netlist::CellType type, const W* in) {
  using netlist::CellType;
  switch (type) {
    case CellType::kConst0: return W::Zeros();
    case CellType::kConst1: return W::Ones();
    case CellType::kBuf: return in[0];
    case CellType::kInv: return ~in[0];
    case CellType::kAnd2: return in[0] & in[1];
    case CellType::kAnd3: return in[0] & in[1] & in[2];
    case CellType::kAnd4: return in[0] & in[1] & in[2] & in[3];
    case CellType::kOr2: return in[0] | in[1];
    case CellType::kOr3: return in[0] | in[1] | in[2];
    case CellType::kOr4: return in[0] | in[1] | in[2] | in[3];
    case CellType::kNand2: return ~(in[0] & in[1]);
    case CellType::kNand3: return ~(in[0] & in[1] & in[2]);
    case CellType::kNand4: return ~(in[0] & in[1] & in[2] & in[3]);
    case CellType::kNor2: return ~(in[0] | in[1]);
    case CellType::kNor3: return ~(in[0] | in[1] | in[2]);
    case CellType::kNor4: return ~(in[0] | in[1] | in[2] | in[3]);
    case CellType::kXor2: return in[0] ^ in[1];
    case CellType::kXnor2: return ~(in[0] ^ in[1]);
    case CellType::kMux2: return (in[2] & in[1]) | (~in[2] & in[0]);
    case CellType::kAoi21: return ~((in[0] & in[1]) | in[2]);
    case CellType::kAoi22: return ~((in[0] & in[1]) | (in[2] & in[3]));
    case CellType::kOai21: return ~((in[0] | in[1]) & in[2]);
    case CellType::kOai22: return ~((in[0] | in[1]) & (in[2] | in[3]));
    case CellType::kInput:
    case CellType::kDff:
    case CellType::kCount:
      break;
  }
  return W::Zeros();  // unreachable for frozen combinational netlists
}

}  // namespace
}  // namespace gpustl::fault::internal
