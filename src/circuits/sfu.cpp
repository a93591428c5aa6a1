#include "circuits/sfu.h"

#include "circuits/blocks.h"
#include "common/error.h"

namespace gpustl::circuits {

using netlist::CellType;
using netlist::Netlist;

namespace {

/// Pure wiring: rotate-left of a 16-bit bus.
Bus RotL16(const Bus& a, int k) {
  GPUSTL_ASSERT(a.size() == 16, "RotL16 needs a 16-bit bus");
  Bus out(16);
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>((i + k) % 16)] = a[static_cast<std::size_t>(i)];
  }
  return out;
}

}  // namespace

netlist::Netlist BuildSfu() {
  Netlist nl("sfu");
  const Bus fsel = netlist::AddInputBus(nl, "fsel", 3);
  const Bus x = netlist::AddInputBus(nl, "x", 32);

  const Bus xl = Slice(x, 0, 16);
  const Bus xh = Slice(x, 16, 16);

  // K = fsel bits replicated across 16 bits (bit i = fsel[i % 3]).
  Bus k(16);
  for (int i = 0; i < 16; ++i) {
    k[static_cast<std::size_t>(i)] = fsel[static_cast<std::size_t>(i % 3)];
  }

  // Coefficient-generation mixing network (ROM-table stand-in).
  const Bus c0 = XorBus(nl, XorBus(nl, xh, RotL16(xh, 3)), k);
  const Bus c1 = XorBus(nl, AndBus(nl, xh, RotL16(xh, 5)), NotBus(nl, k));
  const Bus c2 = XorBus(nl, OrBus(nl, xh, RotL16(xh, 7)), RotL16(k, 1));

  // Interpolation pipeline.
  const Bus sq = Multiplier(nl, xl, xl);        // 32-bit square
  const Bus sqh = Slice(sq, 16, 16);            // high half
  const Bus m1 = Multiplier(nl, c1, xl);        // c1 * xl (32 bits)
  const Bus m2 = Multiplier(nl, c2, sqh);       // c2 * sqh (32 bits)

  const netlist::NetId zero = ConstBit(nl, false);
  Bus c0_shifted = ConstWord(nl, 0, 16);
  c0_shifted.insert(c0_shifted.end(), c0.begin(), c0.end());  // c0 << 16

  const Bus sum1 = Adder(nl, c0_shifted, m1, zero);
  const Bus y = Adder(nl, sum1, m2, zero);

  netlist::MarkOutputBus(nl, y, "y");

  GPUSTL_ASSERT(static_cast<int>(nl.num_inputs()) == kSfuNumInputs,
                "SFU input arity drifted");
  GPUSTL_ASSERT(static_cast<int>(nl.num_outputs()) == kSfuNumOutputs,
                "SFU output arity drifted");
  nl.Freeze();
  return nl;
}

}  // namespace gpustl::circuits
