#include "circuits/sp_core.h"

#include "circuits/blocks.h"
#include "common/bitops.h"
#include "common/error.h"
#include "isa/opcode.h"

namespace gpustl::circuits {

using isa::Opcode;
using netlist::CellType;
using netlist::Netlist;

namespace {
int Uop(Opcode op) { return static_cast<int>(op); }
}  // namespace

netlist::Netlist BuildSpCore() {
  Netlist nl("sp_core");
  const Bus uop = netlist::AddInputBus(nl, "uop", 6);
  const Bus cmp = netlist::AddInputBus(nl, "cmp", 3);
  const Bus a = netlist::AddInputBus(nl, "a", 32);
  const Bus b = netlist::AddInputBus(nl, "b", 32);
  const Bus c = netlist::AddInputBus(nl, "c", 32);

  const Bus uop_inv = NotBus(nl, uop);
  auto is_uop = [&](Opcode op) {
    Bus literals;
    literals.reserve(6);
    const int k = Uop(op);
    for (int bit = 0; bit < 6; ++bit) {
      literals.push_back((k >> bit) & 1 ? uop[static_cast<std::size_t>(bit)]
                                        : uop_inv[static_cast<std::size_t>(bit)]);
    }
    return ReduceAnd(nl, literals);
  };

  const netlist::NetId zero = ConstBit(nl, false);

  // --- shared datapath blocks ---
  const Bus add_ab = Adder(nl, a, b, zero);
  const Bus sub_ab = Subtractor(nl, a, b);
  const Bus mul =
      Multiplier(nl, Slice(a, 0, 16), Slice(b, 0, 16));  // 32-bit product
  const Bus mad = Adder(nl, mul, c, zero);
  const netlist::NetId lt_s = LessSigned(nl, a, b);
  const netlist::NetId eq = EqualsBus(nl, a, b);
  const Bus min_ab = MuxBus(nl, lt_s, b, a);  // lt ? a : b
  const Bus max_ab = MuxBus(nl, lt_s, a, b);  // lt ? b : a
  const Bus neg_a = Negate(nl, a);
  const Bus abs_a = MuxBus(nl, a.back(), a, neg_a);  // sign ? -a : a
  const Bus and_ab = AndBus(nl, a, b);
  const Bus or_ab = OrBus(nl, a, b);
  const Bus xor_ab = XorBus(nl, a, b);
  const Bus not_a = NotBus(nl, a);
  const Bus shamt = Slice(b, 0, 5);
  const Bus shl = BarrelShifter(nl, a, shamt, ShiftDir::kLeft, false);
  const Bus shr = BarrelShifter(nl, a, shamt, ShiftDir::kRight, false);
  const Bus sar = BarrelShifter(nl, a, shamt, ShiftDir::kRight, true);
  // SEL: (a & c) | (b & ~c)
  const Bus sel_ab = OrBus(nl, AndBus(nl, a, c), AndBus(nl, b, NotBus(nl, c)));

  // --- result selection ---
  struct Source {
    netlist::NetId enable;
    const Bus* bus;
  };
  const netlist::NetId en_add = nl.AddGate(
      CellType::kOr2, {is_uop(Opcode::IADD), is_uop(Opcode::IADD32I)});
  const netlist::NetId en_movb = nl.AddGate(
      CellType::kOr2, {is_uop(Opcode::MOV32I), is_uop(Opcode::S2R)});
  const std::vector<Source> sources = {
      {en_add, &add_ab},
      {is_uop(Opcode::ISUB), &sub_ab},
      {is_uop(Opcode::IMUL), &mul},
      {is_uop(Opcode::IMAD), &mad},
      {is_uop(Opcode::IMIN), &min_ab},
      {is_uop(Opcode::IMAX), &max_ab},
      {is_uop(Opcode::IABS), &abs_a},
      {is_uop(Opcode::INEG), &neg_a},
      {is_uop(Opcode::AND), &and_ab},
      {is_uop(Opcode::OR), &or_ab},
      {is_uop(Opcode::XOR), &xor_ab},
      {is_uop(Opcode::NOT), &not_a},
      {is_uop(Opcode::SHL), &shl},
      {is_uop(Opcode::SHR), &shr},
      {is_uop(Opcode::SAR), &sar},
      {is_uop(Opcode::SEL), &sel_ab},
      {is_uop(Opcode::MOV), &a},
      {en_movb, &b},
  };

  for (int bit = 0; bit < 32; ++bit) {
    Bus terms;
    terms.reserve(sources.size());
    for (const Source& s : sources) {
      terms.push_back(nl.AddGate(
          CellType::kAnd2, {s.enable, (*s.bus)[static_cast<std::size_t>(bit)]}));
    }
    nl.MarkOutput(ReduceOr(nl, std::move(terms)),
                  "r[" + std::to_string(bit) + "]");
  }

  // --- predicate outcome (ISETP) ---
  const Bus cmp_inv = NotBus(nl, cmp);
  auto is_cmp = [&](isa::CmpOp op) {
    Bus literals;
    const int k = static_cast<int>(op);
    for (int bit = 0; bit < 3; ++bit) {
      literals.push_back((k >> bit) & 1 ? cmp[static_cast<std::size_t>(bit)]
                                        : cmp_inv[static_cast<std::size_t>(bit)]);
    }
    return ReduceAnd(nl, literals);
  };
  const netlist::NetId le = nl.AddGate(CellType::kOr2, {lt_s, eq});
  const netlist::NetId gt = nl.AddGate(CellType::kInv, {le});
  const netlist::NetId ge = nl.AddGate(CellType::kInv, {lt_s});
  const netlist::NetId ne = nl.AddGate(CellType::kInv, {eq});
  Bus pred_terms = {
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kLT), lt_s}),
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kLE), le}),
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kGT), gt}),
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kGE), ge}),
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kEQ), eq}),
      nl.AddGate(CellType::kAnd2, {is_cmp(isa::CmpOp::kNE), ne}),
  };
  const netlist::NetId cond = ReduceOr(nl, std::move(pred_terms));
  nl.MarkOutput(nl.AddGate(CellType::kAnd2, {is_uop(Opcode::ISETP), cond}),
                "pred");

  GPUSTL_ASSERT(static_cast<int>(nl.num_inputs()) == kSpNumInputs,
                "SP input arity drifted");
  GPUSTL_ASSERT(static_cast<int>(nl.num_outputs()) == kSpNumOutputs,
                "SP output arity drifted");
  nl.Freeze();
  return nl;
}

}  // namespace gpustl::circuits
