#include "inject/inject.h"

#include <bit>

#include "circuits/sp_core.h"
#include "common/error.h"
#include "netlist/logicsim.h"

namespace gpustl::inject {

using fault::Fault;
using netlist::BitSimulator;
using netlist::NetId;

FaultySpModel::FaultySpModel(const netlist::Netlist& sp, const Fault& fault)
    : sp_(&sp), fault_(fault) {
  GPUSTL_ASSERT(sp.num_inputs() == static_cast<std::size_t>(circuits::kSpNumInputs),
                "FaultySpModel expects the SP-core netlist");
  GPUSTL_ASSERT(fault.gate < sp.gate_count(), "fault site out of range");
}

std::uint32_t FaultySpModel::Eval(isa::Opcode op, isa::CmpOp cmp,
                                  std::uint32_t a, std::uint32_t b,
                                  std::uint32_t c, bool* pred) const {
  std::uint64_t words[2];
  circuits::EncodeSpPattern(static_cast<int>(op), static_cast<int>(cmp), a, b,
                            c, words);

  // Single-pattern faulty simulation: broadcast the pattern across the
  // word, force the fault site during evaluation.
  BitSimulator sim(*sp_);
  for (std::size_t i = 0; i < sp_->num_inputs(); ++i) {
    sim.SetInputWord(i, (words[i / 64] >> (i % 64)) & 1 ? ~0ull : 0ull);
  }

  const std::uint64_t stuck = fault_.sa1 ? ~0ull : 0ull;
  auto& values = sim.values();
  std::uint64_t in[netlist::kMaxFanin];
  for (NetId id : sp_->topo_order()) {
    const auto& g = sp_->gate(id);
    for (int i = 0; i < g.fanin_count(); ++i) {
      in[i] = (id == fault_.gate && i == fault_.pin)
                  ? stuck
                  : values[g.fanin[i]];
    }
    values[id] = netlist::EvalCell(g.type, in);
    if (id == fault_.gate && fault_.pin == Fault::kOutputPin) {
      values[id] = stuck;
    }
  }
  // Primary-input stem fault.
  if (fault_.pin == Fault::kOutputPin &&
      sp_->gate(fault_.gate).type == netlist::CellType::kInput) {
    // Inputs were loaded before evaluation; a PI fault must be forced and
    // the netlist re-evaluated with it.
    values[fault_.gate] = stuck;
    for (NetId id : sp_->topo_order()) {
      const auto& g = sp_->gate(id);
      for (int i = 0; i < g.fanin_count(); ++i) in[i] = values[g.fanin[i]];
      values[id] = netlist::EvalCell(g.type, in);
    }
  }

  std::uint32_t result = 0;
  for (int bit = 0; bit < 32; ++bit) {
    if (sim.OutputWord(static_cast<std::size_t>(bit)) & 1) {
      result |= 1u << bit;
    }
  }
  if (pred != nullptr) *pred = (sim.OutputWord(32) & 1) != 0;
  return result;
}

InjectionResult RunWithFault(const isa::Program& ptp,
                             const netlist::Netlist& sp, const Fault& fault,
                             const gpu::GlobalMemory& golden,
                             const gpu::SmConfig& config) {
  const FaultySpModel model(sp, fault);

  gpu::Sm sm(config);
  sm.SetWarpOverride([&](const gpu::WarpEvent& ev, std::uint32_t* result,
                         std::uint32_t* pred) {
    if (ev.inst.info().unit != isa::ExecUnit::kSpInt) return;
    for (std::uint32_t m = ev.exec_mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      bool faulty_pred = false;
      result[lane] = model.Eval(ev.inst.op, ev.inst.cmp, ev.a[lane],
                                ev.b[lane], ev.c[lane], &faulty_pred);
      const std::uint32_t bit = 1u << lane;
      *pred = faulty_pred ? *pred | bit : *pred & ~bit;
    }
  });

  InjectionResult out;
  gpu::RunResult run;
  try {
    run = sm.Run(ptp);
  } catch (const SimError&) {
    // The corrupted datapath produced an invalid access (misaligned or
    // out-of-range address) — in the field this raises an exception, which
    // is an observable detection in its own right ("fault detection of a
    // PTP is commonly performed using exceptions and thread signatures").
    out.detected = true;
    out.exception = true;
    return out;
  }
  // Compare images both ways (a faulty run may write extra or different
  // words; missing words also count as mismatches): one merge walk over
  // the two ascending word lists.
  const auto got = run.global.words();
  const auto want = golden.words();
  auto g = got.begin();
  auto w = want.begin();
  while (g != got.end() || w != want.end()) {
    if (w == want.end() || (g != got.end() && g->first < w->first)) {
      ++out.mismatching_words;  // written only by the faulty run
      ++g;
    } else if (g == got.end() || w->first < g->first) {
      ++out.mismatching_words;  // missing from the faulty run
      ++w;
    } else {
      out.mismatching_words += g->second != w->second;
      ++g;
      ++w;
    }
  }
  out.detected = out.mismatching_words > 0;
  return out;
}

CampaignResult RunInjectionCampaign(const isa::Program& ptp,
                                    const netlist::Netlist& sp,
                                    const std::vector<Fault>& sample,
                                    const gpu::SmConfig& config) {
  gpu::Sm golden_sm(config);
  const gpu::RunResult golden = golden_sm.Run(ptp);

  CampaignResult out;
  for (const Fault& f : sample) {
    ++out.injected;
    const InjectionResult res = RunWithFault(ptp, sp, f, golden.global, config);
    out.detected_at_memory += res.detected ? 1 : 0;
  }
  return out;
}

}  // namespace gpustl::inject
