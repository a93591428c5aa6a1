#include "gpu/sm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "circuits/reference.h"
#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::gpu {

using isa::CmpOp;
using isa::ExecUnit;
using isa::Instruction;
using isa::Opcode;
using isa::Program;
using isa::SpecialReg;

namespace {

float BitsToFloat(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t FloatToBits(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// FP32 datapath semantics (software reference; the FP lanes are not among
/// the gate-level target modules).
std::uint32_t FpOp(Opcode op, std::uint32_t a, std::uint32_t b,
                   std::uint32_t c) {
  const float fa = BitsToFloat(a);
  const float fb = BitsToFloat(b);
  const float fc = BitsToFloat(c);
  switch (op) {
    case Opcode::FADD: return FloatToBits(fa + fb);
    case Opcode::FMUL: return FloatToBits(fa * fb);
    case Opcode::FFMA: return FloatToBits(fa * fb + fc);
    case Opcode::FMIN: return FloatToBits(std::fmin(fa, fb));
    case Opcode::FMAX: return FloatToBits(std::fmax(fa, fb));
    case Opcode::FABS: return FloatToBits(std::fabs(fa));
    case Opcode::FNEG: return FloatToBits(-fa);
    case Opcode::F2I: {
      // Truncates toward zero. A NaN or a value outside int32 gives
      // 0x80000000, what x86's cvttss2si returns (the pinned stage-2
      // digests were made with it); the C++ conversion would be undefined.
      const bool in_range = fa >= -0x1p31f && fa < 0x1p31f;
      return in_range ? static_cast<std::uint32_t>(static_cast<std::int32_t>(fa))
                      : 0x80000000u;
    }
    case Opcode::I2F:
      return FloatToBits(static_cast<float>(static_cast<std::int32_t>(a)));
    default:
      throw SimError("FpOp: not an FP opcode");
  }
}

bool FpCompare(CmpOp cmp, std::uint32_t a, std::uint32_t b) {
  const float fa = BitsToFloat(a);
  const float fb = BitsToFloat(b);
  switch (cmp) {
    case CmpOp::kLT: return fa < fb;
    case CmpOp::kLE: return fa <= fb;
    case CmpOp::kGT: return fa > fb;
    case CmpOp::kGE: return fa >= fb;
    case CmpOp::kEQ: return fa == fb;
    case CmpOp::kNE: return fa != fb;
  }
  return false;
}

/// SFU architectural semantics (software transcendental functions; the
/// gate-level SFU module sees only the input patterns).
std::uint32_t SfuArchOp(Opcode op, std::uint32_t a) {
  const float x = BitsToFloat(a);
  switch (op) {
    case Opcode::RCP: return FloatToBits(1.0f / x);
    case Opcode::RSQ: return FloatToBits(1.0f / std::sqrt(x));
    case Opcode::SIN: return FloatToBits(std::sin(x));
    case Opcode::COS: return FloatToBits(std::cos(x));
    case Opcode::LG2: return FloatToBits(std::log2(x));
    case Opcode::EX2: return FloatToBits(std::exp2(x));
    default:
      throw SimError("SfuArchOp: not an SFU opcode");
  }
}

/// One data warp-instruction in flight: the lanes' operand rows (by lane),
/// the results computed for them and the SETP outcomes as a lane mask.
/// SP kernels fill every lane of `result`, the others the exec lanes.
struct WarpLanes {
  std::uint32_t exec_mask = 0;
  CmpOp cmp = CmpOp::kEQ;
  const std::uint32_t* a = nullptr;
  const std::uint32_t* b = nullptr;
  const std::uint32_t* c = nullptr;
  std::uint32_t result[32] = {};
  std::uint32_t pred = 0;
};

using LaneKernel = void (*)(WarpLanes&);

/// The SP integer datapath on all 32 lanes, the opcode fixed at compile
/// time so that circuits::SpIntOp, the one copy of the semantics, folds
/// to straight-line code (only ISETP still switches, on its compare).
/// Lanes outside the exec mask compute too: the op is pure and total, and
/// their results are never committed or shown.
template <Opcode kOp>
void SpIntLanes(WarpLanes& w) {
  std::uint32_t pred = 0;
  for (int lane = 0; lane < 32; ++lane) {
    const circuits::SpResult r =
        circuits::SpIntOp(kOp, w.cmp, w.a[lane], w.b[lane], w.c[lane]);
    w.result[lane] = r.value;
    pred |= static_cast<std::uint32_t>(r.pred) << lane;
  }
  w.pred = pred;
}

/// Calls `f(lane)` for every lane of `mask`, in ascending lane order.
template <typename F>
void ForLanes(std::uint32_t mask, F&& f) {
  for (; mask != 0; mask &= mask - 1) f(std::countr_zero(mask));
}

/// The FP32 and SFU arch ops, only on the executing lanes (dead lanes may
/// hold values whose conversion is undefined, and libm is not free).
template <Opcode kOp>
void FpLanes(WarpLanes& w) {
  ForLanes(w.exec_mask, [&](int lane) {
    w.result[lane] = FpOp(kOp, w.a[lane], w.b[lane], w.c[lane]);
  });
}

template <Opcode kOp>
void SfuLanes(WarpLanes& w) {
  ForLanes(w.exec_mask,
           [&](int lane) { w.result[lane] = SfuArchOp(kOp, w.a[lane]); });
}

void FsetpLanes(WarpLanes& w) {
  std::uint32_t pred = 0;
  ForLanes(w.exec_mask, [&](int lane) {
    w.result[lane] = 0;
    pred |= static_cast<std::uint32_t>(FpCompare(w.cmp, w.a[lane], w.b[lane]))
            << lane;
  });
  w.pred = pred;
}

/// The kernel of opcode `kOp` on unit `kUnit`.
template <ExecUnit kUnit, Opcode kOp>
void UnitLanes(WarpLanes& w) {
  if constexpr (kUnit == ExecUnit::kSpInt) {
    SpIntLanes<kOp>(w);
  } else if constexpr (kUnit == ExecUnit::kSpFp) {
    FpLanes<kOp>(w);
  } else {
    SfuLanes<kOp>(w);
  }
}

/// One kernel per opcode value (entries of other units' opcodes are never
/// called), so a warp-instruction costs one indexed call instead of a
/// switch per lane.
template <ExecUnit kUnit, std::size_t... I>
constexpr std::array<LaneKernel, sizeof...(I)> KernelTable(
    std::index_sequence<I...>) {
  return {&UnitLanes<kUnit, static_cast<Opcode>(I)>...};
}
constexpr auto kOpSeq = std::make_index_sequence<isa::kNumOpcodes>{};
constexpr auto kSpIntKernels = KernelTable<ExecUnit::kSpInt>(kOpSeq);
constexpr auto kFpKernels = KernelTable<ExecUnit::kSpFp>(kOpSeq);
constexpr auto kSfuKernels = KernelTable<ExecUnit::kSfu>(kOpSeq);

enum class StackKind : std::uint8_t { kReconv, kDiv };

struct StackEntry {
  StackKind kind;
  std::uint32_t pc;
  std::uint32_t mask;
};

struct WarpState {
  std::uint32_t pc = 0;
  std::uint32_t active = 0;   // live, currently-executing lanes
  std::uint32_t exited = 0;   // lanes that hit EXIT
  std::uint32_t full = 0;     // all lanes this warp owns
  std::vector<StackEntry> simt;
  std::vector<std::uint32_t> call_stack;
  bool at_barrier = false;

  bool done() const { return active == 0 && simt.empty(); }
};

}  // namespace

Sm::Sm(const SmConfig& config) : config_(config) {
  GPUSTL_ASSERT(config_.num_sp == 8 || config_.num_sp == 16 ||
                    config_.num_sp == 32,
                "FlexGripPlus supports 8/16/32 SP cores");
}

void Sm::AddMonitor(ExecMonitor* monitor) { monitors_.push_back(monitor); }

void Sm::SetWarpOverride(WarpOverride override) {
  warp_override_ = std::move(override);
}

RunResult Sm::Run(const Program& prog) {
  prog.Validate();
  const auto& code = prog.code();
  RunResult result;

  // Preload global memory input data.
  for (const auto& seg : prog.data()) {
    for (std::size_t i = 0; i < seg.words.size(); ++i) {
      result.global.Store(seg.addr + static_cast<std::uint32_t>(i) * 4,
                          seg.words[i]);
    }
  }

  DenseMemory const_mem(config_.const_words);

  const int tpb = prog.config().threads_per_block;
  const int num_warps = prog.config().warps_per_block();
  std::uint64_t cc = 0;

  // The DU sees the same word on every issue of an instruction: encode each
  // one once, and only for an observer.
  std::vector<std::uint64_t> encoded;
  if (!monitors_.empty()) {
    encoded.reserve(code.size());
    for (const Instruction& inst : code) encoded.push_back(inst.Encode());
  }

  // Per-warp register rows, [warp][reg][lane], and predicate lane masks,
  // [warp][pred]. Lanes past the block's last thread are never executed.
  constexpr std::size_t kWarpRegs = std::size_t{isa::kNumRegs} * 32;
  std::vector<std::uint32_t> regs;
  std::vector<std::uint32_t> preds;

  for (int block = 0; block < prog.config().blocks; ++block) {
    // Per-block state.
    regs.assign(static_cast<std::size_t>(num_warps) * kWarpRegs, 0);
    preds.assign(static_cast<std::size_t>(num_warps) * isa::kNumPredRegs, 0);
    DenseMemory shared(config_.shared_words);
    DenseMemory local(config_.local_words * static_cast<std::uint32_t>(tpb));

    std::vector<WarpState> warps(static_cast<std::size_t>(num_warps));
    for (int w = 0; w < num_warps; ++w) {
      WarpState& ws = warps[static_cast<std::size_t>(w)];
      const int lanes = std::min(32, tpb - w * 32);
      ws.full = lanes >= 32 ? ~0u : ((1u << lanes) - 1);
      ws.active = ws.full;
      ws.pc = 0;
    }

    // Unwinds the SIMT stack after the active mask went empty.
    auto unwind = [&](WarpState& ws) {
      while (ws.active == 0 && !ws.simt.empty()) {
        const StackEntry e = ws.simt.back();
        ws.simt.pop_back();
        ws.active = e.mask & ~ws.exited;
        ws.pc = e.pc;
      }
    };

    auto all_done = [&] {
      for (const WarpState& ws : warps) {
        if (!ws.done()) return false;
      }
      return true;
    };

    while (!all_done()) {
      bool issued_any = false;
      for (int w = 0; w < num_warps; ++w) {
        WarpState& ws = warps[static_cast<std::size_t>(w)];
        if (ws.done() || ws.at_barrier) continue;
        issued_any = true;

        if (cc > config_.max_cycles) {
          throw SimError("watchdog: kernel exceeded max_cycles");
        }

        // Implicit EXIT at end of code.
        if (ws.pc >= code.size()) {
          ws.exited |= ws.active;
          ws.active = 0;
          unwind(ws);
          continue;
        }

        const std::uint32_t pc = ws.pc;
        const Instruction& inst = code[pc];
        const auto& info = inst.info();
        std::uint32_t* const wregs =
            regs.data() + static_cast<std::size_t>(w) * kWarpRegs;
        std::uint32_t* const wpreds =
            preds.data() + static_cast<std::size_t>(w) * isa::kNumPredRegs;
        auto row = [wregs](int r) {
          return wregs + static_cast<std::size_t>(r) * 32;
        };

        // Predication: one AND with the guard's lane mask.
        std::uint32_t exec_mask = ws.active;
        if (inst.predicated) {
          const std::uint32_t guard = wpreds[inst.pred_reg];
          exec_mask &= inst.pred_negated ? ~guard : guard;
        }

        // Decode event (the DU sees the word on every issue). The data
        // event shares its cc stamp: the labeling join in the compactor
        // maps module patterns back to the issuing instruction through it.
        const std::uint64_t issue_cc = cc;
        if (!monitors_.empty()) {
          const DecodeEvent ev{.cc = issue_cc,
                               .block = block,
                               .warp = w,
                               .pc = pc,
                               .active_mask = exec_mask,
                               .inst = inst,
                               .encoded = encoded[pc]};
          for (ExecMonitor* m : monitors_) m->OnDecode(ev);
        }
        ++result.dynamic_instructions;

        const int active_count = std::popcount(exec_mask);

        // Timing.
        int units = 1;
        switch (info.unit) {
          case ExecUnit::kSpInt:
          case ExecUnit::kSpFp:
            units = config_.num_sp;
            break;
          case ExecUnit::kSfu:
            units = config_.num_sfu;
            break;
          case ExecUnit::kMem:
          case ExecUnit::kControl:
            units = 1;
            break;
        }
        const int subcycles =
            info.unit == ExecUnit::kMem
                ? active_count
                : (active_count + units - 1) / std::max(units, 1);
        cc += static_cast<std::uint64_t>(config_.issue_overhead) +
              static_cast<std::uint64_t>(info.latency) +
              static_cast<std::uint64_t>(std::max(subcycles, 1));

        // Control flow.
        if (info.unit == ExecUnit::kControl) {
          switch (inst.op) {
            case Opcode::NOP:
              ws.pc = pc + 1;
              break;
            case Opcode::SSY:
              ws.simt.push_back({StackKind::kReconv, inst.imm, ws.active});
              ws.pc = pc + 1;
              break;
            case Opcode::BRA: {
              const std::uint32_t taken =
                  inst.predicated ? exec_mask : ws.active;
              if (taken == 0) {
                ws.pc = pc + 1;
              } else if (taken == ws.active) {
                ws.pc = inst.imm;
              } else {
                // Divergence: run the not-taken side first.
                ws.simt.push_back({StackKind::kDiv, inst.imm, taken});
                ws.active &= ~taken;
                ws.pc = pc + 1;
              }
              break;
            }
            case Opcode::SYNC: {
              if (ws.simt.empty()) {
                ws.pc = pc + 1;
              } else {
                const StackEntry e = ws.simt.back();
                ws.simt.pop_back();
                ws.active = e.mask & ~ws.exited;
                ws.pc = e.pc;
                unwind(ws);
              }
              break;
            }
            case Opcode::CAL:
              ws.call_stack.push_back(pc + 1);
              ws.pc = inst.imm;
              break;
            case Opcode::RET:
              if (ws.call_stack.empty()) {
                ws.exited |= ws.active;
                ws.active = 0;
                unwind(ws);
              } else {
                ws.pc = ws.call_stack.back();
                ws.call_stack.pop_back();
              }
              break;
            case Opcode::EXIT:
              ws.exited |= exec_mask;
              ws.active &= ~exec_mask;
              if (ws.active == 0) unwind(ws);
              else ws.pc = pc + 1;
              break;
            case Opcode::BAR:
              ws.at_barrier = true;
              ws.pc = pc + 1;
              break;
            default:
              throw SimError("unhandled control opcode");
          }

          // Barrier release: all live warps waiting.
          if (inst.op == Opcode::BAR) {
            bool all_waiting = true;
            for (const WarpState& other : warps) {
              if (!other.done() && !other.at_barrier) {
                all_waiting = false;
                break;
              }
            }
            if (all_waiting) {
              for (WarpState& other : warps) other.at_barrier = false;
            }
          }
          continue;
        }

        ws.pc = pc + 1;
        if (exec_mask == 0) continue;

        // Data instructions: the whole warp at once. Operands are read as
        // register rows; B is the immediate broadcast, or for S2R the
        // lane's special value.
        WarpLanes lanes;
        lanes.exec_mask = exec_mask;
        lanes.cmp = inst.cmp;
        lanes.a = row(inst.src_a);
        lanes.c = row(inst.src_c);
        std::uint32_t b_row[32] = {};
        if (inst.op == Opcode::S2R) {
          for (int lane = 0; lane < 32; ++lane) {
            std::uint32_t v = 0;
            switch (static_cast<SpecialReg>(inst.imm)) {
              case SpecialReg::kTid: v = static_cast<std::uint32_t>(w * 32 + lane); break;
              case SpecialReg::kCtaid: v = static_cast<std::uint32_t>(block); break;
              case SpecialReg::kNtid: v = static_cast<std::uint32_t>(tpb); break;
              case SpecialReg::kNctaid:
                v = static_cast<std::uint32_t>(prog.config().blocks);
                break;
              case SpecialReg::kLaneid: v = static_cast<std::uint32_t>(lane); break;
              case SpecialReg::kWarpid: v = static_cast<std::uint32_t>(w); break;
            }
            b_row[lane] = v;
          }
          lanes.b = b_row;
        } else if (inst.has_imm) {
          std::fill(std::begin(b_row), std::end(b_row), inst.imm);
          lanes.b = b_row;
        } else {
          lanes.b = row(inst.src_b);
        }

        const auto op = static_cast<std::size_t>(inst.op);
        switch (info.unit) {
          case ExecUnit::kSpInt:
            kSpIntKernels[op](lanes);
            break;
          case ExecUnit::kSpFp:
            if (inst.op == Opcode::FSETP) {
              FsetpLanes(lanes);
            } else {
              kFpKernels[op](lanes);
            }
            break;
          case ExecUnit::kSfu:
            kSfuKernels[op](lanes);
            break;
          case ExecUnit::kMem: {
            // Accesses stay lane by lane, in ascending lane order (the
            // last lane storing to a word wins).
            const std::uint32_t* addr = lanes.a;
            const std::uint32_t* data = row(inst.dst);
            const std::uint32_t off = inst.imm;
            std::uint32_t* out = lanes.result;
            const std::uint32_t local_stride = config_.local_words * 4;
            auto local_addr = [&](int lane) {
              return addr[lane] + off +
                     static_cast<std::uint32_t>(w * 32 + lane) * local_stride;
            };
            switch (inst.op) {
              case Opcode::LDG:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = result.global.Load(addr[lane] + off);
                });
                break;
              case Opcode::STG:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = data[lane];
                  result.global.Store(addr[lane] + off, data[lane]);
                });
                break;
              case Opcode::LDS:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = shared.Load(addr[lane] + off);
                });
                break;
              case Opcode::STS:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = data[lane];
                  shared.Store(addr[lane] + off, data[lane]);
                });
                break;
              case Opcode::LDC:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = const_mem.Load(addr[lane] + off);
                });
                break;
              case Opcode::LDL:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = local.Load(local_addr(lane));
                });
                break;
              case Opcode::STL:
                ForLanes(exec_mask, [&](int lane) {
                  out[lane] = data[lane];
                  local.Store(local_addr(lane), data[lane]);
                });
                break;
              default:
                throw SimError("unhandled memory opcode");
            }
            break;
          }
          case ExecUnit::kControl:
            break;  // handled above
        }
        lanes.pred &= exec_mask;

        // Fault injection, then the monitors, see the warp before write-
        // back, while the operand rows still hold the values read.
        if (warp_override_ || !monitors_.empty()) {
          WarpEvent ev{.cc = issue_cc,
                       .block = block,
                       .warp = w,
                       .pc = pc,
                       .inst = inst,
                       .exec_mask = exec_mask,
                       .a = lanes.a,
                       .b = lanes.b,
                       .c = lanes.c,
                       .result = lanes.result,
                       .pred_result = lanes.pred};
          if (warp_override_) {
            warp_override_(ev, lanes.result, &lanes.pred);
            lanes.pred &= exec_mask;
            ev.pred_result = lanes.pred;
          }
          for (ExecMonitor* m : monitors_) m->OnWarp(ev);
        }

        // Write-back: a masked blend, so it vectorizes.
        if (info.writes_reg && !info.writes_memory) {
          std::uint32_t* dst = row(inst.dst);
          for (int lane = 0; lane < 32; ++lane) {
            dst[lane] =
                (exec_mask >> lane) & 1 ? lanes.result[lane] : dst[lane];
          }
        }
        if (info.writes_pred) {
          std::uint32_t& p = wpreds[inst.dst];
          p = (p & ~exec_mask) | lanes.pred;
        }
      }

      if (!issued_any) {
        // Everyone alive is at a barrier but the release check only runs on
        // BAR issue; release here to avoid deadlock when the last warp to
        // arrive was also the last live one processed.
        bool any_alive = false;
        for (WarpState& ws : warps) {
          if (!ws.done()) {
            any_alive = true;
            ws.at_barrier = false;
          }
        }
        if (!any_alive) break;
      }
    }
  }

  result.total_cycles = cc;
  return result;
}

}  // namespace gpustl::gpu
