#include "gpu/sm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuits/reference.h"
#include "common/bitops.h"
#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::gpu {

using isa::CmpOp;
using isa::ExecUnit;
using isa::Format;
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
    case Opcode::F2I:
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(fa));
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

void Sm::SetLaneOverride(LaneOverride override) {
  lane_override_ = std::move(override);
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
  // one once. Lane events are built only for an observer.
  std::vector<std::uint64_t> encoded;
  if (!monitors_.empty()) {
    encoded.reserve(code.size());
    for (const Instruction& inst : code) encoded.push_back(inst.Encode());
  }
  const bool observed = !monitors_.empty() || lane_override_ != nullptr;

  for (int block = 0; block < prog.config().blocks; ++block) {
    // Per-block state.
    std::vector<std::uint32_t> regs(
        static_cast<std::size_t>(tpb) * isa::kNumRegs, 0);
    std::vector<std::uint8_t> preds(
        static_cast<std::size_t>(tpb) * isa::kNumPredRegs, 0);
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

    auto reg = [&](int tid, int r) -> std::uint32_t& {
      return regs[static_cast<std::size_t>(tid) * isa::kNumRegs +
                  static_cast<std::size_t>(r)];
    };
    auto pred = [&](int tid, int p) -> std::uint8_t& {
      return preds[static_cast<std::size_t>(tid) * isa::kNumPredRegs +
                   static_cast<std::size_t>(p)];
    };

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

        // Per-lane predication.
        std::uint32_t exec_mask = ws.active;
        if (inst.predicated) {
          std::uint32_t m = 0;
          for (int lane = 0; lane < 32; ++lane) {
            if (!((ws.active >> lane) & 1)) continue;
            const int tid = w * 32 + lane;
            const bool p = pred(tid, inst.pred_reg) != 0;
            if (p != inst.pred_negated) m |= 1u << lane;
          }
          exec_mask = m;
        }

        // Decode event (the DU sees the word on every issue). Lane events
        // share the same cc stamp: the labeling join in the compactor maps
        // module patterns back to the issuing instruction through it.
        const std::uint64_t issue_cc = cc;
        if (!monitors_.empty()) {
          DecodeEvent ev;
          ev.cc = issue_cc;
          ev.block = block;
          ev.warp = w;
          ev.pc = pc;
          ev.active_mask = exec_mask;
          ev.inst = inst;
          ev.encoded = encoded[pc];
          for (ExecMonitor* m : monitors_) m->OnDecode(ev);
        }
        ++result.dynamic_instructions;

        const int active_count = PopCount(exec_mask);

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

        // Data instructions: per-lane execution. The lane event's
        // instruction-wide fields are set once per warp-instruction.
        LaneEvent ev;
        if (observed) {
          ev.cc = issue_cc;
          ev.block = block;
          ev.warp = w;
          ev.pc = pc;
          ev.inst = inst;
        }
        for (int lane = 0; lane < 32; ++lane) {
          if (!((exec_mask >> lane) & 1)) continue;
          const int tid = w * 32 + lane;

          std::uint32_t a = reg(tid, inst.src_a);
          std::uint32_t b = inst.has_imm ? inst.imm : reg(tid, inst.src_b);
          std::uint32_t c = reg(tid, inst.src_c);
          std::uint32_t value = 0;
          bool pred_result = false;

          switch (info.unit) {
            case ExecUnit::kSpInt: {
              if (inst.op == Opcode::S2R) {
                switch (static_cast<SpecialReg>(inst.imm)) {
                  case SpecialReg::kTid: b = static_cast<std::uint32_t>(tid); break;
                  case SpecialReg::kCtaid: b = static_cast<std::uint32_t>(block); break;
                  case SpecialReg::kNtid: b = static_cast<std::uint32_t>(tpb); break;
                  case SpecialReg::kNctaid:
                    b = static_cast<std::uint32_t>(prog.config().blocks);
                    break;
                  case SpecialReg::kLaneid: b = static_cast<std::uint32_t>(lane); break;
                  case SpecialReg::kWarpid: b = static_cast<std::uint32_t>(w); break;
                }
              }
              const circuits::SpResult r =
                  circuits::SpIntOp(inst.op, inst.cmp, a, b, c);
              value = r.value;
              pred_result = r.pred;
              break;
            }
            case ExecUnit::kSpFp:
              if (inst.op == Opcode::FSETP) {
                pred_result = FpCompare(inst.cmp, a, b);
              } else {
                value = FpOp(inst.op, a, b, c);
              }
              break;
            case ExecUnit::kSfu:
              value = SfuArchOp(inst.op, a);
              break;
            case ExecUnit::kMem: {
              const std::uint32_t addr = a + inst.imm;
              switch (inst.op) {
                case Opcode::LDG: value = result.global.Load(addr); break;
                case Opcode::STG:
                  value = reg(tid, inst.dst);
                  result.global.Store(addr, value);
                  break;
                case Opcode::LDS: value = shared.Load(addr); break;
                case Opcode::STS:
                  value = reg(tid, inst.dst);
                  shared.Store(addr, value);
                  break;
                case Opcode::LDC: value = const_mem.Load(addr); break;
                case Opcode::LDL:
                  value = local.Load(
                      addr + static_cast<std::uint32_t>(tid) *
                                 config_.local_words * 4);
                  break;
                case Opcode::STL:
                  value = reg(tid, inst.dst);
                  local.Store(addr + static_cast<std::uint32_t>(tid) *
                                         config_.local_words * 4,
                              value);
                  break;
                default:
                  throw SimError("unhandled memory opcode");
              }
              break;
            }
            case ExecUnit::kControl:
              break;  // handled above
          }

          if (observed) {
            ev.lane = lane;
            ev.tid = tid;
            ev.a = a;
            ev.b = b;
            ev.c = c;
            ev.result = value;
            ev.pred_result = pred_result;

            // Fault-injection hook: may substitute the lane result before
            // it is architecturally committed.
            if (lane_override_ &&
                lane_override_(ev, &value, &pred_result)) {
              ev.result = value;
              ev.pred_result = pred_result;
            }
          }

          // Write-back.
          if (info.writes_reg && !info.writes_memory) {
            reg(tid, inst.dst) = value;
          }
          if (info.writes_pred) {
            pred(tid, inst.dst) = pred_result ? 1 : 0;
          }

          for (ExecMonitor* m : monitors_) m->OnLane(ev);
        }

        ws.pc = pc + 1;
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
