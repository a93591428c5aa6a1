#include "trace/trace.h"

#include <bit>
#include <istream>
#include <ostream>

#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::trace {

using isa::ExecUnit;
using isa::Opcode;

std::string_view TargetModuleName(TargetModule module) {
  switch (module) {
    case TargetModule::kDecoderUnit: return "DU";
    case TargetModule::kSpCore: return "SP";
    case TargetModule::kSfu: return "SFU";
    case TargetModule::kFp32: return "FP32";
  }
  return "?";
}

std::vector<std::vector<std::uint64_t>> TracingReport::CcsByPc(
    std::size_t code_size) const {
  std::vector<std::vector<std::uint64_t>> out(code_size);
  for (const TraceEntry& e : entries_) {
    if (e.pc < code_size) out[e.pc].push_back(e.cc);
  }
  return out;
}

void TracingReport::Write(std::ostream& os) const {
  os << "$trace entries " << entries_.size() << "\n";
  for (const TraceEntry& e : entries_) {
    os << e.cc << " " << e.block << " " << e.warp << " " << e.pc << " "
       << e.active_mask << " " << static_cast<int>(e.opcode) << "\n";
  }
  os << "$end\n";
}

TracingReport TracingReport::Read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) throw ReportError("trace: empty stream");
  const auto head = SplitWs(line);
  if (head.size() != 3 || head[0] != "$trace" || head[1] != "entries") {
    throw ReportError("trace: malformed header");
  }
  const auto count = ParseInt(head[2]);
  if (!count || *count < 0) throw ReportError("trace: bad entry count");
  // Bound the declared count before trusting it: a corrupt header must
  // fail with a clean error, not a multi-gigabyte allocation followed by
  // a truncation error. 1<<26 entries is far beyond any real PTP trace.
  if (*count > (std::int64_t{1} << 26)) {
    throw ReportError("trace: entry count exceeds sane limit");
  }

  TracingReport report;
  for (std::int64_t i = 0; i < *count; ++i) {
    if (!std::getline(is, line)) throw ReportError("trace: truncated body");
    const auto toks = SplitWs(line);
    if (toks.size() != 6) throw ReportError("trace: bad row arity");
    TraceEntry e;
    auto parse = [&](std::string_view tok) {
      const auto v = ParseInt(tok);
      if (!v) throw ReportError("trace: bad field");
      return *v;
    };
    e.cc = static_cast<std::uint64_t>(parse(toks[0]));
    e.block = static_cast<int>(parse(toks[1]));
    e.warp = static_cast<int>(parse(toks[2]));
    e.pc = static_cast<std::uint32_t>(parse(toks[3]));
    e.active_mask = static_cast<std::uint32_t>(parse(toks[4]));
    e.opcode = static_cast<std::uint8_t>(parse(toks[5]));
    report.Add(e);
  }
  if (!std::getline(is, line) || Trim(line) != "$end") {
    throw ReportError("trace: missing $end");
  }
  return report;
}

void TraceRecorder::OnDecode(const gpu::DecodeEvent& event) {
  TraceEntry e;
  e.cc = event.cc;
  e.block = event.block;
  e.warp = event.warp;
  e.pc = event.pc;
  e.active_mask = event.active_mask;
  e.opcode = static_cast<std::uint8_t>(event.inst.op);
  report_.Add(e);
}

namespace {
int PatternWidth(TargetModule module) {
  switch (module) {
    case TargetModule::kDecoderUnit: return 64;
    case TargetModule::kSpCore: return circuits::kSpNumInputs;
    case TargetModule::kSfu: return circuits::kSfuNumInputs;
    case TargetModule::kFp32: return circuits::kFp32NumInputs;
  }
  throw Error("bad target module");
}

/// SFU function selector: RCP..EX2 -> 0..5.
int SfuSelector(Opcode op) {
  return static_cast<int>(op) - static_cast<int>(Opcode::RCP);
}

/// FP32 micro-op of an FP instruction, or -1 for the ops the FP-lite
/// datapath does not implement (FFMA, FMIN, FSETP, ...).
int Fp32Selector(Opcode op) {
  switch (op) {
    case Opcode::FADD: return static_cast<int>(circuits::Fp32Uop::kAdd);
    case Opcode::FMUL: return static_cast<int>(circuits::Fp32Uop::kMul);
    case Opcode::FABS: return static_cast<int>(circuits::Fp32Uop::kAbs);
    case Opcode::FNEG: return static_cast<int>(circuits::Fp32Uop::kNeg);
    default: return -1;
  }
}
}  // namespace

PatternProbe::PatternProbe(TargetModule module)
    : module_(module), patterns_(PatternWidth(module)) {}

void PatternProbe::OnDecode(const gpu::DecodeEvent& event) {
  const Opcode op = event.inst.op;
  lanes_feed_ = false;
  switch (module_) {
    case TargetModule::kDecoderUnit:
      patterns_.Add64(event.cc, event.encoded);
      break;
    case TargetModule::kSpCore:
      if (event.inst.info().unit == ExecUnit::kSpInt) {
        lanes_feed_ = true;
        selector_ = static_cast<int>(op);
        cmp_ = static_cast<int>(event.inst.cmp);
      }
      break;
    case TargetModule::kSfu:
      if (event.inst.info().unit == ExecUnit::kSfu) {
        lanes_feed_ = true;
        selector_ = SfuSelector(op);
      }
      break;
    case TargetModule::kFp32:
      selector_ = Fp32Selector(op);
      lanes_feed_ = selector_ >= 0;
      break;
  }
}

void PatternProbe::OnWarp(const gpu::WarpEvent& event) {
  if (!lanes_feed_) return;
  // The warp's rows are appended in one step and encoded in place, one
  // per executing lane in ascending lane order.
  std::uint32_t mask = event.exec_mask;
  std::uint64_t* row = patterns_.AppendRows(
      event.cc, static_cast<std::size_t>(std::popcount(mask)));
  const std::uint32_t* a = event.a;
  const std::uint32_t* b = event.b;
  switch (module_) {
    case TargetModule::kSpCore:
      for (; mask != 0; mask &= mask - 1, row += 2) {
        const int lane = std::countr_zero(mask);
        circuits::EncodeSpPattern(selector_, cmp_, a[lane], b[lane],
                                  event.c[lane], row);
      }
      break;
    case TargetModule::kSfu:
      for (; mask != 0; mask &= mask - 1) {
        *row++ = circuits::EncodeSfuPattern(selector_,
                                            a[std::countr_zero(mask)]);
      }
      break;
    case TargetModule::kFp32:
      for (; mask != 0; mask &= mask - 1, row += 2) {
        const int lane = std::countr_zero(mask);
        circuits::EncodeFp32Pattern(static_cast<circuits::Fp32Uop>(selector_),
                                    a[lane], b[lane], row);
      }
      break;
    case TargetModule::kDecoderUnit:
      break;  // one pattern per decode event, none per lane
  }
}

}  // namespace gpustl::trace
