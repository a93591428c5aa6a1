// Stage-2 artifacts: the Tracing Report and the module test-pattern capture.
//
// The Tracing Report is the paper's RTL logic-simulation output: for every
// clock cycle with a decode event it records the decoded instruction, the
// program counter, the executed instruction per warp, the warp identifier
// and the cc value. The pattern probes are the paper's GL logic-simulation
// output: the per-cc binary test patterns applied to the target module,
// emitted as a VCDE-style PatternSet.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "gpu/monitor.h"
#include "netlist/patterns.h"

namespace gpustl::trace {

/// Which gate-level module a probe observes.
enum class TargetModule { kDecoderUnit, kSpCore, kSfu, kFp32 };

/// Returns the module's display name ("DU", "SP", "SFU", "FP32").
std::string_view TargetModuleName(TargetModule module);

/// One line of the Tracing Report.
struct TraceEntry {
  std::uint64_t cc = 0;
  int block = 0;
  int warp = 0;
  std::uint32_t pc = 0;
  std::uint32_t active_mask = 0;
  std::uint8_t opcode = 0;  // decoded instruction (opcode value)

  bool operator==(const TraceEntry&) const = default;
};

/// The Tracing Report: every decode event of a PTP run, in issue order.
class TracingReport {
 public:
  const std::vector<TraceEntry>& entries() const { return entries_; }
  void Add(const TraceEntry& entry) { entries_.push_back(entry); }
  std::size_t size() const { return entries_.size(); }

  /// Per-instruction decode cc stamps: result[pc] lists every cc at which
  /// the instruction at `pc` was issued (any warp). `code_size` bounds pc.
  std::vector<std::vector<std::uint64_t>> CcsByPc(std::size_t code_size) const;

  /// Text serialization (one line per entry).
  void Write(std::ostream& os) const;
  static TracingReport Read(std::istream& is);

  bool operator==(const TracingReport&) const = default;

 private:
  std::vector<TraceEntry> entries_;
};

/// Monitor recording the Tracing Report.
class TraceRecorder : public gpu::ExecMonitor {
 public:
  void OnDecode(const gpu::DecodeEvent& event) override;
  void OnWarp(const gpu::WarpEvent& /*event*/) override {}

  const TracingReport& report() const { return report_; }
  /// Moves the report out; the recorder is left empty.
  TracingReport TakeReport() { return std::move(report_); }

 private:
  TracingReport report_;
};

/// Monitor capturing the per-cc test patterns applied to one module.
///
///  * kDecoderUnit: one 64-bit pattern (the encoded instruction word) per
///    decode event;
///  * kSpCore: one 105-bit pattern (uop, cmp, A, B, C) per active lane of
///    every SP-integer instruction;
///  * kSfu: one 35-bit pattern (fsel, X) per active lane of every SFU
///    instruction;
///  * kFp32: one 66-bit pattern (uop, A, B) per active lane of every
///    FADD/FMUL/FABS/FNEG (the ops the FP-lite datapath implements).
///
/// Patterns are stamped with the decode cc of the issuing instruction.
class PatternProbe : public gpu::ExecMonitor {
 public:
  explicit PatternProbe(TargetModule module);

  void OnDecode(const gpu::DecodeEvent& event) override;
  void OnWarp(const gpu::WarpEvent& event) override;

  const netlist::PatternSet& patterns() const { return patterns_; }
  /// Moves the captured patterns out; the probe keeps none.
  netlist::PatternSet TakePatterns() { return std::move(patterns_); }
  TargetModule module() const { return module_; }

 private:
  TargetModule module_;
  netlist::PatternSet patterns_;
  // Set at OnDecode for the issuing instruction: whether its lanes apply a
  // pattern to module_, and the module's selector field (SP uop and cmp,
  // SFU function, FP32 uop) that every lane of it shares. OnWarp, which
  // follows at once, encodes the lanes with them.
  bool lanes_feed_ = false;
  int selector_ = 0;
  int cmp_ = 0;
};

}  // namespace gpustl::trace
