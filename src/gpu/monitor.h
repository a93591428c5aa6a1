// Execution-monitor hooks: the paper's "hardware monitor incorporated for
// tracing purposes in one SM of the GPU without any effect on the
// functional operation of the PTP".
//
// The SM runs one warp-instruction at a time and calls each monitor at
// most twice for it:
//  * OnDecode on every issue (control instructions included), with the
//    64-bit word the Decoder Unit sees;
//  * OnWarp once for every issued data instruction (every unit but
//    control) with at least one executing lane, right after its OnDecode
//    and with no other event in between. It hands over the whole warp:
//    the lanes' resolved operands and results as 32-entry arrays indexed
//    by lane, and the exec mask saying which entries are real. Entries of
//    lanes outside the mask are unspecified and must not be read.
// A monitor walks the exec mask in ascending lane order when it needs
// per-lane work, so its output is ordered as if the lanes ran one by one.
// The trace module builds the Tracing Report and the per-module test-pattern
// reports (VCDE) from these callbacks; monitors never mutate GPU state.
#pragma once

#include <cstdint>

#include "isa/instruction.h"

namespace gpustl::gpu {

/// One decode event: warp `warp` issued the instruction at `pc` at clock
/// cycle `cc` with thread activity `active_mask` (bit = lane within warp).
struct DecodeEvent {
  std::uint64_t cc = 0;
  int block = 0;
  int warp = 0;  // warp id within the block
  std::uint32_t pc = 0;
  std::uint32_t active_mask = 0;
  const isa::Instruction& inst;
  std::uint64_t encoded = 0;  // the 64-bit word as seen by the Decoder Unit
};

/// One data warp-instruction: the lanes in `exec_mask` (bit = lane within
/// the warp; thread id = warp * 32 + lane) executed `inst` with resolved
/// operands a/b/c (b is the immediate, or the special value for S2R)
/// producing `result[lane]`; for SETP ops, bit `lane` of `pred_result`
/// is the lane's predicate outcome. For stores, `result` is the stored
/// word. `cc` equals the decode event's cc (module patterns are stamped
/// with the issue cycle, which is what the labeling join uses).
struct WarpEvent {
  std::uint64_t cc = 0;
  int block = 0;
  int warp = 0;
  std::uint32_t pc = 0;
  const isa::Instruction& inst;
  std::uint32_t exec_mask = 0;
  const std::uint32_t* a = nullptr;  // [32], by lane
  const std::uint32_t* b = nullptr;
  const std::uint32_t* c = nullptr;
  const std::uint32_t* result = nullptr;
  std::uint32_t pred_result = 0;  // no bits outside exec_mask
};

/// Observer interface. Implementations must not throw on well-formed events.
class ExecMonitor {
 public:
  virtual ~ExecMonitor() = default;
  virtual void OnDecode(const DecodeEvent& event) = 0;
  virtual void OnWarp(const WarpEvent& event) = 0;
};

}  // namespace gpustl::gpu
