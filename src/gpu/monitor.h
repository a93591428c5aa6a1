// Execution-monitor hooks: the paper's "hardware monitor incorporated for
// tracing purposes in one SM of the GPU without any effect on the
// functional operation of the PTP".
//
// The SM invokes monitors on every instruction issue (decode event, once per
// warp-instruction) and on every lane execution (once per active thread).
// A warp-instruction's lane events follow its decode event with no other
// event in between, so a monitor may decide per instruction at OnDecode
// what it does per lane.
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
  isa::Instruction inst;
  std::uint64_t encoded = 0;  // the 64-bit word as seen by the Decoder Unit
};

/// One lane execution: thread `tid` (block-local) executed the instruction
/// with resolved operands a/b/c producing `result` (and `pred_result` for
/// SETP ops). `cc` equals the decode event's cc (module patterns are stamped
/// with the issue cycle, which is what the labeling join uses).
struct LaneEvent {
  std::uint64_t cc = 0;
  int block = 0;
  int warp = 0;
  int lane = 0;  // lane within the warp (0..31)
  int tid = 0;   // thread id within the block
  std::uint32_t pc = 0;
  isa::Instruction inst;
  std::uint32_t a = 0, b = 0, c = 0;
  std::uint32_t result = 0;
  bool pred_result = false;
};

/// Observer interface. Implementations must not throw on well-formed events.
class ExecMonitor {
 public:
  virtual ~ExecMonitor() = default;
  virtual void OnDecode(const DecodeEvent& event) = 0;
  virtual void OnLane(const LaneEvent& event) = 0;
};

}  // namespace gpustl::gpu
