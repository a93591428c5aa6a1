// The Streaming Multiprocessor model: a functional SIMT executor with
// deterministic cycle accounting, FlexGripPlus-style.
//
// Execution model:
//  * one SM; blocks of the grid run sequentially on it;
//  * warps of 32 threads; warps are scheduled round-robin, one instruction
//    per scheduling slot (the in-order, non-overlapped pipeline of the
//    original FlexGrip);
//  * per warp-instruction the clock advances by
//        issue_overhead + unit latency + ceil(active / units)
//    where `units` is num_sp for SP ops, num_sfu for SFU ops and 1
//    (serialized) for memory accesses;
//  * divergence is handled with the G80 SSY/SYNC reconvergence stack;
//  * BAR synchronizes all live warps of the block.
//
// The data path runs one whole warp at a time: registers are kept per warp
// as [reg][lane] rows and each predicate register as a 32-bit lane mask,
// so one warp-instruction is one dispatch on the opcode followed by a tight
// lane loop over the exec mask. Monitors observe every decode and every
// data warp-instruction (see monitor.h); this is the substrate both the
// Tracing Report and the module test-pattern capture are built on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gpu/config.h"
#include "gpu/memory.h"
#include "gpu/monitor.h"
#include "isa/program.h"

namespace gpustl::gpu {

/// Outcome of a kernel run.
struct RunResult {
  std::uint64_t total_cycles = 0;
  std::uint64_t dynamic_instructions = 0;  // warp-instructions issued
  GlobalMemory global;                     // final global-memory state
};

/// Result override hook for fault-injection experiments: called once per
/// data warp-instruction, after its lanes computed and BEFORE write-back
/// and the monitors' OnWarp. It may rewrite `result[lane]` and the bits of
/// `*pred_result` of lanes in `event.exec_mask` (the event's own result
/// pointer aliases `result`). The fault injector uses this to substitute
/// gate-level faulty results.
using WarpOverride = std::function<void(
    const WarpEvent& event, std::uint32_t* result, std::uint32_t* pred_result)>;

/// One SM executing one kernel at a time.
class Sm {
 public:
  explicit Sm(const SmConfig& config = {});

  /// Registers a monitor (not owned). Monitors fire in registration order.
  void AddMonitor(ExecMonitor* monitor);

  /// Installs the result override (empty = none).
  void SetWarpOverride(WarpOverride override);

  /// Runs the program to completion (all warps exited). Throws SimError on
  /// malformed execution (bad memory access, runaway kernel, ...).
  RunResult Run(const isa::Program& prog);

  const SmConfig& config() const { return config_; }

 private:
  SmConfig config_;
  std::vector<ExecMonitor*> monitors_;
  WarpOverride warp_override_;
};

}  // namespace gpustl::gpu
