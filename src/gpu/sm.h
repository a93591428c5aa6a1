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
// Monitors observe every decode and lane-execution event (see monitor.h);
// this is the substrate both the Tracing Report and the module test-pattern
// capture are built on.
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

/// Lane-result override hook for fault-injection experiments: called for
/// every executed lane BEFORE write-back with the architecturally computed
/// value/predicate; may modify them (return true if it did). The fault
/// injector uses this to substitute gate-level faulty results.
using LaneOverride =
    std::function<bool(const LaneEvent& event, std::uint32_t* value,
                       bool* pred)>;

/// One SM executing one kernel at a time.
class Sm {
 public:
  explicit Sm(const SmConfig& config = {});

  /// Registers a monitor (not owned). Monitors fire in registration order.
  void AddMonitor(ExecMonitor* monitor);

  /// Installs the lane-result override (empty = none).
  void SetLaneOverride(LaneOverride override);

  /// Runs the program to completion (all warps exited). Throws SimError on
  /// malformed execution (bad memory access, runaway kernel, ...).
  RunResult Run(const isa::Program& prog);

  const SmConfig& config() const { return config_; }

 private:
  SmConfig config_;
  std::vector<ExecMonitor*> monitors_;
  LaneOverride lane_override_;
};

}  // namespace gpustl::gpu
