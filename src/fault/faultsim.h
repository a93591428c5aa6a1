// PPSFP (Parallel-Pattern Single-Fault Propagation) stuck-at fault simulator.
//
// This implements the paper's "optimized GL fault simulation": the target
// module is fault-simulated in isolation against the per-cc test patterns
// captured from the PTP execution, with fault observability at the module's
// output ports (module-level observability). The simulator records, per
// fault, the first pattern that detects it and, per pattern, how many faults
// it detects — the paper's Fault Sim Report, all that instruction labeling
// (Fig. 2) reads — and supports fault dropping both within a run and across
// runs (cross-PTP dropping via the persistent fault-list mask). Under
// dropping `first_detect` alone determines the report, so a skip-masked run
// is a filter over the full-list run of the same patterns (fault/replay.h).
//
// The simulator is fault-parallel: with num_threads > 1 the work list —
// whole fanout-free regions, each served by one stem propagation — is
// sharded across a worker pool (good-machine blocks are simulated once and
// shared read-only; propagation scratch stays private) and the shard
// reports are merged deterministically, producing a report bit-identical
// to the serial loop (see fault/parallel.h).
//
// There is one engine configuration: fault collapsing, output-cone
// limiting, FFR critical-path tracing and per-fault early-exit are always
// on. Only the backend (word width) and the thread count vary, and neither
// changes a report.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/status.h"
#include "fault/backend.h"
#include "fault/fault.h"
#include "netlist/logicsim.h"
#include "netlist/patterns.h"

namespace gpustl::fault {

struct FaultCollapse;  // fault/collapse.h

struct FaultSimOptions {
  /// Stop simulating a fault after its first detection (fault dropping).
  /// When false every detection of every fault is counted per pattern.
  bool drop_detected = true;

  /// Worker threads for the fault-parallel engine. 1 = the serial loop on
  /// the calling thread; 0 = hardware_concurrency; N > 1 = the work list is
  /// sharded over N workers with a deterministic merge. The report is
  /// bit-identical for every value (see fault/parallel.h).
  int num_threads = 1;

  /// Engine backend: how many patterns one propagation word carries and
  /// how it is evaluated (see fault/backend.h). kAuto = runtime CPU
  /// dispatch, honouring $GPUSTL_BACKEND. Every backend's report is
  /// bit-identical — like num_threads, this is a pure cost knob, excluded
  /// from result-store fingerprints. An explicitly requested backend the
  /// binary/CPU cannot honour throws SimError (input error), never falls
  /// back silently.
  Backend backend = Backend::kAuto;

  /// Optional precomputed collapse plan for this exact fault list (e.g.
  /// cached across PTP runs by the campaign driver). When null the plan is
  /// built per run. Stuck-at only: the transition engine does not collapse.
  const FaultCollapse* collapse_plan = nullptr;

  /// Cooperative cancellation / deadline token (not owned). Workers poll
  /// it once per pattern block; when it expires they return early and
  /// the engine throws DeadlineError AFTER all shards join — a partial
  /// result is discarded wholesale, never returned, so an aborted run can
  /// never produce silently wrong coverage numbers. Null = never aborts.
  const CancelToken* cancel = nullptr;

  /// Observability counter (not owned; null = not counted): faults retired
  /// by early-exit, i.e. dropped from the live list once no later pattern
  /// block can activate them. Relaxed atomic — shards bump it
  /// concurrently; the total is exact but depends on the backend's block
  /// width, so it is not part of any deterministic result.
  std::atomic<std::uint64_t>* faults_early_exited = nullptr;
};

/// Per-run result: the paper's Fault Sim Report.
struct FaultSimResult {
  static constexpr std::uint32_t kNotDetected = UINT32_MAX;

  /// Per fault (same order as the fault list): index of the first pattern
  /// that detects it, or kNotDetected.
  std::vector<std::uint32_t> first_detect;

  /// Per pattern: number of faults detected at that pattern. With dropping
  /// this counts first detections only (and so derives from first_detect).
  std::vector<std::uint32_t> detects_per_pattern;

  /// Faults detected in this run.
  std::size_t num_detected = 0;

  /// Convenience: detected-mask over the fault list.
  BitVec detected_mask;
};

/// Runs the fault simulation.
///
/// `skip` (optional) marks faults to exclude entirely — the cross-PTP
/// fault-dropping list: faults already detected by previously compacted
/// PTPs of the same module. Pass nullptr to simulate the full list.
///
/// The netlist must be combinational (no DFFs): the modelled GPU modules
/// (Decoder Unit, SP datapath, SFU datapath) are combinational between
/// pipeline registers, which is also what module-level observability
/// assumes.
FaultSimResult RunFaultSim(const netlist::Netlist& nl,
                           const netlist::PatternSet& patterns,
                           const std::vector<Fault>& faults,
                           const BitVec* skip = nullptr,
                           const FaultSimOptions& options = {});

/// Fault coverage in percent given a detected mask and list size.
double CoveragePercent(std::size_t detected, std::size_t total);

}  // namespace gpustl::fault
