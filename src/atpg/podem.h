// PODEM automatic test-pattern generation for single stuck-at faults.
//
// The paper's TPGEN and SFU_IMM PTPs are built from ATPG tool patterns that
// a parser converts into GPU instructions. This module is that ATPG tool:
// a classic PODEM (path-oriented decision making) over the gate-level
// modules, with event-driven 3-valued good/faulty implication, D-frontier
// objectives searched in the fault's cone, backtrace to primary inputs,
// bounded backtracking, random fill of unassigned inputs, and inter-pattern
// fault dropping via the PPSFP fault simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "netlist/patterns.h"

namespace gpustl::atpg {

enum class AtpgStatus : std::uint8_t {
  kDetected,    // a pattern was found
  kUntestable,  // proven redundant within the search budget semantics
  kAborted,     // backtrack limit exhausted
};

struct AtpgOptions {
  /// Maximum PODEM backtracks per fault before aborting.
  int backtrack_limit = 100;

  /// Random-pattern phase before the deterministic one (standard ATPG tool
  /// flow): up to this many random patterns are fault-simulated first, and
  /// the ones that contribute first detections are kept in the output set.
  /// PODEM then runs only on the surviving faults. 0 disables the phase.
  int random_phase_patterns = 512;

  /// Upper bound on deterministic-phase PODEM attempts (0 = unlimited).
  /// Faults beyond the budget are left to collateral detection and counted
  /// as aborted if none follows. Caps the run time on redundancy-heavy
  /// modules.
  std::size_t deterministic_fault_budget = 0;

  /// Canonicalizes each pattern after don't-care fill and BEFORE fault
  /// simulation — the hook the GPU-module flows use to keep patterns inside
  /// the instruction-expressible input space (e.g. clamping the SFU
  /// function selector to the six transcendental opcodes). May be empty.
  /// `row` points at words_per_pattern() words.
  std::function<void(std::uint64_t* row)> pattern_fixup;
};

/// Per-fault generation result. `assignment[i]` is 0/1 for assigned primary
/// input i and 2 for don't-care.
struct AtpgResult {
  AtpgStatus status = AtpgStatus::kAborted;
  std::vector<std::uint8_t> assignment;
};

/// Generates one test pattern for `fault` (combinational netlists only).
AtpgResult GeneratePattern(const netlist::Netlist& nl, const fault::Fault& f,
                           const AtpgOptions& options = {});

/// Result of a full ATPG run over a fault list.
struct AtpgRunResult {
  netlist::PatternSet patterns;  // cc stamps are pattern ordinals
  std::size_t detected = 0;      // faults covered (incl. collateral drops)
  std::size_t untestable = 0;
  /// Faults PODEM aborted (backtrack limit) or skipped (fault budget) that
  /// no pattern of the set detects, so detected + untestable + aborted
  /// never exceeds the fault count.
  std::size_t aborted = 0;
  std::size_t random_patterns = 0;        // kept from the random phase
  std::size_t deterministic_patterns = 0; // emitted by PODEM
};

/// Runs PODEM over the whole fault list with fault dropping: each generated
/// pattern (don't-cares filled from `rng`) is fault-simulated against the
/// remaining faults in 64-pattern batches so collaterally-detected faults
/// are skipped. Deterministic given the seed.
AtpgRunResult GeneratePatternSet(const netlist::Netlist& nl,
                                 const std::vector<fault::Fault>& faults,
                                 Rng rng, const AtpgOptions& options = {});

}  // namespace gpustl::atpg
