// Structural fault collapsing for the PPSFP engine.
//
// BuildFaultCollapse partitions a fault list into *functional equivalence
// classes*: faults whose faulty circuits compute the identical function of
// the primary inputs. The simulator then propagates one representative per
// class and expands detection results to every member — exactly, because
// detection is a property of the faulty function. Two rules generate the
// classes, closed transitively with a union-find:
//
//  * forced output: if driving input pin p of gate g to value v forces g's
//    output to a constant c (for every assignment of the remaining pins,
//    with structurally constant fanins fixed at their values), then
//    (g, p, SA v) == (g, out, SA c). This subsumes the classic
//    controlling-value rules (AND input SA0 == output SA0, NAND input SA0
//    == output SA1, BUF/INV input == output), complex-gate cases (AOI21's
//    OR-side pin) and gates degenerated by constant fanins (XOR with a
//    TIELO input acts as a buffer).
//  * single-fanout stem: if net s feeds only pin p of gate g, the stem
//    fault (s, out, SA v) and the branch fault (g, p, SA v) are the same
//    physical defect — UNLESS s is itself a primary output, where the stem
//    is directly observable but the branch is not (the legacy list-level
//    CollapseFaults misses this distinction; the engine-level pass must be
//    exact).
//
// Classic *dominance* edges (every test for the dominated input fault also
// detects the dominating output fault) are counted alongside. They are NOT
// used to shrink the simulation: dominance only transfers detection one
// way, so expanding results through dominance would under-report the
// dominator. The count is surfaced in campaign stats as the additional
// reduction a coverage-only (non-PPSFP-report) flow could take.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.h"

namespace gpustl::fault {

/// Summary numbers for reports and benches.
struct CollapseStats {
  std::size_t num_faults = 0;       // faults in the input list
  std::size_t num_classes = 0;      // classes == representatives simulated
  std::size_t dominance_edges = 0;  // intra-gate dominance pairs in the list

  /// Percent of the list the engine does not have to propagate.
  double reduction_percent() const;
};

/// Equivalence classes over one fault list, CSR-grouped. Classes are
/// ordered by their leader (smallest member fault id) and members ascend
/// within a class, so iteration order is deterministic.
struct FaultCollapse {
  std::vector<std::uint32_t> class_offsets;  // num_classes() + 1
  std::vector<std::uint32_t> members;        // fault indices, grouped
  std::size_t num_faults = 0;
  std::size_t dominance_edges = 0;

  std::size_t num_classes() const {
    return class_offsets.empty() ? 0 : class_offsets.size() - 1;
  }

  std::span<const std::uint32_t> class_members(std::size_t c) const {
    return {members.data() + class_offsets[c],
            class_offsets[c + 1] - class_offsets[c]};
  }

  /// Smallest fault id of class `c` (its simulation representative when no
  /// skip mask hides it).
  std::uint32_t leader(std::size_t c) const {
    return members[class_offsets[c]];
  }

  CollapseStats Stats() const;
};

/// Computes the equivalence classes and dominance-edge count of `faults`
/// over the frozen netlist.
FaultCollapse BuildFaultCollapse(const netlist::Netlist& nl,
                                 const std::vector<Fault>& faults);

/// Fault classes bucketed by the fanout-free region that owns every
/// member's fault site (netlist.h, "fanout-free regions"). The
/// FFR-clustered engine runs ONE stem propagation per group per pattern
/// block, so a group is the indivisible sharding unit. Groups ascend by
/// stem net id and class indices ascend within a group — the deterministic
/// order the differential tests rely on.
struct FfrClassGroups {
  std::vector<std::uint32_t> group_offsets;  // num_groups() + 1
  std::vector<std::uint32_t> classes;        // class indices, grouped
  std::vector<netlist::NetId> stems;         // owning stem net per group
  std::vector<std::uint32_t> ffrs;           // netlist region index per group

  std::size_t num_groups() const { return stems.size(); }

  std::span<const std::uint32_t> group_classes(std::size_t g) const {
    return {classes.data() + group_offsets[g],
            group_offsets[g + 1] - group_offsets[g]};
  }
};

/// Buckets the classes of a simulation plan (CSR of fault indices, as built
/// by the engine after skip filtering) by owning FFR. Every member of an
/// equivalence class shares one region — both collapse rules merge along
/// single-fanout chains, which never cross a stem — and this builder
/// asserts that invariant, since the engine's one-propagation-per-region
/// contract depends on it.
FfrClassGroups GroupClassesByFfr(const netlist::Netlist& nl,
                                 const std::vector<Fault>& faults,
                                 std::span<const std::uint32_t> class_offsets,
                                 std::span<const std::uint32_t> class_members);

}  // namespace gpustl::fault
