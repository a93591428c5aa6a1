#include "fault/revalidate.h"

#include "common/error.h"

namespace gpustl::fault {

BitVec DetectedAfterEdit(const netlist::Netlist& nl,
                         const netlist::PatternSet& before,
                         const std::vector<std::uint32_t>& before_first_detect,
                         const netlist::PatternSet& after,
                         const std::vector<Fault>& faults,
                         const FaultSimOptions& options) {
  if (before_first_detect.size() != faults.size()) {
    throw Error("revalidate: first detections do not match the fault list");
  }
  GPUSTL_ASSERT(before.empty() || after.empty() ||
                    before.width() == after.width(),
                "pattern widths differ");

  // One scan of the original rows over a table of the compacted ones:
  // which original rows survive, and which compacted rows are not new.
  const netlist::RowTable after_rows(after);
  const netlist::DistinctRows& distinct = after_rows.distinct();
  std::vector<bool> kept(before.size(), false);
  std::vector<bool> old(distinct.first.size(), false);
  if (!after.empty()) {
    for (std::size_t p = 0; p < before.size(); ++p) {
      const std::uint32_t d = after_rows.Find(before.Row(p));
      if (d == netlist::RowTable::kAbsent) continue;
      kept[p] = true;
      old[d] = true;
    }
  }

  BitVec detected(faults.size(), false);
  BitVec skip_undetected(faults.size(), true);  // run A simulates these
  BitVec skip_orphans(faults.size(), true);     // run B simulates these
  bool any_undetected = false;
  bool any_orphan = false;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const std::uint32_t fd = before_first_detect[f];
    if (fd == FaultSimResult::kNotDetected) {
      skip_undetected.Set(f, false);
      any_undetected = true;
    } else if (fd >= before.size()) {
      throw Error("revalidate: first detection past the pattern set");
    } else if (kept[fd]) {
      detected.Set(f, true);
    } else {
      skip_orphans.Set(f, false);
      any_orphan = true;
    }
  }

  FaultSimOptions dropped = options;
  dropped.drop_detected = true;
  std::vector<std::uint32_t> new_rows;
  for (std::size_t d = 0; d < distinct.first.size(); ++d) {
    if (!old[d]) new_rows.push_back(distinct.first[d]);
  }
  if (any_undetected && !new_rows.empty()) {
    detected |= RunFaultSim(nl, after.Select(new_rows), faults,
                            &skip_undetected, dropped)
                    .detected_mask;
  }
  if (any_orphan && !distinct.first.empty()) {
    detected |= RunFaultSim(nl, after.Select(distinct.first), faults,
                            &skip_orphans, dropped)
                    .detected_mask;
  }
  return detected;
}

}  // namespace gpustl::fault
