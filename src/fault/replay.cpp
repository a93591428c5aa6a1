#include "fault/replay.h"

#include <numeric>

#include "common/error.h"
#include "fault/parallel.h"

namespace gpustl::fault {

ReplayCounters& GlobalReplayCounters() {
  static ReplayCounters counters;
  return counters;
}

FaultSimResult ReplaySkipFromFull(const FaultSimResult& full,
                                  const BitVec& skip) {
  const std::size_t num_faults = full.first_detect.size();
  const std::size_t num_patterns = full.detects_per_pattern.size();
  // A dropped run counts every detected fault exactly once. (A no-drop run
  // passing this check detected each fault once, so it equals its dropped
  // counterpart and filters just as exactly.)
  if (skip.size() != num_faults ||
      std::accumulate(full.detects_per_pattern.begin(),
                      full.detects_per_pattern.end(), std::size_t{0}) !=
          full.num_detected) {
    throw Error("replay: full result is not a dropped run over this fault "
                "list");
  }

  FaultSimResult result = InitFaultSimResult(num_faults, num_patterns);
  for (std::size_t f = 0; f < num_faults; ++f) {
    if (skip.Get(f)) continue;
    const std::uint32_t fd = full.first_detect[f];
    if (fd == FaultSimResult::kNotDetected) continue;
    if (fd >= num_patterns) {
      throw Error("replay: first detection past the pattern set");
    }
    result.first_detect[f] = fd;
    result.detected_mask.Set(f, true);
    ++result.num_detected;
    ++result.detects_per_pattern[fd];
  }

  GlobalReplayCounters().replays.fetch_add(1, std::memory_order_relaxed);
  return result;
}

FaultSimResult ReplaySkipFromFull(const netlist::Netlist& /*nl*/,
                                  const std::vector<Fault>& /*faults*/,
                                  const FaultSimResult& full,
                                  const BitVec& skip,
                                  GoodBlockCache& /*good_blocks*/) {
  return ReplaySkipFromFull(full, skip);
}

}  // namespace gpustl::fault
