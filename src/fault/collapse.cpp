#include "fault/collapse.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "netlist/cell.h"

namespace gpustl::fault {

using netlist::CellType;
using netlist::Gate;
using netlist::kMaxFanin;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Union-find over fault-site ids with path halving; roots are minimal, so
/// class leaders are deterministic.
struct UnionFind {
  std::vector<std::uint32_t> parent;

  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }

  std::uint32_t Find(std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }

  void Unite(std::uint32_t a, std::uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

/// Site id for fault (gate, pin, sa); pin == kOutputPin maps to slot 0.
std::uint32_t SiteId(NetId gate, int pin, bool sa1) {
  return (static_cast<std::uint32_t>(gate) * (kMaxFanin + 1) +
          static_cast<std::uint32_t>(pin + 1)) *
             2 +
         (sa1 ? 1u : 0u);
}

/// Per-net structural constants: -1 unknown, else 0/1. Constants propagate
/// through gates whose fanins are all constant (TIELO/TIEHI trees).
std::vector<int> ConstantNets(const Netlist& nl) {
  std::vector<int> cval(nl.gate_count(), -1);
  for (NetId id = 0; id < nl.gate_count(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kConst0) {
      cval[id] = 0;
    } else if (g.type == CellType::kConst1) {
      cval[id] = 1;
    } else if (netlist::IsCombinational(g.type) && g.fanin_count() > 0) {
      std::uint64_t in[kMaxFanin];
      bool all_known = true;
      for (int i = 0; i < g.fanin_count(); ++i) {
        const int c = cval[g.fanin[i]];
        if (c < 0) {
          all_known = false;
          break;
        }
        in[i] = c != 0 ? ~0ull : 0ull;
      }
      if (all_known) cval[id] = (netlist::EvalCell(g.type, in) & 1) != 0;
    }
  }
  return cval;
}

/// Local truth-table sweep of gate `g` with pin `p` forced to `forced` and
/// structurally constant pins fixed: returns +1/-1 if the output is the
/// constant 1/0 across every free-pin assignment, else -2. With
/// `good_pin != -1`, only assignments are swept (pin p free at value
/// good_pin is not used here — see DominatedBy for the two-sided sweep).
int ForcedOutput(const Netlist& nl, const std::vector<int>& cval, NetId gate,
                 int pin, bool forced) {
  const Gate& g = nl.gate(gate);
  const int fc = g.fanin_count();
  int free_pins[kMaxFanin];
  int num_free = 0;
  std::uint64_t in[kMaxFanin];
  for (int q = 0; q < fc; ++q) {
    const int c = cval[g.fanin[q]];
    if (q == pin) {
      in[q] = forced ? ~0ull : 0ull;
    } else if (c >= 0) {
      in[q] = c != 0 ? ~0ull : 0ull;
    } else {
      free_pins[num_free++] = q;
      in[q] = 0;
    }
  }
  bool can0 = false;
  bool can1 = false;
  for (int m = 0; m < (1 << num_free); ++m) {
    for (int k = 0; k < num_free; ++k) {
      in[free_pins[k]] = ((m >> k) & 1) != 0 ? ~0ull : 0ull;
    }
    if ((netlist::EvalCell(g.type, in) & 1) != 0) {
      can1 = true;
    } else {
      can0 = true;
    }
    if (can0 && can1) return -2;
  }
  return can1 ? 1 : 0;
}

/// True when output fault (gate, out, SA `out_sa1`) dominates input fault
/// (gate, pin, SA `sa1`): every local test of the input fault flips the
/// gate output to `out_sa1`. Vacuously false for locally untestable input
/// faults (no edge to count).
bool DominatedBy(const Netlist& nl, const std::vector<int>& cval, NetId gate,
                 int pin, bool sa1, bool* out_sa1) {
  const Gate& g = nl.gate(gate);
  const int fc = g.fanin_count();
  const int src_const = cval[g.fanin[pin]];
  // Good value at the pin must be the complement of the stuck value for the
  // fault to activate; a same-valued constant makes it untestable.
  if (src_const >= 0 && (src_const != 0) == sa1) return false;
  int free_pins[kMaxFanin];
  int num_free = 0;
  std::uint64_t in[kMaxFanin];
  for (int q = 0; q < fc; ++q) {
    const int c = cval[g.fanin[q]];
    if (q == pin) {
      continue;
    } else if (c >= 0) {
      in[q] = c != 0 ? ~0ull : 0ull;
    } else {
      free_pins[num_free++] = q;
    }
  }
  bool any_flip = false;
  bool faulty_value = false;
  for (int m = 0; m < (1 << num_free); ++m) {
    for (int k = 0; k < num_free; ++k) {
      in[free_pins[k]] = ((m >> k) & 1) != 0 ? ~0ull : 0ull;
    }
    in[pin] = sa1 ? 0ull : ~0ull;  // good (activating) pin value
    const bool good = (netlist::EvalCell(g.type, in) & 1) != 0;
    in[pin] = sa1 ? ~0ull : 0ull;  // stuck pin value
    const bool faulty = (netlist::EvalCell(g.type, in) & 1) != 0;
    if (good == faulty) continue;  // not a local test
    if (any_flip && faulty != faulty_value) return false;
    any_flip = true;
    faulty_value = faulty;
  }
  if (!any_flip) return false;
  *out_sa1 = faulty_value;
  return true;
}

}  // namespace

double CollapseStats::reduction_percent() const {
  if (num_faults == 0) return 0.0;
  return 100.0 *
         (1.0 - static_cast<double>(num_classes) /
                    static_cast<double>(num_faults));
}

CollapseStats FaultCollapse::Stats() const {
  return CollapseStats{num_faults, num_classes(), dominance_edges};
}

FaultCollapse BuildFaultCollapse(const Netlist& nl,
                                 const std::vector<Fault>& faults) {
  GPUSTL_ASSERT(nl.frozen(), "collapsing requires a frozen netlist");

  const std::size_t n = nl.gate_count();
  const std::vector<int> cval = ConstantNets(nl);
  std::vector<bool> is_output(n, false);
  for (NetId o : nl.outputs()) is_output[o] = true;

  UnionFind uf(n * (kMaxFanin + 1) * 2);
  for (NetId gate = 0; gate < n; ++gate) {
    const Gate& g = nl.gate(gate);
    if (!netlist::IsCombinational(g.type)) continue;
    for (int pin = 0; pin < g.fanin_count(); ++pin) {
      const NetId src = g.fanin[pin];
      const bool single_branch = nl.fanout(src).size() == 1 && !is_output[src];
      for (const bool sa1 : {false, true}) {
        const int forced = ForcedOutput(nl, cval, gate, pin, sa1);
        if (forced >= 0) {
          uf.Unite(SiteId(gate, pin, sa1),
                   SiteId(gate, Fault::kOutputPin, forced != 0));
        }
        if (single_branch) {
          uf.Unite(SiteId(src, Fault::kOutputPin, sa1),
                   SiteId(gate, pin, sa1));
        }
      }
    }
  }

  FaultCollapse out;
  out.num_faults = faults.size();

  // Group list faults by root, classes ordered by leader fault id. A stable
  // sort of (root, fault id) pairs gives both orderings at once.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keyed;
  keyed.reserve(faults.size());
  std::vector<std::uint32_t> root_of(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    root_of[i] = uf.Find(SiteId(f.gate, f.pin, f.sa1));
    keyed.emplace_back(root_of[i], i);
  }
  std::sort(keyed.begin(), keyed.end());
  // Classes in first-member order: remap roots to the smallest fault id
  // seen for that root, then sort by (leader, member).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_leader;
  by_leader.reserve(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    std::uint32_t leader = keyed[i].second;
    std::size_t j = i;
    while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
    for (std::size_t k = i; k < j; ++k) {
      by_leader.emplace_back(leader, keyed[k].second);
    }
    i = j - 1;
  }
  std::sort(by_leader.begin(), by_leader.end());
  out.class_offsets.push_back(0);
  out.members.reserve(by_leader.size());
  for (std::size_t i = 0; i < by_leader.size(); ++i) {
    out.members.push_back(by_leader[i].second);
    if (i + 1 == by_leader.size() ||
        by_leader[i + 1].first != by_leader[i].first) {
      out.class_offsets.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }

  // Dominance edges among list faults: input fault -> dominating output
  // fault, skipping pairs the equivalence pass already merged.
  std::vector<std::uint8_t> in_list(n * (kMaxFanin + 1) * 2, 0);
  for (const Fault& f : faults) in_list[SiteId(f.gate, f.pin, f.sa1)] = 1;
  for (const Fault& f : faults) {
    if (f.pin == Fault::kOutputPin) continue;
    bool out_sa1 = false;
    if (!DominatedBy(nl, cval, f.gate, f.pin, f.sa1, &out_sa1)) continue;
    const std::uint32_t dominator = SiteId(f.gate, Fault::kOutputPin, out_sa1);
    if (!in_list[dominator]) continue;
    if (uf.Find(dominator) == uf.Find(SiteId(f.gate, f.pin, f.sa1))) continue;
    ++out.dominance_edges;
  }
  return out;
}

FfrClassGroups GroupClassesByFfr(const Netlist& nl,
                                 const std::vector<Fault>& faults,
                                 std::span<const std::uint32_t> class_offsets,
                                 std::span<const std::uint32_t> class_members) {
  GPUSTL_ASSERT(nl.frozen(), "FFR grouping requires a frozen netlist");
  const std::size_t num_classes =
      class_offsets.empty() ? 0 : class_offsets.size() - 1;

  // (stem, class) pairs; sorting buckets the classes per stem while class
  // indices stay ascending within a bucket (they are unique).
  std::vector<std::pair<NetId, std::uint32_t>> keyed;
  keyed.reserve(num_classes);
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    const NetId stem = nl.stem_of(faults[class_members[class_offsets[c]]].gate);
    for (std::uint32_t m = class_offsets[c] + 1; m < class_offsets[c + 1];
         ++m) {
      GPUSTL_ASSERT(nl.stem_of(faults[class_members[m]].gate) == stem,
                    "equivalence class straddles fanout-free regions");
    }
    keyed.emplace_back(stem, c);
  }
  std::sort(keyed.begin(), keyed.end());

  FfrClassGroups out;
  out.group_offsets.push_back(0);
  out.classes.reserve(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    out.classes.push_back(keyed[i].second);
    if (i + 1 == keyed.size() || keyed[i + 1].first != keyed[i].first) {
      out.stems.push_back(keyed[i].first);
      out.ffrs.push_back(nl.ffr_of(keyed[i].first));
      out.group_offsets.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }
  return out;
}

}  // namespace gpustl::fault
