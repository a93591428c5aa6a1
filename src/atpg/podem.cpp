#include "atpg/podem.h"

#include <algorithm>

#include "common/error.h"
#include "fault/collapse.h"

namespace gpustl::atpg {

using fault::Fault;
using netlist::CellType;
using netlist::Gate;
using netlist::kMaxFanin;
using netlist::NetId;
using netlist::Netlist;

namespace {

constexpr std::uint8_t kV0 = 0;
constexpr std::uint8_t kV1 = 1;
constexpr std::uint8_t kVX = 2;

/// 3-valued cell evaluation by completion enumeration: every X input is
/// expanded both ways; if all completions agree the output is defined.
/// Cells have at most 4 inputs, so at most 16 completions.
std::uint8_t Eval3(CellType type, const std::uint8_t* in, int n) {
  // Fast path: fully-defined inputs evaluate with one table lookup.
  // Otherwise X inputs are expanded both ways in a single bit-parallel
  // EvalCell call: each X input contributes its two completions on
  // different word bits (2^x <= 16 completions, packed into one word).
  int x_pos[kMaxFanin];
  int x_count = 0;
  std::uint64_t words[kMaxFanin];
  for (int i = 0; i < n; ++i) {
    if (in[i] == kVX) {
      x_pos[x_count++] = i;
      words[i] = 0;
    } else {
      words[i] = in[i] == kV1 ? ~0ull : 0ull;
    }
  }
  if (x_count == 0) {
    return static_cast<std::uint8_t>(netlist::EvalCell(type, words) & 1);
  }
  const int combos = 1 << x_count;
  // Lane c carries completion c: X input k reads bit k of c.
  for (int k = 0; k < x_count; ++k) {
    std::uint64_t lane_bits = 0;
    for (int c = 0; c < combos; ++c) {
      if ((c >> k) & 1) lane_bits |= 1ull << c;
    }
    // Defined inputs already replicate across all lanes (0 or ~0).
    words[x_pos[k]] = lane_bits;
  }
  const std::uint64_t out = netlist::EvalCell(type, words);
  const std::uint64_t mask = combos >= 64 ? ~0ull : ((1ull << combos) - 1);
  const std::uint64_t seen = out & mask;
  if (seen == 0) return kV0;
  if (seen == mask) return kV1;
  return kVX;
}

/// Controlling value / inversion per cell type for the backtrace heuristic.
/// Returns false when the cell has no single controlling value.
bool ControllingValue(CellType type, std::uint8_t* c, bool* inv) {
  switch (type) {
    case CellType::kAnd2: case CellType::kAnd3: case CellType::kAnd4:
      *c = kV0; *inv = false; return true;
    case CellType::kNand2: case CellType::kNand3: case CellType::kNand4:
      *c = kV0; *inv = true; return true;
    case CellType::kOr2: case CellType::kOr3: case CellType::kOr4:
      *c = kV1; *inv = false; return true;
    case CellType::kNor2: case CellType::kNor3: case CellType::kNor4:
      *c = kV1; *inv = true; return true;
    case CellType::kBuf:
      *c = kVX; *inv = false; return true;
    case CellType::kInv:
      *c = kVX; *inv = true; return true;
    default:
      return false;
  }
}

bool IsInverting(CellType type) {
  switch (type) {
    case CellType::kInv:
    case CellType::kNand2: case CellType::kNand3: case CellType::kNand4:
    case CellType::kNor2: case CellType::kNor3: case CellType::kNor4:
    case CellType::kXnor2:
    case CellType::kAoi21: case CellType::kAoi22:
    case CellType::kOai21: case CellType::kOai22:
      return true;
    default:
      return false;
  }
}

/// PODEM over one netlist with event-driven 3-valued implication.
///
/// Invariant: at every search node `good_` and `faulty_` hold exactly what
/// a full 3-valued re-simulation of the current PI assignment would give
/// (faulty with the fault forced at its site). A decision only re-evaluates
/// the gates it reaches: a changed PI pushes its fanout into level buckets,
/// the buckets drain in ascending level, and a gate pushes its own fanout
/// only when its good or faulty value changed. Because every gate is
/// evaluated after all of its fanins (levels strictly increase along an
/// edge), the drained state is the unique fixpoint the full pass computes.
///
/// One engine serves a whole run: the all-X start state does not depend on
/// the fault, so it is computed once in the constructor (the only full
/// pass) and every fault starts from a copy of it. All buffers are sized to
/// the netlist up front and reused across faults.
class PodemEngine {
 public:
  explicit PodemEngine(const Netlist& nl) : nl_(nl) {
    GPUSTL_ASSERT(nl.frozen(), "ATPG requires a frozen netlist");
    GPUSTL_ASSERT(nl.dffs().empty(),
                  "ATPG supports combinational modules only");
    const std::size_t n = nl.gate_count();
    baseline_.assign(n, kVX);
    std::uint8_t in[kMaxFanin];
    for (NetId id : nl.topo_order()) {
      const Gate& g = nl.gate(id);
      const int k = g.fanin_count();
      for (int i = 0; i < k; ++i) in[i] = baseline_[g.fanin[i]];
      baseline_[id] = Eval3(g.type, in, k);
    }
    good_.resize(n);
    faulty_.resize(n);
    assign_.assign(n, kVX);  // indexed by PI net id
    queued_.assign(n, 0);
    in_cone_.assign(n, 0);
    cone_.reserve(n);

    // One bucket per level, each as large as the level: a gate is queued
    // at most once per drain, so no bucket can overflow.
    const std::uint32_t levels = nl.max_level() + 1;
    bucket_offset_.assign(levels + 1, 0);
    for (NetId id = 0; id < n; ++id) ++bucket_offset_[nl.levels()[id] + 1];
    for (std::uint32_t l = 0; l < levels; ++l) {
      bucket_offset_[l + 1] += bucket_offset_[l];
    }
    bucket_fill_.assign(levels, 0);
    bucket_slots_.resize(n);
    lo_level_ = levels;
  }

  AtpgResult Generate(const Fault& f, const AtpgOptions& options) {
    Reset(f, options.backtrack_limit);
    const bool found = Search();
    AtpgResult result;
    result.assignment.assign(nl_.num_inputs(), kVX);
    for (std::size_t i = 0; i < nl_.num_inputs(); ++i) {
      result.assignment[i] = assign_[nl_.inputs()[i]];
    }
    if (found) {
      result.status = AtpgStatus::kDetected;
    } else {
      result.status = aborted_ ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
    }
    return result;
  }

 private:
  /// Restores the all-X state for fault `f`: copies the baseline, forces
  /// the fault site and implies it, and builds the fault's cone.
  void Reset(const Fault& f, int backtrack_limit) {
    fault_ = f;
    backtrack_limit_ = backtrack_limit;
    forced_ = f.sa1 ? kV1 : kV0;
    backtracks_ = 0;
    aborted_ = false;
    std::copy(baseline_.begin(), baseline_.end(), good_.begin());
    std::copy(baseline_.begin(), baseline_.end(), faulty_.begin());
    for (NetId pi : nl_.inputs()) assign_[pi] = kVX;
    BuildCone();
    if (nl_.gate(f.gate).type == CellType::kInput) {
      faulty_[f.gate] = forced_;  // its good value is X
      PushFanout(f.gate);
    } else {
      Push(f.gate);
    }
    Drain();
  }

  /// The faulted gate's transitive fanout, ascending by id (the topological
  /// order): the only gates whose faulty value can differ from the good one.
  void BuildCone() {
    for (NetId id : cone_) in_cone_[id] = 0;
    cone_.clear();
    cone_.push_back(fault_.gate);
    in_cone_[fault_.gate] = 1;
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      for (NetId fo : nl_.fanout(cone_[i])) {
        if (in_cone_[fo]) continue;
        in_cone_[fo] = 1;
        cone_.push_back(fo);
      }
    }
    std::sort(cone_.begin(), cone_.end());
  }

  void Push(NetId id) {
    if (queued_[id]) return;
    queued_[id] = 1;
    const std::uint32_t level = nl_.levels()[id];
    bucket_slots_[bucket_offset_[level] + bucket_fill_[level]++] = id;
    lo_level_ = std::min(lo_level_, level);
    hi_level_ = std::max(hi_level_, level);
  }

  void PushFanout(NetId id) {
    for (NetId fo : nl_.fanout(id)) Push(fo);
  }

  /// Evaluates queued gates in ascending level until no value changes.
  void Drain() {
    for (std::uint32_t level = lo_level_; level <= hi_level_; ++level) {
      const std::uint32_t base = bucket_offset_[level];
      for (std::uint32_t i = 0; i < bucket_fill_[level]; ++i) {
        const NetId id = bucket_slots_[base + i];
        queued_[id] = 0;
        Evaluate(id);
      }
      bucket_fill_[level] = 0;
    }
    lo_level_ = static_cast<std::uint32_t>(bucket_fill_.size());
    hi_level_ = 0;
  }

  /// Re-evaluates one gate's good and faulty value (the fault forced
  /// exactly as a full pass forces it) and queues its fanout on a change.
  void Evaluate(NetId id) {
    const Gate& g = nl_.gate(id);
    const int n = g.fanin_count();
    std::uint8_t in[kMaxFanin];
    for (int i = 0; i < n; ++i) in[i] = good_[g.fanin[i]];
    const std::uint8_t good = Eval3(g.type, in, n);
    std::uint8_t faulty = good;  // outside the cone the machines agree
    if (in_cone_[id]) {
      for (int i = 0; i < n; ++i) {
        in[i] = (id == fault_.gate && i == fault_.pin) ? forced_
                                                       : faulty_[g.fanin[i]];
      }
      faulty = Eval3(g.type, in, n);
      if (id == fault_.gate && fault_.pin == Fault::kOutputPin) {
        faulty = forced_;
      }
    }
    if (good == good_[id] && faulty == faulty_[id]) return;
    good_[id] = good;
    faulty_[id] = faulty;
    PushFanout(id);
  }

  /// Assigns (or, with kVX, unassigns) a primary input and implies it.
  void SetInput(NetId pi, std::uint8_t value) {
    assign_[pi] = value;
    const std::uint8_t faulty =
        pi == fault_.gate && fault_.pin == Fault::kOutputPin ? forced_ : value;
    if (value == good_[pi] && faulty == faulty_[pi]) return;
    good_[pi] = value;
    faulty_[pi] = faulty;
    PushFanout(pi);
    Drain();
  }

  bool Detected() const {
    for (NetId o : nl_.outputs()) {
      if (good_[o] != kVX && faulty_[o] != kVX && good_[o] != faulty_[o]) {
        return true;
      }
    }
    return false;
  }

  /// The net whose good value must become ~sa for the fault to activate.
  NetId SiteNet() const {
    return fault_.pin == Fault::kOutputPin
               ? fault_.gate
               : nl_.gate(fault_.gate).fanin[fault_.pin];
  }

  /// Finds the next objective (net, value). Returns false if the search
  /// space at this node is exhausted (no D-frontier / activation conflict).
  bool Objective(NetId* net, std::uint8_t* value) const {
    const NetId site = SiteNet();
    const std::uint8_t want = fault_.sa1 ? kV0 : kV1;
    if (good_[site] == kVX) {
      *net = site;
      *value = want;
      return true;
    }
    if (good_[site] != want) return false;  // activation conflict

    // For an input-pin fault the D exists only at the faulted pin and never
    // appears as a net difference, so the faulted gate itself is the first
    // D-frontier member while its output is still undefined.
    if (fault_.pin != Fault::kOutputPin &&
        (good_[fault_.gate] == kVX || faulty_[fault_.gate] == kVX)) {
      const Gate& g = nl_.gate(fault_.gate);
      std::uint8_t c;
      bool inv;
      std::uint8_t obj_value = kV1;
      if (ControllingValue(g.type, &c, &inv) && c != kVX) {
        obj_value = c == kV0 ? kV1 : kV0;
      }
      for (int i = 0; i < g.fanin_count(); ++i) {
        if (i != fault_.pin && good_[g.fanin[i]] == kVX) {
          *net = g.fanin[i];
          *value = obj_value;
          return true;
        }
      }
    }

    // D-frontier: a gate with a D on some input and an undefined output.
    // A D exists only inside the fault's cone, so scanning the cone in
    // topological order finds the same first gate as scanning the netlist.
    for (NetId id : cone_) {
      if (good_[id] != kVX && faulty_[id] != kVX) continue;
      const Gate& g = nl_.gate(id);
      bool has_d = false;
      for (int i = 0; i < g.fanin_count(); ++i) {
        const NetId f = g.fanin[i];
        if (good_[f] != kVX && faulty_[f] != kVX && good_[f] != faulty_[f]) {
          has_d = true;
          break;
        }
      }
      if (!has_d) continue;
      // Objective: set an X input to the non-controlling value.
      std::uint8_t c;
      bool inv;
      std::uint8_t obj_value = kV1;
      if (ControllingValue(g.type, &c, &inv) && c != kVX) {
        obj_value = c == kV0 ? kV1 : kV0;  // non-controlling
      }
      for (int i = 0; i < g.fanin_count(); ++i) {
        if (good_[g.fanin[i]] == kVX) {
          *net = g.fanin[i];
          *value = obj_value;
          return true;
        }
      }
    }
    return false;
  }

  /// Maps an objective to an unassigned PI. Returns false on a dead end.
  bool Backtrace(NetId net, std::uint8_t value, NetId* pi,
                 std::uint8_t* pi_value) const {
    while (true) {
      const Gate& g = nl_.gate(net);
      if (g.type == CellType::kInput) {
        if (assign_[net] != kVX) return false;
        *pi = net;
        *pi_value = value;
        return true;
      }
      if (g.fanin_count() == 0) return false;  // constant: no path

      std::uint8_t c;
      bool inv;
      std::uint8_t next_value;
      if (ControllingValue(g.type, &c, &inv) && c != kVX) {
        const std::uint8_t v = inv ? (value == kV1 ? kV0 : kV1) : value;
        next_value = v == c ? c : (c == kV0 ? kV1 : kV0);
      } else {
        next_value = IsInverting(g.type) ? (value == kV1 ? kV0 : kV1) : value;
      }

      NetId next = netlist::kNoNet;
      for (int i = 0; i < g.fanin_count(); ++i) {
        if (good_[g.fanin[i]] == kVX) {
          next = g.fanin[i];
          break;
        }
      }
      if (next == netlist::kNoNet) return false;
      net = next;
      value = next_value;
    }
  }

  bool Search() {
    if (Detected()) return true;
    if (aborted_) return false;

    NetId obj_net;
    std::uint8_t obj_value;
    if (!Objective(&obj_net, &obj_value)) return false;

    NetId pi;
    std::uint8_t pi_value;
    if (!Backtrace(obj_net, obj_value, &pi, &pi_value)) return false;

    for (int attempt = 0; attempt < 2; ++attempt) {
      SetInput(pi, attempt == 0 ? pi_value : (pi_value == kV1 ? kV0 : kV1));
      if (Search()) return true;
      if (aborted_) break;
      if (++backtracks_ > backtrack_limit_) {
        aborted_ = true;
        break;
      }
    }
    SetInput(pi, kVX);
    return false;
  }

  const Netlist& nl_;
  std::vector<std::uint8_t> baseline_;  // good == faulty, every PI at X
  std::vector<std::uint8_t> good_, faulty_, assign_;

  // Level buckets: bucket l is bucket_slots_[bucket_offset_[l] ..
  // + bucket_fill_[l]); lo/hi bound the levels holding queued gates.
  std::vector<std::uint32_t> bucket_offset_, bucket_fill_;
  std::vector<NetId> bucket_slots_;
  std::vector<std::uint8_t> queued_;
  std::uint32_t lo_level_ = 0, hi_level_ = 0;

  std::vector<NetId> cone_;           // the fault's cone, ascending
  std::vector<std::uint8_t> in_cone_;

  // The fault being searched.
  Fault fault_;
  std::uint8_t forced_ = kV0;
  int backtrack_limit_ = 0;
  int backtracks_ = 0;
  bool aborted_ = false;
};

}  // namespace

AtpgResult GeneratePattern(const Netlist& nl, const Fault& f,
                           const AtpgOptions& options) {
  return PodemEngine(nl).Generate(f, options);
}

AtpgRunResult GeneratePatternSet(const Netlist& nl,
                                 const std::vector<Fault>& faults, Rng rng,
                                 const AtpgOptions& options) {
  AtpgRunResult run;
  const int width = static_cast<int>(nl.num_inputs());
  run.patterns = netlist::PatternSet(width);

  BitVec covered(faults.size(), false);
  BitVec gave_up(faults.size(), false);  // aborted or over budget
  const std::size_t wpp = run.patterns.words_per_pattern();
  std::vector<std::uint64_t> row(wpp);

  auto fixup = [&](std::uint64_t* r) {
    if (options.pattern_fixup) options.pattern_fixup(r);
    if (width % 64 != 0) r[wpp - 1] &= (1ull << (width % 64)) - 1;
  };

  // Every batch simulates the same fault list: collapse it once.
  const fault::FaultCollapse collapse = fault::BuildFaultCollapse(nl, faults);
  const fault::FaultSimOptions sim_options{.drop_detected = true,
                                           .collapse_plan = &collapse};

  // Phase 1 (standard ATPG tool flow): random patterns with fault
  // dropping; only patterns that contribute first detections are kept.
  for (int remaining = options.random_phase_patterns; remaining > 0;) {
    const int count = std::min(remaining, 64);
    remaining -= count;
    netlist::PatternSet batch(width);
    for (int p = 0; p < count; ++p) {
      for (auto& w : row) w = rng();
      fixup(row.data());
      batch.Add(static_cast<std::uint64_t>(p), row.data());
    }
    const auto sim =
        fault::RunFaultSim(nl, batch, faults, &covered, sim_options);
    covered |= sim.detected_mask;
    for (std::size_t p = 0; p < batch.size(); ++p) {
      if (sim.detects_per_pattern[p] > 0) {
        run.patterns.Add(run.patterns.size(), batch.Row(p));
        ++run.random_patterns;
      }
    }
  }

  // Phase 2: PODEM per surviving fault, with collateral dropping through
  // periodic batch fault simulation. Coverage is confirmed strictly by the
  // fault simulator (the fixup may legitimately invalidate a pattern).
  netlist::PatternSet batch(width);
  auto flush_batch = [&] {
    if (batch.empty()) return;
    const auto sim =
        fault::RunFaultSim(nl, batch, faults, &covered, sim_options);
    covered |= sim.detected_mask;
    for (std::size_t p = 0; p < batch.size(); ++p) {
      run.patterns.Add(run.patterns.size(), batch.Row(p));
      ++run.deterministic_patterns;
    }
    batch = netlist::PatternSet(width);
  };

  PodemEngine engine(nl);
  std::size_t attempts = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (covered.Get(fi)) continue;
    if (options.deterministic_fault_budget != 0 &&
        attempts >= options.deterministic_fault_budget) {
      gave_up.Set(fi, true);  // out of budget: left to collateral detection
      continue;
    }
    ++attempts;
    const AtpgResult res = engine.Generate(faults[fi], options);
    switch (res.status) {
      case AtpgStatus::kUntestable:
        ++run.untestable;
        continue;
      case AtpgStatus::kAborted:
        gave_up.Set(fi, true);
        continue;
      case AtpgStatus::kDetected:
        break;
    }
    std::fill(row.begin(), row.end(), 0);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      const std::uint8_t v = res.assignment[i];
      const bool bit = v == kVX ? rng.chance(0.5) : v == kV1;
      if (bit) row[i / 64] |= 1ull << (i % 64);
    }
    fixup(row.data());
    batch.Add(batch.size(), row.data());
    if (batch.size() == 64) flush_batch();
  }
  flush_batch();

  run.detected = covered.Count();
  // A fault PODEM gave up on may still fall to a later batch: only the
  // ones left uncovered count as aborted.
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (gave_up.Get(fi) && !covered.Get(fi)) ++run.aborted;
  }
  return run;
}

}  // namespace gpustl::atpg
