#include "reference_sim.h"

#include <cstdint>
#include <stdexcept>

#include "netlist/cell.h"

namespace gpustl::reference {
namespace {

using fault::Fault;
using fault::FaultSimResult;
using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// Topological order over every net (Kahn's algorithm over the fanins),
/// computed here rather than taken from the netlist.
std::vector<NetId> Levelize(const Netlist& nl) {
  const std::size_t n = nl.gate_count();
  std::vector<int> pending(n, 0);
  std::vector<std::vector<NetId>> users(n);
  for (NetId id = 0; id < n; ++id) {
    const netlist::Gate& g = nl.gate(id);
    if (g.type == CellType::kDff) {
      throw std::invalid_argument("reference sim: combinational netlists only");
    }
    for (int i = 0; i < g.fanin_count(); ++i) {
      users[g.fanin[i]].push_back(id);
      ++pending[id];
    }
  }
  std::vector<NetId> order;
  order.reserve(n);
  for (NetId id = 0; id < n; ++id) {
    if (pending[id] == 0) order.push_back(id);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const NetId u : users[order[k]]) {
      if (--pending[u] == 0) order.push_back(u);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument("reference sim: combinational loop");
  }
  return order;
}

/// One 64-pattern word of the pattern set: the value of every primary
/// input net (indexed by net id), and how many patterns it holds.
struct Word {
  int count = 0;
  std::vector<std::uint64_t> inputs;
};

std::vector<Word> SplitWords(const Netlist& nl, const PatternSet& patterns) {
  std::vector<Word> words;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    Word w;
    w.inputs.assign(nl.gate_count(), 0);
    for (std::size_t p = base; p < patterns.size() && p < base + 64; ++p) {
      const std::uint64_t* row = patterns.Row(p);
      for (std::size_t j = 0; j < nl.num_inputs(); ++j) {
        if ((row[j / 64] >> (j % 64)) & 1) {
          w.inputs[nl.inputs()[j]] |= 1ull << (p - base);
        }
      }
      ++w.count;
    }
    words.push_back(std::move(w));
  }
  return words;
}

/// Every net's value over one word, with `f` (null = good machine)
/// injected: an output fault overrides the net, a pin fault overrides what
/// that one pin of the gate sees.
std::vector<std::uint64_t> Evaluate(const Netlist& nl,
                                    const std::vector<NetId>& order,
                                    const Word& word, const Fault* f) {
  const std::uint64_t stuck = f != nullptr && f->sa1 ? ~0ull : 0ull;
  std::vector<std::uint64_t> value(nl.gate_count(), 0);
  for (const NetId id : order) {
    const netlist::Gate& g = nl.gate(id);
    std::uint64_t v;
    if (g.type == CellType::kInput) {
      v = word.inputs[id];
    } else {
      std::uint64_t in[netlist::kMaxFanin] = {};
      for (int i = 0; i < g.fanin_count(); ++i) {
        const bool forced = f != nullptr && f->gate == id && f->pin == i;
        in[i] = forced ? stuck : value[g.fanin[i]];
      }
      v = netlist::EvalCell(g.type, in);
    }
    if (f != nullptr && f->gate == id && f->pin == Fault::kOutputPin) {
      v = stuck;
    }
    value[id] = v;
  }
  return value;
}

}  // namespace

FaultSimResult Simulate(Model model, const Netlist& nl,
                        const PatternSet& patterns,
                        const std::vector<Fault>& faults, const BitVec* skip,
                        bool drop_detected) {
  const std::vector<NetId> order = Levelize(nl);
  const std::vector<Word> words = SplitWords(nl, patterns);
  std::vector<std::vector<std::uint64_t>> good;
  good.reserve(words.size());
  for (const Word& w : words) good.push_back(Evaluate(nl, order, w, nullptr));

  FaultSimResult r;
  r.first_detect.assign(faults.size(), FaultSimResult::kNotDetected);
  r.detects_per_pattern.assign(patterns.size(), 0);
  r.detected_mask.Resize(faults.size(), false);

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (skip != nullptr && skip->Get(fi)) continue;
    const Fault& f = faults[fi];
    const NetId site =
        f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
    bool site_before = false;  // good site value at the previous pattern
    for (std::size_t b = 0; b < words.size(); ++b) {
      const std::vector<std::uint64_t> bad =
          Evaluate(nl, order, words[b], &f);
      std::uint64_t detect = 0;
      for (const NetId o : nl.outputs()) detect |= bad[o] ^ good[b][o];
      for (int k = 0; k < words[b].count; ++k) {
        const std::size_t p = b * 64 + static_cast<std::size_t>(k);
        bool hit = (detect >> k) & 1;
        const bool site_now = (good[b][site] >> k) & 1;
        if (model == Model::kTransition) {
          // Launched: the previous pattern held the site at the stuck
          // (initial) value. Pattern 0 has no previous pattern.
          hit = hit && p > 0 && site_before == f.sa1;
        }
        site_before = site_now;
        if (!hit) continue;
        if (r.first_detect[fi] == FaultSimResult::kNotDetected) {
          r.first_detect[fi] = static_cast<std::uint32_t>(p);
          r.detected_mask.Set(fi, true);
          ++r.num_detected;
          ++r.detects_per_pattern[p];
          if (drop_detected) break;
        } else {
          ++r.detects_per_pattern[p];
        }
      }
      if (drop_detected && r.first_detect[fi] != FaultSimResult::kNotDetected) {
        break;
      }
    }
  }
  return r;
}

}  // namespace gpustl::reference
