#include "trace/histogram.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/strutil.h"

namespace gpustl::trace {

void OpcodeHistogram::OnDecode(const gpu::DecodeEvent& event) {
  ++issues_[static_cast<std::size_t>(event.inst.op)];
}

void OpcodeHistogram::OnWarp(const gpu::WarpEvent& event) {
  lanes_[static_cast<std::size_t>(event.inst.op)] +=
      static_cast<std::uint64_t>(std::popcount(event.exec_mask));
}

std::uint64_t OpcodeHistogram::unit_issues(isa::ExecUnit unit) const {
  std::uint64_t total = 0;
  for (int k = 0; k < isa::kNumOpcodes; ++k) {
    if (isa::GetOpcodeInfo(static_cast<isa::Opcode>(k)).unit == unit) {
      total += issues_[static_cast<std::size_t>(k)];
    }
  }
  return total;
}

std::uint64_t OpcodeHistogram::total_issues() const {
  std::uint64_t total = 0;
  for (const auto v : issues_) total += v;
  return total;
}

std::string OpcodeHistogram::Render() const {
  std::vector<int> order;
  for (int k = 0; k < isa::kNumOpcodes; ++k) {
    if (issues_[static_cast<std::size_t>(k)] != 0) order.push_back(k);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return issues_[static_cast<std::size_t>(a)] >
           issues_[static_cast<std::size_t>(b)];
  });
  std::string out;
  for (int k : order) {
    out += ::gpustl::Format(
        "%-8s issues %8llu  lanes %10llu\n",
        std::string(isa::GetOpcodeInfo(static_cast<isa::Opcode>(k)).mnemonic)
            .c_str(),
        static_cast<unsigned long long>(issues_[static_cast<std::size_t>(k)]),
        static_cast<unsigned long long>(lanes_[static_cast<std::size_t>(k)]));
  }
  return out;
}

}  // namespace gpustl::trace
