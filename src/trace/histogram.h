// Per-opcode execution statistics: a lightweight monitor used to describe
// PTP composition (how many issues/lanes per opcode and per execution
// unit) in reports and benches.
#pragma once

#include <array>
#include <string>

#include "gpu/monitor.h"
#include "isa/opcode.h"

namespace gpustl::trace {

/// Counts decode events (warp-instruction issues) and lane executions per
/// opcode over one or more runs.
class OpcodeHistogram : public gpu::ExecMonitor {
 public:
  void OnDecode(const gpu::DecodeEvent& event) override;
  void OnWarp(const gpu::WarpEvent& event) override;

  std::uint64_t issues(isa::Opcode op) const {
    return issues_[static_cast<std::size_t>(op)];
  }
  std::uint64_t lanes(isa::Opcode op) const {
    return lanes_[static_cast<std::size_t>(op)];
  }

  /// Total issues per execution unit (SP-int, FP32, SFU, MEM, control).
  std::uint64_t unit_issues(isa::ExecUnit unit) const;

  std::uint64_t total_issues() const;

  /// Renders the nonzero rows, most-issued first.
  std::string Render() const;

 private:
  std::array<std::uint64_t, isa::kNumOpcodes> issues_{};
  std::array<std::uint64_t, isa::kNumOpcodes> lanes_{};
};

}  // namespace gpustl::trace
