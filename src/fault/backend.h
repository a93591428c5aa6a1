// The name of the engine width this machine runs.
//
// There is one PPSFP engine (fault/engine_wide.h), instantiated at three
// lane counts, and the code picks the width per run (internal::PickLanes
// in fault/engine.h): pattern sets that fit one 64-pattern block run at one
// lane, larger ones at 8 lanes where the binary has the -mavx512f
// translation unit and the CPU runs AVX-512F, else at 4 portable lanes.
// Every width produces the FaultSimResult of the independent reference
// simulator (tests/reference_sim.h), so the width never changes a report
// and nothing selects it from outside.
//
// What is left here only names the multi-block width for summaries and
// BENCH records: "avx512" (8 lanes) or "wide" (4 portable lanes).
#pragma once

#include <string_view>

namespace gpustl::fault {

enum class Backend {
  kAuto,    // "whatever this machine runs"; resolves to one of the below
  kWide,    // 4 portable lanes (256 patterns per block)
  kAvx512,  // 8 lanes under -mavx512f (512 patterns per block)
};

/// Stable token for summaries and BENCH records.
std::string_view BackendName(Backend backend);

/// The engine this machine runs pattern sets of more than one 64-pattern
/// block on: kAvx512 when the 8-lane translation unit was compiled in and
/// the CPU runs AVX-512F, else kWide. Nothing can be requested any more;
/// the argument is kept for callers that still name kAuto.
Backend ResolveBackend(Backend requested = Backend::kAuto);

}  // namespace gpustl::fault
