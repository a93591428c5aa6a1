#include "fault/backend.h"

#include <string>

#include "common/error.h"
#include "fault/engine.h"

namespace gpustl::fault {

namespace {

/// True when the 8-lane translation unit is in this binary and the CPU
/// runs it. __builtin_cpu_supports is a GCC/Clang builtin that reads CPUID
/// once at startup; AVX-512 is an x86 instruction set.
bool Avx512Runs() {
#if defined(GPUSTL_HAVE_AVX512) && \
    (defined(__GNUC__) || defined(__clang__)) &&        \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

}  // namespace

std::string_view BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kWide: return "wide";
    case Backend::kAvx512: return "avx512";
  }
  return "wide";
}

Backend ResolveBackend(Backend /*requested*/) {
  return Avx512Runs() ? Backend::kAvx512 : Backend::kWide;
}

namespace internal {

int PickLanes(std::size_t patterns) {
  if (patterns <= 64) return 1;
  return Avx512Runs() ? 8 : 4;
}

std::vector<int> SupportedLanes() {
  std::vector<int> lanes{1, 4};
  if (Avx512Runs()) lanes.push_back(8);
  return lanes;
}

LaneKernels KernelsAt(int lanes) {
  switch (lanes) {
    case 1:
    case 4:
      return PortableKernels(lanes);
#if defined(GPUSTL_HAVE_AVX512)
    case 8:
      if (Avx512Runs()) return Avx512Kernels();
      break;
#endif
    default:
      break;
  }
  throw SimError("no " + std::to_string(lanes) +
                 "-lane fault-sim engine runs on this machine");
}

}  // namespace internal

}  // namespace gpustl::fault
