// The portable engine kernels: fault/engine_wide.h at 1 lane (one 64-bit
// word, for pattern sets that fit one block) and 4 lanes, compiled without
// SIMD codegen flags, so they run on every CPU.
#include "fault/engine_wide.h"

namespace gpustl::fault::internal {

LaneKernels PortableKernels(int lanes) {
  GPUSTL_ASSERT(lanes == 1 || lanes == 4, "portable kernels run 1 or 4 lanes");
  return lanes == 1 ? KernelsOf<1>() : KernelsOf<4>();
}

}  // namespace gpustl::fault::internal
