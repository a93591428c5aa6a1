// The AVX-512 engine kernels: fault/engine_wide.h at 8 lanes (512 patterns
// per block) compiled with -mavx512f (see src/fault/CMakeLists.txt — the
// flag is per-source, so the rest of the library stays portable). The
// translation unit is only added to the build when the toolchain accepts
// the flag; the guard keeps a stray unconditional compile from emitting
// AVX-512 code into a portable binary. KernelsAt hands these out only when
// the CPU runs AVX-512F.
#if defined(GPUSTL_HAVE_AVX512)

#include "fault/engine_wide.h"

namespace gpustl::fault::internal {

LaneKernels Avx512Kernels() { return KernelsOf<8>(); }

}  // namespace gpustl::fault::internal

#endif  // GPUSTL_HAVE_AVX512
