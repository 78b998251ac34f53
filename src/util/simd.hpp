#pragma once
// Host SIMD report.
//
// No kernel in the library dispatches on the SIMD level any more: the
// packed BIST kernel (sim/packed_ram.hpp) keeps the bulk of the array
// symbolic and touches only the words that hold faults, so there is no
// array-sized stream left to vectorize. The level stays as a host
// description that benches print next to their timings.

#include <cstdint>

namespace bisram {

enum class SimdLevel : std::uint8_t {
  Scalar,  ///< no vector extension the library knows of
  Avx2,    ///< 256-bit AVX2 lanes
};

/// "scalar" or "avx2".
const char* simd_level_name(SimdLevel level);

/// The widest level this CPU can execute (cpuid).
SimdLevel detected_simd_level();

/// The level reported for this process: detected_simd_level().
SimdLevel active_simd_level();

}  // namespace bisram
