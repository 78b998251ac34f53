#include "util/simd.hpp"

#include "util/error.hpp"

namespace bisram {

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar:
      return "scalar";
    case SimdLevel::Avx2:
      return "avx2";
  }
  throw InternalError("simd_level_name: unknown SimdLevel");
}

SimdLevel detected_simd_level() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2 ? SimdLevel::Avx2 : SimdLevel::Scalar;
#else
  return SimdLevel::Scalar;
#endif
}

SimdLevel active_simd_level() { return detected_simd_level(); }

}  // namespace bisram
