#pragma once
// Runtime-dispatched SIMD primitives for the bit-plane fault-simulation
// kernels (sim/packed_ram.hpp).
//
// The packed march kernels reduce every bulk march op to two masked
// 64-bit word-stream operations: a masked pattern store and a masked
// pattern compare. Both are pure integer transforms, so the AVX2 lanes
// are *bit-identical* to the scalar loop by construction — vectorization
// changes only the wall clock, never a result. That property is what
// lets the packed yield engine keep the repo's determinism contract,
// and tests/test_simd_equivalence.cpp enforces it directly.
//
// Dispatch is resolved per call from the active level:
//   * detected_simd_level() — what the CPU supports (cpuid);
//   * the BISRAM_SIMD environment variable ("scalar" forces the fallback
//     on capable hosts — the operator's knob, mirroring BISRAM_THREADS);
//   * set_simd_level() — programmatic override for tests and benches.
// The scalar fallback is always legal, so the suite passes unchanged on
// hosts without AVX2.

#include <cstddef>
#include <cstdint>

namespace bisram {

enum class SimdLevel : std::uint8_t {
  Scalar,  ///< portable word-at-a-time loop (always available)
  Avx2,    ///< 256-bit lanes, 4 plane words per instruction
};

/// "scalar" or "avx2".
const char* simd_level_name(SimdLevel level);

/// The widest level this CPU can execute.
SimdLevel detected_simd_level();

/// The level the kernels dispatch on: the programmatic override when set,
/// else BISRAM_SIMD when set to a valid level, else detected_simd_level().
/// Requests above the detected level degrade to Scalar rather than fault.
SimdLevel active_simd_level();

/// Programmatic override for active_simd_level() (tests, benchmarks).
/// Returns the previous active level. Pass clear_simd_level() semantics by
/// calling with the detected level; requesting Avx2 on a host without it
/// throws SpecError so a forced-SIMD test cannot silently run scalar.
SimdLevel set_simd_level(SimdLevel level);

/// Removes the programmatic override (environment/detection rule again).
void clear_simd_level();

namespace simd {

/// dst[i] = (dst[i] & ~mask[i]) | (pattern[i] & mask[i]) for i in [0, n):
/// the masked bulk-write splat of the packed march kernel.
void masked_assign(std::uint64_t* dst, const std::uint64_t* pattern,
                   const std::uint64_t* mask, std::size_t n);

/// OR over i of (a[i] ^ pattern[i]) & mask[i] — zero means every bulk
/// cell matches the pattern (the masked bulk-read compare).
std::uint64_t masked_diff(const std::uint64_t* a, const std::uint64_t* pattern,
                          const std::uint64_t* mask, std::size_t n);

}  // namespace simd

}  // namespace bisram
