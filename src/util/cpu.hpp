/// \file cpu.hpp
/// \brief Runtime CPU-capability detection and SIMD dispatch policy.
///
/// The Pareto kernels ship one scalar implementation (the oracle; it is
/// the pre-SIMD code, preserved verbatim) plus SSE2 and AVX2 batch
/// kernels compiled into separate translation units. Which one runs is a
/// process-global *policy level*, resolved as
///
///     active = override ?: env ?: detected
///
/// where every stage is clamped to what the hardware actually supports,
/// so requesting AVX2 on an SSE2-only machine degrades instead of
/// faulting. The scalar level is always available (including on non-x86
/// builds, where it is the only level).
///
/// Environment knob, read once on first use:
///   ADTP_SIMD=scalar|sse2|avx2|native   pin the dispatch level
///
/// Tests and benches use set_simd_override() / ScopedSimdOverride to
/// compare levels in-process; the override beats the environment.

#pragma once

namespace adtp {

/// Dispatch levels, ordered by capability. Values are contiguous so the
/// level doubles as an index into per-level tables.
enum class SimdLevel : int {
  Scalar = 0,  ///< portable scalar loops (the test oracle)
  Sse2 = 1,    ///< 2 x double lanes (x86-64 baseline)
  Avx2 = 2,    ///< 4 x double lanes
};

/// Raw feature bits, for diagnostics (bench_micro reports these).
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  bool avx512f = false;  ///< detected but unused; see ROADMAP
};

/// Queries the hardware (cached after the first call).
[[nodiscard]] CpuFeatures detect_cpu_features() noexcept;

/// Best level the hardware supports (ignores env and overrides).
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// True when \p level is at or below the detected level.
[[nodiscard]] bool simd_level_available(SimdLevel level) noexcept;

/// The level kernels dispatch on right now: the programmatic override if
/// set, else the ADTP_SIMD environment policy, else
/// the detected level; always clamped to the detected level.
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Pins the dispatch level process-wide (clamped to detected) until
/// clear_simd_override(). For tests and benches; thread-safe.
void set_simd_override(SimdLevel level) noexcept;

/// Reverts to the environment/detected policy.
void clear_simd_override() noexcept;

/// "scalar", "sse2", or "avx2".
[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

/// RAII form of set_simd_override() for test scopes.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(SimdLevel level) { set_simd_override(level); }
  ~ScopedSimdOverride() { clear_simd_override(); }
  ScopedSimdOverride(const ScopedSimdOverride&) = delete;
  ScopedSimdOverride& operator=(const ScopedSimdOverride&) = delete;
};

}  // namespace adtp
