#include "util/cpu.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace adtp {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
CpuFeatures query_features() noexcept {
  CpuFeatures f;
  f.sse2 = true;  // architectural baseline on x86-64
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return f;
}
#else
CpuFeatures query_features() noexcept { return CpuFeatures{}; }
#endif

SimdLevel clamp_to_detected(SimdLevel level) noexcept {
  const SimdLevel best = detected_simd_level();
  return static_cast<int>(level) > static_cast<int>(best) ? best : level;
}

/// ADTP_SIMD, parsed once. Returns the detected level when it is unset
/// or unrecognized ("native" is explicit for that default).
SimdLevel env_level() noexcept {
  static const SimdLevel cached = [] {
    const char* name = std::getenv("ADTP_SIMD");
    if (name == nullptr) return detected_simd_level();
    if (std::strcmp(name, "scalar") == 0) return SimdLevel::Scalar;
    if (std::strcmp(name, "sse2") == 0) {
      return clamp_to_detected(SimdLevel::Sse2);
    }
    if (std::strcmp(name, "avx2") == 0) {
      return clamp_to_detected(SimdLevel::Avx2);
    }
    return detected_simd_level();  // "native" and typos alike
  }();
  return cached;
}

/// -1 = no override, else a SimdLevel already clamped to detected.
std::atomic<int> g_override{-1};

}  // namespace

CpuFeatures detect_cpu_features() noexcept {
  static const CpuFeatures cached = query_features();
  return cached;
}

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel cached = [] {
    const CpuFeatures f = detect_cpu_features();
    if (f.avx2) return SimdLevel::Avx2;
    if (f.sse2) return SimdLevel::Sse2;
    return SimdLevel::Scalar;
  }();
  return cached;
}

bool simd_level_available(SimdLevel level) noexcept {
  return static_cast<int>(level) <=
         static_cast<int>(detected_simd_level());
}

SimdLevel active_simd_level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  return env_level();
}

void set_simd_override(SimdLevel level) noexcept {
  g_override.store(static_cast<int>(clamp_to_detected(level)),
                   std::memory_order_relaxed);
}

void clear_simd_override() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
}

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Sse2: return "sse2";
    case SimdLevel::Avx2: return "avx2";
  }
  return "scalar";
}

}  // namespace adtp
