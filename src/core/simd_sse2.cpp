/// \file simd_sse2.cpp
/// \brief 2-lane (128-bit) instantiation of the SoA Pareto kernels.
///
/// SSE2 is architecturally guaranteed on x86-64, so this TU compiles
/// with the project's default flags; non-x86 targets get a nullptr
/// table and dispatch stays scalar.

#include "core/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "core/simd_kernels_impl.hpp"

namespace adtp {
namespace simd {
namespace {

struct PackSse2 {
  using V = __m128d;
  static constexpr int kWidth = 2;

  static V loadu(const double* p) { return _mm_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm_storeu_pd(p, v); }
  static V set1(double x) { return _mm_set1_pd(x); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }

  static V lt_vec(V a, V b) { return _mm_cmplt_pd(a, b); }
  static int lt_mask(V a, V b) { return _mm_movemask_pd(_mm_cmplt_pd(a, b)); }
  static int gt_mask(V a, V b) { return _mm_movemask_pd(_mm_cmpgt_pd(a, b)); }
  static int eq_mask(V a, V b) { return _mm_movemask_pd(_mm_cmpeq_pd(a, b)); }
  static int neq_mask(V a, V b) {
    return _mm_movemask_pd(_mm_cmpneq_pd(a, b));
  }

  /// m ? x : y per lane, m produced by a compare (all-ones / all-zeros).
  static V select(V m, V x, V y) {
    return _mm_or_pd(_mm_and_pd(m, x), _mm_andnot_pd(m, y));
  }

  /// [s, v0]: shifts the lanes up by one, feeding s into lane 0.
  static V shift_in(V v, double s) {
    return _mm_shuffle_pd(_mm_set_sd(s), v, 0);
  }

  /// Deinterleaves kWidth consecutive (def, att) pairs starting at p,
  /// preserving point order: def = [d0, d1], att = [a0, a1].
  static void load_pairs(const double* p, V* def, V* att) {
    const __m128d v0 = _mm_loadu_pd(p);      // d0 a0
    const __m128d v1 = _mm_loadu_pd(p + 2);  // d1 a1
    *def = _mm_unpacklo_pd(v0, v1);
    *att = _mm_unpackhi_pd(v0, v1);
  }
};

}  // namespace

const KernelTable* kernels_sse2() noexcept {
  static const KernelTable table = detail::make_kernel_table<PackSse2>();
  return &table;
}

}  // namespace simd
}  // namespace adtp

#else  // non-x86 targets

namespace adtp {
namespace simd {

const KernelTable* kernels_sse2() noexcept { return nullptr; }

}  // namespace simd
}  // namespace adtp

#endif
