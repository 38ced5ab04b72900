/// \file simd_avx2.cpp
/// \brief 4-lane (256-bit) instantiation of the SoA Pareto kernels.
///
/// This TU is compiled with -mavx2 (see CMakeLists.txt), so nothing in
/// it may run on a CPU without AVX2 - including the lazy table
/// initialization below. That is safe because simd.cpp only calls
/// kernels_avx2() when the *detected* level is Avx2 (env/overrides are
/// clamped to detection). Builds without AVX2 support in the compiler,
/// and non-x86 targets, get a nullptr table.

#include "core/simd.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__)

#include <immintrin.h>

#include "core/simd_kernels_impl.hpp"

namespace adtp {
namespace simd {
namespace {

struct PackAvx2 {
  using V = __m256d;
  static constexpr int kWidth = 4;

  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }

  static V lt_vec(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static V gt_vec(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static int lt_mask(V a, V b) { return _mm256_movemask_pd(lt_vec(a, b)); }
  static int gt_mask(V a, V b) { return _mm256_movemask_pd(gt_vec(a, b)); }
  static int eq_mask(V a, V b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_EQ_OQ));
  }
  // NEQ_UQ matches scalar != (true on unordered), as EQ_OQ matches ==.
  static int neq_mask(V a, V b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_NEQ_UQ));
  }

  /// m ? x : y per lane, m produced by a compare.
  static V select(V m, V x, V y) { return _mm256_blendv_pd(y, x, m); }

  /// [s, v0, v1, v2]: shifts the lanes up by one, feeding s into lane 0.
  static V shift_in(V v, double s) {
    const V up = _mm256_permute4x64_pd(v, _MM_SHUFFLE(2, 1, 0, 0));
    return _mm256_blend_pd(up, _mm256_set1_pd(s), 0x1);
  }

  /// Deinterleaves kWidth consecutive (def, att) pairs starting at p,
  /// preserving point order: def = [d0, d1, d2, d3], att likewise.
  static void load_pairs(const double* p, V* def, V* att) {
    const __m256d v0 = _mm256_loadu_pd(p);      // d0 a0 d1 a1
    const __m256d v1 = _mm256_loadu_pd(p + 4);  // d2 a2 d3 a3
    const __m256d lo = _mm256_unpacklo_pd(v0, v1);  // d0 d2 d1 d3
    const __m256d hi = _mm256_unpackhi_pd(v0, v1);  // a0 a2 a1 a3
    *def = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(3, 1, 2, 0));
    *att = _mm256_permute4x64_pd(hi, _MM_SHUFFLE(3, 1, 2, 0));
  }
};

}  // namespace

const KernelTable* kernels_avx2() noexcept {
  static const KernelTable table = detail::make_kernel_table<PackAvx2>();
  return &table;
}

}  // namespace simd
}  // namespace adtp

#else  // non-x86 targets, or a toolchain that cannot emit AVX2

namespace adtp {
namespace simd {

const KernelTable* kernels_avx2() noexcept { return nullptr; }

}  // namespace simd
}  // namespace adtp

#endif
