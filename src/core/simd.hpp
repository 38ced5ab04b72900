/// \file simd.hpp
/// \brief Batch Pareto kernels with runtime CPU dispatch.
///
/// The hot loops of every algorithm - staircase sweeps, two-staircase
/// merges, and the tensor_A combine's endgame - reduce to
/// streaming (defender value, attacker value) pairs through a handful of
/// compare/combine patterns. This header defines those kernels as a table
/// of function pointers. Sweeps and merges read interleaved (def, att)
/// pairs - ValuePoint's own layout; witness spans
/// first copy their value pairs into scratch (value_pairs in
/// core/pareto.hpp). Only the tensor_A endgame streams structure-of-arrays
/// columns, the products it computes column-wise. Kernels return index
/// selections and core/pareto.hpp gathers the surviving points (payloads
/// - witness bit vectors - never enter a kernel, so select-then-gather
/// keeps them untouched and bit-identical).
///
/// Determinism contract: every kernel performs exactly the comparisons
/// and arithmetic of the scalar code it replaces, in an order that cannot
/// change the outcome, so fronts and witnesses are bit-identical between
/// dispatch levels. The trap cases are handled explicitly:
///  - MinSkill's combine is `x < y ? y : x`, which differs from hardware
///    max on signed-zero ties; kernels emulate it with compare+blend and
///    keep operand roles via the Swapped table axis.
///  - FrontLess tie-breaks and staircase_push replacement compare with
///    `==` / strict orders only; vector compares are IEEE-exact.
///
/// Kernels exist per (preference direction, lane width); the direction
/// axes are indexed with pref_index() from a domain's kSimdPrefer marker
/// (core/domains.hpp). Domains without the markers (Custom semirings,
/// DynamicDomain) never reach a kernel: dispatch in pareto.hpp is
/// guarded by is_simd_eligible_v at compile time and by
/// active_simd_level() at run time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned.hpp"
#include "util/cpu.hpp"

namespace adtp {

/// Which direction a domain's strict preference points on raw doubles.
/// Lower: prefer(x, y) == (x <= y) (cost, time, skill).
/// Higher: prefer(x, y) == (x >= y) (probability).
enum class SimdPrefer : std::uint8_t { LowerIsBetter = 0, HigherIsBetter = 1 };

/// Which arithmetic a domain's combine performs on raw doubles.
/// Max is `x < y ? y : x` exactly (not hardware max; see file comment).
enum class SimdCombine : std::uint8_t { Add = 0, Max = 1, Mul = 2 };

namespace simd {

/// Table index for a preference direction.
constexpr int pref_index(SimdPrefer p) noexcept {
  return p == SimdPrefer::LowerIsBetter ? 0 : 1;
}

/// Minimum span sizes before transposing into columns pays for itself;
/// below these the scalar code runs (tuned on bench_micro, see BENCH_6).
inline constexpr std::size_t kMinSweepPoints = 16;
inline constexpr std::size_t kMinMergePoints = 16;   ///< sum of both inputs
inline constexpr std::size_t kMinEndgameCols = 8;

/// Rows per threshold-sweep group of the tensor_A combine
/// (detail::combine_kway in core/pareto.hpp): each emit scans the group's
/// live rows, and group staircases are joined by staircase merges, so
/// larger groups trade scan work for merge levels. On bench_micro's
/// BM_CombineTensorRows shapes, 4 ran the all-Pareto rows ~12% faster
/// than 8 but the edit_loop root fold ~20% and the witness row ~60%
/// slower; 16 ran the all-Pareto rows 1.3-1.4x slower than 8.
inline constexpr std::size_t kTensorGroupRows = 8;

/// Selection entries index 31 bits; spans at or above this fall back to
/// scalar (fronts this large exceed every configured front cap anyway).
inline constexpr std::size_t kMaxSelectSpan = 0x7fffffffu;

/// In merge_select_pairs output, this bit marks an index into the second
/// input.
inline constexpr std::uint32_t kMergeSrcB = 0x80000000u;

/// The staircase tail a push kernel starts from (out.back() of the
/// caller, if any); updated to the tail after the batch.
struct PushTail {
  bool has = false;
  double def = 0.0;
  double att = 0.0;
};

struct SelectResult {
  std::size_t kept = 0;  ///< entries written to the selection buffer
  /// True when the first selection entry *replaces* the caller's
  /// existing tail point (staircase_push's equivalent-def rule fired
  /// against the external tail) instead of appending after it.
  bool replaced_first = false;
  std::uint64_t lanes = 0;  ///< elements streamed through vector ops
};

struct MergeResult {
  std::size_t kept = 0;
  std::uint64_t lanes = 0;
};

/// staircase_push over a batch: emits indices of surviving points into
/// sel (caller-sized to n), resolving skip/replace/append exactly like
/// the scalar loop. Kept indices are strictly increasing with
/// sel[j] >= j, so an in-place forward gather is safe. This form reads
/// SoA columns (the tensor_A endgame's products).
using PushSelectFn = SelectResult (*)(const double* def, const double* att,
                                      std::size_t n, std::uint32_t* sel,
                                      PushTail* tail);

/// AoS ("pairs") variants: the input is interleaved (def, att) doubles -
/// exactly ValuePoint's layout - deinterleaved in registers, so value
/// spans need no copy at all (a transpose pass costs as much as the
/// kernel on short-lived spans; see BENCH_6).
using PushSelectPairsFn = SelectResult (*)(const double* pts, std::size_t n,
                                           std::uint32_t* sel,
                                           PushTail* tail);
/// pareto_merge_staircases over two staircases: emits the merged
/// selection (kMergeSrcB tags source b) into sel (sized to na + nb).
using MergeSelectPairsFn = MergeResult (*)(const double* apts, std::size_t na,
                                           const double* bpts, std::size_t nb,
                                           std::uint32_t* sel);

/// dst[i] = OP(src[i], c) - or OP(c, src[i]) for the Swapped variants,
/// which matter only for the non-commutative Max op.
using CombineColFn = void (*)(const double* src, std::size_t n, double c,
                              double* dst);

/// One dispatch level's kernels. Two-way axes: [pref_index(dd or da)]
/// for direction, [swapped] for operand roles of the non-commutative Max.
struct KernelTable {
  PushSelectFn push_select[2] = {};          ///< [da]
  PushSelectPairsFn push_select_pairs[2] = {};        ///< [da], AoS input
  MergeSelectPairsFn merge_select_pairs[2][2] = {};    ///< [dd][da], AoS
  CombineColFn combine_add = nullptr;
  CombineColFn combine_mul = nullptr;
  CombineColFn combine_max[2] = {};          ///< [swapped]
};

/// The kernel table for the active dispatch level, or nullptr when the
/// active level is Scalar (callers then run the scalar oracle code).
[[nodiscard]] const KernelTable* active_kernels() noexcept;

/// Per-level tables; nullptr when the build target lacks the ISA.
/// active_kernels() only consults these at or below the detected level,
/// so their lazy initialization never executes on unsupported hardware.
[[nodiscard]] const KernelTable* kernels_sse2() noexcept;
[[nodiscard]] const KernelTable* kernels_avx2() noexcept;

/// Picks the column-combine kernel for a domain's op, honoring operand
/// roles for the non-commutative Max.
template <typename D>
[[nodiscard]] CombineColFn combine_col_fn(const KernelTable& k,
                                          bool swapped) noexcept {
  if constexpr (D::kSimdCombine == SimdCombine::Add) {
    (void)swapped;
    return k.combine_add;
  } else if constexpr (D::kSimdCombine == SimdCombine::Mul) {
    (void)swapped;
    return k.combine_mul;
  } else {
    return k.combine_max[swapped ? 1 : 0];
  }
}

/// Reusable kernel scratch. FrontArena owns one; free-function entry
/// points share a thread-local instance (tls_soa_scratch).
struct SoaScratch {
  AlignedVec<double> a_pairs, b_pairs;  ///< value_pairs() copies
  AlignedVec<double> c_def, c_att;      ///< endgame column chunk
  AlignedVec<double> p_def, p_att;      ///< endgame product columns
  std::vector<std::uint32_t> sel;       ///< selection output
};

/// The calling thread's shared scratch (for pareto.hpp free functions
/// that have no arena to borrow from).
[[nodiscard]] SoaScratch& tls_soa_scratch() noexcept;

}  // namespace simd
}  // namespace adtp
