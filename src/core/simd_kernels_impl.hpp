/// \file simd_kernels_impl.hpp
/// \brief Width-generic bodies of the batch Pareto kernels.
///
/// Included ONLY by the per-ISA translation units (simd_sse2.cpp,
/// simd_avx2.cpp), each of which supplies a Pack type wrapping its
/// intrinsics and instantiates make_kernel_table<Pack>(). Keeping the
/// logic here means both ISAs share one audited implementation of the
/// scalar-exact semantics; the Pack layer is a thin register veneer.
///
/// Every kernel mirrors a specific scalar loop in core/pareto.hpp:
///  - push_select(_pairs) <-> detail::staircase_push driven in a loop
///                            (pairs: detail::staircase_sweep_in_place;
///                            SoA: the combine_kway single-row endgame)
///  - merge_select_pairs  <-> detail::pareto_merge_staircases
///  - combine_*           <-> product_point's per-coordinate tensor ops
///
/// The vector fast paths only ever *batch* decisions whose outcome is
/// provably identical to running the scalar loop element by element
/// (see the inline notes); any block where that cannot be established
/// from the masks falls back to the scalar step for those lanes.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/simd.hpp"

namespace adtp {
namespace simd {
namespace detail {

template <typename PK>
struct Kern {
  using V = typename PK::V;
  static constexpr int W = PK::kWidth;
  static constexpr int kFull = (1 << W) - 1;

  // Strict preference on raw doubles, by direction index (0 = lower is
  // better, 1 = higher is better). These are exactly the comparisons the
  // domain policies in core/domains.hpp perform.
  template <int DIR>
  static bool sp(double x, double y) {
    return DIR == 0 ? x < y : x > y;
  }
  template <int DIR>
  static int sp_mask(V x, V y) {
    return DIR == 0 ? PK::lt_mask(x, y) : PK::gt_mask(x, y);
  }

  static std::size_t first_set(int mask) {
    return static_cast<std::size_t>(
        std::countr_zero(static_cast<unsigned>(mask)));
  }
  static std::size_t first_clear(int mask) {
    return first_set(~mask & kFull);
  }

  /// Column accessors letting one push body read either SoA columns (the
  /// tensor_A endgame's products) or interleaved (def, att) pairs; the
  /// pairs form uses the ordered deinterleave because push and merge
  /// consume points in order.
  struct SoaCols {
    const double* def;
    const double* att;
    double d(std::size_t i) const { return def[i]; }
    double a(std::size_t i) const { return att[i]; }
    void load(std::size_t i, V* vd, V* va) const {
      *vd = PK::loadu(def + i);
      *va = PK::loadu(att + i);
    }
  };
  struct PairsCols {
    const double* pts;
    double d(std::size_t i) const { return pts[2 * i]; }
    double a(std::size_t i) const { return pts[2 * i + 1]; }
    void load(std::size_t i, V* vd, V* va) const {
      PK::load_pairs(pts + 2 * i, vd, va);
    }
    V load_att(std::size_t i) const {
      V vd, va;
      PK::load_pairs(pts + 2 * i, &vd, &va);
      return va;
    }
  };

  /// staircase_push over a batch. The scalar_step lambda is a verbatim
  /// transcription of detail::staircase_push resolving against the
  /// running tail; the vector path batches two provably-equivalent
  /// cases: "whole block skipped" (no lane strictly worsens the tail's
  /// attacker value, and since nothing is pushed the tail - and thus
  /// every lane's decision - is final) and "whole block appended" (each
  /// lane strictly worsens its predecessor's attacker value with a
  /// distinct defender value, which chains the per-lane tails exactly).
  /// Each block loads both columns once, so the pairs layout pays one
  /// deinterleave per block.
  template <int DA, typename C>
  static SelectResult push_core(C cols, std::size_t n, std::uint32_t* sel,
                                PushTail* tail) {
    SelectResult res;
    std::size_t m = 0;
    bool has = tail->has;
    double tdef = tail->def;
    double tatt = tail->att;
    bool replaced_first = false;
    const auto scalar_step = [&](std::size_t p) {
      const double d = cols.d(p);
      const double a = cols.a(p);
      if (has) {
        if (!sp<DA>(tatt, a)) return;  // not strictly more adverse: skip
        if (d == tdef) {               // equivalent defender value: replace
          if (m == 0) {
            replaced_first = true;
            sel[m++] = static_cast<std::uint32_t>(p);
          } else {
            sel[m - 1] = static_cast<std::uint32_t>(p);
          }
          tatt = a;
          return;
        }
      }
      sel[m++] = static_cast<std::uint32_t>(p);
      tdef = d;
      tatt = a;
      has = true;
    };

    std::size_t i = 0;
    // The chain trick below shifts the tail into lane 0, so it needs an
    // established tail; seed one scalar step when starting empty.
    if (!has && n > 0) {
      scalar_step(0);
      i = 1;
    }
    while (i + static_cast<std::size_t>(W) <= n) {
      V vd, va;
      cols.load(i, &vd, &va);
      res.lanes += W;
      const int keep = sp_mask<DA>(PK::set1(tatt), va);
      if (keep == 0) {  // block skipped; tail unchanged so this is exact
        i += W;
        continue;
      }
      if (keep == kFull) {
        const V pa = PK::shift_in(va, tatt);  // lane l's predecessor att
        const V pd = PK::shift_in(vd, tdef);
        const int chain = sp_mask<DA>(pa, va);
        const int distinct = PK::neq_mask(pd, vd);
        res.lanes += 2 * W;
        if ((chain & distinct) == kFull) {  // block appended wholesale
          for (int l = 0; l < W; ++l) {
            sel[m + static_cast<std::size_t>(l)] =
                static_cast<std::uint32_t>(i + static_cast<std::size_t>(l));
          }
          m += W;
          tdef = cols.d(i + W - 1);
          tatt = cols.a(i + W - 1);
          has = true;
          i += W;
          continue;
        }
      }
      for (int l = 0; l < W; ++l) scalar_step(i + static_cast<std::size_t>(l));
      i += W;
    }
    for (; i < n; ++i) scalar_step(i);

    tail->has = has;
    tail->def = tdef;
    tail->att = tatt;
    res.kept = m;
    res.replaced_first = replaced_first;
    return res;
  }

  template <int DA>
  static SelectResult push_select(const double* def, const double* att,
                                  std::size_t n, std::uint32_t* sel,
                                  PushTail* tail) {
    return push_core<DA>(SoaCols{def, att}, n, sel, tail);
  }

  template <int DA>
  static SelectResult push_select_pairs(const double* pts, std::size_t n,
                                        std::uint32_t* sel, PushTail* tail) {
    return push_core<DA>(PairsCols{pts}, n, sel, tail);
  }

  /// pareto_merge_staircases as run-at-a-time galloping. The scalar loop
  /// repeatedly takes from `a` while !FrontLess(b[j], a[i]) (b[j] fixed),
  /// else from `b` while FrontLess(b[j], a[i]) (a[i] fixed); vector
  /// compares find each run length in W-sized bites. Within a run the
  /// inputs are consecutive points of one staircase (strictly worsening
  /// defender, strictly more adverse attacker), so staircase_push keeps
  /// a suffix of it: scan for the first survivor, resolve its
  /// replace/append against the tail, then append the rest wholesale.
  template <int DD, int DA>
  static MergeResult merge_select_pairs(const double* apts, std::size_t na,
                                        const double* bpts, std::size_t nb,
                                        std::uint32_t* sel) {
    const PairsCols ca{apts};
    const PairsCols cb{bpts};
    MergeResult res;
    std::size_t m = 0;
    bool has = false;
    double tdef = 0.0;
    double tatt = 0.0;

    const auto push_run = [&](const auto& rc, std::size_t start,
                              std::size_t len, std::uint32_t src) {
      std::size_t s = 0;
      if (has) {
        const V vt = PK::set1(tatt);
        for (;;) {
          if (len - s >= static_cast<std::size_t>(W)) {
            const int alive = sp_mask<DA>(vt, rc.load_att(start + s));
            res.lanes += W;
            if (alive == 0) {
              s += W;
              continue;
            }
            s += first_set(alive);
            break;
          }
          while (s < len && !sp<DA>(tatt, rc.a(start + s))) ++s;
          break;
        }
        if (s == len) return;  // whole run dominated by the tail
        if (rc.d(start + s) == tdef) {  // first survivor replaces the tail
          sel[m - 1] = src | static_cast<std::uint32_t>(start + s);
        } else {
          sel[m++] = src | static_cast<std::uint32_t>(start + s);
        }
        ++s;
      } else {
        sel[m++] = src | static_cast<std::uint32_t>(start);
        s = 1;
      }
      for (std::size_t l = s; l < len; ++l) {
        sel[m++] = src | static_cast<std::uint32_t>(start + l);
      }
      tdef = rc.d(start + len - 1);
      tatt = rc.a(start + len - 1);
      has = true;
    };

    // Per-point staircase_push against the running tail, for interleaved
    // bursts where run-at-a-time galloping degenerates (see below).
    // has implies m >= 1 here: push_run never sets `has` without having
    // written at least one selection entry.
    const auto scalar_push = [&](double d, double a, std::uint32_t tagged) {
      if (has) {
        if (!sp<DA>(tatt, a)) return;
        if (d == tdef) {
          sel[m - 1] = tagged;
          tatt = a;
          return;
        }
      }
      sel[m++] = tagged;
      tdef = d;
      tatt = a;
      has = true;
    };

    std::size_t i = 0;
    std::size_t j = 0;
    int short_rounds = 0;
    while (i < na && j < nb) {
      // On finely interleaved staircases every run is a point or two, and
      // galloping pays a broadcast + W-wide compare per point where the
      // scalar merge pays two compares. After a few consecutive all-short
      // rounds, burst through scalar merge steps. Leaving short_rounds at
      // 2 makes the next iteration gallop exactly once as a probe: still
      // short puts it straight back in a burst (one probe round per 256
      // points), while recovered run structure resets to full galloping.
      if (short_rounds >= 3) {
        for (int s = 0; s < 256 && i < na && j < nb; ++s) {
          if (sp<DD>(ca.d(i), cb.d(j)) ||
              (ca.d(i) == cb.d(j) && !sp<DA>(ca.a(i), cb.a(j)))) {
            scalar_push(ca.d(i), ca.a(i), static_cast<std::uint32_t>(i));
            ++i;
          } else {
            scalar_push(cb.d(j), cb.a(j),
                        kMergeSrcB | static_cast<std::uint32_t>(j));
            ++j;
          }
        }
        short_rounds = 2;
        continue;
      }
      // take_a(l) == !FrontLess(b[j], a[l]):
      //   defender values differ -> strictly_prefer(a.def, b.def)
      //   defender values equal  -> !strictly_prefer(a.att, b.att)
      std::size_t r = 0;
      {
        const V vbd = PK::set1(cb.d(j));
        const V vba = PK::set1(cb.a(j));
        for (;;) {
          if (na - i - r >= static_cast<std::size_t>(W)) {
            V vad, vaa;
            ca.load(i + r, &vad, &vaa);
            const int take = (sp_mask<DD>(vad, vbd) |
                              (PK::eq_mask(vad, vbd) &
                               ~sp_mask<DA>(vaa, vba))) &
                             kFull;
            res.lanes += 2 * W;
            if (take == kFull) {
              r += W;
              continue;
            }
            r += first_clear(take);
            break;
          }
          while (i + r < na &&
                 (sp<DD>(ca.d(i + r), cb.d(j)) ||
                  (ca.d(i + r) == cb.d(j) &&
                   !sp<DA>(ca.a(i + r), cb.a(j))))) {
            ++r;
          }
          break;
        }
      }
      if (r > 0) {
        push_run(ca, i, r, 0);
        i += r;
        if (i >= na) break;
      }
      // take_b(l) == FrontLess(b[l], a[i]); guaranteed for l == j after a
      // maximal a-run, hence the max with 1.
      std::size_t rb = 0;
      {
        const V vad = PK::set1(ca.d(i));
        const V vaa = PK::set1(ca.a(i));
        for (;;) {
          if (nb - j - rb >= static_cast<std::size_t>(W)) {
            V vbd, vba;
            cb.load(j + rb, &vbd, &vba);
            const int take = (sp_mask<DD>(vbd, vad) |
                              (PK::eq_mask(vbd, vad) &
                               sp_mask<DA>(vaa, vba))) &
                             kFull;
            res.lanes += 2 * W;
            if (take == kFull) {
              rb += W;
              continue;
            }
            rb += first_clear(take);
            break;
          }
          while (j + rb < nb &&
                 (sp<DD>(cb.d(j + rb), ca.d(i)) ||
                  (cb.d(j + rb) == ca.d(i) &&
                   sp<DA>(ca.a(i), cb.a(j + rb))))) {
            ++rb;
          }
          break;
        }
      }
      if (rb == 0) rb = 1;
      push_run(cb, j, rb, kMergeSrcB);
      j += rb;
      short_rounds = (r < static_cast<std::size_t>(W) &&
                      rb < static_cast<std::size_t>(W))
                         ? short_rounds + 1
                         : 0;
    }
    if (i < na) push_run(ca, i, na - i, 0);
    if (j < nb) push_run(cb, j, nb - j, kMergeSrcB);

    res.kept = m;
    return res;
  }

  static void combine_add(const double* src, std::size_t n, double c,
                          double* dst) {
    const V vc = PK::set1(c);
    std::size_t i = 0;
    for (; i + static_cast<std::size_t>(W) <= n; i += W) {
      PK::storeu(dst + i, PK::add(PK::loadu(src + i), vc));
    }
    for (; i < n; ++i) dst[i] = src[i] + c;
  }

  static void combine_mul(const double* src, std::size_t n, double c,
                          double* dst) {
    const V vc = PK::set1(c);
    std::size_t i = 0;
    for (; i + static_cast<std::size_t>(W) <= n; i += W) {
      PK::storeu(dst + i, PK::mul(PK::loadu(src + i), vc));
    }
    for (; i < n; ++i) dst[i] = src[i] * c;
  }

  /// MinSkill's combine `x < y ? y : x`, NOT hardware max: the two
  /// differ on signed-zero ties (and operand roles pick the surviving
  /// representation), so blend on an explicit compare instead.
  template <bool SW>
  static void combine_max(const double* src, std::size_t n, double c,
                          double* dst) {
    const V vc = PK::set1(c);
    std::size_t i = 0;
    for (; i + static_cast<std::size_t>(W) <= n; i += W) {
      const V vs = PK::loadu(src + i);
      const V x = SW ? vc : vs;
      const V y = SW ? vs : vc;
      PK::storeu(dst + i, PK::select(PK::lt_vec(x, y), y, x));
    }
    for (; i < n; ++i) {
      const double x = SW ? c : src[i];
      const double y = SW ? src[i] : c;
      dst[i] = x < y ? y : x;
    }
  }
};

template <typename PK>
KernelTable make_kernel_table() {
  using K = Kern<PK>;
  KernelTable t;
  t.push_select[0] = &K::template push_select<0>;
  t.push_select[1] = &K::template push_select<1>;
  t.push_select_pairs[0] = &K::template push_select_pairs<0>;
  t.push_select_pairs[1] = &K::template push_select_pairs<1>;
  t.merge_select_pairs[0][0] = &K::template merge_select_pairs<0, 0>;
  t.merge_select_pairs[0][1] = &K::template merge_select_pairs<0, 1>;
  t.merge_select_pairs[1][0] = &K::template merge_select_pairs<1, 0>;
  t.merge_select_pairs[1][1] = &K::template merge_select_pairs<1, 1>;
  t.combine_add = &K::combine_add;
  t.combine_mul = &K::combine_mul;
  t.combine_max[0] = &K::template combine_max<false>;
  t.combine_max[1] = &K::template combine_max<true>;
  return t;
}

}  // namespace detail
}  // namespace simd
}  // namespace adtp
