/// \file pareto.hpp
/// \brief Pareto points, dominance, and Pareto fronts (Definitions 8-9).
///
/// A point pairs a defender metric value with the attacker's optimal
/// response value. Dominance follows Definition 9:
///   (s1, t1)  dominates  (s2, t2)   iff   s1 <=_D s2  and  t1 >=_A t2,
/// i.e. the defender spends no more and the attacker is at least as badly
/// off. A front stores the Pareto-minimal *value pairs* (duplicates
/// collapse), sorted with strictly improving defender values and strictly
/// "worsening for the attacker" response values - a staircase.
///
/// Fronts are generic over the point payload: ValuePoint carries only the
/// two metric values, WitnessPoint additionally carries a witness event
/// (which defense/attack sets realize the point), supporting strategy
/// extraction.
///
/// All operations are additionally generic over the *domain policies*
/// (domains.hpp): any type exposing combine/prefer/strictly_prefer/
/// equivalent/choose/one/zero over doubles works, which includes both the
/// static per-kind structs and the runtime Semiring itself. The analysis
/// algorithms instantiate the static policies via dispatch_domains() so
/// the per-merge hot loops are branch-free.
///
/// FrontArena supports the accumulate-combine pattern of the algorithms:
/// it recycles the combine scratch buffers across the thousands of merges
/// of a single analysis instead of allocating per merge. For domain pairs
/// whose combines are monotone w.r.t. prefer (staircase_combine_eligible -
/// all the static built-ins) the combine step is *sort-free*: an oplus_A
/// combine is a linear two-pointer merge of the two staircases, and a
/// tensor_A combine cuts the cross product's rows (each itself a
/// staircase) into small groups, sweeps each group to its staircase with
/// upper-envelope row drops, and joins the group staircases by linear
/// merges. Neither materializes or sorts the product. Non-monotone/custom
/// domains keep the materialize + sort + sweep path.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/domains.hpp"
#include "core/semiring.hpp"
#include "core/simd.hpp"
#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace adtp {

/// A value-only Pareto point: defender metric, attacker response metric.
struct ValuePoint {
  double def = 0;
  double att = 0;
};

/// A Pareto point carrying a witness event.
struct WitnessPoint {
  double def = 0;
  double att = 0;
  BitVec defense;  ///< witness defense vector (full |D| indexing)
  BitVec attack;   ///< witness attack vector (full |A| indexing)
};

/// True iff \p p dominates \p q per Definition 9 (non-strict).
template <typename P, typename Dd, typename Da>
[[nodiscard]] bool dominates(const P& p, const P& q, const Dd& dd,
                             const Da& da) {
  return dd.prefer(p.def, q.def) && da.prefer(q.att, p.att);
}

/// How the attacker coordinate is merged when combining two fronts
/// (Table II): Combine applies tensor_A, Choose applies oplus_A.
enum class AttackOp : std::uint8_t { Combine, Choose };

[[nodiscard]] constexpr const char* to_string(AttackOp op) noexcept {
  return op == AttackOp::Combine ? "tensor_A" : "oplus_A";
}

/// True iff the (defender, attacker) policy pair admits the sort-free
/// staircase combine paths for \p op: when the defender combine is
/// monotone, an AttackOp::Choose product is minimized by a linear merge
/// of the two staircases (Choose uses the attacker's prefer alone); when
/// the attacker combine is monotone too, every row of an AttackOp::Combine
/// cross product is itself a staircase, so grouped sweeps and merges of
/// the rows replace a full sort. Gated on domains.hpp's kMonotoneCombine
/// marker, so DynamicDomain and the runtime Semiring always report false
/// and take the sorting path.
template <typename Dd, typename Da>
[[nodiscard]] constexpr bool staircase_combine_eligible(AttackOp op) {
  return is_monotone_combine_v<Dd> &&
         (op == AttackOp::Choose || is_monotone_combine_v<Da>);
}

// ---- staircase primitives ------------------------------------------------

namespace detail {

/// Strict weak order of the staircase: best defender value first; ties put
/// the most attacker-adverse response first (so a single forward sweep
/// keeps exactly the Pareto-minimal points).
template <typename Dd, typename Da>
struct FrontLess {
  const Dd& dd;
  const Da& da;

  template <typename P>
  bool operator()(const P& a, const P& b) const {
    if (!dd.equivalent(a.def, b.def)) return dd.strictly_prefer(a.def, b.def);
    if (!da.equivalent(a.att, b.att)) return da.strictly_prefer(b.att, a.att);
    return false;
  }
};

/// Appends \p p to the staircase \p out, preserving Pareto-minimality.
/// Precondition: points arrive with non-strictly worsening defender values
/// (any attacker tie order). Keeps p iff it is strictly more adverse than
/// the last kept point; when p matches the last point's defender value and
/// is strictly more adverse, it *dominates* the last point and replaces it.
template <typename P, typename Dd, typename Da>
void staircase_push(std::vector<P>& out, P&& p, const Dd& dd, const Da& da) {
  if (!out.empty()) {
    P& last = out.back();
    if (!da.strictly_prefer(last.att, p.att)) return;  // last dominates p
    if (dd.equivalent(last.def, p.def)) {              // p dominates last
      last = std::move(p);
      return;
    }
  }
  out.push_back(std::move(p));
}

/// A point span's value coordinates as the interleaved (def, att)
/// doubles the pairs kernels read: a ValuePoint span is that layout
/// already and is returned as is; payload-carrying points copy their
/// values into \p scratch (payloads never leave the point vector;
/// kernels return index selections and the caller gathers).
template <typename P>
const double* value_pairs(const std::vector<P>& pts,
                          AlignedVec<double>& scratch) {
  if constexpr (std::is_same_v<P, ValuePoint>) {
    static_assert(sizeof(ValuePoint) == 2 * sizeof(double));
    return reinterpret_cast<const double*>(pts.data());
  } else {
    scratch.resize(2 * pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      scratch[2 * i] = pts[i].def;
      scratch[2 * i + 1] = pts[i].att;
    }
    return scratch.data();
  }
}

/// The forward dominance sweep shared by the two minimizers: compacts
/// \p points - already in FrontLess order - to the Pareto-minimal
/// staircase in place (staircase_push's keep/replace rule, batched).
///
/// Domain pairs carrying the SIMD markers dispatch large spans to the
/// batch select kernel of the active CPU level (bit-identical to the
/// scalar loop below, which is the oracle the kernels are fuzzed
/// against); \p soa borrows value_pairs scratch (thread-local fallback)
/// and \p simd_lanes, when given, accumulates kernel throughput into
/// CombineStats::simd_lanes_used.
template <typename P, typename Dd, typename Da>
void staircase_sweep_in_place(std::vector<P>& points, const Dd& dd,
                              const Da& da, simd::SoaScratch* soa = nullptr,
                              std::uint64_t* simd_lanes = nullptr) {
  if constexpr (is_simd_pair_eligible_v<Dd, Da>) {
    if (points.size() >= simd::kMinSweepPoints &&
        points.size() < simd::kMaxSelectSpan) {
      if (const simd::KernelTable* kt = simd::active_kernels()) {
        simd::SoaScratch& s = soa != nullptr ? *soa : simd::tls_soa_scratch();
        s.sel.resize(points.size());
        simd::PushTail tail;
        const simd::SelectResult r =
            kt->push_select_pairs[simd::pref_index(Da::kSimdPrefer)](
                value_pairs(points, s.a_pairs), points.size(), s.sel.data(),
                &tail);
        // Kept indices are strictly increasing with sel[j] >= j, so the
        // forward gather never overwrites a pending source; and when
        // everything is kept that forces sel to be the identity, so the
        // gather is skippable.
        if (r.kept < points.size()) {
          for (std::size_t j = 0; j < r.kept; ++j) {
            if (s.sel[j] != j) points[j] = std::move(points[s.sel[j]]);
          }
          points.resize(r.kept);
        }
        if (simd_lanes != nullptr) *simd_lanes += r.lanes;
        return;
      }
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (kept != 0) {
      P& last = points[kept - 1];
      if (!da.strictly_prefer(last.att, points[i].att)) continue;
      if (dd.equivalent(last.def, points[i].def)) {
        last = std::move(points[i]);
        continue;
      }
    }
    if (kept != i) points[kept] = std::move(points[i]);
    ++kept;
  }
  points.resize(kept);
}

/// Sorts \p points and compacts them to the Pareto-minimal staircase
/// without allocating.
template <typename P, typename Dd, typename Da>
void pareto_minimize_in_place(std::vector<P>& points, const Dd& dd,
                              const Da& da) {
  std::sort(points.begin(), points.end(), FrontLess<Dd, Da>{dd, da});
  staircase_sweep_in_place(points, dd, da);
}

/// As pareto_minimize_in_place(), but *stable*: among points with
/// equivalent value pairs, the earliest input position wins. Needed where
/// the kept payload must be a deterministic function of the input
/// sequence alone - the sharded naive witness path feeds points in
/// ascending delta order and relies on "smallest delta wins" being
/// independent of compaction checkpoints and shard boundaries.
template <typename P, typename Dd, typename Da>
void pareto_minimize_stable(std::vector<P>& points, const Dd& dd,
                            const Da& da) {
  std::stable_sort(points.begin(), points.end(), FrontLess<Dd, Da>{dd, da});
  staircase_sweep_in_place(points, dd, da);
}

/// Merges two already-minimized staircases into \p out (cleared first) in
/// O(|a| + |b|) - the sorted-merge fast path that replaces concatenate +
/// sort + sweep for front unions.
/// SIMD-eligible domain pairs dispatch large merges to the run-galloping
/// merge kernel: it emits an index selection, and the gather below
/// copies only the *kept* points - a real win for witness fronts, where
/// the scalar loop's staircase_push copies every candidate's bit
/// vectors. \p soa / \p simd_lanes as in staircase_sweep_in_place.
template <typename P, typename Dd, typename Da>
void pareto_merge_staircases(const std::vector<P>& a, const std::vector<P>& b,
                             std::vector<P>& out, const Dd& dd, const Da& da,
                             simd::SoaScratch* soa = nullptr,
                             std::uint64_t* simd_lanes = nullptr) {
  if constexpr (is_simd_pair_eligible_v<Dd, Da>) {
    if (a.size() + b.size() >= simd::kMinMergePoints &&
        a.size() < simd::kMaxSelectSpan && b.size() < simd::kMaxSelectSpan) {
      if (const simd::KernelTable* kt = simd::active_kernels()) {
        simd::SoaScratch& s = soa != nullptr ? *soa : simd::tls_soa_scratch();
        s.sel.resize(a.size() + b.size());
        const simd::MergeResult r =
            kt->merge_select_pairs[simd::pref_index(Dd::kSimdPrefer)]
                                  [simd::pref_index(Da::kSimdPrefer)](
                value_pairs(a, s.a_pairs), a.size(),
                value_pairs(b, s.b_pairs), b.size(), s.sel.data());
        out.clear();
        out.reserve(r.kept);
        const P* abase = a.data();
        const P* bbase = b.data();
        for (std::size_t j = 0; j < r.kept; ++j) {
          const std::uint32_t e = s.sel[j];
          // Conditional base pointer instead of a conditional copy: the
          // source alternates on interleaved merges, and a select is
          // cheaper than a data-dependent branch per point.
          const P* base = (e & simd::kMergeSrcB) != 0 ? bbase : abase;
          out.push_back(base[e & ~simd::kMergeSrcB]);
        }
        if (simd_lanes != nullptr) *simd_lanes += r.lanes;
        return;
      }
    }
  }
  out.clear();
  out.reserve(a.size() + b.size());
  const FrontLess<Dd, Da> less{dd, da};
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (less(b[j], a[i])) {
      staircase_push(out, P(b[j]), dd, da);
      ++j;
    } else {
      staircase_push(out, P(a[i]), dd, da);
      ++i;
    }
  }
  for (; i < a.size(); ++i) staircase_push(out, P(a[i]), dd, da);
  for (; j < b.size(); ++j) staircase_push(out, P(b[j]), dd, da);
}

// Payload hooks: value-only points have no extra state.
inline void merge_defense_witness(ValuePoint&, const ValuePoint&) {}
inline void merge_attack_witness(ValuePoint&, const ValuePoint&) {}
inline void adopt_attack_witness(ValuePoint&, const ValuePoint&) {}

inline void merge_defense_witness(WitnessPoint& into,
                                  const WitnessPoint& from) {
  into.defense |= from.defense;
}
inline void merge_attack_witness(WitnessPoint& into,
                                 const WitnessPoint& from) {
  into.attack |= from.attack;
}
inline void adopt_attack_witness(WitnessPoint& into,
                                 const WitnessPoint& from) {
  into.attack = from.attack;
}

/// The (tensor_D, op_A) product of two points, witness payloads included:
/// defense witnesses union; attack witnesses union under Combine and adopt
/// the attacker-preferred side under Choose (ties keep \p p's).
template <typename P, typename Dd, typename Da>
[[nodiscard]] P product_point(const P& p, const P& q, AttackOp op,
                              const Dd& dd, const Da& da) {
  P r = p;
  r.def = dd.combine(p.def, q.def);
  merge_defense_witness(r, q);
  if (op == AttackOp::Combine) {
    r.att = da.combine(p.att, q.att);
    merge_attack_witness(r, q);
  } else if (da.strictly_prefer(q.att, p.att)) {
    r.att = q.att;
    adopt_attack_witness(r, q);
  }
  return r;
}

/// The tensor_A product_point of \p p and \p q when its value pair
/// (\p def, \p att) is already computed: a payload-free point is just
/// that pair, so only witness points pay for product_point's payloads.
template <typename P, typename Dd, typename Da>
[[nodiscard]] P tensor_product(const P& p, const P& q, double def, double att,
                               const Dd& dd, const Da& da) {
  if constexpr (std::is_same_v<P, ValuePoint>) {
    return ValuePoint{def, att};
  } else {
    return product_point(p, q, AttackOp::Combine, dd, da);
  }
}

/// Upfront reservation cap for cross-product buffers: past this, growth is
/// left to push_back's geometric policy so a pathological combine commits
/// memory only as it actually materializes points.
inline constexpr std::size_t kProductReserveCap = std::size_t{1} << 16;

/// Fills \p out with the pairwise (tensor_D, op_A) products of the two
/// fronts' points, in lhs-major order. The output IS the full
/// |lhs| x |rhs| cross product; the reservation is merely capped (see
/// kProductReserveCap) so tiny-output giant combines do not pre-commit the
/// whole product in one jump.
template <typename P, typename Dd, typename Da>
void product_points(const std::vector<P>& lhs, const std::vector<P>& rhs,
                    AttackOp op, const Dd& dd, const Da& da,
                    std::vector<P>& out) {
  out.clear();
  out.reserve(std::min(lhs.size() * rhs.size(), kProductReserveCap));
  for (const P& p : lhs) {
    for (const P& q : rhs) {
      out.push_back(product_point(p, q, op, dd, da));
    }
  }
}

/// The single-remaining-row bulk tail of tensor_group_sweep: once one
/// row of a group is left, the rest of it is emitted in staircase order
/// anyway, so its products from column \p c0 on are batch-computed into
/// SoA columns (one broadcast combine per coordinate) and pushed through
/// the batch select kernel of staircase_sweep_in_place. This is the
/// dominant phase of the leaf folds the bottom-up algorithms live on (a
/// singleton accumulator makes k = 1, so the *whole* combine is this
/// endgame).
///
/// The kept set is provably identical to the scalar sweep's: the row
/// drop can only fire after the output tail has absorbed an attacker
/// value at least as adverse as the row's last (\p row_tail), which also
/// makes every remaining product un-keepable. Only the scalar `examined`
/// count is affected by stopping early, and it is reproduced exactly by
/// the check after each chunk (the drop condition changes only when the
/// tail changes, i.e. at kept points). Returns that scalar-parity
/// examined count.
template <typename P, typename Dd, typename Da>
std::size_t kway_endgame(const P& rp, const std::vector<P>& cols,
                         std::size_t c0, double row_tail, bool rows_on_lhs,
                         const Dd& dd, const Da& da,
                         const simd::KernelTable& kt, simd::SoaScratch& s,
                         std::vector<P>& out, std::uint64_t* simd_lanes) {
  const std::size_t len = cols.size() - c0;
  // Scalar parity: the drop test precedes the first emit.
  if (!out.empty() && !da.strictly_prefer(out.back().att, row_tail)) {
    return 1;
  }

  // product_point's operand roles: p is the lhs-side point, and here the
  // *column* points vary while the row point is broadcast - so the
  // broadcast constant sits on p's side exactly when rows came from lhs.
  const bool swapped = rows_on_lhs;
  const simd::CombineColFn def_col = simd::combine_col_fn<Dd>(kt, swapped);
  const simd::CombineColFn att_col = simd::combine_col_fn<Da>(kt, swapped);
  const simd::PushSelectFn select =
      kt.push_select[simd::pref_index(Da::kSimdPrefer)];
  simd::PushTail tail;
  if (!out.empty()) {
    tail.has = true;
    tail.def = out.back().def;
    tail.att = out.back().att;
  }
  // Chunks keep the columns, products and selection in L1; the kernel
  // carries the staircase tail from one chunk to the next.
  constexpr std::size_t kChunk = 256;
  const std::size_t width = std::min(len, kChunk);
  s.c_def.resize(width);
  s.c_att.resize(width);
  s.p_def.resize(width);
  s.p_att.resize(width);
  s.sel.resize(width);
  std::uint64_t lanes = 0;
  std::size_t examined = len;
  for (std::size_t base = 0; base < len; base += width) {
    const std::size_t w = std::min(width, len - base);
    const P* chunk = cols.data() + c0 + base;
    for (std::size_t i = 0; i < w; ++i) {
      s.c_def[i] = chunk[i].def;
      s.c_att[i] = chunk[i].att;
    }
    def_col(s.c_def.data(), w, rp.def, s.p_def.data());
    att_col(s.c_att.data(), w, rp.att, s.p_att.data());
    const simd::SelectResult r =
        select(s.p_def.data(), s.p_att.data(), w, s.sel.data(), &tail);
    lanes += r.lanes + 2 * static_cast<std::uint64_t>(w);

    // The kernels' combines are bit-identical to product_point's.
    const auto materialize = [&](std::uint32_t i) {
      return tensor_product(rows_on_lhs ? rp : chunk[i],
                            rows_on_lhs ? chunk[i] : rp, s.p_def[i],
                            s.p_att[i], dd, da);
    };
    std::size_t j = 0;
    if (r.replaced_first && r.kept > 0) {
      out.back() = materialize(s.sel[0]);
      j = 1;
    }
    for (; j < r.kept; ++j) out.push_back(materialize(s.sel[j]));

    // Scalar-parity examined count: the scalar sweep steps over or emits
    // products one at a time and counts one drop after the first kept
    // product whose attacker value the row tail weakly dominates. Kept
    // attacker values strictly worsen and none passes the row tail, so
    // that can only be the last kept product - and nothing after it can
    // be kept, so the walk stops there.
    if (r.kept > 0 &&
        !da.strictly_prefer(s.p_att[s.sel[r.kept - 1]], row_tail)) {
      const std::size_t pos = base + s.sel[r.kept - 1];
      examined = pos + 1 < len ? pos + 2 : len;
      break;
    }
  }
  if (simd_lanes != nullptr) *simd_lanes += lanes;
  return examined;
}

/// The oplus_A combine of two non-empty staircases as a two-pointer
/// threshold merge: visits at most |lhs| + |rhs| products.
///
/// Both staircases list their attacker values from attacker-preferred to
/// most adverse. The walk holds one index per side, pushes
/// product_point(lhs[i], rhs[j]) through staircase_push, then advances
/// the side holding the attacker-preferred value, or both sides on
/// equivalent values. Every step moves i or j forward, so under a
/// monotone tensor_D the defender values arrive non-strictly worsening,
/// as staircase_push requires.
///
/// Exact for every pair eligible for Choose (is_monotone_combine_v<Dd>).
/// Take any product (i, j) whose chosen value is a_i, lhs's value. The
/// walk visits (i, j*), where j* is the first rhs index at least as
/// adverse as a_i: while the walk is on an earlier lhs row it never
/// advances j past j*, since that row's value is strictly preferred to
/// b_j*, and on row i it advances j only over values strictly preferred
/// to a_i. Since j* <= j and tensor_D is monotone, (i, j*) weakly
/// dominates (i, j) with the same attacker value. Products that choose
/// rhs's value are the mirror case. Returns the products visited.
template <typename P, typename Dd, typename Da>
std::size_t combine_choose_merge(const std::vector<P>& lhs,
                                 const std::vector<P>& rhs, const Dd& dd,
                                 const Da& da, std::vector<P>& out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t visited = 0;
  while (i < lhs.size() && j < rhs.size()) {
    const double a = lhs[i].att;
    const double b = rhs[j].att;
    const bool lhs_preferred = da.strictly_prefer(a, b);
    const bool rhs_preferred = da.strictly_prefer(b, a);
    ++visited;
    // staircase_push's reject test, hoisted so dominated products are
    // never materialized (the payload copy is the expensive part for
    // witness points).
    const double att = rhs_preferred ? b : a;
    if (out.empty() || da.strictly_prefer(out.back().att, att)) {
      staircase_push(out,
                     product_point(lhs[i], rhs[j], AttackOp::Choose, dd, da),
                     dd, da);
    }
    // Step past the attacker-preferred value; on equivalent values, past
    // both.
    if (!rhs_preferred) ++i;
    if (!lhs_preferred) ++j;
  }
  return visited;
}

/// One group of the tensor_A combine: the Pareto-minimal staircase of
/// the products of rows [\p r0, \p r0 + \p n) with every column, written
/// to \p out (empty on entry) by a threshold sweep over the rows' heads.
/// See combine_kway for the sweep's steps and why it is exact. Returns
/// the products examined: cursor steps, row drops and emitted heads,
/// plus the endgame's scalar-parity count.
template <typename P, typename Dd, typename Da>
std::size_t tensor_group_sweep(const std::vector<P>& rows,
                               const std::vector<P>& cols, bool rows_on_lhs,
                               std::size_t r0, std::size_t n, const Dd& dd,
                               const Da& da, const simd::KernelTable* kt,
                               simd::SoaScratch* s, std::vector<P>& out,
                               std::uint64_t* simd_lanes) {
  // A live row: its cursor (the head's column), the head product's value
  // pair, the attacker value of the row's last product, and the row
  // point's own values.
  struct Row {
    double def;
    double att;
    double last;
    double row_def;
    double row_att;
    std::uint32_t row;
    std::uint32_t col;
  };
  const std::size_t m = cols.size();
  const P* const col_pts = cols.data();
  // The tensor_A product's value pair; payloads wait until a head is
  // emitted. Operand roles follow product_point (p is the lhs side).
  const auto load = [&](Row& r) {
    const P& c = col_pts[r.col];
    r.def = rows_on_lhs ? dd.combine(r.row_def, c.def)
                        : dd.combine(c.def, r.row_def);
    r.att = rows_on_lhs ? da.combine(r.row_att, c.att)
                        : da.combine(c.att, r.row_att);
  };
  Row live[simd::kTensorGroupRows] = {};
  for (std::size_t t = 0; t < n; ++t) {
    Row& r = live[t];
    r.row = static_cast<std::uint32_t>(r0 + t);
    r.row_def = rows[r.row].def;
    r.row_att = rows[r.row].att;
    r.col = static_cast<std::uint32_t>(m - 1);
    load(r);
    r.last = r.att;
    r.col = 0;
    load(r);
  }
  // Removal shifts the later rows down, so live[] stays in row order and
  // a first-wins scan keeps the lowest row among equal heads.
  const auto remove = [&](std::size_t t) {
    std::copy(live + t + 1, live + n, live + t);
    --n;
  };

  std::size_t examined = 0;
  while (n != 0) {
    if constexpr (is_simd_pair_eligible_v<Dd, Da>) {
      if (n == 1 && kt != nullptr && m - live[0].col >= simd::kMinEndgameCols) {
        return examined + kway_endgame(rows[live[0].row], cols, live[0].col,
                                       live[0].last, rows_on_lhs, dd, da, *kt,
                                       *s, out, simd_lanes);
      }
    }
    const bool has_tail = !out.empty();
    const double tail = has_tail ? out.back().att : 0.0;
    std::size_t best = 0;
    double best_def = 0.0;
    double best_att = 0.0;
    for (std::size_t t = 0; t < n;) {
      Row& r = live[t];
      if (has_tail && !da.strictly_prefer(tail, r.att)) {
        // 1. The tail covers the row's last product, so all of it.
        // (Tested as "not strictly more adverse", so that step 2
        // provably stops at the last product.)
        if (!da.strictly_prefer(tail, r.last)) {
          ++examined;
          remove(t);
          continue;
        }
        // 2. Step over heads the tail covers.
        do {
          ++examined;
          ++r.col;
          load(r);
        } while (!da.strictly_prefer(tail, r.att));
      }
      // 3. Best defender value, then most adverse, then lowest row.
      if (t == 0 || dd.strictly_prefer(r.def, best_def) ||
          (dd.equivalent(r.def, best_def) &&
           da.strictly_prefer(best_att, r.att))) {
        best = t;
        best_def = r.def;
        best_att = r.att;
      }
      ++t;
    }
    if (n == 0) break;
    Row& b = live[best];
    const P& p = rows_on_lhs ? rows[b.row] : cols[b.col];
    const P& q = rows_on_lhs ? cols[b.col] : rows[b.row];
    staircase_push(out, tensor_product(p, q, best_def, best_att, dd, da), dd,
                   da);
    ++examined;
    // 4. Advance the emitting row.
    if (++b.col == m) {
      remove(best);
    } else {
      load(b);
    }
  }
  return examined;
}

/// Sort-free combine of two staircases (the general, non-singleton hot
/// path). AttackOp::Choose goes to the linear combine_choose_merge above.
///
/// Under AttackOp::Combine each of the k = min(|lhs|, |rhs|) rows of the
/// cross product is a staircase in its own right (this is what
/// staircase_combine_eligible certifies). The rows are cut into groups
/// of simd::kTensorGroupRows consecutive rows; tensor_group_sweep turns
/// each group into its Pareto staircase, and pareto_merge_staircases
/// joins the group staircases in binary-counter order. Neither step
/// materializes or sorts the product; witness payloads are built only
/// for emitted heads.
///
/// The sweep keeps, per live row, a cursor, the head product's value
/// pair and the attacker value of the row's last product. Each step:
///  1. drops every row whose last product the group's output tail
///     already covers (an upper-envelope prune, O(1) per row);
///  2. advances each row's cursor past heads not strictly more adverse
///     than the tail;
///  3. emits, through staircase_push, the head with the best defender
///     value - on equal defender values the most adverse attacker value,
///     on equal value pairs the lowest row;
///  4. advances the emitting row's cursor.
/// When one row of a group is left, kway_endgame batch-pushes the rest of
/// it through the SIMD select kernel (the whole combine when k = 1).
///
/// Why it is exact:
///  - a monotone combine makes every row list its products with non-
///    strictly worsening values for both players, so a row's first
///    product strictly more adverse than the tail is its best-defender
///    candidate;
///  - every head emitted so far had the best defender value pending, so
///    the tail's defender value is at least as good as every pending
///    product's: steps 1-2 pass over dominated products only;
///  - hence the tail's successor on the Pareto staircase is the best-
///    defender product strictly more adverse than the tail, i.e. the head
///    step 3 picks (staircase_push replaces the tail when a later head
///    ties its defender value and is more adverse);
///  - a staircase merge of exact group staircases is exact.
/// Witnesses are fixed by the tie rule: the lowest row wins among equal
/// heads, the earlier (lower-row) operand wins equal pairs in a merge,
/// and the endgame keeps exactly what the scalar sweep would. So the kept
/// witness is the same at every thread count and SIMD level.
///
/// Cost: every product is stepped over or emitted at most once and each
/// emit scans at most G = kTensorGroupRows live rows, so the sweeps cost
/// O(G |product|) and the merges O(|product| log (k / G)) in the worst
/// case - with G fixed, within the O(|product| log k) of a k-way heap.
///
/// \p runs is caller scratch for the group staircases (recycled by
/// FrontArena); \p out receives the minimized staircase. Returns the
/// number of product points examined (counted as above, or the merge
/// visits under Choose).
///
/// Precondition: staircase_combine_eligible<Dd, Da>(op); both inputs are
/// staircases under (dd, da). \p out must not alias either input; the
/// inputs may alias each other.
template <typename P, typename Dd, typename Da>
std::size_t combine_kway(const std::vector<P>& lhs, const std::vector<P>& rhs,
                         AttackOp op, const Dd& dd, const Da& da,
                         std::vector<std::vector<P>>& runs,
                         std::vector<P>& out, simd::SoaScratch* soa = nullptr,
                         std::uint64_t* simd_lanes = nullptr) {
  out.clear();
  if (lhs.empty() || rhs.empty()) return 0;
  if (op == AttackOp::Choose) {
    return combine_choose_merge(lhs, rhs, dd, da, out);
  }
  // Rows iterate over the smaller operand, so there are fewer groups to
  // merge; the product keeps its (lhs, rhs) operand roles either way
  // (tensor ops are commutative on values, and witness payloads union).
  const bool rows_on_lhs = lhs.size() <= rhs.size();
  const std::vector<P>& rows = rows_on_lhs ? lhs : rhs;
  const std::vector<P>& cols = rows_on_lhs ? rhs : lhs;
  const std::size_t k = rows.size();
  constexpr std::size_t G = simd::kTensorGroupRows;

  // SIMD-eligible domain pairs vectorize each group's single-row endgame;
  // the sweep itself is serial and stays scalar.
  const simd::KernelTable* kt = nullptr;
  simd::SoaScratch* s = nullptr;
  if constexpr (is_simd_pair_eligible_v<Dd, Da>) {
    if (cols.size() < simd::kMaxSelectSpan) {
      kt = simd::active_kernels();
      if (kt != nullptr) s = soa != nullptr ? soa : &simd::tls_soa_scratch();
    }
  }
  const auto sweep = [&](std::size_t g, std::vector<P>& into) {
    into.clear();
    return tensor_group_sweep(rows, cols, rows_on_lhs, g * G,
                              std::min(G, k - g * G), dd, da, kt, s, into,
                              simd_lanes);
  };
  const std::size_t groups = (k + G - 1) / G;
  if (groups == 1) return sweep(0, out);

  // runs[0, depth) is a stack of group staircases in row order, merged
  // like a binary counter so merge inputs stay balanced; runs[depth] is
  // the spare buffer a merge writes into. Every merge passes the lower
  // rows' staircase first, so it wins equal pairs.
  std::size_t examined = 0;
  std::size_t depth = 0;
  const auto merge_top = [&](std::vector<P>& into) {
    pareto_merge_staircases(runs[depth - 2], runs[depth - 1], into, dd, da,
                            soa, simd_lanes);
    --depth;
  };
  for (std::size_t g = 0; g < groups; ++g) {
    if (runs.size() < depth + 2) runs.resize(depth + 2);
    examined += sweep(g, runs[depth]);
    ++depth;
    if (g + 1 == groups) break;
    for (std::size_t x = g + 1; (x & 1) == 0; x >>= 1) {
      merge_top(runs[depth]);
      std::swap(runs[depth - 1], runs[depth + 1]);
    }
  }
  while (depth > 2) {
    merge_top(runs[depth]);
    std::swap(runs[depth - 1], runs[depth + 1]);
  }
  merge_top(out);
  return examined;
}

}  // namespace detail

// ---- fronts --------------------------------------------------------------

/// A Pareto front over payload type \p P (ValuePoint or WitnessPoint).
template <typename P>
class BasicFront {
 public:
  BasicFront() = default;

  /// Builds the Pareto-minimal front of arbitrary \p points.
  template <typename Dd, typename Da>
  static BasicFront minimized(std::vector<P> points, const Dd& dd,
                              const Da& da) {
    detail::pareto_minimize_in_place(points, dd, da);
    return from_staircase(std::move(points));
  }

  /// A front with a single point.
  static BasicFront singleton(P point) {
    BasicFront out;
    out.points_.push_back(std::move(point));
    return out;
  }

  /// Adopts \p points that are already a Pareto-minimal staircase (e.g.
  /// produced by the detail:: staircase primitives). No validation is
  /// performed; passing unsorted or dominated points breaks the front
  /// invariant silently.
  static BasicFront from_staircase(std::vector<P> points) {
    BasicFront out;
    out.points_ = std::move(points);
    return out;
  }

  /// Moves the point storage out (for capacity recycling by FrontArena),
  /// leaving this front empty.
  [[nodiscard]] std::vector<P> take_points() {
    std::vector<P> out = std::move(points_);
    points_.clear();
    return out;
  }

  [[nodiscard]] const std::vector<P>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const P& front_point() const { return points_.at(0); }

  /// The union of two fronts, re-minimized (O(n + m) staircase merge).
  /// Precondition: both fronts are staircases under the *same* \p dd /
  /// \p da passed here - which every front built by this API with those
  /// domains is. Passing a different domain pair than the fronts were
  /// minimized under breaks the merge's sortedness assumption.
  template <typename Dd, typename Da>
  [[nodiscard]] BasicFront merged_with(const BasicFront& other, const Dd& dd,
                                       const Da& da) const {
    std::vector<P> merged;
    detail::pareto_merge_staircases(points_, other.points_, merged, dd, da);
    return from_staircase(std::move(merged));
  }

  /// True iff both fronts contain equivalent value pairs in order
  /// (witnesses are ignored).
  template <typename Dd, typename Da>
  [[nodiscard]] bool same_values(const BasicFront& other, const Dd& dd,
                                 const Da& da) const {
    if (points_.size() != other.points_.size()) return false;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!dd.equivalent(points_[i].def, other.points_[i].def)) return false;
      if (!da.equivalent(points_[i].att, other.points_[i].att)) return false;
    }
    return true;
  }

  /// True iff both fronts hold the same value doubles in order, bit for
  /// bit: every coordinate's bit pattern is compared, so -0.0 differs
  /// from +0.0 and a NaN matches a NaN of the same payload (witness
  /// payloads are ignored). This is the determinism contract of the
  /// thread counts and the memo (docs/CONTRACTS.md): the fuzz suites, the
  /// scaling benches and the edit oracles all gate on this one predicate.
  [[nodiscard]] bool bit_identical_values(const BasicFront& other) const {
    if (points_.size() != other.points_.size()) return false;
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (bits(points_[i].def) != bits(other.points_[i].def)) return false;
      if (bits(points_[i].att) != bits(other.points_[i].att)) return false;
    }
    return true;
  }

  /// As same_values(), but tolerating relative floating-point error up to
  /// \p rel_tol; needed when algorithms combine the same values in
  /// different orders (double arithmetic is only associative up to ULPs).
  [[nodiscard]] bool approx_same_values(const BasicFront& other,
                                        double rel_tol = 1e-9) const {
    if (points_.size() != other.points_.size()) return false;
    auto close = [rel_tol](double x, double y) {
      if (x == y) return true;  // covers equal infinities
      const double scale = std::max({1.0, std::abs(x), std::abs(y)});
      return std::abs(x - y) <= rel_tol * scale;
    };
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!close(points_[i].def, other.points_[i].def)) return false;
      if (!close(points_[i].att, other.points_[i].att)) return false;
    }
    return true;
  }

  /// Renders as "{(d1, a1), (d2, a2), ...}".
  [[nodiscard]] std::string to_string() const {
    std::string out = "{";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "(" + format_value(points_[i].def) + ", " +
             format_value(points_[i].att) + ")";
    }
    out += "}";
    return out;
  }

 private:
  std::vector<P> points_;
};

using Front = BasicFront<ValuePoint>;
using WitnessFront = BasicFront<WitnessPoint>;

/// The sorting reference path of the combine step: materializes the full
/// cross product, sorts it, and sweeps. O(nm log nm); correct for *any*
/// domain pair, monotone or not - this is the fallback for custom domains
/// and the oracle the sort-free path is tested against.
template <typename P, typename Dd, typename Da>
[[nodiscard]] BasicFront<P> combine_fronts_sorted(const BasicFront<P>& lhs,
                                                  const BasicFront<P>& rhs,
                                                  AttackOp op, const Dd& dd,
                                                  const Da& da) {
  std::vector<P> out;
  detail::product_points(lhs.points(), rhs.points(), op, dd, da, out);
  detail::pareto_minimize_in_place(out, dd, da);
  return BasicFront<P>::from_staircase(std::move(out));
}

/// The sort-free staircase path of the combine step (detail::combine_kway:
/// a linear merge under oplus_A, grouped threshold sweeps joined by
/// staircase merges under tensor_A).
/// Precondition: staircase_combine_eligible<Dd, Da>(op) - calling this
/// with a non-monotone combine silently breaks the staircase invariant.
template <typename P, typename Dd, typename Da>
[[nodiscard]] BasicFront<P> combine_fronts_kway(const BasicFront<P>& lhs,
                                                const BasicFront<P>& rhs,
                                                AttackOp op, const Dd& dd,
                                                const Da& da) {
  std::vector<std::vector<P>> runs;
  std::vector<P> out;
  detail::combine_kway(lhs.points(), rhs.points(), op, dd, da, runs, out);
  return BasicFront<P>::from_staircase(std::move(out));
}

/// Combines two child fronts per the Bottom-Up step (Alg. 1 lines 7-8):
/// the defender coordinate always uses tensor_D; the attacker coordinate
/// uses tensor_A or oplus_A per \p op (Table II); the result is
/// re-minimized (sound by Lemma 2). Witness payloads are maintained:
/// defense witnesses union; attack witnesses union under Combine and adopt
/// the chosen side under Choose.
///
/// Dispatches to the sort-free staircase path for domain pairs that
/// certify staircase_combine_eligible and to the sorting path otherwise;
/// the two agree on values (witness choice between equal-value products
/// may differ, both being valid). Hot loops should prefer
/// FrontArena::combine_into, which recycles the scratch buffers.
template <typename P, typename Dd, typename Da>
[[nodiscard]] BasicFront<P> combine_fronts(const BasicFront<P>& lhs,
                                           const BasicFront<P>& rhs,
                                           AttackOp op, const Dd& dd,
                                           const Da& da) {
  if (staircase_combine_eligible<Dd, Da>(op)) {
    return combine_fronts_kway(lhs, rhs, op, dd, da);
  }
  return combine_fronts_sorted(lhs, rhs, op, dd, da);
}

/// Running totals of the combine work a FrontArena has served; benches
/// and the analysis trace (trace.hpp) read these to show which path the
/// hot loop actually took and how much of the product it examined.
struct CombineStats {
  /// Combines on the sort-free path: tensor_A grouped sweeps and oplus_A
  /// two-pointer merges alike.
  std::uint64_t kway_combines = 0;
  std::uint64_t sorted_combines = 0;  ///< combines that sorted the product
  /// Two-staircase unions via merged_transformed (Algorithm 3's defense
  /// step); already sort-free for monotone domains.
  std::uint64_t staircase_merges = 0;
  /// Product points examined: every point of the cross product on the
  /// sorting path; on the sort-free path the tensor_A sweep's cursor
  /// steps, row drops and emitted heads (the same count at every SIMD
  /// level), and the oplus_A merge visits (at most |lhs| + |rhs|). The
  /// gap between this and the full product is the row drops' saving.
  std::uint64_t points_examined = 0;
  std::uint64_t points_kept = 0;  ///< points surviving minimization
  /// Point-elements streamed through the SIMD batch kernels (0 on the
  /// scalar dispatch level or for non-eligible domains). A throughput
  /// diagnostic, not a determinism-relevant quantity: the same analysis
  /// at different dispatch levels reports different lane counts while
  /// producing bit-identical fronts.
  std::uint64_t simd_lanes_used = 0;

  /// Accumulates another counter set (e.g. the per-slot arenas of a
  /// parallel run; integer sums are scheduling-invariant).
  CombineStats& operator+=(const CombineStats& other) {
    kway_combines += other.kway_combines;
    sorted_combines += other.sorted_combines;
    staircase_merges += other.staircase_merges;
    points_examined += other.points_examined;
    points_kept += other.points_kept;
    simd_lanes_used += other.simd_lanes_used;
    return *this;
  }

  bool operator==(const CombineStats&) const = default;
};

/// Scratch space for the combine-heavy inner loops of one kernel run (one
/// arena per scheduler slot when the run is parallel; not thread-safe).
/// Every combine reuses the arena's cross-product and output buffers
/// instead of allocating, and the accumulator's old storage is recycled
/// as the next output buffer. Results never depend on arena state.
template <typename P>
class FrontArena {
 public:
  /// Replaces \p acc with combine_fronts(acc, rhs, op, dd, da).
  ///
  /// Domain pairs certifying staircase_combine_eligible (the static
  /// built-ins) take the sort-free staircase path (linear merge under
  /// oplus_A, grouped sweeps and merges under tensor_A), which never
  /// materializes the cross product; unmarked domains (DynamicDomain, the
  /// runtime Semiring) materialize, sort, and sweep.
  template <typename Dd, typename Da>
  void combine_into(BasicFront<P>& acc, const BasicFront<P>& rhs, AttackOp op,
                    const Dd& dd, const Da& da) {
    if (staircase_combine_eligible<Dd, Da>(op)) {
      stats_.points_examined += detail::combine_kway(
          acc.points(), rhs.points(), op, dd, da, runs_, spare_, &soa_,
          &stats_.simd_lanes_used);
      ++stats_.kway_combines;
      for (std::vector<P>& run : runs_) trim(run, spare_.size());
    } else {
      detail::product_points(acc.points(), rhs.points(), op, dd, da, scratch_);
      std::sort(scratch_.begin(), scratch_.end(),
                detail::FrontLess<Dd, Da>{dd, da});
      spare_.clear();
      // No reserve to the cross-product size: the output buffer is adopted
      // by acc and can outlive the arena (e.g. stored as a per-node
      // front), so its capacity must stay proportional to the *kept*
      // points.
      for (P& p : scratch_) {
        detail::staircase_push(spare_, std::move(p), dd, da);
      }
      stats_.points_examined += scratch_.size();
      ++stats_.sorted_combines;
      trim(scratch_, spare_.size());
    }
    stats_.points_kept += spare_.size();
    std::vector<P> recycled = acc.take_points();
    acc = BasicFront<P>::from_staircase(std::move(spare_));
    spare_ = std::move(recycled);
  }

  [[nodiscard]] const CombineStats& stats() const noexcept { return stats_; }

  /// Builds the minimized union of \p base with transform(q) for every
  /// point q of \p other, where \p transform shifts the defender
  /// coordinate via tensor_D (Algorithm 3's defense-variable step). For
  /// domains marked kMonotoneCombine the shift is order-preserving, so
  /// the union is a merge of two staircases and needs no sort; unmarked
  /// domains (DynamicDomain, runtime Semiring) take the sorting path so
  /// the result is a valid staircase even if a custom combine quietly
  /// violates the monotonicity axiom.
  template <typename Dd, typename Da, typename Transform>
  [[nodiscard]] BasicFront<P> merged_transformed(const BasicFront<P>& base,
                                                 const BasicFront<P>& other,
                                                 Transform&& transform,
                                                 const Dd& dd, const Da& da) {
    scratch_.clear();
    scratch_.reserve(other.size());
    for (const P& q : other.points()) scratch_.push_back(transform(q));
    std::vector<P> merged;
    if constexpr (is_monotone_combine_v<Dd>) {
      detail::pareto_merge_staircases(base.points(), scratch_, merged, dd, da,
                                      &soa_, &stats_.simd_lanes_used);
    } else {
      merged.reserve(base.size() + scratch_.size());
      merged.insert(merged.end(), base.points().begin(), base.points().end());
      merged.insert(merged.end(), scratch_.begin(), scratch_.end());
      detail::pareto_minimize_in_place(merged, dd, da);
    }
    ++stats_.staircase_merges;
    stats_.points_examined += base.size() + scratch_.size();
    stats_.points_kept += merged.size();
    return BasicFront<P>::from_staircase(std::move(merged));
  }

 private:
  /// Bounds a combine buffer's *retained* capacity at a multiple of the
  /// points the combine actually kept: an arena that served one giant
  /// combine (a custom-domain cross product, or tensor_A group staircases
  /// that mostly dominate each other) must not pin that memory for the
  /// rest of its run. The 8x / 1024-entry hysteresis keeps
  /// steady-state recycling allocation-free.
  static void trim(std::vector<P>& buffer, std::size_t kept) {
    const std::size_t cap = buffer.capacity();
    if (cap > 1024 && cap / 8 > kept) {
      buffer.clear();
      buffer.shrink_to_fit();
    }
  }

  std::vector<P> scratch_;  ///< cross-product / transform buffer
  std::vector<P> spare_;    ///< recycled output buffer
  std::vector<std::vector<P>> runs_;  ///< tensor_A group staircases
  simd::SoaScratch soa_;  ///< batch-kernel scratch
  CombineStats stats_;
};

/// Reference O(n^2) Pareto minimization used by tests to validate the
/// staircase implementation.
template <typename P, typename Dd, typename Da>
[[nodiscard]] std::vector<P> pareto_min_bruteforce(const std::vector<P>& pts,
                                                   const Dd& dd,
                                                   const Da& da) {
  std::vector<P> kept;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size() && !dominated; ++j) {
      if (i == j) continue;
      const bool j_dominates = dominates(pts[j], pts[i], dd, da);
      const bool values_equal = dd.equivalent(pts[i].def, pts[j].def) &&
                                da.equivalent(pts[i].att, pts[j].att);
      // Equal value pairs collapse: keep only the first occurrence.
      if (values_equal) {
        if (j < i) dominated = true;
      } else if (j_dominates) {
        dominated = true;
      }
    }
    if (!dominated) kept.push_back(pts[i]);
  }
  return kept;
}

}  // namespace adtp
