#include "core/naive.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "core/domains.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace adtp {

namespace {

/// Fast structure-function evaluation over uint64 masks. Bit i of the
/// attack (defense) mask is BAS (BDS) index i. Only valid when
/// |A|, |D| <= 64, which the max_bits guard already implies.
class MaskEvaluator {
 public:
  explicit MaskEvaluator(const Adt& adt) : adt_(&adt), values_(adt.size()) {
    // Precompute leaf positions: for each node, which mask bit drives it.
    leaf_bit_.assign(adt.size(), 0);
    leaf_kind_.assign(adt.size(), 0);
    for (NodeId id : adt.attack_steps()) {
      leaf_kind_[id] = 1;
      leaf_bit_[id] = adt.attack_index(id);
    }
    for (NodeId id : adt.defense_steps()) {
      leaf_kind_[id] = 2;
      leaf_bit_[id] = adt.defense_index(id);
    }
  }

  [[nodiscard]] bool root_value(std::uint64_t defense, std::uint64_t attack) {
    const Adt& adt = *adt_;
    for (NodeId v : adt.topological_order()) {
      const Node& n = adt.node(v);
      char value = 0;
      switch (n.type) {
        case GateType::BasicStep:
          value = leaf_kind_[v] == 1
                      ? static_cast<char>((attack >> leaf_bit_[v]) & 1)
                      : static_cast<char>((defense >> leaf_bit_[v]) & 1);
          break;
        case GateType::And:
          value = 1;
          for (NodeId c : n.children) {
            value = static_cast<char>(value & values_[c]);
          }
          break;
        case GateType::Or:
          value = 0;
          for (NodeId c : n.children) {
            value = static_cast<char>(value | values_[c]);
          }
          break;
        case GateType::Inhibit:
          value = static_cast<char>(values_[n.children[0]] &&
                                    !values_[n.children[1]]);
          break;
      }
      values_[v] = value;
    }
    return values_[adt.root()] != 0;
  }

 private:
  const Adt* adt_;
  std::vector<char> values_;
  std::vector<std::size_t> leaf_bit_;
  std::vector<char> leaf_kind_;
};

BitVec mask_to_bitvec(std::uint64_t mask, std::size_t size) {
  BitVec v(size);
  for (std::size_t i = 0; i < size; ++i) {
    if ((mask >> i) & 1ULL) v.set(i);
  }
  return v;
}

/// beta-hat_D(delta) over the defense mask, combining in the same
/// ascending-index order as AugmentedAdt::defense_vector_value (so
/// witness replay through that function is exact for all domains whose
/// combine is associative in this order - and within ULPs otherwise).
template <typename Dd>
double delta_defense_value(const AugmentedAdt& aadt, const Dd& dd,
                           std::uint64_t delta) {
  double def = dd.one();
  while (delta != 0) {
    const auto i = static_cast<std::size_t>(std::countr_zero(delta));
    def = dd.combine(def, aadt.defense_value(i));
    delta &= delta - 1;
  }
  return def;
}

void check_limits(const AugmentedAdt& aadt, const NaiveOptions& options) {
  const std::size_t bits = aadt.adt().num_attacks() + aadt.adt().num_defenses();
  if (bits > options.max_bits) {
    throw LimitError("naive: |D| + |A| = " + std::to_string(bits) +
                     " exceeds the enumeration guard of " +
                     std::to_string(options.max_bits) + " bits");
  }
}

/// beta-hat_A for attack masks. Tabulated by subset dynamic programming
/// while the table stays small (2^22 doubles = 32 MiB); above that,
/// computed per mask. Built once, then shared read-only across shards.
template <typename Da>
class AttackValues {
 public:
  AttackValues(const AugmentedAdt& aadt, const Da& da)
      : aadt_(&aadt), da_(&da) {
    const std::size_t num_a = aadt.adt().num_attacks();
    if (num_a <= 22) {
      table_.resize(std::size_t{1} << num_a);
      table_[0] = da.one();
      for (std::uint64_t alpha = 1; alpha < table_.size(); ++alpha) {
        const std::uint64_t low = alpha & (~alpha + 1);  // lowest set bit
        const auto low_index = static_cast<std::size_t>(std::countr_zero(low));
        table_[alpha] =
            da.combine(table_[alpha ^ low], aadt.attack_value(low_index));
      }
    }
  }

  [[nodiscard]] double operator()(std::uint64_t alpha) const {
    if (!table_.empty()) return table_[alpha];
    double v = da_->one();
    std::uint64_t rest = alpha;
    while (rest != 0) {
      const auto i = static_cast<std::size_t>(std::countr_zero(rest));
      v = da_->combine(v, aadt_->attack_value(i));
      rest &= rest - 1;
    }
    return v;
  }

 private:
  const AugmentedAdt* aadt_;
  const Da* da_;
  std::vector<double> table_;
};

/// Sharding floor: a shard must amortize its task's scheduling cost (and
/// on a scheduler's first run, its worker's start), so each shard gets at
/// least this many root evaluations (delta/alpha pairs, each a full
/// structure-function walk). Below the floor the enumeration runs in
/// fewer shards - possibly one - which keeps small models in a wide
/// shared batch from paying more for scheduling than for enumerating.
constexpr double kMinEvalsPerShard = 16384;

/// The number of shards actually used: the borrowed scheduler's slot
/// count (one shard without a pool), clamped so no shard is empty and no
/// shard falls under the work floor.
unsigned resolve_shards(const RunContext& run, std::uint64_t num_deltas,
                        std::size_t num_attacks) {
  std::uint64_t threads = run.pool != nullptr ? run.pool->threads() : 1;
  threads = std::min<std::uint64_t>(threads, std::max<std::uint64_t>(
                                                 1, num_deltas));
  // Work estimate in double: 2^(|D| + |A|) overflows uint64 only when it
  // is unenumerable anyway.
  const double evals = std::ldexp(static_cast<double>(num_deltas),
                                  static_cast<int>(num_attacks));
  const double fair = std::max(1.0, evals / kMinEvalsPerShard);
  if (fair < static_cast<double>(threads)) {
    threads = static_cast<std::uint64_t>(fair);
  }
  return static_cast<unsigned>(threads);
}

/// Algorithm 2 lines 4-11 for every delta in [begin, end): the 2^|A|
/// response scan with inlined combine/prefer, reporting each delta's
/// optimal response to \p emit(delta, found, best_value, best_alpha).
/// One MaskEvaluator per call, so concurrent shards never share mutable
/// state; \p values is read-only.
template <typename Da, typename Emit>
void scan_deltas(const AugmentedAdt& aadt, const RunContext& run,
                 const Da& da, const AttackValues<Da>& values,
                 std::uint64_t begin, std::uint64_t end, Emit&& emit) {
  const Adt& adt = aadt.adt();
  const std::size_t num_a = adt.num_attacks();
  const bool root_is_attack = adt.agent(adt.root()) == Agent::Attacker;
  MaskEvaluator eval(adt);

  for (std::uint64_t delta = begin; delta < end; ++delta) {
    check_interrupt(run.deadline, run.cancel, "naive");
    bool found = false;
    double best = da.zero();
    std::uint64_t best_alpha = 0;
    for (std::uint64_t alpha = 0; alpha < (std::uint64_t{1} << num_a);
         ++alpha) {
      const bool value = eval.root_value(delta, alpha);
      const bool success = root_is_attack ? value : !value;
      if (!success) continue;
      const double candidate = values(alpha);
      if (!found || da.strictly_prefer(candidate, best)) {
        found = true;
        best = candidate;
        best_alpha = alpha;
      }
    }
    emit(delta, found, best, best_alpha);
  }
}

/// The sharded kernel of enumerate_feasible_events: shards fill disjoint
/// slices of the delta-ordered output vector, so the result is identical
/// for every thread count.
template <typename Da>
std::vector<FeasibleEvent> enumerate_kernel(const AugmentedAdt& aadt,
                                            const RunContext& run,
                                            const Da& da) {
  const std::size_t num_d = aadt.adt().num_defenses();
  const std::size_t num_a = aadt.adt().num_attacks();
  const std::uint64_t total = std::uint64_t{1} << num_d;
  const unsigned threads =
      resolve_shards(run, total, aadt.adt().num_attacks());

  const AttackValues<Da> values(aadt, da);
  std::vector<FeasibleEvent> events(total);
  run_sharded(run.pool, threads, total, [&](unsigned, std::uint64_t begin,
                                  std::uint64_t end) {
    scan_deltas(aadt, run, da, values, begin, end,
                [&](std::uint64_t delta, bool found, double best,
                    std::uint64_t best_alpha) {
                  FeasibleEvent& ev = events[delta];
                  ev.defense = mask_to_bitvec(delta, num_d);
                  ev.defense_value = aadt.defense_vector_value(ev.defense);
                  if (found) {
                    ev.response = mask_to_bitvec(best_alpha, num_a);
                    ev.attack_value = best;
                  } else {
                    ev.attack_value = da.zero();  // 1_oplus_A: no attack
                  }
                });
  });
  return events;
}

/// The sharded kernel of naive_front and naive_front_witness: each shard
/// minimizes its own slice of the delta space into a staircase (memory
/// stays proportional to the partial fronts, not the 2^|D| event set),
/// and the per-shard fronts are reduced pairwise in shard order.
/// Minimization only *selects* among per-delta values computed
/// independently of the sharding, so the values are identical for every
/// thread count.
///
/// Witness determinism across thread counts: points enter in ascending
/// delta order and are compacted with the *stable* minimize, so among
/// equal value pairs the smallest delta survives a shard; the staircase
/// merge keeps the earlier operand on value ties, and shards are merged
/// in ascending delta order - so the surviving witness for every kept
/// value pair is the smallest-delta one overall, for every shard layout.
template <typename P, typename Dd, typename Da>
BasicFront<P> front_kernel(const AugmentedAdt& aadt, const RunContext& run,
                           AnalysisTrace* trace, const Dd& dd, const Da& da) {
  constexpr bool kWitness = std::is_same_v<P, WitnessPoint>;
  const std::size_t num_d = aadt.adt().num_defenses();
  const std::size_t num_a = aadt.adt().num_attacks();
  const std::uint64_t total = std::uint64_t{1} << num_d;
  const unsigned threads = resolve_shards(run, total, num_a);

  const AttackValues<Da> values(aadt, da);
  std::vector<std::vector<P>> shards(threads);
  const TaskRunStats stats = run_sharded(run.pool, threads, total,
              [&](unsigned shard, std::uint64_t begin,
                                  std::uint64_t end) {
    // Shard memory is bounded: raw points are compacted to the running
    // partial front at geometric capacity checkpoints (minimizing a
    // partially-minimized buffer is sound - the sort re-establishes the
    // staircase order), so a shard holds O(max(front, floor)) points, not
    // its whole delta slice. Witness points are heavy (two bitvecs
    // each), so their floor is lower.
    constexpr std::size_t kCompactFloor = std::size_t{1}
                                          << (kWitness ? 12 : 16);
    std::vector<P>& points = shards[shard];
    const auto compact = [&] {
      if constexpr (kWitness) {
        detail::pareto_minimize_stable(points, dd, da);
      } else {
        detail::pareto_minimize_in_place(points, dd, da);
      }
    };
    points.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(end - begin, kCompactFloor)));
    scan_deltas(aadt, run, da, values, begin, end,
                [&](std::uint64_t delta, bool found, double best,
                    std::uint64_t best_alpha) {
                  P p;
                  p.def = delta_defense_value(aadt, dd, delta);
                  p.att = found ? best : da.zero();
                  if constexpr (kWitness) {
                    p.defense = mask_to_bitvec(delta, num_d);
                    p.attack = found ? mask_to_bitvec(best_alpha, num_a)
                                     : BitVec(num_a);
                  }
                  points.push_back(std::move(p));
                  if (points.size() == points.capacity() &&
                      points.size() >= kCompactFloor) {
                    compact();
                  }
                });
    compact();
  });

  std::vector<P> front = std::move(shards[0]);
  std::vector<P> merged;
  for (unsigned s = 1; s < threads; ++s) {
    detail::pareto_merge_staircases(front, shards[s], merged, dd, da);
    front.swap(merged);
  }
  if (trace != nullptr) {
    trace->threads_used = std::max(trace->threads_used, threads);
    trace->sched += stats;
    trace->max_front_size = std::max(trace->max_front_size, front.size());
  }
  return BasicFront<P>::from_staircase(std::move(front));
}

}  // namespace

std::vector<FeasibleEvent> enumerate_feasible_events(
    const AugmentedAdt& aadt, const NaiveOptions& options,
    const RunContext& run) {
  check_limits(aadt, options);
  // The enumeration depends on the attacker domain only; single-domain
  // dispatch avoids instantiating it per (defender, attacker) pair.
  return dispatch_domain(aadt.attacker_domain(), [&](const auto& da) {
    return enumerate_kernel(aadt, run, da);
  });
}

Front naive_front(const AugmentedAdt& aadt, const NaiveOptions& options,
                  const RunContext& run, AnalysisTrace* trace) {
  check_limits(aadt, options);
  // Unlike enumerate_feasible_events, the front path minimizes inside the
  // shards, so both domains are needed as inlinable policies.
  return dispatch_domains(aadt.defender_domain(), aadt.attacker_domain(),
                          [&](const auto& dd, const auto& da) {
                            return front_kernel<ValuePoint>(aadt, run, trace,
                                                            dd, da);
                          });
}

WitnessFront naive_front_witness(const AugmentedAdt& aadt,
                                 const NaiveOptions& options,
                                 const RunContext& run) {
  check_limits(aadt, options);
  // Sharded like naive_front - the witness path no longer funnels through
  // the full 2^|D| event vector; see front_kernel for why the kept
  // witnesses are identical for every thread count.
  return dispatch_domains(aadt.defender_domain(), aadt.attacker_domain(),
                          [&](const auto& dd, const auto& da) {
                            return front_kernel<WitnessPoint>(aadt, run,
                                                              nullptr, dd, da);
                          });
}

}  // namespace adtp
