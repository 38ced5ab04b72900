#include "core/whatif.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "core/node_memo.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace adtp {

namespace {

/// Follows the alias chain (INH nodes collapsed onto their inhibited
/// child). Chains are pre-resolved in topo order, so this is one hop.
NodeId resolve(const std::vector<NodeId>& alias, NodeId v) {
  return alias[v] == v ? v : alias[v];
}

/// Sorted bit-pattern keys of a front's points, for exact (bit-identical)
/// set comparison between two fronts.
std::vector<std::pair<std::uint64_t, std::uint64_t>> point_keys(
    const Front& front) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  keys.reserve(front.points().size());
  for (const ValuePoint& p : front.points()) {
    keys.emplace_back(std::bit_cast<std::uint64_t>(p.def),
                      std::bit_cast<std::uint64_t>(p.att));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Fills the variant's front_shift / points_changed against the baseline.
void score_variant(const Front& baseline, CounterfactualVariant& variant) {
  const auto base = point_keys(baseline);
  const auto var = point_keys(variant.front);
  std::size_t common = 0;
  for (std::size_t i = 0, j = 0; i < base.size() && j < var.size();) {
    if (base[i] < var[j]) {
      ++i;
    } else if (var[j] < base[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  variant.points_changed = base.size() + var.size() - 2 * common;
  const std::size_t larger = std::max(base.size(), var.size());
  variant.front_shift =
      larger == 0 ? 0.0
                  : 1.0 - static_cast<double>(common) /
                              static_cast<double>(larger);
}

}  // namespace

std::optional<AugmentedAdt> with_basic_step_removed(const AugmentedAdt& aadt,
                                                    NodeId leaf) {
  const Adt& adt = aadt.adt();
  adt.require_frozen();
  if (leaf >= adt.size() || adt.type(leaf) != GateType::BasicStep) {
    throw ModelError(
        "with_basic_step_removed: node is not a basic step");
  }

  // Pass 1 (topo, children first): constant-fold x_leaf := false.
  //  - AND with a false child is false; OR with only false children is
  //    false; INH is false iff its inhibited child is (a false trigger
  //    never falsifies the INH - it removes the inhibition).
  //  - An INH whose trigger folded to false collapses onto its inhibited
  //    child (f(INH) = f(inhibited) AND NOT false); the alias array maps
  //    such nodes to their replacement, chains pre-resolved.
  const std::size_t n = adt.size();
  std::vector<char> is_false(n, 0);
  std::vector<NodeId> alias(n);
  for (std::size_t v = 0; v < n; ++v) alias[v] = static_cast<NodeId>(v);
  for (NodeId v : adt.topological_order()) {
    switch (adt.type(v)) {
      case GateType::BasicStep:
        is_false[v] = (v == leaf) ? 1 : 0;
        break;
      case GateType::And: {
        for (NodeId c : adt.children(v)) {
          if (is_false[c]) {
            is_false[v] = 1;
            break;
          }
        }
        break;
      }
      case GateType::Or: {
        is_false[v] = 1;
        for (NodeId c : adt.children(v)) {
          if (!is_false[c]) {
            is_false[v] = 0;
            break;
          }
        }
        break;
      }
      case GateType::Inhibit: {
        const NodeId inhibited = adt.inhibited_child(v);
        const NodeId trigger = adt.trigger_child(v);
        if (is_false[inhibited]) {
          is_false[v] = 1;
        } else if (is_false[trigger]) {
          alias[v] = resolve(alias, inhibited);
        }
        break;
      }
    }
  }

  const NodeId new_root = resolve(alias, adt.root());
  if (is_false[new_root]) return std::nullopt;

  // Pass 2 (reverse topo, root first): mark the nodes the folded model
  // still needs. OR gates skip false children; aliased INH nodes are
  // traversed through their replacement.
  std::vector<char> needed(n, 0);
  needed[new_root] = 1;
  const auto& topo = adt.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (!needed[v] || adt.type(v) == GateType::BasicStep) continue;
    for (NodeId c : adt.children(v)) {
      if (adt.type(v) == GateType::Or && is_false[c]) continue;
      needed[resolve(alias, c)] = 1;
    }
  }

  // Pass 3 (topo): rebuild the surviving structure. Names, agents and
  // child order are preserved, so untouched subtrees hash identically to
  // the baseline's and share its memoized fronts.
  Adt reduced;
  std::vector<NodeId> map(n, kNoNode);
  for (NodeId v : topo) {
    if (!needed[v] || alias[v] != v) continue;
    switch (adt.type(v)) {
      case GateType::BasicStep:
        map[v] = reduced.add_basic(adt.name(v), adt.agent(v));
        break;
      case GateType::And:
      case GateType::Or: {
        std::vector<NodeId> children;
        children.reserve(adt.children(v).size());
        for (NodeId c : adt.children(v)) {
          if (adt.type(v) == GateType::Or && is_false[c]) continue;
          children.push_back(map[resolve(alias, c)]);
        }
        map[v] = reduced.add_gate(adt.name(v), adt.type(v), adt.agent(v),
                                  std::move(children));
        break;
      }
      case GateType::Inhibit:
        map[v] = reduced.add_inhibit(
            adt.name(v), map[resolve(alias, adt.inhibited_child(v))],
            map[resolve(alias, adt.trigger_child(v))]);
        break;
    }
  }
  reduced.set_root(map[new_root]);
  reduced.freeze();

  Attribution attribution;
  for (NodeId a : reduced.attack_steps()) {
    attribution.set(reduced.name(a), aadt.attribution().get(reduced.name(a)));
  }
  for (NodeId d : reduced.defense_steps()) {
    attribution.set(reduced.name(d), aadt.attribution().get(reduced.name(d)));
  }
  return AugmentedAdt(std::move(reduced), std::move(attribution),
                      aadt.defender_domain(), aadt.attacker_domain());
}

std::optional<AugmentedAdt> with_basic_step_removed(const AugmentedAdt& aadt,
                                                    const std::string& name) {
  return with_basic_step_removed(aadt, aadt.adt().at(name));
}

CounterfactualReport counterfactual_sweep(const AugmentedAdt& aadt,
                                          const AnalysisOptions& options) {
  Stopwatch watch;
  const Adt& adt = aadt.adt();
  adt.require_frozen();

  CounterfactualReport report;
  // Private memo sized so the baseline's gates plus every variant's spine
  // stay resident for the whole sweep.
  NodeFrontMemo local_memo(std::max<std::size_t>(4096, 4 * adt.size()));
  NodeFrontMemo* memo =
      options.run.memo != nullptr ? options.run.memo : &local_memo;

  report.baseline = analyze_incremental(aadt, *memo, options);
  report.memo_hits += report.baseline.memo_hits;
  report.memo_misses += report.baseline.memo_misses;

  std::vector<NodeId> steps = adt.attack_steps();
  steps.insert(steps.end(), adt.defense_steps().begin(),
               adt.defense_steps().end());
  std::sort(steps.begin(), steps.end());

  report.variants.reserve(steps.size());
  for (NodeId step : steps) {
    CounterfactualVariant variant;
    variant.node = step;
    variant.name = adt.name(step);
    variant.agent = adt.agent(step);
    Stopwatch variant_watch;
    try {
      if (std::optional<AugmentedAdt> reduced =
              with_basic_step_removed(aadt, step)) {
        AnalysisResult result =
            analyze_incremental(*reduced, *memo, options);
        variant.front = std::move(result.front);
        report.memo_hits += result.memo_hits;
        report.memo_misses += result.memo_misses;
      } else {
        variant.trivial = true;
      }
      variant.ok = true;
      score_variant(report.baseline.front, variant);
    } catch (const std::exception& e) {
      variant.error = e.what();
    }
    variant.seconds = variant_watch.seconds();
    report.variants.push_back(std::move(variant));
  }

  report.ranking.resize(report.variants.size());
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    report.ranking[i] = i;
  }
  std::sort(report.ranking.begin(), report.ranking.end(),
            [&](std::size_t a, std::size_t b) {
              const CounterfactualVariant& va = report.variants[a];
              const CounterfactualVariant& vb = report.variants[b];
              if (va.front_shift != vb.front_shift) {
                return va.front_shift > vb.front_shift;
              }
              return va.name < vb.name;
            });

  report.seconds = watch.seconds();
  return report;
}

}  // namespace adtp
