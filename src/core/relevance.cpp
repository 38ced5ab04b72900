#include "core/relevance.hpp"

#include "bdd/build.hpp"
#include "core/budget.hpp"

namespace adtp {

RelevanceReport analyze_defense_relevance(const AugmentedAdt& aadt,
                                          const BddBuOptions& options) {
  const Adt& adt = aadt.adt();
  const bdd::VarOrder order = resolve_order(adt, options);
  bdd::Manager manager(order.num_vars(), options.node_limit);
  const bdd::Ref root = bdd::build_structure_function(manager, adt, order);

  RelevanceReport report;
  report.full_front = bdd_bu_on_bdd(aadt, manager, root, order);

  for (NodeId d : adt.defense_steps()) {
    // Forbid d: the cofactor f|_{delta_d = 0} never tests d's variable,
    // so the same defense-first order stays valid.
    const bdd::Ref restricted =
        manager.restrict_var(root, order.var_of(d), false);
    DefenseRelevance entry;
    entry.defense = d;
    entry.front_without = bdd_bu_on_bdd(aadt, manager, restricted, order);
    entry.relevant = !entry.front_without.same_values(
        report.full_front, aadt.defender_domain(), aadt.attacker_domain());
    entry.ceiling_with = unlimited_defender_value(report.full_front);
    entry.ceiling_without = unlimited_defender_value(entry.front_without);
    report.defenses.push_back(std::move(entry));
  }
  return report;
}

}  // namespace adtp
