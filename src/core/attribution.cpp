#include "core/attribution.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/json.hpp"

namespace adtp {

void Attribution::set(std::string name, double value) {
  const auto id = static_cast<std::uint32_t>(entries_.size());
  const std::uint32_t at = index_.insert(name, id, name_of());
  if (at != id) {
    entries_[at].second = value;
    return;
  }
  entries_.emplace_back(std::move(name), value);
}

bool Attribution::has(std::string_view name) const {
  return index_.find(name, name_of()) != NameIndex::kAbsent;
}

double Attribution::get(std::string_view name) const {
  const std::uint32_t at = index_.find(name, name_of());
  if (at == NameIndex::kAbsent) {
    throw AttributionError("Attribution: no value assigned to '" +
                           std::string(name) + "'");
  }
  return entries_[at].second;
}

void Attribution::bake(const Adt& adt, std::vector<double>& attack,
                       std::vector<double>& defense) const {
  // NaN is rejected as a value below, so a NaN left in a slot means the
  // step got no value.
  constexpr double kUnassigned = std::numeric_limits<double>::quiet_NaN();
  attack.assign(adt.num_attacks(), kUnassigned);
  defense.assign(adt.num_defenses(), kUnassigned);
  for (const auto& [name, value] : entries_) {
    const auto id = adt.find(name);
    if (!id) {
      throw AttributionError("Attribution: value assigned to unknown node '" +
                             name + "'");
    }
    const Node& node = adt.node(*id);
    if (node.type != GateType::BasicStep) {
      throw AttributionError("Attribution: '" + name +
                             "' is a gate; only basic steps carry values");
    }
    if (std::isnan(value)) {
      throw AttributionError("Attribution: value of '" + name + "' is NaN");
    }
    if (node.agent == Agent::Attacker) {
      attack[adt.attack_index(*id)] = value;
    } else {
      defense[adt.defense_index(*id)] = value;
    }
  }
  auto require_all = [&](const std::vector<double>& values,
                         const std::vector<NodeId>& steps, const char* kind) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (std::isnan(values[i])) {
        throw AttributionError("Attribution: basic " + std::string(kind) +
                               " step '" + adt.name(steps[i]) +
                               "' has no value");
      }
    }
  };
  require_all(attack, adt.attack_steps(), "attack");
  require_all(defense, adt.defense_steps(), "defense");
}

void Attribution::validate(const Adt& adt) const {
  std::vector<double> attack;
  std::vector<double> defense;
  bake(adt, attack, defense);
}

namespace {

/// Throws AttributionError for the first value outside \p domain.
void require_in_domain(const Adt& adt, const std::vector<double>& values,
                       const std::vector<NodeId>& steps,
                       const Semiring& domain, const char* kind) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!domain.contains(values[i])) {
      throw AttributionError("AugmentedAdt: value " +
                             format_double_exact(values[i]) + " of " + kind +
                             " step '" + adt.name(steps[i]) +
                             "' is outside the " + domain.name() + " domain");
    }
  }
}

}  // namespace

AugmentedAdt::AugmentedAdt(Adt adt, Attribution attribution,
                           Semiring defender_domain, Semiring attacker_domain)
    : adt_(std::move(adt)),
      attribution_(std::move(attribution)),
      defender_domain_(std::move(defender_domain)),
      attacker_domain_(std::move(attacker_domain)) {
  adt_.freeze();
  attribution_.bake(adt_, attack_values_, defense_values_);
  require_in_domain(adt_, attack_values_, adt_.attack_steps(),
                    attacker_domain_, "attack");
  require_in_domain(adt_, defense_values_, adt_.defense_steps(),
                    defender_domain_, "defense");
}

double AugmentedAdt::value_of(NodeId id) const {
  const Node& n = adt_.node(id);
  if (n.type != GateType::BasicStep) {
    throw AttributionError("AugmentedAdt::value_of: '" + n.name +
                           "' is not a basic step");
  }
  return n.agent == Agent::Attacker
             ? attack_values_[adt_.attack_index(id)]
             : defense_values_[adt_.defense_index(id)];
}

double AugmentedAdt::defense_vector_value(const BitVec& defense) const {
  double value = defender_domain_.one();
  for (std::size_t i = 0; i < defense.size(); ++i) {
    if (defense.test(i)) {
      value = defender_domain_.combine(value, defense_values_[i]);
    }
  }
  return value;
}

double AugmentedAdt::attack_vector_value(const BitVec& attack) const {
  double value = attacker_domain_.one();
  for (std::size_t i = 0; i < attack.size(); ++i) {
    if (attack.test(i)) {
      value = attacker_domain_.combine(value, attack_values_[i]);
    }
  }
  return value;
}

}  // namespace adtp
