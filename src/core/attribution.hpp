/// \file attribution.hpp
/// \brief Basic assignments beta_A / beta_D and augmented ADTs (Def. 5-6).

#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adt/adt.hpp"
#include "core/semiring.hpp"
#include "util/bitvec.hpp"
#include "util/name_index.hpp"

namespace adtp {

/// The basic assignment functions: beta_A maps each BAS to a value of the
/// attacker domain, beta_D each BDS to a value of the defender domain.
///
/// Entries are kept in insertion order, each name once, and found
/// through a NameIndex.
class Attribution {
 public:
  Attribution() = default;

  /// Assigns a value to the basic step named \p name (agent inferred from
  /// the node when validated). Values may be set before or after the Adt
  /// is built; validation happens in validate()/AugmentedAdt.
  void set(std::string name, double value);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double get(std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Checks that every BAS and BDS of \p adt has a non-NaN value and that
  /// no value refers to a missing or non-leaf node; the checks and their
  /// order are AugmentedAdt's, short of the domain checks.
  /// Throws AttributionError otherwise.
  void validate(const Adt& adt) const;

 private:
  friend class AugmentedAdt;

  /// Writes every entry into the slot of its basic step in \p attack
  /// (indexed like adt.attack_steps()) and \p defense, one name lookup
  /// per entry, then reports the first step left without a value. Throws
  /// AttributionError on an unknown name, a gate or a NaN (in entry
  /// order), then on a missing attack step, then on a missing defense
  /// step.
  void bake(const Adt& adt, std::vector<double>& attack,
            std::vector<double>& defense) const;

  /// index_'s view of the names: entry id -> entries_[id].first.
  [[nodiscard]] auto name_of() const noexcept {
    return [this](std::uint32_t id) -> std::string_view {
      return entries_[id].first;
    };
  }

  std::vector<std::pair<std::string, double>> entries_;
  NameIndex index_;
};

/// An augmented attack-defense tree (Definition 5): the structure T plus
/// the two attribute domains and the basic assignment.
///
/// The attribution is baked in one pass into dense per-index arrays so
/// the analysis algorithms can do O(1) lookups by BAS/BDS index.
class AugmentedAdt {
 public:
  /// \p adt must already be frozen (or freezable); throws on invalid
  /// attribution.
  AugmentedAdt(Adt adt, Attribution attribution, Semiring defender_domain,
               Semiring attacker_domain);

  [[nodiscard]] const Adt& adt() const noexcept { return adt_; }
  [[nodiscard]] const Semiring& defender_domain() const noexcept {
    return defender_domain_;
  }
  [[nodiscard]] const Semiring& attacker_domain() const noexcept {
    return attacker_domain_;
  }
  [[nodiscard]] const Attribution& attribution() const noexcept {
    return attribution_;
  }

  /// beta_A by dense attack index (position in adt().attack_steps()).
  [[nodiscard]] double attack_value(std::size_t attack_index) const {
    return attack_values_.at(attack_index);
  }
  /// beta_D by dense defense index.
  [[nodiscard]] double defense_value(std::size_t defense_index) const {
    return defense_values_.at(defense_index);
  }

  /// beta of a leaf node (either agent) by NodeId.
  [[nodiscard]] double value_of(NodeId id) const;

  /// Metric value of a defense vector (Definition 6): tensor_D over the
  /// activated BDS; the empty vector yields 1_tensor_D.
  [[nodiscard]] double defense_vector_value(const BitVec& defense) const;

  /// Metric value of an attack vector (Definition 6).
  [[nodiscard]] double attack_vector_value(const BitVec& attack) const;

 private:
  Adt adt_;
  Attribution attribution_;
  Semiring defender_domain_;
  Semiring attacker_domain_;
  std::vector<double> attack_values_;
  std::vector<double> defense_values_;
};

}  // namespace adtp
