/// \file structure.hpp
/// \brief Events and the structure function f_T (Definitions 2 and 3).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adt/adt.hpp"
#include "util/bitvec.hpp"

namespace adtp {

/// An event (Definition 2): a defense vector delta over the BDS positions
/// and an attack vector alpha over the BAS positions of one Adt.
struct Event {
  BitVec defense;
  BitVec attack;

  bool operator==(const Event&) const = default;

  /// Renders as "(delta, alpha)" binary strings, e.g. "(10, 011)".
  [[nodiscard]] std::string to_string() const {
    return "(" + defense.to_string() + ", " + attack.to_string() + ")";
  }
};

/// Evaluates the structure function f_T(delta, alpha, v) for every node of
/// \p adt in one topological pass and returns the per-node values.
///
/// \p defense and \p attack must have sizes adt.num_defenses() and
/// adt.num_attacks() respectively.
[[nodiscard]] std::vector<char> evaluate_all(const Adt& adt,
                                             const BitVec& defense,
                                             const BitVec& attack);

/// Evaluates f_T(delta, alpha, v) for a single node.
[[nodiscard]] bool evaluate(const Adt& adt, const BitVec& defense,
                            const BitVec& attack, NodeId v);

/// Evaluates the structure function at the root.
[[nodiscard]] bool evaluate_root(const Adt& adt, const BitVec& defense,
                                 const BitVec& attack);

/// True iff the event achieves the *attacker's* goal at the root
/// (Definition 7): f_T = 1 when tau(R_T) = Attacker, f_T = 0 when
/// tau(R_T) = Defender.
[[nodiscard]] bool attack_succeeds(const Adt& adt, const BitVec& defense,
                                   const BitVec& attack);

/// A reusable evaluator that avoids reallocating the per-node scratch
/// buffer, for callers that evaluate many events of one model (the
/// naive kernel runs its own bitmask evaluator). Holds the Adt by
/// reference: it must outlive the evaluator (temporaries are rejected).
class StructureEvaluator {
 public:
  explicit StructureEvaluator(const Adt& adt);
  explicit StructureEvaluator(Adt&&) = delete;

  /// Evaluates f_T at the root for the given vectors.
  [[nodiscard]] bool root_value(const BitVec& defense, const BitVec& attack);

  /// As root_value(), but reports the attacker-goal outcome (Def. 7).
  [[nodiscard]] bool attack_succeeds(const BitVec& defense,
                                     const BitVec& attack);

 private:
  const Adt* adt_;
  std::vector<char> values_;
};

}  // namespace adtp
