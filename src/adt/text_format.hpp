/// \file text_format.hpp
/// \brief A small line-oriented text format for augmented ADTs.
///
/// Grammar (one statement per line; '#' starts a comment; blank lines are
/// ignored; names are bare words of [A-Za-z0-9_@.\-] or double-quoted
/// strings; nodes must be defined before they are referenced):
///
///   domains <defender-domain> <attacker-domain>
///   <name> = attack <value>
///   <name> = defense <value>
///   <name> = AND <A|D> (<child>, <child>, ...)
///   <name> = OR  <A|D> (<child>, <child>, ...)
///   <name> = INH (<inhibited> | <trigger>)
///   root <name>
///
/// The agent of AND/OR may be omitted, in which case it is inferred from
/// the first child; INH infers its agent from the inhibited child. The
/// "domains" line is optional (default: mincost/mincost) as is "root"
/// (default: the last defined node). Example:
///
///   # Fig. 5 of the paper
///   domains mincost mincost
///   a1 = attack 5
///   d1 = defense 4
///   i1 = INH (a1 | d1)
///   a2 = attack 10
///   d2 = defense 8
///   i2 = INH (a2 | d2)
///   top = OR A (i1, i2)
///   root top

#pragma once

#include <string>
#include <utility>

#include "adt/adt.hpp"
#include "core/attribution.hpp"

namespace adtp {

/// A parsed augmented model.
struct ParsedModel {
  Adt adt;
  Attribution attribution;
  Semiring defender_domain = Semiring::min_cost();
  Semiring attacker_domain = Semiring::min_cost();

  /// Bundles the parts into an AugmentedAdt (validates the attribution).
  [[nodiscard]] AugmentedAdt augmented() const& {
    return AugmentedAdt(adt, attribution, defender_domain, attacker_domain);
  }

  /// The same, moving the parts out instead of copying them: for a model
  /// used once, as in parse_adt_text(text).augmented().
  [[nodiscard]] AugmentedAdt augmented() && {
    return AugmentedAdt(std::move(adt), std::move(attribution),
                        std::move(defender_domain),
                        std::move(attacker_domain));
  }
};

/// Parses the text format; throws ParseError with a line number on
/// malformed input and ModelError on structural violations.
[[nodiscard]] ParsedModel parse_adt_text(const std::string& text);

/// Serializes an augmented ADT to the text format (round-trips through
/// parse_adt_text for the built-in domains).
[[nodiscard]] std::string to_text_format(const AugmentedAdt& aadt);

/// Reads and parses a file; throws Error if the file cannot be read.
[[nodiscard]] ParsedModel load_adt_file(const std::string& path);

/// Serializes to a file; throws Error on I/O failure.
void save_adt_file(const AugmentedAdt& aadt, const std::string& path);

}  // namespace adtp
