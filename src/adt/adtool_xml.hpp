/// \file adtool_xml.hpp
/// \brief Importer for ADTool tree XML (interoperability).
///
/// ADTool (Kordy et al.) is the standard open-source editor for
/// attack-defense trees; the paper's novelty statement is precisely that
/// ADTool-style tooling has no dual-attribute analysis. This importer
/// reads the subset of ADTool's XML export that describes the tree:
///
///   <adtree>
///     <node refinement="disjunctive|conjunctive">
///       <label>...</label>
///       <parameter domainId="..." category="basic">10</parameter>
///       <node ...>...</node>                      <!-- same-role child -->
///       <node switchRole="yes" ...>...</node>     <!-- countermeasure -->
///     </node>
///   </adtree>
///
/// Mapping to the paper's formalism:
///  - a node's same-role children refine it (conjunctive -> AND,
///    disjunctive -> OR); childless nodes are basic steps;
///  - a switchRole child belongs to the opposite agent and inhibits its
///    parent: the parent becomes INH(refinement | counter). Multiple
///    countermeasures are OR-ed (any one of them blocks);
///  - ADTool's *repeated labels* convention (equal basic-step labels
///    denote the same action) maps to shared DAG nodes, i.e. the paper's
///    set semantics - analyze with bdd_bu_front(), or unfold_to_tree()
///    for tree semantics;
///  - <parameter category="basic"> values become the attribution. When
///    several domainIds are present, pass the one to import.
///
/// The root node's role is attacker ("proponent") as in ADTool.

#pragma once

#include <string>

#include "adt/adt.hpp"
#include "core/attribution.hpp"

namespace adtp {

struct AdtoolImport {
  Adt adt;
  Attribution attribution;

  /// domainIds encountered in <parameter> elements, in document order.
  std::vector<std::string> domain_ids;
};

/// Parses ADTool XML text. \p domain_id selects which parameter domain
/// populates the attribution (empty = the first one encountered; the
/// attribution is left partially/fully empty when the file carries no
/// parameters - callers supply values themselves then).
/// Throws ParseError on malformed XML and ModelError on structural
/// violations.
[[nodiscard]] AdtoolImport import_adtool_xml(const std::string& xml,
                                             const std::string& domain_id = "");

/// Reads and imports an ADTool .xml file.
[[nodiscard]] AdtoolImport load_adtool_file(const std::string& path,
                                            const std::string& domain_id = "");

/// Serializes \p adt back to ADTool tree XML (the inverse of the importer
/// over ADTool's representable class):
///  - AND/OR gates become conjunctive/disjunctive refinements; basic
///    steps become childless nodes; node names become labels;
///  - INH(b | t) renders as b's element with t appended as a
///    switchRole="yes" countermeasure child. A nested INH *base* (which
///    the importer never produces but generated models can contain) is
///    wrapped in a singleton disjunctive refinement so it stays
///    representable - the wrapper is semantically neutral and the output
///    is a fixpoint of export(import(.)) from the first round trip on;
///  - shared basic steps serialize as repeated labels (ADTool's
///    convention, re-shared on import); shared *gates* are emitted once
///    per occurrence, i.e. the re-import sees the unfolded tree;
///  - attribution values (if any) are emitted as
///    <parameter domainId="..." category="basic"> on every basic-step
///    occurrence that has one.
///
/// Requires an attacker root (ADTool's proponent); throws ModelError
/// otherwise. \p adt must be frozen.
[[nodiscard]] std::string export_adtool_xml(
    const Adt& adt, const Attribution& attribution = {},
    const std::string& domain_id = "adtp");

}  // namespace adtp
