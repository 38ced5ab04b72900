/// \file adt.hpp
/// \brief The attack-defense tree model (Definition 1 of the paper).
///
/// An Adt is a rooted DAG of Nodes. Construction is incremental and
/// bottom-up: children must exist before their parents, which guarantees
/// acyclicity by construction. After building, callers must invoke freeze(),
/// which validates the Definition 1 constraints and computes derived data
/// (parents, topological order, leaf indices); structural queries on an
/// unfrozen Adt throw ModelError.
///
/// Storage is flat: each name lives once, in its Node, and an
/// open-addressing NameIndex of NodeIds finds it; the parents of all
/// nodes share one CSR array pair, and one per-node vector holds every
/// leaf's dense index. Copying a frozen Adt allocates once per vector,
/// per gate's child list and per name too long for std::string's inline
/// buffer.
///
/// Terminology used throughout the library:
///  - BAS / attack steps: leaves owned by the attacker, indexed
///    0..num_attacks()-1 in ascending NodeId order; an attack vector
///    (BitVec) is indexed by these positions.
///  - BDS / defense steps: leaves owned by the defender, analogous.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adt/node.hpp"
#include "util/error.hpp"
#include "util/name_index.hpp"

namespace adtp {

/// Aggregate counts used by reports and generators.
struct AdtStats {
  std::size_t nodes = 0;
  std::size_t attack_steps = 0;   ///< |A|
  std::size_t defense_steps = 0;  ///< |D|
  std::size_t and_gates = 0;
  std::size_t or_gates = 0;
  std::size_t inh_gates = 0;
  std::size_t shared_nodes = 0;  ///< nodes with more than one parent
  bool tree_shaped = true;       ///< no shared nodes
};

/// An attack-defense tree (Definition 1): rooted DAG, gate and agent
/// labels, and the INH trigger designation (encoded by child order).
class Adt {
 public:
  Adt() = default;

  // ---- construction -------------------------------------------------

  /// Adds a basic step (leaf) owned by \p agent. Names must be unique and
  /// non-empty; they are the keys used by attributions and the text format.
  NodeId add_basic(std::string name, Agent agent);

  /// Adds an AND/OR gate owned by \p agent over existing \p children.
  /// \p type must be GateType::And or GateType::Or.
  NodeId add_gate(std::string name, GateType type, Agent agent,
                  std::vector<NodeId> children);

  /// Adds an INH gate owned by the same agent as \p inhibited, with
  /// \p trigger of the opposite agent.
  NodeId add_inhibit(std::string name, NodeId inhibited, NodeId trigger);

  /// Declares the root R_T. Defaults to the last added node if never set.
  void set_root(NodeId root);

  /// Validates all Definition 1 constraints and computes derived data.
  /// Throws ModelError on violation. Idempotent; implied by const queries.
  void freeze();

  /// True once freeze() has run (and no mutation happened since).
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Throws ModelError unless the model is frozen; for functions taking a
  /// const Adt& that need the derived data to exist.
  void require_frozen() const { check_frozen(); }

  // ---- basic queries (freeze() implied) ------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] NodeId root() const;
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }

  [[nodiscard]] GateType type(NodeId id) const { return node(id).type; }
  [[nodiscard]] Agent agent(NodeId id) const { return node(id).agent; }
  [[nodiscard]] const std::string& name(NodeId id) const {
    return node(id).name;
  }
  [[nodiscard]] const std::vector<NodeId>& children(NodeId id) const {
    return node(id).children;
  }

  /// INH accessors (Definition 1's theta and theta-bar).
  [[nodiscard]] NodeId inhibited_child(NodeId inh) const;
  [[nodiscard]] NodeId trigger_child(NodeId inh) const;

  /// Looks up a node by name; returns std::nullopt if absent.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  /// Looks up a node by name; throws ModelError if absent.
  [[nodiscard]] NodeId at(std::string_view name) const;

  // ---- derived structure (computed by freeze()) -----------------------

  /// Parents of each node (nodes listing it as a child, each counted once
  /// per edge, in ascending parent id; an INH with the same node as both
  /// children is invalid).
  [[nodiscard]] std::span<const NodeId> parents(NodeId id) const;

  /// All node ids in a topological order (children before parents).
  [[nodiscard]] const std::vector<NodeId>& topological_order() const;

  /// Basic attack steps A (ascending NodeId), and their dense indices.
  [[nodiscard]] const std::vector<NodeId>& attack_steps() const;
  /// Basic defense steps D (ascending NodeId), and their dense indices.
  [[nodiscard]] const std::vector<NodeId>& defense_steps() const;

  [[nodiscard]] std::size_t num_attacks() const {
    return attack_steps().size();
  }
  [[nodiscard]] std::size_t num_defenses() const {
    return defense_steps().size();
  }

  /// Dense index of a BAS within attack_steps(); throws if not a BAS.
  [[nodiscard]] std::size_t attack_index(NodeId id) const;
  /// Dense index of a BDS within defense_steps(); throws if not a BDS.
  [[nodiscard]] std::size_t defense_index(NodeId id) const;

  /// True iff every non-root node has exactly one parent (Section IV's
  /// "tree-structured" ADTs, for which the Bottom-Up algorithm is sound).
  [[nodiscard]] bool is_tree() const;

  [[nodiscard]] AdtStats stats() const;

  /// Human-oriented multi-line rendering (indented tree; shared nodes are
  /// expanded once and referenced by name afterwards).
  [[nodiscard]] std::string to_text() const;

 private:
  void mutate_guard();
  void check_frozen() const;
  NodeId add_node(Node node);
  void validate() const;
  void compute_derived();
  /// by_name_'s view of the names: NodeId -> nodes_[id].name.
  [[nodiscard]] auto name_of() const noexcept {
    return [this](NodeId id) -> std::string_view { return nodes_[id].name; };
  }

  std::vector<Node> nodes_;
  NameIndex by_name_;  ///< NodeIds by nodes_[id].name
  NodeId root_ = kNoNode;
  bool root_explicit_ = false;
  bool frozen_ = false;

  // Derived (valid while frozen_).
  /// parents(v) is parent_ids_[parent_offsets_[v] .. parent_offsets_[v+1]).
  std::vector<std::size_t> parent_offsets_;
  std::vector<NodeId> parent_ids_;
  std::vector<NodeId> topo_;
  std::vector<NodeId> attack_steps_;
  std::vector<NodeId> defense_steps_;
  /// A leaf's position in attack_steps_ or defense_steps_ (by its
  /// agent); kNoNode for gates.
  std::vector<NodeId> leaf_index_;
};

}  // namespace adtp
