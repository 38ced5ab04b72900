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
/// leaf's dense index. All of it, with the root and the derived data,
/// lives in one State behind a std::shared_ptr:
///  - a frozen State is never written, so copying a frozen Adt copies
///    the pointer, and copies may be read from any number of threads;
///  - a mutator on a frozen Adt first takes a fresh, unfrozen State
///    holding a copy of the nodes, names and root (copy-on-write);
///  - copying an unfrozen Adt copies its State, so an unfrozen State
///    has one owner and freeze() writes it in place, never cloning;
///  - a default-constructed or moved-from Adt holds no State at all: it
///    is empty and unfrozen, and can be built again.
///
/// Terminology used throughout the library:
///  - BAS / attack steps: leaves owned by the attacker, indexed
///    0..num_attacks()-1 in ascending NodeId order; an attack vector
///    (BitVec) is indexed by these positions.
///  - BDS / defense steps: leaves owned by the defender, analogous.

#pragma once

#include <cstddef>
#include <memory>
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
  /// Shares a frozen \p other's State; copies an unfrozen one's.
  Adt(const Adt& other);
  Adt& operator=(const Adt& other);
  /// Leaves \p other empty.
  Adt(Adt&& other) noexcept = default;
  Adt& operator=(Adt&& other) noexcept = default;

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
  [[nodiscard]] bool frozen() const noexcept {
    const State* s = s_.get();
    return s != nullptr && s->frozen;
  }

  /// Throws ModelError unless the model is frozen; for functions taking a
  /// const Adt& that need the derived data to exist.
  void require_frozen() const { (void)frozen_state(); }

  // ---- basic queries (freeze() implied) ------------------------------

  [[nodiscard]] std::size_t size() const noexcept {
    const State* s = s_.get();
    return s != nullptr ? s->nodes.size() : 0;
  }
  [[nodiscard]] NodeId root() const;
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept;

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
  /// O(1): freeze() computes it.
  [[nodiscard]] bool is_tree() const { return frozen_state().tree; }

  [[nodiscard]] AdtStats stats() const;

  /// Human-oriented multi-line rendering (indented tree; shared nodes are
  /// expanded once and referenced by name afterwards).
  [[nodiscard]] std::string to_text() const;

 private:
  /// The whole model. Derived fields are valid while \p frozen.
  struct State {
    std::vector<Node> nodes;
    NameIndex by_name;  ///< NodeIds by nodes[id].name
    NodeId root = kNoNode;
    bool root_explicit = false;
    bool frozen = false;

    bool tree = false;  ///< is_tree()
    /// parents(v) is parent_ids[parent_offsets[v] .. parent_offsets[v+1]).
    std::vector<std::size_t> parent_offsets;
    std::vector<NodeId> parent_ids;
    std::vector<NodeId> topo;
    std::vector<NodeId> attack_steps;
    std::vector<NodeId> defense_steps;
    /// A leaf's position in attack_steps or defense_steps (by its
    /// agent); kNoNode for gates.
    std::vector<NodeId> leaf_index;
  };

  /// A fresh, unfrozen State holding \p s's nodes, names and root.
  [[nodiscard]] static std::shared_ptr<State> unfrozen_copy(const State& s);
  /// This Adt's State, made unfrozen and owned by this Adt alone.
  State& mutate_guard();
  /// This Adt's State; throws ModelError unless frozen.
  [[nodiscard]] const State& frozen_state() const;
  NodeId add_node(Node node);
  void validate() const;
  static void compute_derived(State& s);

  std::shared_ptr<State> s_;  ///< null for an empty Adt
};

}  // namespace adtp
