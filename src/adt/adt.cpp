#include "adt/adt.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace adtp {

namespace {

std::string describe(const Node& n, NodeId id) {
  std::ostringstream out;
  out << "node #" << id << " '" << n.name << "' (" << to_string(n.type) << ","
      << to_string(n.agent) << ")";
  return out.str();
}

}  // namespace

void Adt::mutate_guard() {
  // Mutating after freeze() invalidates derived data; allow it but drop
  // the frozen state so stale caches can never be observed.
  if (frozen_) {
    frozen_ = false;
    parent_offsets_.clear();
    parent_ids_.clear();
    topo_.clear();
    attack_steps_.clear();
    defense_steps_.clear();
    leaf_index_.clear();
  }
}

void Adt::check_frozen() const {
  if (!frozen_) {
    throw ModelError(
        "Adt: structural query before freeze(); call freeze() after "
        "construction");
  }
}

NodeId Adt::add_node(Node node) {
  mutate_guard();
  if (node.name.empty()) {
    throw ModelError("Adt: node names must be non-empty");
  }
  for (NodeId c : node.children) {
    if (c >= nodes_.size()) {
      throw ModelError("Adt: child id " + std::to_string(c) +
                       " does not exist yet (children must be added before "
                       "parents)");
    }
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (by_name_.insert(node.name, id, name_of()) != id) {
    throw ModelError("Adt: duplicate node name '" + node.name + "'");
  }
  nodes_.push_back(std::move(node));
  if (!root_explicit_) root_ = id;
  return id;
}

NodeId Adt::add_basic(std::string name, Agent agent) {
  Node n;
  n.type = GateType::BasicStep;
  n.agent = agent;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId Adt::add_gate(std::string name, GateType type, Agent agent,
                     std::vector<NodeId> children) {
  if (type != GateType::And && type != GateType::Or) {
    throw ModelError("Adt::add_gate accepts only AND/OR; use add_basic or "
                     "add_inhibit for other node kinds");
  }
  if (children.empty()) {
    throw ModelError("Adt: AND/OR gate '" + name +
                     "' must have at least one child");
  }
  Node n;
  n.type = type;
  n.agent = agent;
  n.name = std::move(name);
  n.children = std::move(children);
  return add_node(std::move(n));
}

NodeId Adt::add_inhibit(std::string name, NodeId inhibited, NodeId trigger) {
  if (inhibited >= nodes_.size() || trigger >= nodes_.size()) {
    throw ModelError("Adt: INH gate '" + name +
                     "' references a child that does not exist yet");
  }
  if (inhibited == trigger) {
    throw ModelError("Adt: INH gate '" + name +
                     "' must have two distinct children");
  }
  Node n;
  n.type = GateType::Inhibit;
  n.agent = nodes_[inhibited].agent;
  n.name = std::move(name);
  n.children = {inhibited, trigger};
  return add_node(std::move(n));
}

void Adt::set_root(NodeId root) {
  mutate_guard();
  if (root >= nodes_.size()) {
    throw ModelError("Adt::set_root: node " + std::to_string(root) +
                     " does not exist");
  }
  root_ = root;
  root_explicit_ = true;
}

void Adt::freeze() {
  if (frozen_) return;
  validate();
  compute_derived();
  frozen_ = true;
}

void Adt::validate() const {
  if (nodes_.empty()) {
    throw ModelError("Adt: empty model has no root");
  }

  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    switch (n.type) {
      case GateType::BasicStep:
        if (!n.children.empty()) {
          throw ModelError("Adt: " + describe(n, id) +
                           " is a basic step but has children");
        }
        break;
      case GateType::And:
      case GateType::Or:
        if (n.children.empty()) {
          throw ModelError("Adt: " + describe(n, id) + " has no children");
        }
        // Definition 1: children of AND/OR share the gate's agent.
        for (NodeId c : n.children) {
          if (nodes_[c].agent != n.agent) {
            throw ModelError("Adt: " + describe(n, id) + " has child '" +
                             nodes_[c].name +
                             "' of the opposite agent (AND/OR children must "
                             "match the gate's agent)");
          }
        }
        break;
      case GateType::Inhibit: {
        if (n.children.size() != 2) {
          throw ModelError("Adt: " + describe(n, id) +
                           " must have exactly two children");
        }
        const Node& inhibited = nodes_[n.children[0]];
        const Node& trigger = nodes_[n.children[1]];
        // Definition 1: the two children have different tau values; our
        // convention additionally fixes tau(theta(v)) = tau(v).
        if (inhibited.agent != n.agent) {
          throw ModelError("Adt: " + describe(n, id) +
                           ": inhibited child must share the gate's agent");
        }
        if (trigger.agent != opponent(n.agent)) {
          throw ModelError("Adt: " + describe(n, id) +
                           ": trigger child must belong to the opposite "
                           "agent");
        }
        break;
      }
    }
  }

  if (root_ >= nodes_.size()) {
    throw ModelError("Adt: no root set");
  }

  // Reachability: every node must contribute to the root. Unreachable
  // nodes would silently be ignored by every algorithm, which is almost
  // certainly a modelling bug, so we reject them.
  std::vector<char> reachable(nodes_.size(), 0);
  std::vector<NodeId> stack{root_};
  reachable[root_] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : nodes_[v].children) {
      if (!reachable[c]) {
        reachable[c] = 1;
        stack.push_back(c);
      }
    }
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!reachable[id]) {
      throw ModelError("Adt: " + describe(nodes_[id], id) +
                       " is unreachable from the root '" +
                       nodes_[root_].name + "'");
    }
  }
}

void Adt::compute_derived() {
  const std::size_t n = nodes_.size();
  // Parents as CSR: count each child's in-edges, prefix-sum them into
  // offsets, then place parents by ascending id.
  parent_offsets_.assign(n + 1, 0);
  for (const Node& node : nodes_) {
    for (NodeId c : node.children) ++parent_offsets_[c + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    parent_offsets_[v + 1] += parent_offsets_[v];
  }
  parent_ids_.resize(parent_offsets_[n]);
  std::vector<std::size_t> cursor(parent_offsets_.begin(),
                                  parent_offsets_.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    for (NodeId c : nodes_[id].children) parent_ids_[cursor[c]++] = id;
  }

  // Children always have smaller ids than their parents (enforced at
  // construction), so ascending id order is already topological.
  topo_.resize(n);
  for (NodeId id = 0; id < n; ++id) topo_[id] = id;

  attack_steps_.clear();
  defense_steps_.clear();
  leaf_index_.assign(n, kNoNode);
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = nodes_[id];
    if (node.type != GateType::BasicStep) continue;
    std::vector<NodeId>& steps =
        node.agent == Agent::Attacker ? attack_steps_ : defense_steps_;
    leaf_index_[id] = static_cast<NodeId>(steps.size());
    steps.push_back(id);
  }
}

NodeId Adt::root() const {
  check_frozen();
  return root_;
}

const Node& Adt::node(NodeId id) const {
  if (id >= nodes_.size()) {
    throw ModelError("Adt: node id " + std::to_string(id) + " out of range");
  }
  return nodes_[id];
}

NodeId Adt::inhibited_child(NodeId inh) const {
  const Node& n = node(inh);
  if (n.type != GateType::Inhibit) {
    throw ModelError("Adt: " + describe(n, inh) + " is not an INH gate");
  }
  return n.children[0];
}

NodeId Adt::trigger_child(NodeId inh) const {
  const Node& n = node(inh);
  if (n.type != GateType::Inhibit) {
    throw ModelError("Adt: " + describe(n, inh) + " is not an INH gate");
  }
  return n.children[1];
}

std::optional<NodeId> Adt::find(std::string_view name) const {
  const NodeId id = by_name_.find(name, name_of());
  if (id == NameIndex::kAbsent) return std::nullopt;
  return id;
}

NodeId Adt::at(std::string_view name) const {
  auto id = find(name);
  if (!id) {
    throw ModelError("Adt: no node named '" + std::string(name) + "'");
  }
  return *id;
}

std::span<const NodeId> Adt::parents(NodeId id) const {
  check_frozen();
  if (id >= nodes_.size()) {
    throw ModelError("Adt: node id " + std::to_string(id) + " out of range");
  }
  return {parent_ids_.data() + parent_offsets_[id],
          parent_ids_.data() + parent_offsets_[id + 1]};
}

const std::vector<NodeId>& Adt::topological_order() const {
  check_frozen();
  return topo_;
}

const std::vector<NodeId>& Adt::attack_steps() const {
  check_frozen();
  return attack_steps_;
}

const std::vector<NodeId>& Adt::defense_steps() const {
  check_frozen();
  return defense_steps_;
}

std::size_t Adt::attack_index(NodeId id) const {
  check_frozen();
  const Node& n = node(id);
  if (n.type != GateType::BasicStep || n.agent != Agent::Attacker) {
    throw ModelError("Adt: " + describe(n, id) +
                     " is not a basic attack step");
  }
  return leaf_index_[id];
}

std::size_t Adt::defense_index(NodeId id) const {
  check_frozen();
  const Node& n = node(id);
  if (n.type != GateType::BasicStep || n.agent != Agent::Defender) {
    throw ModelError("Adt: " + describe(n, id) +
                     " is not a basic defense step");
  }
  return leaf_index_[id];
}

bool Adt::is_tree() const {
  check_frozen();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (id == root_) continue;
    if (parents(id).size() != 1) return false;
  }
  return true;
}

AdtStats Adt::stats() const {
  check_frozen();
  AdtStats s;
  s.nodes = nodes_.size();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    switch (n.type) {
      case GateType::BasicStep:
        if (n.agent == Agent::Attacker) {
          ++s.attack_steps;
        } else {
          ++s.defense_steps;
        }
        break;
      case GateType::And:
        ++s.and_gates;
        break;
      case GateType::Or:
        ++s.or_gates;
        break;
      case GateType::Inhibit:
        ++s.inh_gates;
        break;
    }
    if (id != root_ && parents(id).size() > 1) ++s.shared_nodes;
  }
  s.tree_shaped = (s.shared_nodes == 0);
  return s;
}

std::string Adt::to_text() const {
  check_frozen();
  std::ostringstream out;
  std::unordered_set<NodeId> expanded;

  auto recurse = [&](auto&& self, NodeId id, int depth) -> void {
    const Node& n = nodes_[id];
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ');
    out << n.name << " [" << to_string(n.type) << ", " << to_string(n.agent)
        << "]";
    if (n.type == GateType::Inhibit) out << " (inhibited | trigger)";
    if (!n.children.empty() && expanded.contains(id)) {
      out << " -> see above\n";
      return;
    }
    expanded.insert(id);
    out << '\n';
    for (NodeId c : n.children) self(self, c, depth + 1);
  };
  recurse(recurse, root_, 0);
  return out.str();
}

}  // namespace adtp
