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

/// The NameIndex's view of \p nodes' names: NodeId -> nodes[id].name.
auto name_of(const std::vector<Node>& nodes) noexcept {
  return [&nodes](NodeId id) -> std::string_view { return nodes[id].name; };
}

}  // namespace

Adt::Adt(const Adt& other)
    : s_(other.s_ == nullptr || other.s_->frozen ? other.s_
                                                 : unfrozen_copy(*other.s_)) {}

Adt& Adt::operator=(const Adt& other) {
  if (this != &other) *this = Adt(other);
  return *this;
}

std::shared_ptr<Adt::State> Adt::unfrozen_copy(const State& s) {
  auto copy = std::make_shared<State>();
  copy->nodes = s.nodes;
  copy->by_name = s.by_name;
  copy->root = s.root;
  copy->root_explicit = s.root_explicit;
  return copy;
}

Adt::State& Adt::mutate_guard() {
  // A frozen State may be shared with copies, so it is never written:
  // mutating a frozen model continues on an unfrozen copy of its
  // construction data, and the derived data is computed again by the
  // next freeze().
  if (s_ == nullptr) {
    s_ = std::make_shared<State>();
  } else if (s_->frozen) {
    s_ = unfrozen_copy(*s_);
  }
  return *s_;
}

const Adt::State& Adt::frozen_state() const {
  const State* s = s_.get();
  if (s == nullptr || !s->frozen) {
    throw ModelError(
        "Adt: structural query before freeze(); call freeze() after "
        "construction");
  }
  return *s;
}

NodeId Adt::add_node(Node node) {
  State& s = mutate_guard();
  if (node.name.empty()) {
    throw ModelError("Adt: node names must be non-empty");
  }
  for (NodeId c : node.children) {
    if (c >= s.nodes.size()) {
      throw ModelError("Adt: child id " + std::to_string(c) +
                       " does not exist yet (children must be added before "
                       "parents)");
    }
  }
  const NodeId id = static_cast<NodeId>(s.nodes.size());
  if (s.by_name.insert(node.name, id, name_of(s.nodes)) != id) {
    throw ModelError("Adt: duplicate node name '" + node.name + "'");
  }
  s.nodes.push_back(std::move(node));
  if (!s.root_explicit) s.root = id;
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
  if (inhibited >= size() || trigger >= size()) {
    throw ModelError("Adt: INH gate '" + name +
                     "' references a child that does not exist yet");
  }
  if (inhibited == trigger) {
    throw ModelError("Adt: INH gate '" + name +
                     "' must have two distinct children");
  }
  Node n;
  n.type = GateType::Inhibit;
  n.agent = s_->nodes[inhibited].agent;
  n.name = std::move(name);
  n.children = {inhibited, trigger};
  return add_node(std::move(n));
}

void Adt::set_root(NodeId root) {
  State& s = mutate_guard();
  if (root >= s.nodes.size()) {
    throw ModelError("Adt::set_root: node " + std::to_string(root) +
                     " does not exist");
  }
  s.root = root;
  s.root_explicit = true;
}

void Adt::freeze() {
  if (frozen()) return;
  validate();
  // Unfrozen, so this Adt owns its State alone: derive in place.
  compute_derived(*s_);
  s_->frozen = true;
}

void Adt::validate() const {
  if (size() == 0) {
    throw ModelError("Adt: empty model has no root");
  }
  const std::vector<Node>& nodes = s_->nodes;
  const NodeId root = s_->root;

  for (NodeId id = 0; id < nodes.size(); ++id) {
    const Node& n = nodes[id];
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
          if (nodes[c].agent != n.agent) {
            throw ModelError("Adt: " + describe(n, id) + " has child '" +
                             nodes[c].name +
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
        const Node& inhibited = nodes[n.children[0]];
        const Node& trigger = nodes[n.children[1]];
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

  if (root >= nodes.size()) {
    throw ModelError("Adt: no root set");
  }

  // Reachability: every node must contribute to the root. Unreachable
  // nodes would silently be ignored by every algorithm, which is almost
  // certainly a modelling bug, so we reject them.
  std::vector<char> reachable(nodes.size(), 0);
  std::vector<NodeId> stack{root};
  reachable[root] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : nodes[v].children) {
      if (!reachable[c]) {
        reachable[c] = 1;
        stack.push_back(c);
      }
    }
  }
  for (NodeId id = 0; id < nodes.size(); ++id) {
    if (!reachable[id]) {
      throw ModelError("Adt: " + describe(nodes[id], id) +
                       " is unreachable from the root '" +
                       nodes[root].name + "'");
    }
  }
}

void Adt::compute_derived(State& s) {
  const std::vector<Node>& nodes = s.nodes;
  const std::size_t n = nodes.size();
  // Parents as CSR: count each child's in-edges, prefix-sum them into
  // offsets, then place parents by ascending id.
  s.parent_offsets.assign(n + 1, 0);
  for (const Node& node : nodes) {
    for (NodeId c : node.children) ++s.parent_offsets[c + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    s.parent_offsets[v + 1] += s.parent_offsets[v];
  }
  s.parent_ids.resize(s.parent_offsets[n]);
  std::vector<std::size_t> cursor(s.parent_offsets.begin(),
                                  s.parent_offsets.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    for (NodeId c : nodes[id].children) s.parent_ids[cursor[c]++] = id;
  }
  // validate() made every non-root node reachable, so each has a parent
  // and the root has none: the model is a tree iff it has n - 1 edges.
  s.tree = s.parent_ids.size() + 1 == n;

  // Children always have smaller ids than their parents (enforced at
  // construction), so ascending id order is already topological.
  s.topo.resize(n);
  for (NodeId id = 0; id < n; ++id) s.topo[id] = id;

  s.attack_steps.clear();
  s.defense_steps.clear();
  s.leaf_index.assign(n, kNoNode);
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = nodes[id];
    if (node.type != GateType::BasicStep) continue;
    std::vector<NodeId>& steps =
        node.agent == Agent::Attacker ? s.attack_steps : s.defense_steps;
    s.leaf_index[id] = static_cast<NodeId>(steps.size());
    steps.push_back(id);
  }
}

NodeId Adt::root() const { return frozen_state().root; }

const Node& Adt::node(NodeId id) const {
  const State* s = s_.get();
  if (s == nullptr || id >= s->nodes.size()) {
    throw ModelError("Adt: node id " + std::to_string(id) + " out of range");
  }
  return s->nodes[id];
}

const std::vector<Node>& Adt::nodes() const noexcept {
  static const std::vector<Node> kNone;
  return s_ != nullptr ? s_->nodes : kNone;
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
  if (s_ == nullptr) return std::nullopt;
  const NodeId id = s_->by_name.find(name, name_of(s_->nodes));
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
  const State& s = frozen_state();
  if (id >= s.nodes.size()) {
    throw ModelError("Adt: node id " + std::to_string(id) + " out of range");
  }
  return {s.parent_ids.data() + s.parent_offsets[id],
          s.parent_ids.data() + s.parent_offsets[id + 1]};
}

const std::vector<NodeId>& Adt::topological_order() const {
  return frozen_state().topo;
}

const std::vector<NodeId>& Adt::attack_steps() const {
  return frozen_state().attack_steps;
}

const std::vector<NodeId>& Adt::defense_steps() const {
  return frozen_state().defense_steps;
}

std::size_t Adt::attack_index(NodeId id) const {
  const State& s = frozen_state();
  const Node& n = node(id);
  if (n.type != GateType::BasicStep || n.agent != Agent::Attacker) {
    throw ModelError("Adt: " + describe(n, id) +
                     " is not a basic attack step");
  }
  return s.leaf_index[id];
}

std::size_t Adt::defense_index(NodeId id) const {
  const State& s = frozen_state();
  const Node& n = node(id);
  if (n.type != GateType::BasicStep || n.agent != Agent::Defender) {
    throw ModelError("Adt: " + describe(n, id) +
                     " is not a basic defense step");
  }
  return s.leaf_index[id];
}

AdtStats Adt::stats() const {
  const State& state = frozen_state();
  AdtStats s;
  s.nodes = state.nodes.size();
  for (NodeId id = 0; id < state.nodes.size(); ++id) {
    const Node& n = state.nodes[id];
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
    if (id != state.root && parents(id).size() > 1) ++s.shared_nodes;
  }
  s.tree_shaped = state.tree;
  return s;
}

std::string Adt::to_text() const {
  const State& s = frozen_state();
  std::ostringstream out;
  std::unordered_set<NodeId> expanded;

  auto recurse = [&](auto&& self, NodeId id, int depth) -> void {
    const Node& n = s.nodes[id];
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
  recurse(recurse, s.root, 0);
  return out.str();
}

}  // namespace adtp
