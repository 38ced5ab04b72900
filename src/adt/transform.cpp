#include "adt/transform.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace adtp {

UnfoldResult unfold_to_tree(const Adt& adt) {
  adt.require_frozen();

  UnfoldResult result;
  std::unordered_map<std::string, std::size_t> copies;

  auto fresh_name = [&](const std::string& base) {
    const std::size_t n = ++copies[base];
    return n == 1 ? base : base + "@" + std::to_string(n);
  };

  // Every visit clones the node; revisits through other parents produce
  // fresh copies, which is exactly the tree-semantics expansion. The
  // walk runs on an explicit stack (a recursive one overflows on deep
  // models) in the recursive order: a clone is named when the walk
  // enters it (pre-order) and added after its children, left to right
  // (post-order NodeIds).
  struct Frame {
    NodeId node;
    std::string name;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  std::vector<NodeId> cloned;  // finished clones awaiting their parent
  auto enter = [&](NodeId v) {
    const std::string& original = adt.node(v).name;
    std::string name = fresh_name(original);
    if (name != original) result.leaf_origin.emplace(name, original);
    stack.push_back({v, std::move(name), 0});
  };
  enter(adt.root());
  while (!stack.empty()) {
    Frame& top = stack.back();
    const Node& n = adt.node(top.node);
    if (top.next_child < n.children.size()) {
      enter(n.children[top.next_child++]);
      continue;
    }
    const auto first = cloned.end() - static_cast<std::ptrdiff_t>(
                                          n.children.size());
    std::vector<NodeId> children(first, cloned.end());
    cloned.erase(first, cloned.end());
    switch (n.type) {
      case GateType::BasicStep:
        cloned.push_back(result.tree.add_basic(std::move(top.name), n.agent));
        break;
      case GateType::Inhibit:
        cloned.push_back(
            result.tree.add_inhibit(std::move(top.name), children[0],
                                    children[1]));
        break;
      case GateType::And:
      case GateType::Or:
        cloned.push_back(result.tree.add_gate(std::move(top.name), n.type,
                                              n.agent, std::move(children)));
        break;
    }
    stack.pop_back();
  }
  result.tree.set_root(cloned.back());
  result.tree.freeze();

  // First occurrences map to themselves for lookup convenience.
  for (const Node& n : result.tree.nodes()) {
    result.leaf_origin.try_emplace(n.name, n.name);
  }
  return result;
}

AugmentedAdt unfold_to_tree(const AugmentedAdt& aadt) {
  UnfoldResult unfolded = unfold_to_tree(aadt.adt());
  Attribution attribution;
  for (const Node& n : unfolded.tree.nodes()) {
    if (n.type != GateType::BasicStep) continue;
    const std::string& origin = unfolded.leaf_origin.at(n.name);
    attribution.set(n.name, aadt.attribution().get(origin));
  }
  return AugmentedAdt(std::move(unfolded.tree), std::move(attribution),
                      aadt.defender_domain(), aadt.attacker_domain());
}

Adt extract_subgraph(const Adt& adt, NodeId v) {
  adt.require_frozen();
  if (v >= adt.size()) {
    throw ModelError("extract_subgraph: node " + std::to_string(v) +
                     " out of range");
  }

  // Post-order walk on an explicit stack (a recursive one overflows on
  // deep models): children first, left to right, first visit wins, so
  // every extracted NodeId follows that order.
  Adt sub;
  std::vector<NodeId> remap(adt.size(), kNoNode);
  struct Frame {
    NodeId node;
    std::size_t next_child;
  };
  std::vector<Frame> stack{{v, 0}};
  while (!stack.empty()) {
    Frame& top = stack.back();
    const Node& n = adt.node(top.node);
    if (top.next_child < n.children.size()) {
      const NodeId c = n.children[top.next_child++];
      if (remap[c] == kNoNode) stack.push_back({c, 0});
      continue;
    }
    switch (n.type) {
      case GateType::BasicStep:
        remap[top.node] = sub.add_basic(n.name, n.agent);
        break;
      case GateType::Inhibit:
        remap[top.node] = sub.add_inhibit(n.name, remap[n.children[0]],
                                          remap[n.children[1]]);
        break;
      case GateType::And:
      case GateType::Or: {
        std::vector<NodeId> children;
        children.reserve(n.children.size());
        for (NodeId c : n.children) children.push_back(remap[c]);
        remap[top.node] =
            sub.add_gate(n.name, n.type, n.agent, std::move(children));
        break;
      }
    }
    stack.pop_back();
  }
  sub.set_root(remap[v]);
  sub.freeze();
  return sub;
}

AugmentedAdt extract_subgraph(const AugmentedAdt& aadt, NodeId v) {
  Adt sub = extract_subgraph(aadt.adt(), v);
  Attribution attribution;
  for (const Node& n : sub.nodes()) {
    if (n.type != GateType::BasicStep) continue;
    attribution.set(n.name, aadt.attribution().get(n.name));
  }
  return AugmentedAdt(std::move(sub), std::move(attribution),
                      aadt.defender_domain(), aadt.attacker_domain());
}

}  // namespace adtp
