#include "core/node_memo.hpp"

#include <bit>

#include "core/bdd_bu.hpp"

namespace adtp {

std::vector<std::uint64_t> subtree_value_hashes(const AugmentedAdt& aadt) {
  const Adt& adt = aadt.adt();
  std::vector<std::uint64_t> hashes(adt.size(), 0);
  for (NodeId v : adt.topological_order()) {
    const Node& n = adt.node(v);
    const std::uint64_t kind = static_cast<std::uint64_t>(n.type) << 8 |
                               static_cast<std::uint64_t>(n.agent);
    WordHash h;
    if (n.type == GateType::BasicStep) {
      h.pair(kind, std::bit_cast<std::uint64_t>(aadt.value_of(v)));
    } else {
      h.pair(kind, n.children.size());
      std::size_t i = 0;
      for (; i + 1 < n.children.size(); i += 2) {
        h.pair(hashes[n.children[i]], hashes[n.children[i + 1]]);
      }
      if (i < n.children.size()) h.word(hashes[n.children[i]]);
    }
    hashes[v] = h.digest();
  }
  return hashes;
}

NodeMemoKey value_memo_key(AttackOp op, std::uint64_t context,
                           std::span<const NodeId> children,
                           const std::vector<Front>& fronts) {
  // The tag keeps value contexts apart from the subtree keys' contexts.
  constexpr std::uint64_t kValueTag = 0x56414c5545ULL;  // "VALUE"
  WordHash h;
  h.pair(static_cast<std::uint64_t>(op), children.size());
  for (NodeId c : children) {
    const std::vector<ValuePoint>& points = fronts[c].points();
    WordHash front;
    front.word(points.size());
    for (const ValuePoint& p : points) {
      front.pair(std::bit_cast<std::uint64_t>(p.def),
                 std::bit_cast<std::uint64_t>(p.att));
    }
    h.word(front.digest());
  }
  return NodeMemoKey{h.digest(), WordHash().pair(kValueTag, context).digest()};
}

std::uint64_t bottom_up_memo_context(const AugmentedAdt& aadt,
                                     std::size_t max_front_points) {
  Fnv1a h;
  h.u8('B');  // algorithm family: the bottom-up kernels
  h.u8(static_cast<std::uint8_t>(aadt.defender_domain().kind()));
  h.u8(static_cast<std::uint8_t>(aadt.attacker_domain().kind()));
  h.size(max_front_points);
  return h.digest();
}

std::uint64_t hybrid_memo_context(const AugmentedAdt& aadt,
                                  const BddBuOptions& bdd) {
  // The same result-affecting BDDBU fields the FrontCache key hashes: a
  // blob front is a canonical Pareto front whichever variable order built
  // it, but node_limit / max_front_points can turn success into a guard
  // failure, and failures are never memoized - keying on them keeps a hit
  // from masking a limit a fresh run would honor under *different* limits.
  Fnv1a h;
  h.u8('H');  // algorithm family: the hybrid walker
  h.u8(static_cast<std::uint8_t>(aadt.defender_domain().kind()));
  h.u8(static_cast<std::uint8_t>(aadt.attacker_domain().kind()));
  hash_result_fields(h, bdd);
  return h.digest();
}

}  // namespace adtp
