#include "core/node_memo.hpp"

#include "core/bdd_bu.hpp"

namespace adtp {

std::vector<std::uint64_t> subtree_value_hashes(const AugmentedAdt& aadt) {
  const Adt& adt = aadt.adt();
  std::vector<std::uint64_t> hashes(adt.size(), 0);
  for (NodeId v : adt.topological_order()) {
    const Node& n = adt.node(v);
    Fnv1a h;
    h.u8(static_cast<std::uint8_t>(n.type));
    h.u8(static_cast<std::uint8_t>(n.agent));
    if (n.type == GateType::BasicStep) {
      h.f64(aadt.value_of(v));
    } else {
      h.size(n.children.size());
      for (NodeId c : n.children) h.u64(hashes[c]);
    }
    hashes[v] = h.digest();
  }
  return hashes;
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
