/// \file catalog.hpp
/// \brief The paper's example models, reconstructed exactly.
///
/// Reconstruction notes (see DESIGN.md section 4 for the full derivation):
/// the arXiv text garbles the infinity glyph as "8"; all fronts quoted in
/// doc comments below are the corrected values, and every model here is
/// covered by golden tests that reproduce the paper's published numbers.

#pragma once

#include "adt/adt.hpp"
#include "core/attribution.hpp"

namespace adtp::catalog {

/// Fig. 1: the plain attack tree for stealing user data. The attacker
/// needs credentials and the decryption key; credentials can be obtained
/// by blackmail (BU), phishing (PA), a software vulnerability (ESV) or an
/// access-control vulnerability (ACV). Structure only - the paper assigns
/// no values.
[[nodiscard]] Adt fig1_steal_data_at();

/// Fig. 2: the ADT extension of Fig. 1. Anti-phishing user training
/// (APUT) counters PA, SKO counters stealing the decryption key, software
/// updates (SU) counter both ESV and ACV (one shared defense node - the
/// model is DAG-shaped), and the DNS-hijack attack (DNS) disables SU.
[[nodiscard]] Adt fig2_steal_data_adt();

/// Fig. 3 / Examples 1-3: the tree-structured AADT with attacker costs
/// a1 = 5, a2 = 10, a3 = 20 and defender costs d1 = 5, d2 = 10 (min-cost
/// domains). Realized as OR( INH(a2 | INH(AND(d1,d2) | a1)), a3 ), which
/// yields the paper's S = {(00,010),(01,010),(10,010),(11,110)} and
/// PF = {(0,10),(15,15)}.
[[nodiscard]] AugmentedAdt fig3_example();

/// Fig. 4: the worst-case family with |PF| = 2^n. A defender-held root
/// OR over I_i = INH(d_i | a_i) with beta_D(d_i) = beta_A(a_i) = 2^(i-1);
/// the optimal response is rho(delta) = delta and every (k, k),
/// 0 <= k < 2^n, is Pareto-optimal. Requires 1 <= n <= 20 (front sizes
/// beyond 2^20 exist only to exhaust memory).
[[nodiscard]] AugmentedAdt fig4_exponential(int n);

/// The "Fig. 4 forest" of the scaling benches: an attacker-rooted AND
/// over \p blocks blocks. Per block, two Fig. 4 subtrees of depth \p n
/// (leaves d_<side><b>_<i>, a_<side><b>_<i> with weights 2^(i-1)) meet
/// at a defender AND - an attacker-Choose cross product of two 2^n
/// staircases, the block's real work - whose front passes through
/// INH(main_<b> | defenses_<b>) into an attacker OR with a flat bypass of
/// weight 2^(n-4) (2 for n <= 4). The bypass truncates the block front
/// to ~2^(n-4) points, so the root fold over the blocks stays a small
/// sequential tail while each block stays an independent, expensive
/// subtree. 8 blocks at n = 9 is 489 nodes. Min-cost domains.
[[nodiscard]] AugmentedAdt fig4_forest(std::size_t blocks, std::size_t n);

/// Fig. 5 / Example 5: OR( INH(a1 | d1), INH(a2 | d2) ) with defender
/// costs d1 = 4, d2 = 8 and attacker costs a1 = 5, a2 = 10;
/// PF = {(0,5),(4,10),(12,inf)}.
[[nodiscard]] AugmentedAdt fig5_example();

/// Fig. 7: the money-theft case study adapted from Kordy & Widel [5],
/// DAG-shaped (Phishing feeds both "get user name" and "get password").
/// Attacker costs: steal card 10, withdraw cash 60, force 100, eavesdrop
/// 20, camera 75, guess user name 120, phishing 70, guess pwd 120, log in
/// & execute transfer 10, steal phone 60. Defender costs: cover keypad
/// 30, SMS authentication 20, strong pwd 10.
/// BDDBU front: {(0,80),(20,90),(50,140)}; after unfold_to_tree (the
/// paper's duplicated-Phishing tree), BU front: {(0,90),(30,150),(50,165)}.
[[nodiscard]] AugmentedAdt money_theft_dag();

/// The paper's manually unfolded tree variant of money_theft_dag()
/// (Phishing duplicated, "performed twice").
[[nodiscard]] AugmentedAdt money_theft_tree();

}  // namespace adtp::catalog
