#include "gen/catalog.hpp"

#include <cmath>

#include "adt/transform.hpp"
#include "util/error.hpp"

namespace adtp::catalog {

Adt fig1_steal_data_at() {
  Adt adt;
  const NodeId bu = adt.add_basic("BU", Agent::Attacker);
  const NodeId pa = adt.add_basic("PA", Agent::Attacker);
  const NodeId esv = adt.add_basic("ESV", Agent::Attacker);
  const NodeId acv = adt.add_basic("ACV", Agent::Attacker);
  const NodeId creds = adt.add_gate("obtain_credentials", GateType::Or,
                                    Agent::Attacker, {bu, pa, esv, acv});
  const NodeId sdk = adt.add_basic("SDK", Agent::Attacker);
  const NodeId root = adt.add_gate("steal_user_data", GateType::And,
                                   Agent::Attacker, {creds, sdk});
  adt.set_root(root);
  adt.freeze();
  return adt;
}

Adt fig2_steal_data_adt() {
  Adt adt;
  const NodeId bu = adt.add_basic("BU", Agent::Attacker);

  const NodeId pa = adt.add_basic("PA", Agent::Attacker);
  const NodeId aput = adt.add_basic("APUT", Agent::Defender);
  const NodeId pa_inh = adt.add_inhibit("PA_countered", pa, aput);

  // SU protects both ESV and ACV; DNS hijack disables SU. SU_eff is the
  // single shared node that makes this model a DAG.
  const NodeId su = adt.add_basic("SU", Agent::Defender);
  const NodeId dns = adt.add_basic("DNS", Agent::Attacker);
  const NodeId su_eff = adt.add_inhibit("SU_effective", su, dns);

  const NodeId esv = adt.add_basic("ESV", Agent::Attacker);
  const NodeId esv_inh = adt.add_inhibit("ESV_countered", esv, su_eff);
  const NodeId acv = adt.add_basic("ACV", Agent::Attacker);
  const NodeId acv_inh = adt.add_inhibit("ACV_countered", acv, su_eff);

  const NodeId creds =
      adt.add_gate("obtain_credentials", GateType::Or, Agent::Attacker,
                   {bu, pa_inh, esv_inh, acv_inh});

  const NodeId sdk = adt.add_basic("SDK", Agent::Attacker);
  const NodeId sko = adt.add_basic("SKO", Agent::Defender);
  const NodeId sdk_inh = adt.add_inhibit("SDK_countered", sdk, sko);

  const NodeId root = adt.add_gate("steal_user_data", GateType::And,
                                   Agent::Attacker, {creds, sdk_inh});
  adt.set_root(root);
  adt.freeze();
  return adt;
}

AugmentedAdt fig3_example() {
  Adt adt;
  const NodeId d1 = adt.add_basic("d1", Agent::Defender);
  const NodeId d2 = adt.add_basic("d2", Agent::Defender);
  const NodeId both =
      adt.add_gate("both_defenses", GateType::And, Agent::Defender, {d1, d2});
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  // The attacker can disable the combined defense with a1.
  const NodeId def_eff = adt.add_inhibit("defenses_effective", both, a1);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  const NodeId guarded = adt.add_inhibit("guarded_attack", a2, def_eff);
  const NodeId a3 = adt.add_basic("a3", Agent::Attacker);
  const NodeId root =
      adt.add_gate("top", GateType::Or, Agent::Attacker, {guarded, a3});
  adt.set_root(root);
  adt.freeze();

  Attribution beta;
  beta.set("a1", 5);
  beta.set("a2", 10);
  beta.set("a3", 20);
  beta.set("d1", 5);
  beta.set("d2", 10);
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt fig4_exponential(int n) {
  if (n < 1 || n > 20) {
    throw ModelError("fig4_exponential: n must be in [1, 20]");
  }
  Adt adt;
  Attribution beta;
  std::vector<NodeId> gates;
  for (int i = 1; i <= n; ++i) {
    const std::string di = "d" + std::to_string(i);
    const std::string ai = "a" + std::to_string(i);
    const NodeId d = adt.add_basic(di, Agent::Defender);
    const NodeId a = adt.add_basic(ai, Agent::Attacker);
    gates.push_back(adt.add_inhibit("I" + std::to_string(i), d, a));
    const double weight = std::ldexp(1.0, i - 1);  // 2^(i-1)
    beta.set(di, weight);
    beta.set(ai, weight);
  }
  const NodeId root =
      adt.add_gate("top", GateType::Or, Agent::Defender, std::move(gates));
  adt.set_root(root);
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt fig4_forest(std::size_t blocks, std::size_t n) {
  Adt adt;
  Attribution beta;
  std::vector<NodeId> block_roots;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::string bs = std::to_string(b);
    auto fig4 = [&](const char* side) {
      std::vector<NodeId> gates;
      for (std::size_t i = 1; i <= n; ++i) {
        const std::string suffix =
            "_" + std::string(side) + bs + "_" + std::to_string(i);
        const NodeId d = adt.add_basic("d" + suffix, Agent::Defender);
        const NodeId a = adt.add_basic("a" + suffix, Agent::Attacker);
        gates.push_back(adt.add_inhibit("I" + suffix, d, a));
        const double weight = std::ldexp(1.0, static_cast<int>(i) - 1);
        beta.set("d" + suffix, weight);
        beta.set("a" + suffix, weight);
      }
      return adt.add_gate("fig4_" + std::string(side) + bs, GateType::Or,
                          Agent::Defender, std::move(gates));
    };
    const NodeId defenses = adt.add_gate(
        "defenses_" + bs, GateType::And, Agent::Defender,
        {fig4("l"), fig4("r")});
    const NodeId a_main = adt.add_basic("main_" + bs, Agent::Attacker);
    beta.set("main_" + bs, 1.0);
    const NodeId carrier = adt.add_inhibit("carrier_" + bs, a_main, defenses);
    const NodeId bypass = adt.add_basic("bypass_" + bs, Agent::Attacker);
    beta.set("bypass_" + bs,
             std::ldexp(1.0, static_cast<int>(n > 4 ? n - 4 : 1)));
    block_roots.push_back(adt.add_gate("block" + bs, GateType::Or,
                                       Agent::Attacker, {carrier, bypass}));
  }
  const NodeId root = adt.add_gate("top", GateType::And, Agent::Attacker,
                                   std::move(block_roots));
  adt.set_root(root);
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt fig5_example() {
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId d1 = adt.add_basic("d1", Agent::Defender);
  const NodeId i1 = adt.add_inhibit("i1", a1, d1);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  const NodeId d2 = adt.add_basic("d2", Agent::Defender);
  const NodeId i2 = adt.add_inhibit("i2", a2, d2);
  const NodeId root =
      adt.add_gate("top", GateType::Or, Agent::Attacker, {i1, i2});
  adt.set_root(root);
  adt.freeze();

  Attribution beta;
  beta.set("a1", 5);
  beta.set("a2", 10);
  beta.set("d1", 4);
  beta.set("d2", 8);
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt money_theft_dag() {
  Adt adt;

  // --- via ATM ---------------------------------------------------------
  const NodeId steal_card = adt.add_basic("steal_card", Agent::Attacker);
  const NodeId force = adt.add_basic("force", Agent::Attacker);
  const NodeId eavesdrop = adt.add_basic("eavesdrop", Agent::Attacker);
  const NodeId cover_keypad = adt.add_basic("cover_keypad", Agent::Defender);
  const NodeId camera = adt.add_basic("camera", Agent::Attacker);
  // Covering the keypad blocks eavesdropping unless the attacker installs
  // a camera.
  const NodeId ck_eff = adt.add_inhibit("cover_keypad_effective",
                                        cover_keypad, camera);
  const NodeId eaves_inh =
      adt.add_inhibit("eavesdrop_uncovered", eavesdrop, ck_eff);
  const NodeId learn_pin = adt.add_gate("learn_pin", GateType::Or,
                                        Agent::Attacker, {force, eaves_inh});
  const NodeId withdraw = adt.add_basic("withdraw_cash", Agent::Attacker);
  const NodeId via_atm =
      adt.add_gate("via_atm", GateType::And, Agent::Attacker,
                   {steal_card, learn_pin, withdraw});

  // --- via online banking ----------------------------------------------
  const NodeId guess_user = adt.add_basic("guess_user_name", Agent::Attacker);
  const NodeId phishing = adt.add_basic("phishing", Agent::Attacker);
  const NodeId get_user = adt.add_gate("get_user_name", GateType::Or,
                                       Agent::Attacker, {guess_user, phishing});

  const NodeId guess_pwd = adt.add_basic("guess_pwd", Agent::Attacker);
  const NodeId strong_pwd = adt.add_basic("strong_pwd", Agent::Defender);
  const NodeId guess_pwd_inh =
      adt.add_inhibit("guess_pwd_blocked", guess_pwd, strong_pwd);
  // Phishing is shared with get_user_name: the single DAG node of the
  // model (the paper duplicates it for the tree analysis).
  const NodeId get_pwd =
      adt.add_gate("get_password", GateType::Or, Agent::Attacker,
                   {guess_pwd_inh, phishing});

  const NodeId login = adt.add_basic("log_in_and_execute_transfer",
                                     Agent::Attacker);
  const NodeId sms = adt.add_basic("sms_authentication", Agent::Defender);
  const NodeId steal_phone = adt.add_basic("steal_phone", Agent::Attacker);
  const NodeId sms_eff = adt.add_inhibit("sms_effective", sms, steal_phone);
  const NodeId login_inh = adt.add_inhibit("transfer_allowed", login, sms_eff);

  const NodeId via_online =
      adt.add_gate("via_online_banking", GateType::And, Agent::Attacker,
                   {get_user, get_pwd, login_inh});

  const NodeId root =
      adt.add_gate("steal_from_account", GateType::Or, Agent::Attacker,
                   {via_atm, via_online});
  adt.set_root(root);
  adt.freeze();

  Attribution beta;
  beta.set("steal_card", 10);
  beta.set("force", 100);
  beta.set("eavesdrop", 20);
  beta.set("camera", 75);
  beta.set("withdraw_cash", 60);
  beta.set("guess_user_name", 120);
  beta.set("phishing", 70);
  beta.set("guess_pwd", 120);
  beta.set("log_in_and_execute_transfer", 10);
  beta.set("steal_phone", 60);
  beta.set("cover_keypad", 30);
  beta.set("strong_pwd", 10);
  beta.set("sms_authentication", 20);
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt money_theft_tree() { return unfold_to_tree(money_theft_dag()); }

}  // namespace adtp::catalog
