#include "adt/adtool_xml.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adt/structure.hpp"
#include "core/analyzer.hpp"
#include "core/bdd_bu.hpp"
#include "core/front_cache.hpp"
#include "core/naive.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace adtp {
namespace {

/// A small ADTool-style export: an OR root, one conjunctive branch, a
/// countermeasure with a counter-counter, and a repeated basic-step label
/// ("phish") shared between two branches. Byte for byte the same document
/// as data/adtool_sample.xml.
constexpr const char* kSample = R"(<?xml version="1.0" encoding="UTF-8"?>
<adtree>
  <node refinement="disjunctive">
    <label>break in</label>
    <node refinement="conjunctive">
      <label>insider path</label>
      <node refinement="disjunctive">
        <label>get creds</label>
        <node><label>phish</label>
          <parameter domainId="MinCost1" category="basic">30</parameter>
        </node>
        <node><label>bribe</label>
          <parameter domainId="MinCost1" category="basic">100</parameter>
        </node>
      </node>
      <node>
        <label>use vpn</label>
        <parameter domainId="MinCost1" category="basic">5</parameter>
        <node switchRole="yes">
          <label>mfa</label>
          <parameter domainId="MinCost1" category="basic">8</parameter>
          <node switchRole="yes">
            <label>steal token</label>
            <parameter domainId="MinCost1" category="basic">50</parameter>
          </node>
        </node>
      </node>
    </node>
    <node>
      <label>phish</label>
    </node>
  </node>
</adtree>
)";

TEST(AdtoolXml, ImportsStructure) {
  const AdtoolImport import = import_adtool_xml(kSample);
  const Adt& adt = import.adt;
  EXPECT_EQ(adt.name(adt.root()), "break in");
  EXPECT_EQ(adt.type(adt.root()), GateType::Or);
  EXPECT_EQ(adt.agent(adt.root()), Agent::Attacker);
  // Basic steps: phish (shared!), bribe, use vpn, steal token + mfa (D).
  EXPECT_EQ(adt.num_attacks(), 4u);
  EXPECT_EQ(adt.num_defenses(), 1u);
  // Repeated label -> one shared node -> DAG.
  EXPECT_FALSE(adt.is_tree());
  EXPECT_EQ(adt.parents(adt.at("phish")).size(), 2u);
  // Countermeasure chain: use vpn inhibited by mfa, mfa by steal token.
  const NodeId countered = adt.at("use vpn countered");
  EXPECT_EQ(adt.type(countered), GateType::Inhibit);
  EXPECT_EQ(adt.name(adt.inhibited_child(countered)), "use vpn");
  EXPECT_EQ(adt.name(adt.trigger_child(countered)), "mfa countered");
}

TEST(AdtoolXml, ParametersBecomeAttribution) {
  const AdtoolImport import = import_adtool_xml(kSample);
  EXPECT_EQ(import.attribution.get("phish"), 30);
  EXPECT_EQ(import.attribution.get("bribe"), 100);
  EXPECT_EQ(import.attribution.get("mfa"), 8);
  ASSERT_EQ(import.domain_ids.size(), 1u);
  EXPECT_EQ(import.domain_ids[0], "MinCost1");
}

TEST(AdtoolXml, ImportedModelAnalyzes) {
  const AdtoolImport import = import_adtool_xml(kSample);
  const AugmentedAdt aadt(import.adt, import.attribution,
                          Semiring::min_cost(), Semiring::min_cost());
  const Front front = bdd_bu_front(aadt);
  EXPECT_TRUE(front.same_values(naive_front(aadt), aadt.defender_domain(),
                                aadt.attacker_domain()));
  // Cheapest attack: the bare "phish" branch at 30.
  EXPECT_EQ(front.front_point().def, 0);
  EXPECT_EQ(front.front_point().att, 30);
  // mfa (8) only forces the insider path's attacker to add steal token -
  // but "phish" alone still works, so mfa never helps: front has 1 point.
  EXPECT_EQ(front.size(), 1u);
}

TEST(AdtoolXml, SemanticsMatchesByHand) {
  // With mfa deployed, "use vpn" requires "steal token".
  const AdtoolImport import = import_adtool_xml(kSample);
  const Adt& adt = import.adt;
  BitVec defense(1);
  BitVec attack(adt.num_attacks());
  attack.set(adt.attack_index(adt.at("phish")));
  // phish alone satisfies the root OR regardless of mfa.
  EXPECT_TRUE(evaluate_root(adt, defense, attack));
  defense.set(0);
  EXPECT_TRUE(evaluate_root(adt, defense, attack));
}

TEST(AdtoolXml, MultipleCountermeasuresAreOred) {
  const char* xml = R"(<adtree><node>
      <label>a</label>
      <node switchRole="yes"><label>d1</label></node>
      <node switchRole="yes"><label>d2</label></node>
    </node></adtree>)";
  const AdtoolImport import = import_adtool_xml(xml);
  const Adt& adt = import.adt;
  const NodeId trigger = adt.trigger_child(adt.at("a countered"));
  EXPECT_EQ(adt.type(trigger), GateType::Or);
  EXPECT_EQ(adt.agent(trigger), Agent::Defender);
  EXPECT_EQ(adt.children(trigger).size(), 2u);
}

TEST(AdtoolXml, DefaultRefinementIsDisjunctive) {
  const char* xml = R"(<adtree><node>
      <label>top</label>
      <node><label>x</label></node>
      <node><label>y</label></node>
    </node></adtree>)";
  const AdtoolImport import = import_adtool_xml(xml);
  EXPECT_EQ(import.adt.type(import.adt.root()), GateType::Or);
}

TEST(AdtoolXml, EntitiesAndComments) {
  const char* xml =
      "<adtree><!-- exported -->\n"
      "<node><label>A &amp; B &lt;x&gt;</label></node></adtree>";
  const AdtoolImport import = import_adtool_xml(xml);
  EXPECT_TRUE(import.adt.find("A & B <x>").has_value());
}

TEST(AdtoolXml, SelectsRequestedDomain) {
  const char* xml = R"(<adtree><node>
      <label>a</label>
      <parameter domainId="Cost">7</parameter>
      <parameter domainId="Time">3</parameter>
    </node></adtree>)";
  EXPECT_EQ(import_adtool_xml(xml, "Time").attribution.get("a"), 3);
  EXPECT_EQ(import_adtool_xml(xml, "Cost").attribution.get("a"), 7);
  // Default: the first domain encountered.
  EXPECT_EQ(import_adtool_xml(xml).attribution.get("a"), 7);
}

TEST(AdtoolXml, MalformedInputsRejected) {
  EXPECT_THROW((void)import_adtool_xml("<adtree>"), ParseError);
  EXPECT_THROW((void)import_adtool_xml("<adtree></wrong>"), ParseError);
  EXPECT_THROW((void)import_adtool_xml("<nottree/>"), ModelError);
  EXPECT_THROW((void)import_adtool_xml("<adtree></adtree>"), ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node></node></adtree>"),  // no label
               ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node refinement=\"weird\"><label>x</label>"
                   "<node><label>y</label></node></node></adtree>"),
               ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node><label>x</label>"
                   "<parameter domainId=\"d\">abc</parameter>"
                   "</node></adtree>"),
               ModelError);
  EXPECT_THROW((void)import_adtool_xml("<adtree><node><label>&bogus;"
                                       "</label></node></adtree>"),
               ParseError);
}

TEST(AdtoolXml, MissingFileThrows) {
  EXPECT_THROW((void)load_adtool_file("/nonexistent/tree.xml"), Error);
}

/// A chain of \p depth nested <node>s, labelled n0 (the root) down to
/// n<depth-1>, whose innermost node carries a parameter.
std::string nested_chain(int depth) {
  std::string xml = "<adtree>";
  for (int i = 0; i < depth; ++i) {
    xml += "<node><label>n" + std::to_string(i) + "</label>";
  }
  xml += "<parameter domainId=\"c\">3</parameter>";
  for (int i = 0; i < depth; ++i) xml += "</node>";
  return xml + "</adtree>";
}

TEST(AdtoolXml, HostileNestingDepthImportsWithoutRecursion) {
  // 100k levels, far deeper than a recursive reader survives on an 8 MiB
  // stack: the reader keeps its open elements on an explicit stack and
  // the converter walks without recursion.
  constexpr int kDepth = 100000;
  const std::string xml = nested_chain(kDepth);
  const AdtoolImport imported = import_adtool_xml(xml);
  const Adt& adt = imported.adt;
  ASSERT_EQ(adt.size(), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(adt.name(adt.root()), "n0");
  EXPECT_EQ(adt.type(adt.root()), GateType::Or);
  EXPECT_EQ(adt.children(adt.root()), std::vector<NodeId>{adt.at("n1")});
  const NodeId leaf = adt.at("n" + std::to_string(kDepth - 1));
  EXPECT_EQ(adt.type(leaf), GateType::BasicStep);
  EXPECT_EQ(leaf, 0u);  // innermost first: children precede parents
  EXPECT_EQ(imported.attribution.get(adt.name(leaf)), 3);

  // Cut off at any depth, it is a clean ParseError, not a crash.
  EXPECT_THROW((void)import_adtool_xml(xml.substr(0, xml.size() / 2)),
               ParseError);
  EXPECT_THROW((void)import_adtool_xml(xml.substr(0, xml.size() - 20)),
               ParseError);
}

// ---- stable numbering ------------------------------------------------------
//
// NodeIds, generated names ("label@2", "... countered"), the domain_ids
// order and thereby every FrontCacheKey of an XML model follow the
// importer's conversion order, which these fingerprints pin: a change
// here would re-key every stored front of an XML model.

struct ImportFingerprint {
  const char* model;
  std::uint64_t structure;    ///< FrontCacheKey::structure
  std::uint64_t attribution;  ///< FrontCacheKey::attribution
  std::uint64_t names;        ///< Fnv1a of the node names in NodeId order
  std::size_t nodes;
};

/// FrontCacheKey::options of default AnalysisOptions.
constexpr std::uint64_t kDefaultOptionsHash = 0x911aff22217dfd39ULL;

/// FrontCacheKey::options of non_default_options(): every result field
/// set away from its default.
constexpr std::uint64_t kNonDefaultOptionsHash = 0x4c78ac2f3ed5de70ULL;

/// All 13 result fields of AnalysisOptions off their defaults, with
/// explicit orders over the leaves of catalog::fig3_example() (d1, d2,
/// a1, a2, a3 are NodeIds 0, 1, 3, 5, 7).
AnalysisOptions non_default_options(const Adt& fig3) {
  AnalysisOptions options;
  options.algorithm = Algorithm::Hybrid;
  options.naive.max_bits = 24;
  options.bottom_up.max_front_points = 1000;
  options.bdd.order_heuristic = bdd::OrderHeuristic::Bfs;
  options.bdd.order_seed = 7;
  options.bdd.node_limit = 1 << 20;
  options.bdd.max_front_points = 2000;
  options.bdd.order = bdd::VarOrder::from_sequence(fig3, {1, 0, 7, 5, 3});
  options.hybrid.bdd.order_heuristic = bdd::OrderHeuristic::Random;
  options.hybrid.bdd.order_seed = 11;
  options.hybrid.bdd.node_limit = 1 << 18;
  options.hybrid.bdd.max_front_points = 3000;
  options.hybrid.bdd.order =
      bdd::VarOrder::from_sequence(fig3, {0, 1, 3, 5, 7});
  return options;
}

std::vector<std::string> names_in_id_order(const Adt& adt) {
  std::vector<std::string> names;
  for (NodeId id = 0; id < adt.size(); ++id) names.push_back(adt.name(id));
  return names;
}

void expect_fingerprint(const AdtoolImport& imported,
                        const ImportFingerprint& expected) {
  SCOPED_TRACE(expected.model);
  const AugmentedAdt aadt(imported.adt, imported.attribution,
                          Semiring::min_cost(), Semiring::min_cost());
  const FrontCacheKey key = front_cache_key(aadt, AnalysisOptions{});
  Fnv1a names;
  for (const std::string& name : names_in_id_order(imported.adt)) {
    names.str(name);
  }
  EXPECT_EQ(imported.adt.size(), expected.nodes);
  EXPECT_EQ(names.digest(), expected.names);
  EXPECT_EQ(key.structure, expected.structure);
  EXPECT_EQ(key.attribution, expected.attribution);
  EXPECT_EQ(key.options, kDefaultOptionsHash);
}

TEST(AdtoolXmlNumbering, NonDefaultOptionsKeepTheirKey) {
  // Stored fronts are keyed on these bytes: a field that moves between
  // option structs must keep hashing in the same place and order.
  const AugmentedAdt fig3 = catalog::fig3_example();
  EXPECT_EQ(front_cache_key(fig3, non_default_options(fig3.adt())).options,
            kNonDefaultOptionsHash);
}

TEST(AdtoolXmlNumbering, SampleKeepsNodeOrderAndKey) {
  const AdtoolImport imported = import_adtool_xml(kSample);
  EXPECT_EQ(names_in_id_order(imported.adt),
            (std::vector<std::string>{
                "phish", "bribe", "get creds", "use vpn", "mfa",
                "steal token", "mfa countered", "use vpn countered",
                "insider path", "break in"}));
  EXPECT_EQ(imported.domain_ids, std::vector<std::string>{"MinCost1"});
  expect_fingerprint(imported, {"adtool_sample.xml", 0x8d1de7edbbe3362dULL,
                                0x29be504b8b219532ULL, 0x7b05bdb0f1901e09ULL,
                                10});
}

TEST(AdtoolXmlNumbering, MoneyTheftExportsKeepNodeOrderAndKey) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const AugmentedAdt tree = catalog::money_theft_tree();
  const AdtoolImport from_dag =
      import_adtool_xml(export_adtool_xml(dag.adt(), dag.attribution()));
  const AdtoolImport from_tree =
      import_adtool_xml(export_adtool_xml(tree.adt(), tree.attribution()));
  // The tree repeats the "phishing" gate; its second copy is renamed.
  EXPECT_EQ(names_in_id_order(from_tree.adt),
            (std::vector<std::string>{
                "steal_card", "force", "eavesdrop", "cover_keypad", "camera",
                "cover_keypad countered", "eavesdrop countered", "learn_pin",
                "withdraw_cash", "via_atm", "guess_user_name", "phishing",
                "get_user_name", "guess_pwd", "strong_pwd",
                "guess_pwd countered", "phishing@2", "get_password",
                "log_in_and_execute_transfer", "sms_authentication",
                "steal_phone", "sms_authentication countered",
                "log_in_and_execute_transfer countered", "via_online_banking",
                "steal_from_account"}));
  expect_fingerprint(from_dag, {"money_theft_dag", 0xdd2a381bb71e46e0ULL,
                                0x4e2b0baeb05bc3b4ULL, 0x9552b64e64178e73ULL,
                                24});
  expect_fingerprint(from_tree, {"money_theft_tree", 0xd224d25ecc20ca06ULL,
                                 0xf71c3527d27f968cULL, 0xefb8a216f4406edfULL,
                                 25});
}

/// The attacker-rooted random trees of AdtoolXmlExport.RandomTreesRoundTrip.
AugmentedAdt round_trip_tree(std::uint64_t seed) {
  RandomAdtOptions options;
  options.target_nodes = 14 + seed % 18;
  options.share_probability = 0.0;
  options.max_defenses = 6;
  options.root_agent = Agent::Attacker;
  return generate_random_aadt(options, seed, Semiring::min_cost(),
                              Semiring::min_cost());
}

/// AdtoolXmlExport.RandomTreesRoundTrip's trees, seeds 1-20.
constexpr ImportFingerprint kRoundTripTreeFingerprints[] = {
    {"seed 1", 0x47678e551ee7f179, 0x942f4812a4a9967b, 0x09e33714fb461a73, 16},
    {"seed 2", 0x0cb28b543bd00eb4, 0xfbf59fc4959c61ca, 0x9ae57ee3349cb628, 18},
    {"seed 3", 0x1ebd49fb5b398342, 0x4fe4288320b01cc5, 0x15a0c3af7af4abd1, 17},
    {"seed 4", 0xa71721083a135aa9, 0x9a66aca5e5b581e0, 0x3d795e36d3af3bea, 21},
    {"seed 5", 0xd4ce822f9d270a20, 0x1c76cd268b410b58, 0x45ff0a092779ea48, 19},
    {"seed 6", 0xe9cf846d977ef2d1, 0xd455123763900392, 0xb00d9b6fa95b64ad, 20},
    {"seed 7", 0x97a8b5ea7c9b9838, 0xb782131dcda2eefd, 0x78003ab86f7cdbe0, 23},
    {"seed 8", 0x32a26cf9dc9eb5ad, 0x44b79327aa48992a, 0xb75bb2f9a4a9daac, 22},
    {"seed 9", 0x51e63c8987212465, 0x09b51aefbc563caf, 0x23c8afb462882bca, 27},
    {"seed 10", 0xf8c68f5a21168e35, 0xd61ca4633235d01a, 0x8ac47df7bf93708c, 26},
    {"seed 11", 0xde520471e2b3bcb1, 0xad7ce3a1c755f78c, 0xfc4799c84b2aece7, 26},
    {"seed 12", 0xc554ca4ac02f694b, 0xb3a7147505e8acf7, 0x46b4a2728b35a3e2, 27},
    {"seed 13", 0xd9bf6cf1dfddafbd, 0x384087c9be0419ff, 0xc649188f9ba36ec5, 27},
    {"seed 14", 0x299651dc911706d6, 0xba6609d99971e7f9, 0xaebdd63f8d3f97c5, 28},
    {"seed 15", 0x063bb9f872d71a0b, 0x277ed37db3073f7b, 0x4a7ac32a5029184e, 32},
    {"seed 16", 0x7b318e207b2740dd, 0x983d18adfd153d72, 0xc1c989dd519c2ba4, 33},
    {"seed 17", 0x75a4d697bcb4436c, 0x13054a063a38071d, 0x1856b39aacfa4737, 31},
    {"seed 18", 0xf9075772e4078ec9, 0x06cad00efc8d8085, 0x59236686ee6bb1b7, 15},
    {"seed 19", 0x7dbefcbb984a7e42, 0x7fc9dd116ac0f827, 0x10293fcbeee0cb62, 16},
    {"seed 20", 0x789931f0b5e1601b, 0x1a2c49db58ce8b94, 0xf4106a0ecd0bd73a, 17},
};

TEST(AdtoolXmlNumbering, RandomTreesKeepNodeOrderAndKey) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AugmentedAdt aadt = round_trip_tree(seed);
    expect_fingerprint(import_adtool_xml(export_adtool_xml(
                           aadt.adt(), aadt.attribution(), "mincost")),
                       kRoundTripTreeFingerprints[seed - 1]);
  }
}

// ---- export / round-trip -------------------------------------------------

TEST(AdtoolXmlExport, SampleRoundTripsToFixpoint) {
  const AdtoolImport first = import_adtool_xml(kSample);
  const std::string domain = first.domain_ids.empty()
                                 ? std::string("adtp")
                                 : first.domain_ids.front();
  const std::string xml1 =
      export_adtool_xml(first.adt, first.attribution, domain);

  // import(export(.)) must be the identity from the first import on:
  // re-importing the export and exporting again yields the same document.
  const AdtoolImport second = import_adtool_xml(xml1);
  const std::string xml2 =
      export_adtool_xml(second.adt, second.attribution, domain);
  EXPECT_EQ(xml1, xml2);

  // Structure survives: the shared "phish" step stays one DAG node, and
  // the countermeasure chain re-imports as the same INH nesting.
  EXPECT_EQ(second.adt.size(), first.adt.size());
  EXPECT_EQ(second.adt.parents(second.adt.at("phish")).size(), 2u);
  EXPECT_EQ(second.attribution.get("phish"), 30);
  EXPECT_EQ(second.attribution.get("mfa"), 8);

  // Semantics survive: identical fronts.
  const AugmentedAdt a(first.adt, first.attribution, Semiring::min_cost(),
                       Semiring::min_cost());
  const AugmentedAdt b(second.adt, second.attribution, Semiring::min_cost(),
                       Semiring::min_cost());
  EXPECT_TRUE(bdd_bu_front(a).same_values(bdd_bu_front(b),
                                          a.defender_domain(),
                                          a.attacker_domain()));
}

TEST(AdtoolXmlExport, RandomTreesRoundTrip) {
  // Property: for generated attacker-rooted trees X, with I = import and
  // E = export, E(I(E(X))) == E(X) (textual fixpoint) and the front of
  // I(E(X)) equals X's front. Trees only: shared gates unfold on export.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AugmentedAdt aadt = round_trip_tree(seed);
    ASSERT_TRUE(aadt.adt().is_tree());

    const std::string xml1 =
        export_adtool_xml(aadt.adt(), aadt.attribution(), "mincost");
    const AdtoolImport imported = import_adtool_xml(xml1);
    const std::string xml2 =
        export_adtool_xml(imported.adt, imported.attribution, "mincost");
    EXPECT_EQ(xml1, xml2) << "seed " << seed;

    const AugmentedAdt reimported(imported.adt, imported.attribution,
                                  Semiring::min_cost(), Semiring::min_cost());
    const Front original = bdd_bu_front(aadt);
    const Front round_tripped = bdd_bu_front(reimported);
    EXPECT_TRUE(round_tripped.approx_same_values(original))
        << "seed " << seed << ": " << round_tripped.to_string() << " vs "
        << original.to_string();
  }
}

TEST(AdtoolXmlExport, SharedBasicStepsKeepSharingAcrossRoundTrip) {
  // DAGs whose only sharing is basic steps are inside ADTool's
  // representable class (repeated labels); the round trip keeps the DAG.
  Adt adt;
  const NodeId phish = adt.add_basic("phish", Agent::Attacker);
  const NodeId creds = adt.add_gate("creds", GateType::Or, Agent::Attacker,
                                    {phish, adt.add_basic("bribe",
                                                          Agent::Attacker)});
  const NodeId session =
      adt.add_gate("session", GateType::Or, Agent::Attacker, {phish});
  adt.set_root(adt.add_gate("root", GateType::And, Agent::Attacker,
                            {creds, session}));
  adt.freeze();
  Attribution beta;
  beta.set("phish", 30);
  beta.set("bribe", 100);

  const std::string xml = export_adtool_xml(adt, beta);
  const AdtoolImport imported = import_adtool_xml(xml);
  EXPECT_FALSE(imported.adt.is_tree());
  EXPECT_EQ(imported.adt.parents(imported.adt.at("phish")).size(), 2u);
  EXPECT_EQ(export_adtool_xml(imported.adt, imported.attribution), xml);
}

TEST(AdtoolXmlExport, NestedInhibitBaseIsWrapped) {
  // INH(INH(a | d) | a2) is not directly representable (a node cannot
  // carry two counter layers); the exporter wraps the inner INH in a
  // singleton disjunctive refinement, which is semantically neutral.
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  const NodeId inner = adt.add_inhibit("inner", a, d);
  const NodeId d2 = adt.add_basic("d2", Agent::Defender);
  adt.set_root(adt.add_inhibit("outer", inner, d2));
  adt.freeze();
  Attribution beta;
  beta.set("a", 5);
  beta.set("d", 4);
  beta.set("d2", 8);

  const std::string xml1 = export_adtool_xml(adt, beta);
  const AdtoolImport imported = import_adtool_xml(xml1);
  EXPECT_EQ(export_adtool_xml(imported.adt, imported.attribution), xml1);

  const AugmentedAdt original(adt, beta, Semiring::min_cost(),
                              Semiring::min_cost());
  const AugmentedAdt round_tripped(imported.adt, imported.attribution,
                                   Semiring::min_cost(),
                                   Semiring::min_cost());
  EXPECT_TRUE(bdd_bu_front(round_tripped)
                  .same_values(bdd_bu_front(original),
                               original.defender_domain(),
                               original.attacker_domain()));
}

TEST(AdtoolXmlExport, DefenderRootRejected) {
  Adt adt;
  adt.set_root(adt.add_basic("d", Agent::Defender));
  adt.freeze();
  EXPECT_THROW((void)export_adtool_xml(adt), ModelError);
}

}  // namespace
}  // namespace adtp
