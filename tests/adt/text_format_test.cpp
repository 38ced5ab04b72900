#include "adt/text_format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/bottom_up.hpp"
#include "core/naive.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

constexpr const char* kFig5Text = R"(
# Fig. 5 of the paper
domains mincost mincost
a1 = attack 5
d1 = defense 4
i1 = INH (a1 | d1)
a2 = attack 10
d2 = defense 8
i2 = INH (a2 | d2)
top = OR A (i1, i2)
root top
)";

TEST(TextFormat, ParsesFig5) {
  const ParsedModel model = parse_adt_text(kFig5Text);
  EXPECT_EQ(model.adt.size(), 7u);
  EXPECT_EQ(model.adt.name(model.adt.root()), "top");
  EXPECT_EQ(model.attribution.get("d2"), 8);
  const Front front = bottom_up_front(model.augmented());
  EXPECT_EQ(front.to_string(), "{(0, 5), (4, 10), (12, inf)}");
}

TEST(TextFormat, AgentInferredFromFirstChild) {
  const ParsedModel model = parse_adt_text(
      "a1 = attack 1\na2 = attack 2\ntop = OR (a1, a2)\n");
  EXPECT_EQ(model.adt.agent(model.adt.root()), Agent::Attacker);
}

TEST(TextFormat, RootDefaultsToLastNode) {
  const ParsedModel model =
      parse_adt_text("a1 = attack 1\na2 = attack 2\ntop = AND A (a1, a2)\n");
  EXPECT_EQ(model.adt.name(model.adt.root()), "top");
}

TEST(TextFormat, QuotedNames) {
  const ParsedModel model = parse_adt_text(
      "\"log in & execute\" = attack 10\n"
      "\"sms auth\" = defense 20\n"
      "top = INH (\"log in & execute\" | \"sms auth\")\n");
  EXPECT_TRUE(model.adt.find("log in & execute").has_value());
  EXPECT_EQ(model.attribution.get("sms auth"), 20);
}

TEST(TextFormat, DomainsParsed) {
  const ParsedModel model = parse_adt_text(
      "domains minskill probability\na = attack 0.5\n");
  EXPECT_EQ(model.defender_domain.kind(), SemiringKind::MinSkill);
  EXPECT_EQ(model.attacker_domain.kind(), SemiringKind::Probability);
}

TEST(TextFormat, InfValueParsed) {
  const ParsedModel model = parse_adt_text("a = attack inf\n");
  EXPECT_TRUE(std::isinf(model.attribution.get("a")));
}

TEST(TextFormat, ErrorsCarryLineNumbers) {
  try {
    (void)parse_adt_text("a1 = attack 5\nb = bogus 3\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(TextFormat, UnknownChildRejected) {
  EXPECT_THROW((void)parse_adt_text("top = OR A (nope)\n"), ParseError);
}

TEST(TextFormat, ForwardReferenceRejected) {
  // Nodes must be defined before use (bottom-up construction).
  EXPECT_THROW(
      (void)parse_adt_text("top = OR A (a1)\na1 = attack 5\n"),
      ParseError);
}

TEST(TextFormat, MalformedLinesRejected) {
  EXPECT_THROW((void)parse_adt_text("a1 = attack\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("a1 attack 5\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("a1 = attack five\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("i = INH (a | )\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("domains mincost\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("domains nope mincost\na = attack 1\n"),
               ParseError);
  EXPECT_THROW((void)parse_adt_text("\n# only comments\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("a1 = attack 5 extra\n"), ParseError);
  EXPECT_THROW((void)parse_adt_text("\"unterminated = attack 5\n"),
               ParseError);
}

TEST(TextFormat, MissingValueCaughtByValidation) {
  // A gate-only model has no leaves with values - but a leaf without a
  // value line cannot even be expressed; missing attribution arises with
  // a mis-typed name instead.
  EXPECT_THROW((void)parse_adt_text("root nothing\n"), ParseError);
}

TEST(TextFormat, RoundTripMoneyTheft) {
  const AugmentedAdt original = catalog::money_theft_dag();
  const std::string text = to_text_format(original);
  const ParsedModel reparsed = parse_adt_text(text);
  const AugmentedAdt again = reparsed.augmented();
  EXPECT_EQ(again.adt().size(), original.adt().size());
  EXPECT_EQ(naive_front(again).to_string(),
            naive_front(original).to_string());
}

/// Every leaf value of \p again has the bit pattern of \p original's.
void expect_values_bit_identical(const AugmentedAdt& original,
                                 const AugmentedAdt& again) {
  ASSERT_EQ(again.adt().size(), original.adt().size());
  for (NodeId id = 0; id < original.adt().size(); ++id) {
    if (original.adt().type(id) != GateType::BasicStep) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.value_of(id)),
              std::bit_cast<std::uint64_t>(original.value_of(id)))
        << original.adt().name(id) << ": " << original.value_of(id);
  }
}

TEST(TextFormat, RoundTripRandomModels) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomAdtOptions options;
    options.target_nodes = 30;
    options.share_probability = seed % 2 == 0 ? 0.2 : 0.0;
    const AugmentedAdt original = generate_random_aadt(
        options, seed, Semiring::min_cost(), Semiring::min_cost());
    const AugmentedAdt again =
        parse_adt_text(to_text_format(original)).augmented();
    EXPECT_EQ(naive_front(again).to_string(),
              naive_front(original).to_string())
        << "seed " << seed;
    expect_values_bit_identical(original, again);
  }
  // Probability-domain values (0.05 + 0.9 u) have no short decimal form;
  // the export must still write them so they parse back bit for bit.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomAdtOptions options;
    options.target_nodes = 30;
    options.share_probability = seed % 2 == 0 ? 0.2 : 0.0;
    const AugmentedAdt original = generate_random_aadt(
        options, seed, Semiring::probability(), Semiring::probability());
    const AugmentedAdt again =
        parse_adt_text(to_text_format(original)).augmented();
    SCOPED_TRACE("probability seed " + std::to_string(seed));
    EXPECT_EQ(again.attacker_domain().kind(), SemiringKind::Probability);
    expect_values_bit_identical(original, again);
    EXPECT_TRUE(naive_front(again).bit_identical_values(naive_front(original)));
  }
}

TEST(TextFormat, ExportKeepsValuesExact) {
  // Values a fixed number of decimals would round (1e-4 to 0), a
  // subnormal, and large values. Integers keep their plain digits.
  const double values[] = {1e-4, 0.1, 1.0 / 3.0, 123456.789, 5e-324,
                           2.5e300, 999999999999999.0, 1e15, 42.0};
  Adt adt;
  Attribution beta;
  std::vector<NodeId> leaves;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::string name = "a" + std::to_string(i);
    leaves.push_back(adt.add_basic(name, Agent::Attacker));
    beta.set(name, values[i]);
  }
  adt.set_root(adt.add_gate("top", GateType::Or, Agent::Attacker, leaves));
  adt.freeze();
  const AugmentedAdt original(adt, beta, Semiring::min_cost(),
                              Semiring::min_cost());
  const std::string text = to_text_format(original);
  EXPECT_NE(text.find("a6 = attack 999999999999999\n"), std::string::npos);
  EXPECT_NE(text.find("a8 = attack 42\n"), std::string::npos);
  expect_values_bit_identical(original, parse_adt_text(text).augmented());
}

TEST(TextFormat, ValueTokensKeepTheStodGrammar) {
  auto value = [](const std::string& token) {
    return parse_adt_text("a = attack " + token + "\n").attribution.get("a");
  };
  EXPECT_EQ(value("+5"), 5);
  EXPECT_EQ(value("0x10"), 16);
  EXPECT_EQ(value("007"), 7);
  EXPECT_EQ(value("1e-4"), 1e-4);
  EXPECT_TRUE(std::isinf(value("inf")));
  EXPECT_TRUE(std::isinf(value("infinity")));
  EXPECT_EQ(value("5e-324"), std::numeric_limits<double>::denorm_min());
  EXPECT_THROW((void)value("1e-400"), ParseError);  // underflows to 0
  EXPECT_THROW((void)value("1e400"), ParseError);   // overflows
  EXPECT_THROW((void)value("5-"), ParseError);      // trailing junk
  EXPECT_THROW((void)value("nan"), AttributionError);
}

TEST(TextFormat, FileRoundTrip) {
  const AugmentedAdt original = catalog::fig5_example();
  const std::string path = ::testing::TempDir() + "/fig5.adt";
  save_adt_file(original, path);
  const ParsedModel loaded = load_adt_file(path);
  EXPECT_EQ(loaded.adt.size(), original.adt().size());
  std::remove(path.c_str());
}

TEST(TextFormat, MissingFileThrows) {
  EXPECT_THROW((void)load_adt_file("/nonexistent/nowhere.adt"), Error);
}

}  // namespace
}  // namespace adtp
