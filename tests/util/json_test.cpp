#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace adtp {
namespace {

TEST(Json, ObjectWithScalars) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("fig5");
  w.key("nodes").value(std::size_t{7});
  w.key("tree").value(true);
  w.key("missing").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"fig5","nodes":7,"tree":true,"missing":null})");
}

TEST(Json, NestedArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("front").begin_array();
  w.begin_array().value(0).value(80).end_array();
  w.begin_array().value(20).value(90).end_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"front":[[0,80],[20,90]]})");
}

TEST(Json, DoublesAndSpecials) {
  JsonWriter w;
  w.begin_array();
  w.value(0.5);
  w.value(90.0);  // integral double prints without decimals
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), R"([0.5,90,"inf","-inf",null])");
}

TEST(Json, DoublesFormatShortestExact) {
  // Integers below 1e15 keep their plain digits; everything else is the
  // shortest text that parses back to the same double.
  EXPECT_EQ(format_double_exact(90), "90");
  EXPECT_EQ(format_double_exact(-123), "-123");
  EXPECT_EQ(format_double_exact(1e14), "100000000000000");
  EXPECT_EQ(format_double_exact(999999999999999.0), "999999999999999");
  EXPECT_EQ(format_double_exact(0.5), "0.5");
  EXPECT_EQ(format_double_exact(0.1), "0.1");
  EXPECT_EQ(format_double_exact(1e-4), "1e-04");
  EXPECT_EQ(format_double_exact(1e15), "1e+15");
}

TEST(Json, NegativeZeroKeepsItsSign) {
  EXPECT_EQ(format_double_exact(0.0), "0");
  EXPECT_EQ(format_double_exact(-0.0), "-0");
  JsonWriter w;
  w.begin_array().value(-0.0).value(0.0).end_array();
  EXPECT_EQ(w.str(), "[-0,0]");
  const JsonValue doc = parse_json(w.str());
  EXPECT_TRUE(std::signbit(doc.items()[0].as_number()));
  EXPECT_FALSE(std::signbit(doc.items()[1].as_number()));
}

TEST(Json, EveryWrittenDoubleParsesBackBitIdentical) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, limits::min(), -limits::min(), limits::denorm_min(),
      -limits::denorm_min(), limits::max(), -limits::max(),
      limits::epsilon(), 0.1, 1.0 / 3.0, 2.0 / 3.0, 9007199254740993.0};
  // Integers around the 1e15 switch between the two notations.
  for (double base : {1e15, -1e15}) {
    for (int delta = -3; delta <= 3; ++delta) {
      values.push_back(base + delta);
      values.push_back(base + delta + 0.5);
    }
    values.push_back(std::nextafter(base, 0.0));
    values.push_back(std::nextafter(base, 2 * base));
  }
  Rng rng(0x15EED);
  for (int i = 0; i < 20000; ++i) {
    const double any = std::bit_cast<double>(rng());
    if (std::isfinite(any)) values.push_back(any);
    // Subnormals: exponent bits zero, random sign and mantissa.
    values.push_back(
        std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
  }
  JsonWriter w;
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  const JsonValue doc = parse_json(w.str());
  ASSERT_EQ(doc.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double back = doc.items()[i].as_number();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(values[i]))
        << "wrote " << format_double_exact(values[i]);
  }
}

TEST(Json, StringEscaping) {
  JsonWriter w;
  w.value(std::string("a\"b\\c\nd\te") + '\x01');
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Json, TopLevelScalar) {
  JsonWriter w;
  w.value(42);
  EXPECT_EQ(w.str(), "42");
}

TEST(Json, MisuseDetected) {
  {
    JsonWriter w;
    EXPECT_THROW((void)w.str(), Error);  // nothing written
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), Error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.key("k2"), Error);  // key twice
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.end_object(), Error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), Error);  // unclosed
  }
  {
    JsonWriter w;
    w.value(1);
    EXPECT_THROW(w.value(2), Error);  // two top-level values
  }
  {
    JsonWriter w;
    EXPECT_THROW(w.key("k"), Error);  // key outside object
  }
}

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_EQ(parse_json("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json(R"("a\"b\\c\nA")").as_string(), "a\"b\\c\nA");
}

TEST(JsonReader, ParsesContainers) {
  const JsonValue doc = parse_json(
      R"({"name": "x", "rows": [[1, 2], [3, "inf"]], "ok": true})");
  EXPECT_EQ(doc.at("name").as_string(), "x");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_FALSE(doc.has("missing"));
  const JsonValue& rows = doc.at("rows");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0].items()[1].as_number(), 2.0);
  // The writer's infinity convention decodes through as_metric().
  EXPECT_TRUE(std::isinf(rows.items()[1].items()[1].as_metric()));
  EXPECT_EQ(rows.items()[1].items()[0].as_metric(), 3.0);
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("seconds").value(0.25);
  w.key("count").value(std::uint64_t{7});
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("tags").begin_array().value("a").value("b").end_array();
  w.end_object();
  const JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("seconds").as_number(), 0.25);
  EXPECT_EQ(doc.at("count").as_number(), 7.0);
  EXPECT_TRUE(std::isinf(doc.at("inf").as_metric()));
  EXPECT_EQ(doc.at("tags").items()[1].as_string(), "b");
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_json(""), ParseError);
  EXPECT_THROW((void)parse_json("{"), ParseError);
  EXPECT_THROW((void)parse_json("[1,]"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), ParseError);
  EXPECT_THROW((void)parse_json("\"unterminated"), ParseError);
  EXPECT_THROW((void)parse_json("12 34"), ParseError);
  EXPECT_THROW((void)parse_json("nope"), ParseError);
  // Type mismatches throw Error, not garbage.
  EXPECT_THROW((void)parse_json("3").as_string(), Error);
  EXPECT_THROW((void)parse_json("[]").at("x"), Error);
  EXPECT_THROW((void)parse_json("\"nan\"").as_metric(), Error);
}

TEST(JsonReader, MissingFileThrows) {
  EXPECT_THROW((void)load_json_file("/nonexistent/doc.json"), Error);
}

}  // namespace
}  // namespace adtp
