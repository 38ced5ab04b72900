/// The codec's contract: every well-formed value round-trips to the
/// same bits (doubles by IEEE-754 pattern - infinities, negative zero
/// and subnormals included), and nothing else decodes - truncations,
/// stale versions, lying counts and trailing bytes all throw CodecError
/// rather than produce a plausible-but-wrong front.

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <vector>

#include "store/codec.hpp"
#include "store_test_util.hpp"

namespace adtp::store {
namespace {

using testutil::bits_equal;
using testutil::make_result;

constexpr double kInf = std::numeric_limits<double>::infinity();

AnalysisResult roundtrip(const AnalysisResult& in) {
  const std::vector<std::uint8_t> bytes = encode_result(in);
  return decode_result(bytes.data(), bytes.size());
}

TEST(Codec, RoundTripsAnOrdinaryResult) {
  const AnalysisResult in =
      make_result({{0, 30}, {5, 12.5}, {9, 3.25}}, Algorithm::BddBu);
  const AnalysisResult out = roundtrip(in);
  EXPECT_TRUE(bits_equal(in.front, out.front));
  EXPECT_EQ(out.used, Algorithm::BddBu);
  EXPECT_EQ(out.seconds, in.seconds);
  EXPECT_EQ(out.memo_hits, in.memo_hits);
  EXPECT_EQ(out.memo_misses, in.memo_misses);
}

TEST(Codec, RoundTripsEmptyFront) {
  const AnalysisResult out = roundtrip(make_result({}));
  EXPECT_EQ(out.front.size(), 0u);
}

TEST(Codec, RoundTripsSpecialDoublesBitExactly) {
  // The attacker response to an undefended system is routinely +inf, and
  // staircase endpoints can be -inf under max-style defender domains;
  // -0.0 and subnormals guard against any sneaky text or normalization
  // path in the codec.
  const AnalysisResult in = make_result({
      {-kInf, kInf},
      {-0.0, std::numeric_limits<double>::denorm_min()},
      {std::numeric_limits<double>::min(), -0.0},
      {1e308, -kInf},
  });
  const AnalysisResult out = roundtrip(in);
  ASSERT_EQ(out.front.size(), in.front.size());
  EXPECT_TRUE(bits_equal(in.front, out.front));
  // Explicitly: -0.0 stayed -0.0 (operator== would accept +0.0).
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.front.points()[1].def),
            std::bit_cast<std::uint64_t>(-0.0));
}

TEST(Codec, RandomFrontsRoundTripBitExactly) {
  std::mt19937_64 rng(20250808);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng() % 40;
    std::vector<ValuePoint> points;
    double def = value(rng);
    double att = value(rng);
    for (std::size_t i = 0; i < n; ++i) {
      // Keep the staircase shape (def up, att down) so from_staircase's
      // precondition holds; exact values are irrelevant to the codec.
      def += std::abs(value(rng));
      att -= std::abs(value(rng));
      points.push_back({def, att});
    }
    AnalysisResult in;
    in.front = Front::from_staircase(std::move(points));
    in.used = static_cast<Algorithm>(rng() % 5);
    in.seconds = value(rng);
    in.memo_hits = rng();
    in.memo_misses = rng();
    const AnalysisResult out = roundtrip(in);
    ASSERT_TRUE(bits_equal(in.front, out.front)) << "iter " << iter;
    EXPECT_EQ(out.used, in.used);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.seconds),
              std::bit_cast<std::uint64_t>(in.seconds));
    EXPECT_EQ(out.memo_hits, in.memo_hits);
    EXPECT_EQ(out.memo_misses, in.memo_misses);
  }
}

TEST(Codec, TraceIsNotPersisted) {
  // The trace is per-run data: filling it changes no byte, and decoding
  // restores the memo counts over an otherwise default trace.
  const AnalysisResult plain = make_result({{0, 30}, {5, 12.5}});
  AnalysisResult traced = plain;
  traced.combine.kway_combines = 11;
  traced.combine.points_examined = 42;
  traced.sched.tasks = 7;
  traced.sched.steals = 2;
  traced.threads_used = 4;
  traced.max_front_size = 9;
  traced.build_seconds = 0.5;
  traced.propagate_seconds = 0.25;
  traced.bdd_size = 100;
  traced.manager_nodes = 120;
  traced.max_level_width = 8;
  traced.blob_count = 2;
  traced.largest_blob = 30;
  traced.tree_combines = 5;
  EXPECT_EQ(encode_result(traced), encode_result(plain));

  const AnalysisResult out = roundtrip(traced);
  EXPECT_TRUE(bits_equal(out.front, plain.front));
  AnalysisTrace expected;
  expected.memo_hits = traced.memo_hits;
  expected.memo_misses = traced.memo_misses;
  EXPECT_TRUE(static_cast<const AnalysisTrace&>(out) == expected);
}

TEST(CodecTrace, MemoCutoffsAreNotPersisted) {
  // memo_cutoffs is trace data like the rest: no byte moves, and a
  // decoded result reads 0.
  const AnalysisResult plain = make_result({{0, 30}, {5, 12.5}});
  AnalysisResult traced = plain;
  traced.memo_cutoffs = 3;
  EXPECT_EQ(encode_result(traced), encode_result(plain));
  EXPECT_EQ(roundtrip(traced).memo_cutoffs, 0u);
}

TEST(Codec, EveryStrictPrefixFailsToDecode) {
  const std::vector<std::uint8_t> bytes =
      encode_result(make_result({{1, 9}, {2, 8}, {3, 7}}));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_result(bytes.data(), len), CodecError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Codec, TrailingBytesFailToDecode) {
  std::vector<std::uint8_t> bytes = encode_result(make_result({{1, 2}}));
  bytes.push_back(0);
  EXPECT_THROW((void)decode_result(bytes.data(), bytes.size()), CodecError);
}

TEST(Codec, UnknownVersionFailsToDecode) {
  std::vector<std::uint8_t> bytes = encode_result(make_result({{1, 2}}));
  bytes[0] = static_cast<std::uint8_t>(kCodecVersion + 1);
  EXPECT_THROW((void)decode_result(bytes.data(), bytes.size()), CodecError);
}

TEST(Codec, UnknownAlgorithmTagFailsToDecode) {
  std::vector<std::uint8_t> bytes = encode_result(make_result({{1, 2}}));
  bytes[2] = 200;  // the algorithm byte follows the u16 version
  EXPECT_THROW((void)decode_result(bytes.data(), bytes.size()), CodecError);
}

TEST(Codec, LyingPointCountFailsToDecode) {
  // Inflate the point count without supplying the points: the decoder
  // must reject before trusting (and allocating for) the count.
  AnalysisResult in = make_result({{1, 2}});
  std::vector<std::uint8_t> bytes = encode_result(in);
  const std::size_t count_at = 2 + 1 + 1 + 8 + 8 + 8;
  bytes[count_at] = 0xff;
  bytes[count_at + 1] = 0xff;
  bytes[count_at + 2] = 0xff;
  bytes[count_at + 3] = 0x7f;
  EXPECT_THROW((void)decode_result(bytes.data(), bytes.size()), CodecError);
}

}  // namespace
}  // namespace adtp::store
