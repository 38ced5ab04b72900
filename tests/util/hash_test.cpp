/// Fnv1a is the foundation of FrontCache keys: it must match the
/// published FNV-1a vectors, frame variable-length fields so adjacent
/// values cannot alias, and treat the two IEEE zeros as one value (the
/// only double pair the analysis considers equal with distinct bits).
/// WordHash keys the node memo; ValueKeys.* and SubtreeHashes.*
/// (tests/core/node_memo_test.cpp) pin its strength and that the memo
/// tells the two zeros apart.

#include <gtest/gtest.h>

#include "util/hash.hpp"

namespace adtp {
namespace {

TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a().digest(), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(Fnv1a().bytes("a", 1).digest(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a().bytes("foobar", 6).digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, IsDeterministicAndOrderSensitive) {
  const auto ab = Fnv1a().u32(1).u32(2).digest();
  EXPECT_EQ(ab, Fnv1a().u32(1).u32(2).digest());
  EXPECT_NE(ab, Fnv1a().u32(2).u32(1).digest());
}

TEST(Fnv1a, StringFramingPreventsAliasing) {
  // Without length framing {"ab","c"} and {"a","bc"} would hash equal.
  EXPECT_NE(Fnv1a().str("ab").str("c").digest(),
            Fnv1a().str("a").str("bc").digest());
}

TEST(Fnv1a, NegativeZeroFoldsOntoPositiveZero) {
  EXPECT_EQ(Fnv1a().f64(-0.0).digest(), Fnv1a().f64(0.0).digest());
  EXPECT_NE(Fnv1a().f64(0.0).digest(), Fnv1a().f64(1.0).digest());
}

TEST(Fnv1a, DistinguishesValueWidths) {
  // u8(1) and u32(1) must not collide (different byte counts feed in).
  EXPECT_NE(Fnv1a().u8(1).digest(), Fnv1a().u32(1).digest());
}

TEST(WordHash, IsDeterministicAndOrderSensitive) {
  const auto ab = WordHash().word(1).word(2).digest();
  EXPECT_EQ(ab, WordHash().word(1).word(2).digest());
  EXPECT_NE(ab, WordHash().word(2).word(1).digest());
  EXPECT_NE(WordHash().pair(1, 2).digest(), WordHash().pair(2, 1).digest());
  EXPECT_NE(WordHash().digest(), WordHash().word(0).digest());
  EXPECT_NE(WordHash().word(0).digest(), WordHash().word(0).word(0).digest());
}

TEST(HashCombine, IsOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

}  // namespace
}  // namespace adtp
