/// The multi-process sharing contract of one store directory: exactly
/// one writer (the flock lease on <dir>/LOCK), any number of read-only
/// followers, follower refresh across appends and compactions, and
/// promotion when the writer goes away - contract 6 of
/// docs/CONTRACTS.md. Everything here runs in one process: flock is
/// per open file description, so two FrontStore instances in one test
/// conflict exactly as two processes would.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/persistent_cache.hpp"
#include "store/shard.hpp"
#include "store_test_util.hpp"
#include "util/fault.hpp"

namespace adtp::store {
namespace {

using testutil::make_key;
using testutil::make_result;
using testutil::ScratchDir;

std::vector<std::uint8_t> payload_of(char fill, std::size_t n) {
  return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

StoreOptions follower_options() {
  StoreOptions options;
  options.mode = AttachMode::Follower;
  return options;
}

// ---- the writer lease ------------------------------------------------------

TEST(Lease, SecondWriterOpenFailsWithAClearTransientError) {
  const ScratchDir dir("double_open");
  FrontStore first(dir.str());
  ASSERT_TRUE(first.put(make_key(1), payload_of('a', 16)));
  try {
    FrontStore second(dir.str());
    FAIL() << "two live writers on one directory";
  } catch (const StoreError& e) {
    // Transient: the holder may exit any moment, so waiting is sane.
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("locked"), std::string::npos)
        << "the error must say the store is locked, got: " << e.what();
  }
  // The failed open must not have damaged the holder.
  ASSERT_TRUE(first.put(make_key(2), payload_of('b', 16)));
  EXPECT_EQ(first.get(make_key(1)), payload_of('a', 16));
}

TEST(Lease, ReleasedOnCloseSoASuccessorCanOpen) {
  const ScratchDir dir("release");
  {
    FrontStore store(dir.str());
    ASSERT_TRUE(store.put(make_key(1), payload_of('a', 8)));
  }
  FrontStore successor(dir.str());
  EXPECT_EQ(successor.get(make_key(1)), payload_of('a', 8));
}

TEST(Lease, SurvivesCompaction) {
  // compact() closes and reopens the shard files; the lease must not
  // lapse in between (a second writer sneaking in mid-compaction would
  // be the exact interleaving the lease exists to prevent).
  const ScratchDir dir("compact_hold");
  StoreOptions options;
  options.max_entries = 2;
  options.compact_dead_fraction = 0;
  FrontStore store(dir.str(), options);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.put(make_key(i), payload_of('a' + i, 32)));
  }
  store.compact(/*force=*/true);
  EXPECT_THROW(FrontStore(dir.str()), StoreError)
      << "lease lapsed across compaction";
}

// ---- followers -------------------------------------------------------------

TEST(Follower, AttachServesTheCommittedEntriesBitExact) {
  const ScratchDir dir("attach");
  FrontStore writer(dir.str());
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 64)));
  ASSERT_TRUE(writer.put(make_key(2), payload_of('b', 0)));

  FrontStore follower(dir.str(), follower_options());
  EXPECT_TRUE(follower.follower());
  EXPECT_FALSE(writer.follower());
  EXPECT_EQ(follower.recovery().entries_recovered, 2u);
  EXPECT_EQ(follower.get(make_key(1)), payload_of('a', 64));
  EXPECT_EQ(follower.get(make_key(2)), payload_of('b', 0));
  EXPECT_FALSE(follower.get(make_key(3)).has_value());
}

TEST(Follower, IsReadOnlyUntilPromoted) {
  const ScratchDir dir("readonly");
  FrontStore writer(dir.str());
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 8)));
  FrontStore follower(dir.str(), follower_options());
  EXPECT_THROW(follower.put(make_key(9), payload_of('z', 8)), StoreError);
  EXPECT_THROW(follower.compact(/*force=*/true), StoreError);
  // And the rejected put is invisible everywhere.
  EXPECT_FALSE(writer.get(make_key(9)).has_value());
}

TEST(Follower, AttachToAnUninitializedDirIsTransient) {
  const ScratchDir dir("no_current");
  try {
    FrontStore follower(dir.str(), follower_options());
    FAIL() << "attached to a store no writer ever initialized";
  } catch (const StoreError& e) {
    EXPECT_TRUE(e.transient()) << "the writer may simply not have started "
                                  "yet; the caller should retry";
  }
}

TEST(Follower, RefreshPicksUpTheWritersAppends) {
  const ScratchDir dir("refresh");
  FrontStore writer(dir.str());
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 16)));
  FrontStore follower(dir.str(), follower_options());
  ASSERT_EQ(follower.stats().entries, 1u);

  ASSERT_TRUE(writer.put(make_key(2), payload_of('b', 48)));
  ASSERT_TRUE(writer.put(make_key(3), payload_of('c', 5)));
  const RefreshReport report = follower.refresh();
  EXPECT_EQ(report.new_entries, 2u);
  EXPECT_FALSE(report.generation_changed);
  EXPECT_EQ(follower.get(make_key(2)), payload_of('b', 48));
  EXPECT_EQ(follower.get(make_key(3)), payload_of('c', 5));

  // Idle refresh: nothing new, nothing lost.
  const RefreshReport idle = follower.refresh();
  EXPECT_EQ(idle.new_entries, 0u);
  EXPECT_EQ(follower.stats().entries, 3u);
}

TEST(Follower, RefreshOnAWriterIsANoOp) {
  const ScratchDir dir("writer_refresh");
  FrontStore writer(dir.str());
  const RefreshReport report = writer.refresh();
  EXPECT_EQ(report.new_entries, 0u);
  EXPECT_FALSE(report.generation_changed);
}

TEST(Follower, RefreshFollowsACompactionToTheNewGeneration) {
  const ScratchDir dir("follow_compact");
  StoreOptions writer_options;
  writer_options.max_entries = 2;
  writer_options.compact_dead_fraction = 0;
  FrontStore writer(dir.str(), writer_options);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(writer.put(make_key(i), payload_of('a' + i, 32)));
  }
  FrontStore follower(dir.str(), follower_options());
  const std::uint64_t old_gen = follower.generation();

  writer.compact(/*force=*/true);
  const RefreshReport report = follower.refresh();
  EXPECT_TRUE(report.generation_changed);
  EXPECT_NE(follower.generation(), old_gen);
  // The live set (last 2 of 5) carried over bit-exact.
  EXPECT_EQ(follower.stats().entries, 2u);
  EXPECT_EQ(follower.get(make_key(4)), payload_of('a' + 4, 32));
  EXPECT_EQ(follower.get(make_key(5)), payload_of('a' + 5, 32));
  EXPECT_FALSE(follower.get(make_key(1)).has_value());
}

TEST(Follower, ManyFollowersShareOneWriter) {
  const ScratchDir dir("many");
  FrontStore writer(dir.str());
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 24)));
  FrontStore f1(dir.str(), follower_options());
  FrontStore f2(dir.str(), follower_options());
  FrontStore f3(dir.str(), follower_options());
  for (FrontStore* f : {&f1, &f2, &f3}) {
    EXPECT_EQ(f->get(make_key(1)), payload_of('a', 24));
  }
}

// ---- promotion -------------------------------------------------------------

TEST(Promotion, FailsTransientlyWhileTheWriterLives) {
  const ScratchDir dir("premature");
  FrontStore writer(dir.str());
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 8)));
  FrontStore follower(dir.str(), follower_options());
  try {
    follower.promote();
    FAIL() << "two writers after a premature promotion";
  } catch (const StoreError& e) {
    EXPECT_TRUE(e.transient()) << "poll again later is the right reaction";
  }
  // The follower keeps serving reads after the failed attempt.
  EXPECT_TRUE(follower.follower());
  EXPECT_EQ(follower.get(make_key(1)), payload_of('a', 8));
}

TEST(Promotion, TakesOverAfterTheWriterCloses) {
  const ScratchDir dir("takeover");
  auto writer = std::make_unique<FrontStore>(dir.str());
  ASSERT_TRUE(writer->put(make_key(1), payload_of('a', 40)));
  FrontStore follower(dir.str(), follower_options());
  writer.reset();  // the lease evaporates with the holder

  follower.promote();
  EXPECT_FALSE(follower.follower());
  EXPECT_EQ(follower.get(make_key(1)), payload_of('a', 40));
  // Full writer powers: append and compact.
  ASSERT_TRUE(follower.put(make_key(2), payload_of('b', 8)));
  follower.compact(/*force=*/true);
  EXPECT_EQ(follower.get(make_key(2)), payload_of('b', 8));
  // And the lease is genuinely held: a new writer must wait.
  EXPECT_THROW(FrontStore(dir.str()), StoreError);
}

TEST(Promotion, IsIdempotentOnAWriter) {
  const ScratchDir dir("idem");
  FrontStore writer(dir.str());
  writer.promote();  // no-op
  ASSERT_TRUE(writer.put(make_key(1), payload_of('a', 8)));
}

TEST(Promotion, SurvivesThePromotedStoreAppendingThenRestarting) {
  const ScratchDir dir("lineage");
  {
    auto writer = std::make_unique<FrontStore>(dir.str());
    ASSERT_TRUE(writer->put(make_key(1), payload_of('a', 12)));
    FrontStore follower(dir.str(), follower_options());
    writer.reset();
    follower.promote();
    ASSERT_TRUE(follower.put(make_key(2), payload_of('b', 12)));
  }
  // A later clean restart sees the whole lineage: pre-death appends and
  // post-promotion appends in one consistent store.
  FrontStore restarted(dir.str());
  EXPECT_EQ(restarted.recovery().entries_recovered, 2u);
  EXPECT_EQ(restarted.get(make_key(1)), payload_of('a', 12));
  EXPECT_EQ(restarted.get(make_key(2)), payload_of('b', 12));
}

// ---- the lock primitive through the fault seam -----------------------------

TEST(Lease, LockFaultSurfacesAsStoreError) {
  const ScratchDir dir("lock_fault");
  FaultFileOps ops(real_file_ops());
  ops.fail_op(FaultFileOps::Op::Lock, /*countdown=*/0, /*transient=*/true);
  StoreOptions options;
  options.ops = &ops;
  try {
    FrontStore store(dir.str(), options);
    FAIL() << "injected lock fault did not surface";
  } catch (const StoreError& e) {
    EXPECT_TRUE(e.transient());
  }
  // Disarmed: the next open takes the lease normally.
  FrontStore store(dir.str(), options);
  ASSERT_TRUE(store.put(make_key(1), payload_of('a', 8)));
}

// ---- the cache layer over a follower store ---------------------------------

TEST(FollowerCache, ServesTheWritersFrontsAndStaysMemoryOnlyOnInsert) {
  const ScratchDir dir("cache");
  const AnalysisResult shared = make_result({{1, 10}, {3, 4}});
  PersistentCacheOptions writer_options;
  PersistentFrontCache writer(dir.str(), writer_options);
  ASSERT_TRUE(writer.insert(make_key(1), shared));
  ASSERT_EQ(writer.persistence_stats().store_writes, 1u);

  PersistentCacheOptions options;
  options.store.mode = AttachMode::Follower;
  PersistentFrontCache cache(dir.str(), options);
  ASSERT_TRUE(cache.persistent());
  ASSERT_TRUE(cache.follower());

  const auto hit = cache.lookup(make_key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->front.bit_identical_values(shared.front));
  EXPECT_EQ(cache.persistence_stats().store_hits, 1u);

  // A fresh insert is served from memory but never appended, and the
  // cache does not degrade over it.
  ASSERT_TRUE(cache.insert(make_key(2), make_result({{2, 7}})));
  EXPECT_EQ(cache.persistence_stats().store_writes, 0u);
  EXPECT_FALSE(cache.persistence_stats().degraded);
  EXPECT_TRUE(cache.lookup(make_key(2)).has_value());
  // ...and the writer never sees it.
  EXPECT_FALSE(writer.lookup(make_key(2)).has_value());
}

TEST(FollowerCache, RefreshesAndPromotesThroughTheCacheSurface) {
  const ScratchDir dir("cache_promote");
  const AnalysisResult first = make_result({{1, 10}});
  const AnalysisResult second = make_result({{2, 20}});
  auto writer = std::make_unique<PersistentFrontCache>(
      dir.str(), PersistentCacheOptions{});
  ASSERT_TRUE(writer->insert(make_key(1), first));

  PersistentCacheOptions options;
  options.store.mode = AttachMode::Follower;
  options.memory_capacity = 1;  // force store lookups, not memory luck
  PersistentFrontCache cache(dir.str(), options);

  ASSERT_TRUE(writer->insert(make_key(2), second));
  const auto report = cache.refresh();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->new_entries, 1u);
  ASSERT_TRUE(cache.lookup(make_key(2)).has_value());

  // Promotion fails politely while the writer lives...
  EXPECT_FALSE(cache.promote());
  EXPECT_FALSE(cache.persistence_stats().degraded)
      << "a failed promotion must not degrade a healthy follower";
  // ...and succeeds once it is gone; inserts persist from then on.
  writer.reset();
  EXPECT_TRUE(cache.promote());
  EXPECT_FALSE(cache.follower());
  ASSERT_TRUE(cache.insert(make_key(3), make_result({{3, 30}})));
  EXPECT_EQ(cache.persistence_stats().store_writes, 1u);
}

TEST(FollowerCache, OpenGracePeriodRidesOutTheWriterStartupRace) {
  // A follower daemon started alongside its writer attaches before
  // CURRENT exists. That open failure is transient, and with a grace
  // period configured the follower must wait the writer in rather
  // than degrading to memory-only for its whole lifetime.
  const ScratchDir dir("startup_race");
  PersistentCacheOptions options;
  options.store.mode = AttachMode::Follower;
  options.open_retry_seconds = 10.0;
  std::unique_ptr<PersistentFrontCache> follower;
  std::thread attacher([&] {
    follower = std::make_unique<PersistentFrontCache>(dir.str(), options);
  });

  // The "writer daemon" comes up a beat later and publishes a front.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  PersistentFrontCache writer(dir.str(), PersistentCacheOptions{});
  ASSERT_TRUE(writer.insert(make_key(1), make_result({{1, 10}})));

  attacher.join();
  ASSERT_TRUE(follower->persistent())
      << "the grace period must cover a writer that starts moments later";
  EXPECT_TRUE(follower->follower());
  EXPECT_FALSE(follower->persistence_stats().degraded);
  (void)follower->refresh();
  EXPECT_TRUE(follower->lookup(make_key(1)).has_value());

  // Without a grace period the pre-fleet behavior is unchanged: a
  // transient open failure degrades on the spot.
  const ScratchDir empty("no_grace");
  PersistentCacheOptions no_grace;
  no_grace.store.mode = AttachMode::Follower;
  PersistentFrontCache degraded(empty.str(), no_grace);
  EXPECT_FALSE(degraded.persistent());
  EXPECT_TRUE(degraded.persistence_stats().degraded);
}

}  // namespace
}  // namespace adtp::store
