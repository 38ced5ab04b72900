/// End-to-end persistence: a PersistentFrontCache plugged into
/// analyze_batch as a plain FrontCache*, a process "restart" (new cache
/// over the same directory), and the contract-5 claim - a store-warm
/// restart serves fronts bit-identical to cold analysis, at 1, 2 and 8
/// threads.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "gen/random_adt.hpp"
#include "store/persistent_cache.hpp"
#include "store_test_util.hpp"
#include "util/fault.hpp"

namespace adtp::store {
namespace {

using testutil::bits_equal;
using testutil::make_key;
using testutil::make_result;
using testutil::ScratchDir;

TEST(PersistentCache, LookupFallsThroughToTheStoreAndPromotes) {
  const ScratchDir dir("fallthrough");
  PersistentCacheOptions options;
  options.memory_capacity = 1;
  {
    PersistentFrontCache cache(dir.str(), options);
    EXPECT_TRUE(cache.insert(make_key(1), make_result({{1, 10}})));
    EXPECT_TRUE(cache.insert(make_key(2), make_result({{2, 20}})));
    // Key 1 was evicted from the one-slot memory tier but persists.
    const auto hit = cache.lookup(make_key(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->front.front_point().def, 1);
    EXPECT_EQ(cache.persistence_stats().store_hits, 1u);
    // Promoted: the repeat lookup is a memory hit, not another store read.
    ASSERT_TRUE(cache.lookup(make_key(1)).has_value());
    EXPECT_EQ(cache.persistence_stats().store_hits, 1u);
  }
  // "Restart": a fresh cache over the same directory serves both.
  PersistentFrontCache restarted(dir.str(), options);
  ASSERT_TRUE(restarted.recovery().has_value());
  EXPECT_EQ(restarted.recovery()->entries_recovered, 2u);
  ASSERT_TRUE(restarted.lookup(make_key(2)).has_value());
  EXPECT_EQ(restarted.lookup(make_key(2))->front.front_point().att, 20);
}

TEST(PersistentCache, DuplicateInsertIsPersistedOnce) {
  const ScratchDir dir("duponce");
  PersistentFrontCache cache(dir.str());
  EXPECT_TRUE(cache.insert(make_key(1), make_result({{1, 2}})));
  EXPECT_FALSE(cache.insert(make_key(1), make_result({{1, 2}})));
  const auto stats = cache.store_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->puts, 1u);
  EXPECT_EQ(cache.persistence_stats().store_writes, 1u);
}

TEST(PersistentCache, ZeroMemoryCapacityStillPersists) {
  // A disabled memory tier never reports an entry fresh, so the store's
  // own duplicate check decides what is written: once per key.
  const ScratchDir dir("zeromem");
  PersistentCacheOptions options;
  options.memory_capacity = 0;
  {
    PersistentFrontCache cache(dir.str(), options);
    cache.insert(make_key(1), make_result({{1, 10}}));
    cache.insert(make_key(1), make_result({{1, 10}}));
    EXPECT_EQ(cache.persistence_stats().store_writes, 1u);
    const auto stats = cache.store_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->puts, 1u);
  }
  PersistentFrontCache restarted(dir.str(), options);
  ASSERT_TRUE(restarted.recovery().has_value());
  EXPECT_EQ(restarted.recovery()->entries_recovered, 1u);
  const auto hit = restarted.lookup(make_key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front.front_point().att, 10);
}

TEST(PersistentCache, ResultMetadataSurvivesTheStore) {
  const ScratchDir dir("metadata");
  AnalysisResult in = make_result({{1, 2}, {3, 1}}, Algorithm::Hybrid);
  in.memo_hits = 12345;
  in.memo_misses = 999;
  {
    PersistentFrontCache cache(dir.str());
    cache.insert(make_key(5), in);
  }
  PersistentFrontCache cache(dir.str());
  const auto out = cache.lookup(make_key(5));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(bits_equal(in.front, out->front));
  EXPECT_EQ(out->used, Algorithm::Hybrid);
  EXPECT_EQ(out->memo_hits, 12345u);
  EXPECT_EQ(out->memo_misses, 999u);
}

TEST(PersistentCache, WarmRestartServesBitIdenticalFrontsAcrossThreadCounts) {
  // Cold: analyze a mixed fleet once, persisting every result. Restart,
  // then serve the same fleet warm at 1/2/8 threads - every item must be
  // a cache hit and every front bit-identical to the cold run.
  RandomAdtOptions gen;
  gen.target_nodes = 40;
  gen.share_probability = 0.25;
  gen.max_defenses = 10;
  std::vector<AugmentedAdt> fleet;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fleet.push_back(generate_random_aadt(
        gen, seed, Semiring::min_cost(), Semiring::min_cost()));
  }

  const ScratchDir dir("warm");
  PersistentCacheOptions options;
  options.memory_capacity = 64;
  BatchReport cold;
  {
    PersistentFrontCache cache(dir.str(), options);
    BatchOptions batch;
    batch.cache = &cache;
    batch.n_threads = 2;
    cold = analyze_batch(fleet, {}, batch);
    ASSERT_EQ(cold.failures, 0u);
    ASSERT_EQ(cold.cache_hits, 0u);
    ASSERT_TRUE(cache.persistent());
    EXPECT_EQ(cache.persistence_stats().store_writes, fleet.size());
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    PersistentFrontCache warm_cache(dir.str(), options);
    ASSERT_TRUE(warm_cache.persistent());
    ASSERT_TRUE(warm_cache.recovery().has_value());
    ASSERT_EQ(warm_cache.recovery()->entries_recovered, fleet.size());

    BatchOptions batch;
    batch.cache = &warm_cache;
    batch.n_threads = threads;
    const BatchReport warm = analyze_batch(fleet, {}, batch);
    ASSERT_EQ(warm.failures, 0u) << threads << " threads";
    EXPECT_EQ(warm.cache_hits, fleet.size()) << threads << " threads";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_TRUE(warm.items[i].cached) << threads << " threads, item " << i;
      ASSERT_TRUE(
          bits_equal(warm.items[i].result.front, cold.items[i].result.front))
          << threads << " threads, item " << i
          << ": store-warm front differs from cold analysis";
    }
    EXPECT_EQ(warm_cache.persistence_stats().store_hits, fleet.size())
        << threads << " threads";
  }
}

TEST(PersistentCache, RetryBackoffNeverSerializesLookupsOnOtherKeys) {
  // One key hits a transient store error and enters its backoff sleep;
  // a concurrent lookup of a *different* store-resident key must not
  // wait behind it. This pins the with_retry design: the sleep holds no
  // cache lock (the store is reached through a snapshot), so a retry
  // storm on one key cannot serialize the rest of the working set.
  using Clock = std::chrono::steady_clock;
  const ScratchDir dir("backoff");
  FaultFileOps ops(real_file_ops());
  PersistentCacheOptions options;
  options.memory_capacity = 1;  // keys 1 and 2 live only in the store
  options.store.ops = &ops;
  options.retry_backoff_seconds = 1.0;
  options.max_retries = 3;
  PersistentFrontCache cache(dir.str(), options);
  ASSERT_TRUE(cache.insert(make_key(1), make_result({{1, 10}})));
  ASSERT_TRUE(cache.insert(make_key(2), make_result({{2, 20}})));
  ASSERT_TRUE(cache.insert(make_key(3), make_result({{3, 30}})));

  // The next store read (thread A's payload pread for key 1) fails
  // transiently exactly once, sending A into a 1s backoff.
  ops.fail_op(FaultFileOps::Op::Read, /*countdown=*/0, /*transient=*/true);
  std::optional<AnalysisResult> slow;
  std::thread a([&] { slow = cache.lookup(make_key(1)); });

  // retries is incremented *before* the sleep starts, so this poll
  // deterministically catches A inside (or entering) its backoff.
  const Clock::time_point poll_deadline =
      Clock::now() + std::chrono::seconds(10);
  while (cache.persistence_stats().retries == 0) {
    ASSERT_LT(Clock::now(), poll_deadline) << "retry never happened";
    std::this_thread::yield();
  }

  const Clock::time_point start = Clock::now();
  const auto other = cache.lookup(make_key(2));
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->front.front_point().att, 20);
  EXPECT_LT(seconds, 0.5)
      << "a lookup of another key waited behind a backoff sleep";

  a.join();
  ASSERT_TRUE(slow.has_value()) << "the retried lookup must still succeed";
  EXPECT_EQ(slow->front.front_point().def, 1);
  EXPECT_FALSE(cache.persistence_stats().degraded);
  EXPECT_GE(cache.persistence_stats().retries, 1u);
}

TEST(PersistentCache, StatsNeverWaitBehindAnInFlightLookup) {
  // get_or_compute looks key 1 up, and the store read behind that
  // lookup enters a 1s retry backoff. stats() must answer meanwhile: it
  // takes neither the single-flight mutex nor any lock that lookup holds.
  using Clock = std::chrono::steady_clock;
  const ScratchDir dir("statswait");
  FaultFileOps ops(real_file_ops());
  PersistentCacheOptions options;
  options.memory_capacity = 1;  // key 1 lives only in the store
  options.store.ops = &ops;
  options.retry_backoff_seconds = 1.0;
  options.max_retries = 3;
  PersistentFrontCache cache(dir.str(), options);
  ASSERT_TRUE(cache.insert(make_key(1), make_result({{1, 10}})));
  ASSERT_TRUE(cache.insert(make_key(2), make_result({{2, 20}})));

  ops.fail_op(FaultFileOps::Op::Read, /*countdown=*/0, /*transient=*/true);
  std::optional<FrontCache::Served> slow;
  std::thread a([&] {
    slow = cache.get_or_compute(make_key(1), []() -> AnalysisResult {
      ADD_FAILURE() << "key 1 is in the store; nothing to compute";
      return {};
    });
  });

  const Clock::time_point poll_deadline =
      Clock::now() + std::chrono::seconds(10);
  while (cache.persistence_stats().retries == 0) {
    ASSERT_LT(Clock::now(), poll_deadline) << "retry never happened";
    std::this_thread::yield();
  }

  const Clock::time_point start = Clock::now();
  const FrontCache::Stats stats = cache.stats();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  EXPECT_LT(seconds, 0.5) << "stats() waited behind an in-flight lookup";
  EXPECT_EQ(stats.entries, 1u);

  a.join();
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(slow->cached);
  EXPECT_EQ(slow->result.front.front_point().def, 1);
  EXPECT_FALSE(cache.persistence_stats().degraded);
}

TEST(PersistentCache, DegradedCacheStillServesBatches) {
  // No store at all (unopenable path): analyze_batch still works and
  // still caches in memory within the process.
  PersistentCacheOptions options;
  options.on_store_error = [](const std::string&) {};
  // A path under a file (not a directory) cannot be created.
  const ScratchDir dir("degraded_batch");
  std::filesystem::create_directories(dir.path());
  testutil::write_file(dir.path() / "blocker", {1});
  PersistentFrontCache cache((dir.path() / "blocker" / "store").string(),
                             options);
  EXPECT_FALSE(cache.persistent());

  RandomAdtOptions gen;
  gen.target_nodes = 25;
  std::vector<AugmentedAdt> fleet;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    fleet.push_back(generate_random_aadt(
        gen, seed, Semiring::min_cost(), Semiring::min_cost()));
  }
  BatchOptions batch;
  batch.cache = &cache;
  batch.n_threads = 2;
  const BatchReport cold = analyze_batch(fleet, {}, batch);
  EXPECT_EQ(cold.failures, 0u);
  const BatchReport warm = analyze_batch(fleet, {}, batch);
  EXPECT_EQ(warm.failures, 0u);
  EXPECT_EQ(warm.cache_hits, fleet.size());
}

}  // namespace
}  // namespace adtp::store
