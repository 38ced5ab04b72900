/// FrontCache is keyed on *content*: equal models must collide onto one
/// entry however they were built, unequal attributions/options must not,
/// and a warm cache must return byte-identical results across every
/// built-in domain mix. The LRU bound and the stats counters are part of
/// the contract - serving loops size the cache from them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/batch.hpp"
#include "core/front_cache.hpp"
#include "core/node_memo.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

AnalysisResult result_with_front(double def, double att) {
  AnalysisResult result;
  result.front = Front::singleton(ValuePoint{def, att});
  return result;
}

TEST(FrontCacheKey, IdenticalContentHashesEqual) {
  // Two independently constructed fig3 instances: same key.
  const AugmentedAdt a = catalog::fig3_example();
  const AugmentedAdt b = catalog::fig3_example();
  EXPECT_EQ(front_cache_key(a, {}), front_cache_key(b, {}));
}

TEST(FrontCacheKey, AttributionChangesTheKey) {
  const AugmentedAdt base = catalog::fig3_example();
  Attribution attribution = base.attribution();
  attribution.set("a1", 6);  // was 5
  const AugmentedAdt changed(base.adt(), attribution, base.defender_domain(),
                             base.attacker_domain());
  const FrontCacheKey k1 = front_cache_key(base, {});
  const FrontCacheKey k2 = front_cache_key(changed, {});
  EXPECT_EQ(k1.structure, k2.structure);
  EXPECT_NE(k1.attribution, k2.attribution);
  EXPECT_NE(k1, k2);
}

TEST(FrontCacheKey, DomainKindChangesTheKey) {
  const AugmentedAdt cost = catalog::fig3_example();
  // Same tree and values, min_time_seq attacker domain instead.
  const AugmentedAdt time(cost.adt(), cost.attribution(),
                          cost.defender_domain(), Semiring::min_time_seq());
  EXPECT_NE(front_cache_key(cost, {}).attribution,
            front_cache_key(time, {}).attribution);
}

TEST(FrontCacheKey, StructureChangesTheKey) {
  const AugmentedAdt fig3 = catalog::fig3_example();
  const AugmentedAdt fig5 = catalog::fig5_example();
  EXPECT_NE(front_cache_key(fig3, {}).structure,
            front_cache_key(fig5, {}).structure);
}

TEST(FrontCacheKey, OptionFieldsThatAffectTheResultChangeTheKey) {
  // All 13 result fields of AnalysisOptions, each set away from its
  // default on its own: every one must move the key, and no two may
  // collide - the hybrid's per-blob BDDBU fields hash apart from the
  // plain BDDBU ones.
  const AugmentedAdt model = catalog::fig3_example();
  std::vector<std::pair<std::string, AnalysisOptions>> variants;
  auto vary = [&](const std::string& field, auto&& set) {
    AnalysisOptions options;
    set(options);
    variants.emplace_back(field, std::move(options));
  };
  vary("algorithm", [](AnalysisOptions& o) { o.algorithm = Algorithm::Naive; });
  // Guards participate: they decide success versus LimitError.
  vary("naive.max_bits", [](AnalysisOptions& o) { o.naive.max_bits = 5; });
  vary("bottom_up.max_front_points",
       [](AnalysisOptions& o) { o.bottom_up.max_front_points = 100; });
  const bdd::VarOrder order = bdd::VarOrder::defense_first(model.adt());
  for (const bool hybrid : {false, true}) {
    const std::string prefix = hybrid ? "hybrid.bdd." : "bdd.";
    auto bdd_of = [hybrid](AnalysisOptions& o) -> BddBuOptions& {
      return hybrid ? o.hybrid.bdd : o.bdd;
    };
    vary(prefix + "order_heuristic", [&](AnalysisOptions& o) {
      bdd_of(o).order_heuristic = bdd::OrderHeuristic::Bfs;
    });
    vary(prefix + "order_seed",
         [&](AnalysisOptions& o) { bdd_of(o).order_seed = 99; });
    vary(prefix + "node_limit",
         [&](AnalysisOptions& o) { bdd_of(o).node_limit = 1000; });
    vary(prefix + "max_front_points",
         [&](AnalysisOptions& o) { bdd_of(o).max_front_points = 100; });
    // The default heuristic's own order, made explicit, still re-keys.
    vary(prefix + "order",
         [&](AnalysisOptions& o) { bdd_of(o).order = order; });
  }
  ASSERT_EQ(variants.size(), 13u);

  const std::uint64_t plain = front_cache_key(model, {}).options;
  std::set<std::uint64_t> seen{plain};
  for (const auto& [field, options] : variants) {
    const std::uint64_t key = front_cache_key(model, options).options;
    EXPECT_NE(key, plain) << field;
    EXPECT_TRUE(seen.insert(key).second) << field << " collides";
  }
}

TEST(FrontCacheKey, GuardPointersDoNotChangeTheKey) {
  // No execution field enters the key: all five RunContext fields and
  // intra_model_threads, set at once.
  const AugmentedAdt model = catalog::fig3_example();
  const Deadline deadline(10);
  const CancelToken token;
  TaskScheduler pool(2);
  NodeFrontMemo memo;
  AnalysisOptions a;
  AnalysisOptions b;
  b.run.deadline = &deadline;
  b.run.cancel = &token;
  b.run.pool = &pool;
  b.run.memo = &memo;
  b.run.parallel_node_floor = 0;
  b.intra_model_threads = 4;
  EXPECT_EQ(front_cache_key(model, a), front_cache_key(model, b));
}

TEST(FrontCacheKey, CustomDomainsAreNotCacheable) {
  const Semiring custom = Semiring::custom(
      "sum", 0.0, std::numeric_limits<double>::infinity(),
      [](double x, double y) { return x + y; },
      [](double x, double y) { return x <= y; });
  const AugmentedAdt base = catalog::fig3_example();
  const AugmentedAdt model(base.adt(), base.attribution(), custom,
                           Semiring::min_cost());
  EXPECT_FALSE(cacheable(model));
  EXPECT_TRUE(cacheable(base));
  EXPECT_THROW((void)front_cache_key(model, {}), Error);
}

TEST(FrontCache, LruEvictsTheLeastRecentlyUsed) {
  FrontCache cache(2);
  const FrontCacheKey k1{1, 0, 0};
  const FrontCacheKey k2{2, 0, 0};
  const FrontCacheKey k3{3, 0, 0};
  cache.insert(k1, result_with_front(1, 1));
  cache.insert(k2, result_with_front(2, 2));
  ASSERT_TRUE(cache.lookup(k1).has_value());  // refresh k1: k2 is now LRU
  cache.insert(k3, result_with_front(3, 3));
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());

  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_NEAR(stats.hit_rate(), 0.75, 1e-12);
}

TEST(FrontCache, ReinsertKeepsFirstValueAndRefreshesRecency) {
  // First writer wins: a reinsert never replaces the stored value (the
  // determinism contract makes a differing value a caller bug, and
  // layered persistence relies on the false return to store each entry
  // exactly once). It still counts as a touch for LRU purposes.
  FrontCache cache(2);
  const FrontCacheKey key{7, 7, 7};
  EXPECT_TRUE(cache.insert(key, result_with_front(1, 1)));
  EXPECT_FALSE(cache.insert(key, result_with_front(2, 2)));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front.front_point().def, 1);
  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 1u);

  // Recency: reinserting the LRU key saves it from the next eviction.
  const FrontCacheKey other{8, 8, 8};
  EXPECT_TRUE(cache.insert(other, result_with_front(3, 3)));
  EXPECT_FALSE(cache.insert(key, result_with_front(1, 1)));  // touch key
  EXPECT_TRUE(cache.insert(FrontCacheKey{9, 9, 9}, result_with_front(4, 4)));
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_FALSE(cache.lookup(other).has_value());  // other was evicted
}

TEST(FrontCache, ConcurrentSameKeyInsertsConvergeToOneEntry) {
  // Many workers racing get_or_compute on one key: exactly one computes,
  // everyone gets the first value, and hits + misses add up to the
  // number of logical queries (no double counting).
  constexpr int kWorkers = 8;
  constexpr int kRounds = 25;
  FrontCache cache(16);
  for (int round = 0; round < kRounds; ++round) {
    const FrontCacheKey key{static_cast<std::uint64_t>(round) + 1, 2, 3};
    std::atomic<int> computed{0};
    std::atomic<int> served_cold{0};
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        const FrontCache::Served served = cache.get_or_compute(key, [&] {
          computed.fetch_add(1);
          return result_with_front(w + 1, w + 1);
        });
        if (!served.cached) served_cold.fetch_add(1);
        EXPECT_EQ(served.result.front.size(), 1u);
      });
    }
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(computed.load(), 1) << "round " << round;
    EXPECT_EQ(served_cold.load(), 1) << "round " << round;
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->front.size(), 1u);
  }
  const FrontCache::Stats stats = cache.stats();
  // kRounds verification lookups after the races are all hits.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kWorkers + 1) * kRounds);
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.duplicate_inserts, 0u);
  // Workers that arrived while the computation was in flight resolved by
  // waiting; late arrivals hit directly. Either way they are hits, so
  // coalesced is bounded by the non-computing workers.
  EXPECT_LE(stats.coalesced,
            static_cast<std::uint64_t>(kWorkers - 1) * kRounds);
}

TEST(FrontCache, ThrowingComputeHandsOffToAWaiter) {
  // A compute that throws must not strand waiters: get_or_compute
  // releases the key, the waiter takes over the computation, and each
  // call still counts exactly one miss.
  using Clock = std::chrono::steady_clock;
  FrontCache cache(4);
  const FrontCacheKey key{1, 2, 3};
  std::thread waiter;
  EXPECT_THROW(
      (void)cache.get_or_compute(key, [&]() -> AnalysisResult {
        waiter = std::thread([&] {
          const FrontCache::Served takeover = cache.get_or_compute(
              key, [] { return result_with_front(5, 5); });
          EXPECT_FALSE(takeover.cached);
        });
        // The waiter's first lookup books its (provisional) miss; from
        // there it takes the flight mutex and waits, so the throw below
        // hands the key over to the waiter (or, if the waiter is not
        // waiting yet, releases it before the waiter looks again).
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(10);
        while (cache.stats().misses < 2 && Clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw Error("analysis failed");
      }),
      Error);
  waiter.join();
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front.front_point().def, 5);
  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.insertions, 1u);
}

/// A FrontCache whose lookup of one key blocks until released, as a
/// PersistentFrontCache's lookup does while it reads the store.
class SlowLookupCache : public FrontCache {
 public:
  explicit SlowLookupCache(FrontCacheKey slow)
      : FrontCache(4), slow_(slow) {}
  std::optional<AnalysisResult> lookup(const FrontCacheKey& key) override {
    if (key == slow_) {
      entered.store(true);
      while (!released.load()) std::this_thread::yield();
    }
    return FrontCache::lookup(key);
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};

 private:
  FrontCacheKey slow_;
};

TEST(FrontCache, HitsDoNotWaitBehindAnotherKeysLookup) {
  // One caller sits in a slow lookup (a store read); a hit on another
  // key must be served meanwhile, not queue behind it.
  const FrontCacheKey slow{1, 2, 3};
  const FrontCacheKey warm{4, 5, 6};
  SlowLookupCache cache(slow);
  cache.insert(warm, result_with_front(7, 7));
  std::thread stuck([&] {
    (void)cache.get_or_compute(slow, [] { return result_with_front(1, 1); });
  });
  while (!cache.entered.load()) std::this_thread::yield();

  std::atomic<bool> served{false};
  std::thread hit([&] {
    const FrontCache::Served s =
        cache.get_or_compute(warm, [] { return result_with_front(0, 0); });
    EXPECT_TRUE(s.cached);
    served.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!served.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(served.load()) << "the hit waited for the slow lookup";
  cache.released.store(true);
  hit.join();
  stuck.join();
  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(FrontCache, ZeroCapacityDisablesCaching) {
  FrontCache cache(0);
  const FrontCacheKey key{1, 2, 3};
  cache.insert(key, result_with_front(1, 1));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FrontCache, ClearDropsEntriesAndCounters) {
  FrontCache cache(4);
  cache.insert(FrontCacheKey{1, 1, 1}, result_with_front(1, 1));
  (void)cache.lookup(FrontCacheKey{1, 1, 1});
  cache.clear();
  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(FrontCache, WarmResultsBitMatchColdAcrossDomainMixes) {
  // For every built-in defender x attacker domain pair: a duplicated
  // fleet analyzed with a shared cache must produce byte-identical fronts
  // on the warm (second) pass, at several thread counts.
  const std::vector<Semiring> domains = {
      Semiring::min_cost(), Semiring::min_time_par(), Semiring::probability()};
  for (const Semiring& defender : domains) {
    for (const Semiring& attacker : domains) {
      RandomAdtOptions options;
      options.target_nodes = 30;
      options.share_probability = 0.3;
      options.max_defenses = 8;
      std::vector<AugmentedAdt> fleet;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        fleet.push_back(
            generate_random_aadt(options, seed, defender, attacker));
      }

      FrontCache cache(64);
      BatchOptions batch;
      batch.cache = &cache;
      batch.n_threads = 2;
      const BatchReport cold = analyze_batch(fleet, {}, batch);
      ASSERT_EQ(cold.failures, 0u)
          << defender.name() << "/" << attacker.name();
      EXPECT_EQ(cold.cache_hits, 0u);

      batch.n_threads = 4;
      const BatchReport warm = analyze_batch(fleet, {}, batch);
      ASSERT_EQ(warm.failures, 0u);
      EXPECT_EQ(warm.cache_hits, fleet.size());
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_TRUE(warm.items[i].cached);
        EXPECT_EQ(warm.items[i].result.front.to_string(),
                  cold.items[i].result.front.to_string())
            << defender.name() << "/" << attacker.name() << " item " << i;
      }
    }
  }
}

}  // namespace
}  // namespace adtp
