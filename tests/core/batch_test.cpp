/// analyze_batch() is a pure orchestration layer: whatever the thread
/// count, every item must carry exactly the result of a sequential
/// analyze() call on that model with that job's options, and one model
/// failing (resource guard, null pointer) must not disturb its
/// neighbours. The serving features - per-item options, the batch
/// deadline, cooperative cancellation, the streaming callback, and the
/// FrontCache - are covered here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/batch.hpp"
#include "core/front_cache.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace adtp {
namespace {

std::vector<AugmentedAdt> random_fleet(std::size_t count,
                                       double share_probability,
                                       std::uint64_t seed) {
  std::vector<AugmentedAdt> fleet;
  fleet.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    RandomAdtOptions options;
    options.target_nodes = 40;
    options.share_probability = share_probability;
    options.max_defenses = 10;
    fleet.push_back(generate_random_aadt(options, rng(), Semiring::min_cost(),
                                         Semiring::min_cost()));
  }
  return fleet;
}

BatchOptions on_threads(unsigned n_threads) {
  BatchOptions batch;
  batch.n_threads = n_threads;
  return batch;
}

/// The model pointers as jobs with default options; null stays null.
std::vector<BatchJob> jobs_of(const std::vector<const AugmentedAdt*>& models) {
  std::vector<BatchJob> jobs;
  for (const AugmentedAdt* model : models) jobs.push_back(BatchJob{model, {}});
  return jobs;
}

TEST(Batch, MatchesSequentialAnalyzePerTree) {
  const auto fleet = random_fleet(12, 0.2, 3);
  for (unsigned threads : {1u, 2u, 4u}) {
    const BatchReport report = analyze_batch(fleet, {}, on_threads(threads));
    ASSERT_EQ(report.items.size(), fleet.size());
    EXPECT_EQ(report.failures, 0u);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const BatchItem& item = report.items[i];
      EXPECT_EQ(item.index, i);
      ASSERT_TRUE(item.ok) << item.error;
      const AnalysisResult sequential = analyze(fleet[i]);
      EXPECT_EQ(item.result.used, sequential.used);
      // Same algorithm on the same model: the fronts are byte-equal, not
      // merely approximately equal.
      EXPECT_TRUE(item.result.front.same_values(
          sequential.front, fleet[i].defender_domain(),
          fleet[i].attacker_domain()))
          << "item " << i << ": " << item.result.front.to_string() << " vs "
          << sequential.front.to_string();
    }
  }
}

TEST(Batch, ThreadCountDoesNotChangeResults) {
  const auto fleet = random_fleet(8, 0.3, 11);
  const BatchReport one = analyze_batch(fleet, {}, on_threads(1));
  const BatchReport four = analyze_batch(fleet, {}, on_threads(4));
  ASSERT_EQ(one.items.size(), four.items.size());
  for (std::size_t i = 0; i < one.items.size(); ++i) {
    ASSERT_TRUE(one.items[i].ok);
    ASSERT_TRUE(four.items[i].ok);
    EXPECT_EQ(one.items[i].result.used, four.items[i].result.used);
    EXPECT_EQ(one.items[i].result.front.to_string(),
              four.items[i].result.front.to_string());
  }
}

TEST(Batch, ErrorsAreIsolatedPerItem) {
  // Middle item blows the naive enumeration guard; its neighbours and the
  // batch as a whole must still succeed.
  std::vector<AugmentedAdt> fleet;
  fleet.push_back(catalog::fig3_example());
  fleet.push_back(catalog::money_theft_dag());
  fleet.push_back(catalog::fig5_example());

  AnalysisOptions options;
  options.algorithm = Algorithm::Naive;
  // fig3 needs 5 bits (|A| = 3, |D| = 2), fig5 needs 4; money_theft needs
  // 13 and trips the guard.
  options.naive.max_bits = 5;

  const BatchReport report = analyze_batch(fleet, options, on_threads(2));
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_TRUE(report.items[0].ok) << report.items[0].error;
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_NE(report.items[1].error.find("enumeration guard"),
            std::string::npos);
  EXPECT_TRUE(report.items[2].ok) << report.items[2].error;
  EXPECT_EQ(report.items[0].result.front.to_string(), "{(0, 10), (15, 15)}");
  EXPECT_EQ(report.items[2].result.front.to_string(),
            "{(0, 5), (4, 10), (12, inf)}");
}

TEST(Batch, NullModelsAreReportedNotFatal) {
  const AugmentedAdt model = catalog::fig3_example();
  const BatchReport report =
      analyze_batch(jobs_of({&model, nullptr, &model}), on_threads(3));
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_TRUE(report.items[2].ok);
}

TEST(Batch, EmptyBatch) {
  const BatchReport report =
      analyze_batch(std::span<const BatchJob>{}, on_threads(4));
  EXPECT_TRUE(report.items.empty());
  EXPECT_EQ(report.failures, 0u);
}

TEST(Batch, ZeroThreadsMeansHardwareConcurrency) {
  // 0 resolves like every thread knob (hardware concurrency, or
  // ADTP_THREADS). The width is not clamped to the job count: surplus
  // slots serve the items' own intra-model tasks (BatchOptions::n_threads).
  const auto fleet = random_fleet(3, 0.0, 17);
  const BatchReport report = analyze_batch(fleet, {}, on_threads(0));
  EXPECT_EQ(report.threads_used, resolve_thread_knob(0));
  EXPECT_EQ(report.failures, 0u);
}

TEST(Batch, PerItemTimingIsPopulated) {
  const auto fleet = random_fleet(4, 0.2, 23);
  const BatchReport report = analyze_batch(fleet, {}, on_threads(2));
  for (const BatchItem& item : report.items) {
    EXPECT_GE(item.seconds, 0.0);
  }
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_GT(report.trees_per_second(), 0.0);
}

// ---- per-item options ----------------------------------------------------

TEST(BatchServing, PerItemOptionsAreHonored) {
  // Three jobs over the same tree, each pinned to a different algorithm:
  // the per-job options must drive the algorithm choice item by item.
  const AugmentedAdt model = catalog::fig3_example();
  std::vector<BatchJob> jobs(3);
  for (BatchJob& job : jobs) job.model = &model;
  jobs[0].options.algorithm = Algorithm::Naive;
  jobs[1].options.algorithm = Algorithm::BottomUp;
  jobs[2].options.algorithm = Algorithm::BddBu;

  const BatchReport report = analyze_batch(jobs);
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.items[0].result.used, Algorithm::Naive);
  EXPECT_EQ(report.items[1].result.used, Algorithm::BottomUp);
  EXPECT_EQ(report.items[2].result.used, Algorithm::BddBu);
  for (const BatchItem& item : report.items) {
    ASSERT_TRUE(item.ok) << item.error;
    EXPECT_EQ(item.result.front.to_string(), "{(0, 10), (15, 15)}");
  }
}

TEST(BatchServing, PerItemGuardsStayPerItem) {
  // A tight guard on one job must not leak into its neighbour analyzing
  // the same model.
  const AugmentedAdt model = catalog::money_theft_dag();
  std::vector<BatchJob> jobs(2);
  for (BatchJob& job : jobs) {
    job.model = &model;
    job.options.algorithm = Algorithm::Naive;
  }
  jobs[0].options.naive.max_bits = 5;  // money_theft needs 13

  const BatchReport report = analyze_batch(jobs);
  EXPECT_FALSE(report.items[0].ok);
  EXPECT_NE(report.items[0].error.find("enumeration guard"),
            std::string::npos);
  EXPECT_TRUE(report.items[1].ok) << report.items[1].error;
}

// ---- deterministic streaming with mixed options --------------------------

TEST(BatchServing, MixedOptionsBitMatchSequentialAcrossThreads) {
  // The serving pipeline (per-item options + streaming callback + one
  // shared scheduler) must stay bit-deterministic: every item
  // equals the sequential analyze() call with the same options, at every
  // thread count.
  const auto fleet = random_fleet(10, 0.3, 41);
  std::vector<BatchJob> jobs(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    jobs[i].model = &fleet[i];
    switch (i % 4) {
      case 0:
        jobs[i].options.algorithm = Algorithm::Auto;
        break;
      case 1:
        jobs[i].options.algorithm = Algorithm::BddBu;
        jobs[i].options.bdd.order_heuristic = bdd::OrderHeuristic::Bfs;
        break;
      case 2:
        jobs[i].options.algorithm = Algorithm::Hybrid;
        break;
      default:
        jobs[i].options.algorithm = Algorithm::BddBu;
        jobs[i].options.bdd.order_heuristic = bdd::OrderHeuristic::Random;
        jobs[i].options.bdd.order_seed = 7 + i;
        break;
    }
  }

  std::vector<AnalysisResult> sequential;
  sequential.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    sequential.push_back(analyze(*job.model, job.options));
  }

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    BatchOptions batch;
    batch.n_threads = threads;
    std::size_t streamed = 0;
    batch.on_item = [&streamed](const BatchItem&) { ++streamed; };
    const BatchReport report = analyze_batch(jobs, batch);
    ASSERT_EQ(report.items.size(), jobs.size());
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(streamed, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(report.items[i].ok) << report.items[i].error;
      EXPECT_EQ(report.items[i].result.used, sequential[i].used);
      EXPECT_EQ(report.items[i].result.front.to_string(),
                sequential[i].front.to_string())
          << "item " << i << " at " << threads << " threads";
    }
  }
}

// ---- deadline and cancellation -------------------------------------------

TEST(BatchServing, ExpiredDeadlineSkipsUnstartedItems) {
  const auto fleet = random_fleet(6, 0.0, 51);
  BatchOptions batch;
  batch.n_threads = 2;
  batch.deadline_seconds = 1e-12;  // expired by the first between-item check
  const BatchReport report = analyze_batch(fleet, {}, batch);
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_EQ(report.failures, fleet.size());
  EXPECT_EQ(report.skipped, fleet.size());
  for (const BatchItem& item : report.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_TRUE(item.skipped);
    EXPECT_NE(item.error.find("deadline expired"), std::string::npos);
  }
  // Skipped items still stream, so callers see the whole batch settle.
  EXPECT_EQ(report.completion_order.size(), fleet.size());
}

TEST(BatchServing, DeadlineInterruptsRunningAnalysis) {
  // fig4(13) has 26 enumeration bits: a full naive run costs ~2^26 model
  // evaluations (tens of seconds at least). The batch deadline must reach
  // the enumeration's guard so the item aborts within milliseconds of the
  // budget, not at the end of the enumeration.
  const AugmentedAdt model = catalog::fig4_exponential(13);
  std::vector<BatchJob> jobs(2);
  for (BatchJob& job : jobs) {
    job.model = &model;
    job.options.algorithm = Algorithm::Naive;
    job.options.naive.max_bits = 26;
  }
  BatchOptions batch;
  batch.n_threads = 1;
  batch.deadline_seconds = 0.05;
  const BatchReport report = analyze_batch(jobs, batch);
  EXPECT_TRUE(report.deadline_expired);
  ASSERT_FALSE(report.items[0].ok);
  EXPECT_FALSE(report.items[0].skipped);  // it started, then hit the guard
  EXPECT_NE(report.items[0].error.find("deadline expired"),
            std::string::npos);
  ASSERT_FALSE(report.items[1].ok);
  EXPECT_TRUE(report.items[1].skipped);
  EXPECT_LT(report.seconds, 10.0);  // nowhere near the full enumeration
}

TEST(BatchServing, GenerousDeadlineDoesNotFlagExpiry) {
  // The report flags are latched when the guard actually affects an item,
  // never re-sampled from the clock after the batch drained - a fully
  // successful batch must not claim its deadline fired.
  const auto fleet = random_fleet(3, 0.0, 121);
  CancelToken token;  // present but never cancelled
  BatchOptions batch;
  batch.deadline_seconds = 3600;
  batch.cancel = &token;
  const BatchReport report = analyze_batch(fleet, {}, batch);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.cancelled);
}

TEST(BatchServing, PreCancelledTokenSkipsEverything) {
  const auto fleet = random_fleet(4, 0.0, 61);
  CancelToken token;
  token.cancel();
  BatchOptions batch;
  batch.cancel = &token;
  const BatchReport report = analyze_batch(fleet, {}, batch);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.skipped, fleet.size());
  for (const BatchItem& item : report.items) {
    EXPECT_NE(item.error.find("cancelled"), std::string::npos);
  }
}

TEST(BatchServing, CallbackCanCancelTheRestOfTheBatch) {
  // Single-threaded so the outcome is deterministic: the callback cancels
  // after the first completion, so exactly the remaining items skip.
  const auto fleet = random_fleet(4, 0.0, 71);
  CancelToken token;
  BatchOptions batch;
  batch.n_threads = 1;
  batch.cancel = &token;
  batch.on_item = [&token](const BatchItem&) { token.cancel(); };
  const BatchReport report = analyze_batch(fleet, {}, batch);
  EXPECT_TRUE(report.cancelled);
  EXPECT_TRUE(report.items[0].ok) << report.items[0].error;
  EXPECT_EQ(report.skipped, fleet.size() - 1);
  for (std::size_t i = 1; i < report.items.size(); ++i) {
    EXPECT_TRUE(report.items[i].skipped);
  }
}

// ---- streaming -----------------------------------------------------------

TEST(BatchServing, StreamedItemsMatchCompletionOrder) {
  const auto fleet = random_fleet(8, 0.2, 81);
  std::vector<std::size_t> streamed;
  BatchOptions batch;
  batch.n_threads = 4;
  batch.on_item = [&streamed](const BatchItem& item) {
    streamed.push_back(item.index);
  };
  const BatchReport report = analyze_batch(fleet, {}, batch);
  // The callback sequence is exactly the recorded completion order...
  EXPECT_EQ(streamed, report.completion_order);
  // ...and is a permutation of all indices.
  std::vector<std::size_t> sorted = streamed;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(BatchServing, CallbackExceptionIsCapturedNotFatal) {
  const auto fleet = random_fleet(4, 0.0, 91);
  BatchOptions batch;
  batch.n_threads = 2;
  batch.on_item = [](const BatchItem&) {
    throw std::runtime_error("consumer fell over");
  };
  const BatchReport report = analyze_batch(fleet, {}, batch);
  EXPECT_EQ(report.callback_error, "consumer fell over");
  // The analysis itself is unaffected.
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.completion_order.size(), fleet.size());
}

// ---- throughput metrics --------------------------------------------------

TEST(BatchServing, ItemsPerSecondCountsAllItemsTreesPerSecondOnlyOk) {
  const AugmentedAdt model = catalog::fig3_example();
  const BatchReport report =
      analyze_batch(jobs_of({&model, nullptr, &model}), on_threads(2));
  ASSERT_EQ(report.failures, 1u);
  ASSERT_GT(report.seconds, 0.0);
  // items_per_second spans all 3 items; trees_per_second only the 2 ok
  // ones (its denominator still includes the failure's wall-clock - the
  // documented caveat).
  EXPECT_DOUBLE_EQ(report.items_per_second() * report.seconds, 3.0);
  EXPECT_DOUBLE_EQ(report.trees_per_second() * report.seconds, 2.0);
  EXPECT_GT(report.items_per_second(), report.trees_per_second());
}

// ---- caching -------------------------------------------------------------

TEST(BatchServing, CacheServesRepeatedPairs) {
  const auto fleet = random_fleet(2, 0.2, 101);
  FrontCache cache(16);
  std::vector<BatchJob> jobs(4);
  jobs[0].model = &fleet[0];
  jobs[1].model = &fleet[0];
  jobs[2].model = &fleet[1];
  jobs[3].model = &fleet[0];
  BatchOptions batch;
  batch.n_threads = 1;  // deterministic hit pattern
  batch.cache = &cache;
  const BatchReport report = analyze_batch(jobs, batch);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.cache_hits, 2u);
  EXPECT_FALSE(report.items[0].cached);
  EXPECT_TRUE(report.items[1].cached);
  EXPECT_FALSE(report.items[2].cached);
  EXPECT_TRUE(report.items[3].cached);
  EXPECT_EQ(cache.stats().insertions, 2u);
  // Cached results are bit-identical to fresh ones.
  for (const BatchItem& item : report.items) {
    const AnalysisResult fresh = analyze(*jobs[item.index].model);
    EXPECT_EQ(item.result.front.to_string(), fresh.front.to_string());
    EXPECT_EQ(item.result.used, fresh.used);
  }
}

TEST(BatchServing, CacheKeysOnOptionsNotJustTheModel) {
  const auto fleet = random_fleet(1, 0.4, 111);
  FrontCache cache(16);
  std::vector<BatchJob> jobs(2);
  for (BatchJob& job : jobs) {
    job.model = &fleet[0];
    job.options.algorithm = Algorithm::BddBu;
    job.options.bdd.order_heuristic = bdd::OrderHeuristic::Random;
  }
  jobs[0].options.bdd.order_seed = 1;
  jobs[1].options.bdd.order_seed = 2;  // different order: different key
  BatchOptions batch;
  batch.n_threads = 1;
  batch.cache = &cache;
  const BatchReport report = analyze_batch(jobs, batch);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  // Same values regardless of order seed - only the key differs.
  EXPECT_EQ(report.items[0].result.front.to_string(),
            report.items[1].result.front.to_string());
}

TEST(BatchServing, IdleSlotsServeOversizedItemsIntraModelTasks) {
  // One naive job on a four-wide scheduler: the item's 2^|D| shards run
  // on the shared scheduler, so the full width stays engaged. Only the
  // width bookkeeping is observable from outside - the result must
  // equal the sequential run exactly (sharding is deterministic).
  const AugmentedAdt dag = catalog::money_theft_dag();
  AnalysisOptions naive;
  naive.algorithm = Algorithm::Naive;
  const AnalysisResult sequential = analyze(dag, naive);

  std::vector<BatchJob> jobs(1);
  jobs[0].model = &dag;
  jobs[0].options = naive;
  BatchOptions batch;
  batch.n_threads = 4;
  BatchReport report = analyze_batch(jobs, batch);
  // The width is NOT clamped to the job count.
  EXPECT_EQ(report.threads_used, 4u);
  EXPECT_GE(report.sched.tasks, 1u);  // at least the item task itself
  ASSERT_TRUE(report.items[0].ok) << report.items[0].error;
  EXPECT_EQ(report.items[0].result.front.to_string(),
            sequential.front.to_string());

  // An explicit per-item thread knob is respected: analyze() gives the
  // item its own scheduler instead of lending it the batch's, and the
  // result is still identical.
  jobs[0].options.intra_model_threads = 2;
  batch.n_threads = 2;
  report = analyze_batch(jobs, batch);
  ASSERT_TRUE(report.items[0].ok) << report.items[0].error;
  EXPECT_EQ(report.items[0].result.front.to_string(),
            sequential.front.to_string());
}

TEST(BatchServing, SharedSchedulerRunsShareTheCacheWithSequentialRuns) {
  // The scheduler/pool knobs are excluded from the cache key
  // (intra-model parallelism is result-invariant), so a run with the
  // batch scheduler injected must hit the entry a sequential run stored.
  const AugmentedAdt dag = catalog::money_theft_dag();
  AnalysisOptions naive;
  naive.algorithm = Algorithm::Naive;

  FrontCache cache(16);
  std::vector<BatchJob> jobs(1);
  jobs[0].model = &dag;
  jobs[0].options = naive;

  BatchOptions cold;
  cold.n_threads = 1;  // sequential, nothing to share
  cold.cache = &cache;
  EXPECT_EQ(analyze_batch(jobs, cold).cache_hits, 0u);

  BatchOptions warm;
  warm.n_threads = 4;  // scheduler sharing active
  warm.cache = &cache;
  const BatchReport report = analyze_batch(jobs, warm);
  EXPECT_EQ(report.threads_used, 4u);
  EXPECT_EQ(report.cache_hits, 1u);
}

TEST(BatchServing, CustomDomainsBypassTheCache) {
  // A custom semiring's hooks cannot be content-hashed; such models must
  // be analyzed fresh every time, silently.
  const Semiring custom = Semiring::custom(
      "sum", 0.0, std::numeric_limits<double>::infinity(),
      [](double x, double y) { return x + y; },
      [](double x, double y) { return x <= y; });
  RandomAdtOptions options;
  options.target_nodes = 20;
  options.max_defenses = 6;
  const AugmentedAdt model = generate_random_aadt(options, 5, custom, custom);
  ASSERT_FALSE(cacheable(model));

  FrontCache cache(16);
  std::vector<BatchJob> jobs(2);
  for (BatchJob& job : jobs) job.model = &model;
  BatchOptions batch;
  batch.n_threads = 1;
  batch.cache = &cache;
  const BatchReport report = analyze_batch(jobs, batch);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.cache_hits, 0u);
  const FrontCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);  // never even consulted
}

}  // namespace
}  // namespace adtp
