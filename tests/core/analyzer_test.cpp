#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include "gen/catalog.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

TEST(Analyzer, AutoPicksBottomUpForTrees) {
  const AnalysisResult result = analyze(catalog::money_theft_tree());
  EXPECT_EQ(result.used, Algorithm::BottomUp);
  EXPECT_EQ(result.front.to_string(), "{(0, 90), (30, 150), (50, 165)}");
  EXPECT_GE(result.seconds, 0);
}

TEST(Analyzer, AutoPicksBddForDags) {
  const AnalysisResult result = analyze(catalog::money_theft_dag());
  EXPECT_EQ(result.used, Algorithm::BddBu);
  EXPECT_EQ(result.front.to_string(), "{(0, 80), (20, 90), (50, 140)}");
}

TEST(Analyzer, ExplicitAlgorithmsAgree) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const std::string expected = "{(0, 80), (20, 90), (50, 140)}";
  for (Algorithm algorithm :
       {Algorithm::Naive, Algorithm::BddBu, Algorithm::Hybrid}) {
    AnalysisOptions options;
    options.algorithm = algorithm;
    const AnalysisResult result = analyze(dag, options);
    EXPECT_EQ(result.used, algorithm);
    EXPECT_EQ(result.front.to_string(), expected) << to_string(algorithm);
  }
}

TEST(Analyzer, BottomUpRequestOnDagThrows) {
  AnalysisOptions options;
  options.algorithm = Algorithm::BottomUp;
  EXPECT_THROW((void)analyze(catalog::money_theft_dag(), options),
               ModelError);
}

TEST(Analyzer, OptionsForwardedToNaive) {
  AnalysisOptions options;
  options.algorithm = Algorithm::Naive;
  options.naive.max_bits = 3;
  EXPECT_THROW((void)analyze(catalog::money_theft_dag(), options),
               LimitError);
}

TEST(Analyzer, IntraModelThreadsOverridesNaiveSharding) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  AnalysisOptions options;
  options.algorithm = Algorithm::Naive;
  const std::string expected = analyze(dag, options).front.to_string();
  // The knob shards the naive enumeration; the result is unchanged.
  options.intra_model_threads = 4;
  EXPECT_EQ(analyze(dag, options).front.to_string(), expected);
  // An explicit run.pool wins over intra_model_threads: the shards
  // follow its width (fig4(9) has work for 16), not the knob's.
  TaskScheduler pool(3);
  options.run.pool = &pool;
  EXPECT_EQ(analyze(dag, options).front.to_string(), expected);
  EXPECT_EQ(analyze(catalog::fig4_exponential(9), options).threads_used, 3u);
}

TEST(Analyzer, AlgorithmNames) {
  EXPECT_STREQ(to_string(Algorithm::Auto), "auto");
  EXPECT_STREQ(to_string(Algorithm::Naive), "naive");
  EXPECT_STREQ(to_string(Algorithm::BottomUp), "bottom-up");
  EXPECT_STREQ(to_string(Algorithm::BddBu), "bdd-bu");
  EXPECT_STREQ(to_string(Algorithm::Hybrid), "hybrid");
}

}  // namespace
}  // namespace adtp
