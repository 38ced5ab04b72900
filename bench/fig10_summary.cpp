/// Reproduces Fig. 10: median runtime of each algorithm as a function of
/// ADT size, aggregated in buckets of 20 nodes (the paper's summary of
/// all pairwise comparisons).
///
/// For every bucket midpoint the bench generates several random ADTs
/// (trees for BU; DAG-shaped for BDDBU, which is its intended regime) and
/// reports the median runtime. Naive is only run while it remains
/// feasible (the paper likewise only plots it below ~45 nodes).
///
/// Flags: --max-nodes N (default 325), --per-bucket K (default 5),
///        --naive-deadline SEC (default 0.5), --cap SEC (default 30; the
///        per-run wall-clock guard on the BU/BDDBU instances).

#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/table.hpp"

using namespace adtp;

int main(int argc, char** argv) {
  const std::size_t max_nodes =
      bench::arg_size_t(argc, argv, "--max-nodes", 325);
  const std::size_t per_bucket =
      bench::arg_size_t(argc, argv, "--per-bucket", 5);
  const double naive_deadline =
      bench::arg_value(argc, argv, "--naive-deadline")
          ? std::stod(*bench::arg_value(argc, argv, "--naive-deadline"))
          : 0.5;
  const double run_cap = bench::arg_value(argc, argv, "--cap")
                             ? std::stod(*bench::arg_value(argc, argv, "--cap"))
                             : 30.0;

  bench::banner("Fig. 10: median runtime per size bucket (|N| buckets of "
                "20)");

  // Every timed run below carries the kernel guards (deadline + cancel),
  // so a pathological generated instance caps out instead of hanging the
  // bench; assert once that the kernels actually honor them.
  bench::assert_kernel_guards(catalog::fig3_example());
  CancelToken cancel;  // wired through every run; never fired here

  TextTable table({"bucket", "BU median (trees)", "Naive median",
                   "BDDBU median (DAGs)"});
  std::cout << "CSV: bucket_lo,bucket_hi,bu_s,naive_s,bddbu_s\n";

  Rng rng(424242);
  for (std::size_t lo = 10; lo < max_nodes; lo += 20) {
    const std::size_t hi = lo + 20;
    std::vector<double> bu_times;
    std::vector<double> naive_times;
    std::vector<double> bdd_times;
    bool naive_capped = false;
    bool bdd_capped = false;

    for (std::size_t k = 0; k < per_bucket; ++k) {
      const std::size_t target = lo + rng.below(20);

      // Tree instance for BU (and Naive while feasible).
      RandomAdtOptions tree_options;
      tree_options.target_nodes = target;
      tree_options.share_probability = 0.0;
      const AugmentedAdt tree = generate_random_aadt(
          tree_options, rng(), Semiring::min_cost(), Semiring::min_cost());

      const Deadline bu_deadline(run_cap);
      RunContext bu_run;
      bu_run.deadline = &bu_deadline;
      bu_run.cancel = &cancel;
      BottomUpOptions bu_options;
      bu_options.max_front_points = 500000;
      if (const auto t = bench::time_call_capped(
              [&] { (void)bottom_up_front(tree, bu_options, bu_run); })) {
        bu_times.push_back(*t);
      }

      if (lo < 50) {
        const Deadline deadline(naive_deadline);
        RunContext naive_run;
        naive_run.deadline = &deadline;
        naive_run.cancel = &cancel;
        NaiveOptions naive_options;
        naive_options.max_bits = 24;
        if (const auto t = bench::time_call_capped([&] {
              (void)naive_front(tree, naive_options, naive_run);
            })) {
          naive_times.push_back(*t);
        } else {
          naive_capped = true;
        }
      }

      // DAG instance for BDDBU.
      RandomAdtOptions dag_options;
      dag_options.target_nodes = target;
      dag_options.share_probability = 0.15;
      dag_options.max_defenses = 16;
      const AugmentedAdt dag = generate_random_aadt(
          dag_options, rng(), Semiring::min_cost(), Semiring::min_cost());

      const Deadline bdd_deadline(run_cap);
      RunContext bdd_run;
      bdd_run.deadline = &bdd_deadline;
      bdd_run.cancel = &cancel;
      BddBuOptions bdd_options;
      bdd_options.node_limit = 8u << 20;
      bdd_options.max_front_points = 500000;
      if (const auto t = bench::time_call_capped(
              [&] { (void)bdd_bu_front(dag, bdd_options, bdd_run); })) {
        bdd_times.push_back(*t);
      } else {
        bdd_capped = true;
      }
    }

    auto cell = [](const std::vector<double>& times, bool capped,
                   bool applicable) {
      if (!applicable) return std::string("-");
      if (times.empty()) return std::string(capped ? "cap" : "-");
      std::string s = format_seconds(bench::median(times));
      if (capped) s += " (some capped)";
      return s;
    };

    const std::string bucket =
        "[" + std::to_string(lo) + "," + std::to_string(hi) + ")";
    table.add_row({bucket, cell(bu_times, false, true),
                   cell(naive_times, naive_capped, lo < 50),
                   cell(bdd_times, bdd_capped, true)});

    std::cout << lo << ',' << hi << ','
              << (bu_times.empty() ? "nan"
                                   : format_value(bench::median(bu_times), 6))
              << ','
              << (naive_times.empty()
                      ? (lo < 50 ? "cap" : "nan")
                      : format_value(bench::median(naive_times), 6))
              << ','
              << (bdd_times.empty()
                      ? "cap"
                      : format_value(bench::median(bdd_times), 6))
              << '\n';
  }

  std::cout << '\n' << table.to_text();
  std::cout << "\nExpected shape (paper Fig. 10): Naive grows exponentially "
               "and leaves the plot before 50 nodes; BU stays flat in the "
               "sub-millisecond range; BDDBU grows steeply with size but "
               "remains feasible at 325 nodes.\n";
  std::cout << "\n[fig10_summary] done\n";
  return 0;
}
