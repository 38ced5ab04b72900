/// Ablation for the paper's future-work item on BDD variable orders:
/// "optimizing BDDs by identifying orderings that minimize their size
/// while retaining the defense-first property".
///
/// For the case study and a suite of random DAGs this bench reports the
/// structure-function BDD size and the BDDBU runtime under each
/// defense-first heuristic (DFS / BFS / Index / Random) and under the
/// block-respecting order search of bdd/reorder.hpp. The Pareto front is
/// identical under every order (Theorem 2) - only cost varies.

#include <iostream>

#include "bdd/reorder.hpp"
#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

/// Per-run wall-clock cap (seconds); adversarial orders on generated
/// DAGs can blow the BDD up, and an unguarded run would hang the bench.
double g_run_cap = 60.0;
CancelToken g_cancel;  // wired through every run; never fired here

void ablate(const std::string& label, const AugmentedAdt& aadt) {
  std::cout << "\n--- " << label << " (" << aadt.adt().size()
            << " nodes, |D| = " << aadt.adt().num_defenses()
            << ", |A| = " << aadt.adt().num_attacks() << ") ---\n";
  TextTable table({"order", "BDD size |W|", "BDDBU time", "front"});

  for (auto heuristic : {bdd::OrderHeuristic::Dfs, bdd::OrderHeuristic::Bfs,
                         bdd::OrderHeuristic::Index,
                         bdd::OrderHeuristic::Random}) {
    const Deadline deadline(g_run_cap);
    AnalysisOptions options;
    options.algorithm = Algorithm::BddBu;
    options.bdd.order_heuristic = heuristic;
    options.bdd.order_seed = 99;
    options.run.deadline = &deadline;
    options.run.cancel = &g_cancel;
    AnalysisResult report;
    if (const auto t = bench::time_call_capped(
            [&] { report = analyze(aadt, options); })) {
      table.add_row({to_string(heuristic), std::to_string(report.bdd_size),
                     format_seconds(*t), report.front.to_string()});
    } else {
      table.add_row({to_string(heuristic), "-", "cap", "-"});
    }
  }

  // Block-respecting order search, seeded with the DFS order.
  const bdd::VarOrder initial = bdd::VarOrder::defense_first(aadt.adt());
  bdd::ReorderOptions reorder_options;
  bdd::ReorderResult search;
  const double t_search = bench::time_call(
      [&] { search = minimize_order(aadt.adt(), initial, reorder_options); });
  const Deadline deadline(g_run_cap);
  AnalysisOptions sifted;
  sifted.algorithm = Algorithm::BddBu;
  sifted.bdd.order = search.order;
  sifted.run.deadline = &deadline;
  sifted.run.cancel = &g_cancel;
  AnalysisResult report;
  if (const auto t_run = bench::time_call_capped(
          [&] { report = analyze(aadt, sifted); })) {
    table.add_row({"sifted (search " + format_seconds(t_search) + ", " +
                       std::to_string(search.rebuilds) + " rebuilds)",
                   std::to_string(report.bdd_size), format_seconds(*t_run),
                   report.front.to_string()});
  } else {
    table.add_row({"sifted (search " + format_seconds(t_search) + ")", "-",
                   "cap", "-"});
  }
  std::cout << table.to_text();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t instances = bench::arg_size_t(argc, argv, "--instances", 4);
  if (const auto cap = bench::arg_value(argc, argv, "--cap")) {
    g_run_cap = std::stod(*cap);
  }

  bench::banner("variable-order ablation (defense-first orders only)");
  bench::assert_kernel_guards(catalog::money_theft_dag());
  ablate("money theft (Fig. 7 DAG)", catalog::money_theft_dag());

  Rng rng(777);
  for (std::size_t i = 0; i < instances; ++i) {
    RandomAdtOptions options;
    options.target_nodes = 60 + i * 30;
    options.share_probability = 0.2;
    options.max_defenses = 12;
    const AugmentedAdt aadt = generate_random_aadt(
        options, rng(), Semiring::min_cost(), Semiring::min_cost());
    ablate("random DAG #" + std::to_string(i), aadt);
  }

  std::cout << "\nTakeaway: the front never changes; BDD size (and with it "
               "BDDBU time) varies across defense-first orders, and the "
               "block-respecting search recovers most of the gap from a "
               "bad order.\n";
  std::cout << "\n[ordering_ablation] done\n";
  return 0;
}
