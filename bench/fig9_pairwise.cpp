/// Reproduces Fig. 9: pairwise per-instance runtime comparisons of Naive,
/// BU and BDDBU on randomly generated ADTs.
///
/// Panel (a): Naive vs BDDBU and panel (b): Naive vs BU on 120 random
/// ADTs with |N| < 45 (the paper's suite); panel (c): BU vs BDDBU on
/// trees up to 325 nodes. Output is one CSV row per instance - the
/// scatter points of the figure. Capped runs (deadline / guard exceeded)
/// print "cap"; the paper similarly cut off Naive at 10^4 s.
///
/// Flags: --instances N (default 120), --max-nodes N (default 44),
///        --big-instances N (default 24), --big-max-nodes N (default 325),
///        --naive-deadline SEC (default 0.5), --hybrid (adds the modular
///        hybrid analyzer column to panel c's DAG twin).

#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/random_adt.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

struct InstanceRow {
  std::size_t id;
  std::size_t nodes;
  bool tree;
  // "-" = not applicable/not run, "cap" = attempted but guard-capped.
  std::string naive = "-";
  std::string bu = "-";
  std::string bdd = "-";
  std::string hybrid = "-";
};

std::string cell(const std::optional<double>& t) {
  return t ? format_value(*t, 6) : "cap";
}

void print_rows(const std::vector<InstanceRow>& rows, bool with_hybrid) {
  std::cout << "id,nodes,shape,naive_s,bu_s,bddbu_s"
            << (with_hybrid ? ",hybrid_s" : "") << "\n";
  for (const auto& r : rows) {
    std::cout << r.id << ',' << r.nodes << ','
              << (r.tree ? "tree" : "dag") << ',' << r.naive << ',' << r.bu
              << ',' << r.bdd;
    if (with_hybrid) std::cout << ',' << r.hybrid;
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t instances =
      bench::arg_size_t(argc, argv, "--instances", 120);
  const std::size_t max_nodes =
      bench::arg_size_t(argc, argv, "--max-nodes", 44);
  const std::size_t big_instances =
      bench::arg_size_t(argc, argv, "--big-instances", 24);
  const std::size_t big_max_nodes =
      bench::arg_size_t(argc, argv, "--big-max-nodes", 325);
  const double naive_deadline =
      bench::arg_value(argc, argv, "--naive-deadline")
          ? std::stod(*bench::arg_value(argc, argv, "--naive-deadline"))
          : 0.5;

  Rng rng(20250417);

  // ---- panels (a) and (b): the paper's 120-instance suite, |N| < 45 ----
  bench::banner("Fig. 9 (a)/(b): Naive vs BDDBU vs BU, 120 ADTs, |N| < 45");
  std::vector<InstanceRow> small_rows;
  for (std::size_t i = 0; i < instances; ++i) {
    RandomAdtOptions options;
    options.target_nodes = 10 + rng.below(max_nodes > 12 ? max_nodes - 11 : 1);
    options.share_probability = (i % 2 == 0) ? 0.0 : 0.2;
    options.max_defenses = 10;
    const AugmentedAdt aadt = generate_random_aadt(
        options, rng(), Semiring::min_cost(), Semiring::min_cost());

    InstanceRow row;
    row.id = i;
    row.nodes = aadt.adt().size();
    row.tree = aadt.adt().is_tree();

    const Deadline deadline(naive_deadline);
    RunContext guarded;
    guarded.deadline = &deadline;
    NaiveOptions naive_options;
    naive_options.max_bits = 24;
    row.naive = cell(bench::time_call_capped(
        [&] { (void)naive_front(aadt, naive_options, guarded); }));

    if (row.tree) {
      BottomUpOptions bu_options;
      bu_options.max_front_points = 200000;
      row.bu = cell(bench::time_call_capped(
          [&] { (void)bottom_up_front(aadt, bu_options); }));
    }

    BddBuOptions bdd_options;
    bdd_options.node_limit = 4u << 20;
    bdd_options.max_front_points = 200000;
    row.bdd = cell(bench::time_call_capped(
        [&] { (void)bdd_bu_front(aadt, bdd_options); }));

    small_rows.push_back(row);
  }
  print_rows(small_rows, false);

  // ---- panel (c): BU vs BDDBU on larger trees (up to 325 nodes) --------
  bench::banner("Fig. 9 (c): BU vs BDDBU on trees up to " +
                std::to_string(big_max_nodes) + " nodes");
  std::vector<InstanceRow> big_rows;
  for (std::size_t i = 0; i < big_instances; ++i) {
    RandomAdtOptions options;
    options.target_nodes =
        50 + (i * (big_max_nodes - 50)) / std::max<std::size_t>(
                                              big_instances - 1, 1);
    options.share_probability = 0.0;
    const AugmentedAdt aadt = generate_random_aadt(
        options, rng(), Semiring::min_cost(), Semiring::min_cost());

    InstanceRow row;
    row.id = i;
    row.nodes = aadt.adt().size();
    row.tree = true;

    BottomUpOptions bu_options;
    bu_options.max_front_points = 500000;
    row.bu = cell(bench::time_call_capped(
        [&] { (void)bottom_up_front(aadt, bu_options); }));

    BddBuOptions bdd_options;
    bdd_options.node_limit = 8u << 20;
    bdd_options.max_front_points = 500000;
    row.bdd = cell(bench::time_call_capped(
        [&] { (void)bdd_bu_front(aadt, bdd_options); }));

    big_rows.push_back(row);
  }
  print_rows(big_rows, false);

  // ---- extension: BDDBU vs modular hybrid on DAGs ----------------------
  bench::banner("extension: BDDBU vs modular hybrid on DAGs (<= 150 nodes)");
  std::vector<InstanceRow> dag_rows;
  for (std::size_t i = 0; i < 20; ++i) {
    RandomAdtOptions options;
    options.target_nodes = 30 + i * 6;
    options.share_probability = 0.15;
    options.max_defenses = 16;
    const AugmentedAdt aadt = generate_random_aadt(
        options, rng(), Semiring::min_cost(), Semiring::min_cost());

    InstanceRow row;
    row.id = i;
    row.nodes = aadt.adt().size();
    row.tree = aadt.adt().is_tree();

    BddBuOptions bdd_options;
    bdd_options.node_limit = 8u << 20;
    bdd_options.max_front_points = 500000;
    row.bdd = cell(bench::time_call_capped(
        [&] { (void)bdd_bu_front(aadt, bdd_options); }));

    HybridOptions hybrid_options;
    hybrid_options.bdd = bdd_options;
    row.hybrid = cell(bench::time_call_capped(
        [&] { (void)hybrid_front(aadt, hybrid_options); }));

    dag_rows.push_back(row);
  }
  print_rows(dag_rows, true);

  std::cout << "\nExpected shape: Naive explodes well below 45 nodes "
               "(\"cap\" rows); BU stays in the microsecond-to-millisecond "
               "range even at 325 nodes; BDDBU tracks BU on small models "
               "but grows much faster with size; hybrid sits between "
               "BDDBU and BU when sharing is localized.\n";
  std::cout << "\n[fig9_pairwise] done\n";
  return 0;
}
