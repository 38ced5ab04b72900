/// Single-huge-DAG BDD scaling suite: the workload PR 4's batch pool
/// could not touch (one model, one core). Measures the task-DAG
/// (work-stealing) BDD construction + Pareto propagation at 1..N worker
/// threads on
///
///  - the Fig. 4 worst-case family (wide levels, exponential fronts: the
///    propagate-bound regime), and
///  - a large generated DAG (construction-heavy regime),
///
/// reporting per-phase times, speedups over the sequential run, the
/// scheduler counters (tasks / steals / peak ready-queue depth), and a
/// bit-identical front check (the determinism contract of
/// BddBuOptions::threads).
///
/// Usage: bench_bdd_scaling [--fig4-n N] [--dag-nodes N] [--threads T]
///                          [--repeats R] [--json PATH]
///
/// CI runs this in bench-smoke; BENCH_5.json pins a reference run.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

struct ScalingRow {
  std::string model;
  unsigned threads = 1;
  double build_seconds = 0;
  double propagate_seconds = 0;
  double total_seconds = 0;
  double propagate_speedup = 1;  ///< vs the threads = 1 row of the model
  double total_speedup = 1;
  std::size_t bdd_size = 0;
  std::uint64_t sched_tasks = 0;
  std::uint64_t sched_steals = 0;
  std::size_t max_ready_depth = 0;
  std::size_t max_level_width = 0;
  std::size_t front_size = 0;
  bool identical = true;  ///< front bit-identical to the sequential run
};

/// Runs one (model, threads) cell \p repeats times and keeps the median
/// per-phase times (scheduler noise dominates single runs on shared CI
/// boxes). The last run's front lands in \p front_out (at threads == 1
/// it becomes the reference the other cells are checked against).
ScalingRow measure(const std::string& label, const AugmentedAdt& aadt,
                   unsigned threads, std::size_t repeats,
                   const Front* reference, Front* front_out) {
  ScalingRow row;
  row.model = label;
  row.threads = threads;
  std::vector<double> build;
  std::vector<double> propagate;
  std::vector<double> total;
  AnalysisOptions options;
  options.algorithm = Algorithm::BddBu;
  options.intra_model_threads = threads;
  AnalysisResult report;
  for (std::size_t r = 0; r < repeats; ++r) {
    const double t =
        bench::time_call([&] { report = analyze(aadt, options); });
    build.push_back(report.build_seconds);
    propagate.push_back(report.propagate_seconds);
    total.push_back(t);
    // The determinism gate covers EVERY repeat, not just the one whose
    // front happens to survive the loop - a scheduling-dependent
    // divergence in any run must trip it.
    if (reference != nullptr &&
        !report.front.bit_identical_values(*reference)) {
      row.identical = false;
      std::cerr << "MISMATCH: " << label << " at " << threads
                << " threads (repeat " << r
                << ") diverged from the sequential front\n";
    }
  }
  row.build_seconds = bench::median(build);
  row.propagate_seconds = bench::median(propagate);
  row.total_seconds = bench::median(total);
  row.bdd_size = report.bdd_size;
  row.sched_tasks = report.sched.tasks;
  row.sched_steals = report.sched.steals;
  row.max_ready_depth = report.sched.max_ready_depth;
  row.max_level_width = report.max_level_width;
  row.front_size = report.front.size();
  if (front_out != nullptr) *front_out = std::move(report.front);
  return row;
}

[[nodiscard]] bool write_json(const std::string& path,
                              const std::vector<ScalingRow>& rows) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("bdd_scaling");
  json.key("rows").begin_array();
  for (const ScalingRow& row : rows) {
    json.begin_object();
    json.key("model").value(row.model);
    json.key("threads").value(static_cast<std::uint64_t>(row.threads));
    json.key("build_seconds").value(row.build_seconds);
    json.key("propagate_seconds").value(row.propagate_seconds);
    json.key("total_seconds").value(row.total_seconds);
    json.key("propagate_speedup").value(row.propagate_speedup);
    json.key("total_speedup").value(row.total_speedup);
    json.key("bdd_size").value(static_cast<std::uint64_t>(row.bdd_size));
    json.key("sched_tasks").value(row.sched_tasks);
    json.key("sched_steals").value(row.sched_steals);
    json.key("max_ready_depth")
        .value(static_cast<std::uint64_t>(row.max_ready_depth));
    json.key("max_level_width")
        .value(static_cast<std::uint64_t>(row.max_level_width));
    json.key("front_size").value(static_cast<std::uint64_t>(row.front_size));
    json.key("identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out.good()) {
    std::cerr << "FAILED to write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t fig4_n = bench::arg_size_t(argc, argv, "--fig4-n", 14);
  const std::size_t dag_nodes =
      bench::arg_size_t(argc, argv, "--dag-nodes", 400);
  const unsigned max_threads = static_cast<unsigned>(
      bench::arg_size_t(argc, argv, "--threads", 8));
  const std::size_t repeats = bench::arg_size_t(argc, argv, "--repeats", 3);
  const auto json_path = bench::arg_value(argc, argv, "--json");

  bench::banner("BDD level-parallel scaling (1 vs N threads, one DAG)");
  bench::assert_kernel_guards(catalog::fig3_example());

  RandomAdtOptions dag_options;
  dag_options.target_nodes = dag_nodes;
  dag_options.share_probability = 0.2;
  dag_options.max_defenses = 16;
  const AugmentedAdt dag = generate_random_aadt(
      dag_options, 4242, Semiring::min_cost(), Semiring::min_cost());

  struct ModelCase {
    std::string label;
    const AugmentedAdt* model;
  };
  const AugmentedAdt fig4 =
      catalog::fig4_exponential(static_cast<int>(fig4_n));
  const std::vector<ModelCase> cases{
      {"fig4_n" + std::to_string(fig4_n), &fig4},
      {"random_dag_" + std::to_string(dag.adt().size()), &dag},
  };

  std::vector<unsigned> thread_counts{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  TextTable table({"model", "threads", "build", "propagate", "total",
                   "speedup", "tasks", "steals", "max width", "identical"});
  std::vector<ScalingRow> rows;
  for (const ModelCase& c : cases) {
    Front reference;
    double base_propagate = 0;
    double base_total = 0;
    for (unsigned threads : thread_counts) {
      ScalingRow row =
          measure(c.label, *c.model, threads, repeats,
                  threads == 1 ? nullptr : &reference,
                  threads == 1 ? &reference : nullptr);
      if (threads == 1) {
        base_propagate = row.propagate_seconds;
        base_total = row.total_seconds;
      } else {
        row.propagate_speedup = row.propagate_seconds > 0
                                    ? base_propagate / row.propagate_seconds
                                    : 0.0;
        row.total_speedup =
            row.total_seconds > 0 ? base_total / row.total_seconds : 0.0;
      }
      table.add_row({row.model, std::to_string(row.threads),
                     format_seconds(row.build_seconds),
                     format_seconds(row.propagate_seconds),
                     format_seconds(row.total_seconds),
                     format_value(row.propagate_speedup, 2) + "x",
                     std::to_string(row.sched_tasks),
                     std::to_string(row.sched_steals),
                     std::to_string(row.max_level_width),
                     row.identical ? "yes" : "NO"});
      rows.push_back(row);
    }
  }
  std::cout << table.to_text();
  std::cout << "\nSpeedup is propagate-phase wall-clock vs the sequential "
               "run of the same model (hardware with one core reports "
               "~1x by construction).\n";

  if (json_path && !write_json(*json_path, rows)) return 1;
  for (const ScalingRow& row : rows) {
    if (!row.identical) return 1;
  }
  std::cout << "\n[bdd_scaling] done\n";
  return 0;
}
