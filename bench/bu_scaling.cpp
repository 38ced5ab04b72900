/// Sibling-subtree scaling suite for the bottom-up walk: the workload the
/// work-stealing task DAG unlocked (one big *tree*, previously strictly
/// sequential). The model is a "Fig. 4 forest": an attacker-rooted AND
/// over k blocks. Each block ANDs two copies of the Fig. 4 worst-case
/// subtree (I_i = INH(d_i | a_i), weights 2^(i-1)) on the defender side -
/// a 2^n x 2^n staircase cross product, the expensive sibling-parallel
/// work - then feeds the result through an INH carrier into an attacker
/// OR with a flat bypass attack of weight 2^(n-4), which truncates the
/// block front to ~2^(n-4) points so the sequential root fold stays a
/// small tail.
///
/// Each (threads) cell reports the median wall-clock, the speedup over
/// the sequential walk, and the scheduler counters; every repeat is gated
/// on the determinism contract (docs/CONTRACTS.md): fronts AND witnesses
/// bit-identical to the threads = 1 run, mismatch fails the process.
///
/// Usage: bench_bu_scaling [--blocks K] [--block-n N] [--threads T]
///                         [--repeats R] [--json PATH]
///
/// CI runs this in bench-smoke; BENCH_7.json pins a reference run.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

struct ScalingRow {
  unsigned threads = 1;
  double seconds = 0;
  double speedup = 1;  ///< vs the threads = 1 row
  std::size_t front_size = 0;
  std::uint64_t sched_tasks = 0;
  std::uint64_t sched_steals = 0;
  std::size_t max_ready_depth = 0;
  bool identical = true;  ///< front AND witnesses match the sequential run
};

bool witnesses_identical(const WitnessFront& a, const WitnessFront& b) {
  if (!a.bit_identical_values(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.points()[i].defense != b.points()[i].defense) return false;
    if (a.points()[i].attack != b.points()[i].attack) return false;
  }
  return true;
}

ScalingRow measure(const AugmentedAdt& aadt, unsigned threads,
                   std::size_t repeats, const Front* reference,
                   const WitnessFront* witness_reference, Front* front_out,
                   WitnessFront* witness_out) {
  ScalingRow row;
  row.threads = threads;
  AnalysisOptions options;
  options.algorithm = Algorithm::BottomUp;
  options.intra_model_threads = threads;
  std::vector<double> seconds;
  AnalysisResult report;
  for (std::size_t r = 0; r < repeats; ++r) {
    seconds.push_back(
        bench::time_call([&] { report = analyze(aadt, options); }));
    // The determinism gate covers EVERY repeat: a scheduling-dependent
    // divergence in any run must trip it, not just the surviving one.
    if (reference != nullptr &&
        !report.front.bit_identical_values(*reference)) {
      row.identical = false;
      std::cerr << "MISMATCH: front diverged at " << threads
                << " threads (repeat " << r << ")\n";
    }
  }
  // The witnesses run on a scheduler of the row's width too, so the
  // gate below compares parallel witness runs, not sequential ones.
  TaskScheduler pool(threads);
  RunContext run;
  run.pool = &pool;
  const WitnessFront witness =
      bottom_up_front_witness(aadt, options.bottom_up, run);
  if (witness_reference != nullptr &&
      !witnesses_identical(witness, *witness_reference)) {
    row.identical = false;
    std::cerr << "MISMATCH: witnesses diverged at " << threads
              << " threads\n";
  }
  row.seconds = bench::median(seconds);
  row.front_size = report.front.size();
  row.sched_tasks = report.sched.tasks;
  row.sched_steals = report.sched.steals;
  row.max_ready_depth = report.sched.max_ready_depth;
  if (front_out != nullptr) *front_out = std::move(report.front);
  if (witness_out != nullptr) *witness_out = std::move(witness);
  return row;
}

[[nodiscard]] bool write_json(const std::string& path, std::size_t blocks,
                              std::size_t block_n,
                              const std::vector<ScalingRow>& rows) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("bu_scaling");
  json.key("blocks").value(static_cast<std::uint64_t>(blocks));
  json.key("block_n").value(static_cast<std::uint64_t>(block_n));
  json.key("rows").begin_array();
  for (const ScalingRow& row : rows) {
    json.begin_object();
    json.key("threads").value(static_cast<std::uint64_t>(row.threads));
    json.key("seconds").value(row.seconds);
    json.key("speedup").value(row.speedup);
    json.key("front_size").value(static_cast<std::uint64_t>(row.front_size));
    json.key("sched_tasks").value(row.sched_tasks);
    json.key("sched_steals").value(row.sched_steals);
    json.key("max_ready_depth")
        .value(static_cast<std::uint64_t>(row.max_ready_depth));
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
  const std::size_t blocks = bench::arg_size_t(argc, argv, "--blocks", 8);
  const std::size_t block_n = bench::arg_size_t(argc, argv, "--block-n", 11);
  const unsigned max_threads =
      static_cast<unsigned>(bench::arg_size_t(argc, argv, "--threads", 8));
  const std::size_t repeats = bench::arg_size_t(argc, argv, "--repeats", 3);
  const auto json_path = bench::arg_value(argc, argv, "--json");

  bench::banner("Bottom-up sibling-subtree scaling (Fig. 4 forest, one tree)");
  bench::assert_kernel_guards(catalog::fig3_example());

  const AugmentedAdt forest = catalog::fig4_forest(blocks, block_n);
  std::cout << "model: " << blocks << " blocks x n = " << block_n << " ("
            << forest.adt().size() << " nodes)\n\n";

  std::vector<unsigned> thread_counts{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  TextTable table({"threads", "time", "speedup", "|PF|", "tasks", "steals",
                   "max depth", "identical"});
  std::vector<ScalingRow> rows;
  Front reference;
  WitnessFront witness_reference;
  double base_seconds = 0;
  for (unsigned threads : thread_counts) {
    const bool is_base = threads == 1;
    ScalingRow row = measure(forest, threads, repeats,
                             is_base ? nullptr : &reference,
                             is_base ? nullptr : &witness_reference,
                             is_base ? &reference : nullptr,
                             is_base ? &witness_reference : nullptr);
    if (is_base) {
      base_seconds = row.seconds;
    } else {
      row.speedup = row.seconds > 0 ? base_seconds / row.seconds : 0.0;
    }
    table.add_row({std::to_string(row.threads), format_seconds(row.seconds),
                   format_value(row.speedup, 2) + "x",
                   std::to_string(row.front_size),
                   std::to_string(row.sched_tasks),
                   std::to_string(row.sched_steals),
                   std::to_string(row.max_ready_depth),
                   row.identical ? "yes" : "NO"});
    rows.push_back(row);
  }
  std::cout << table.to_text();
  std::cout << "\nSpeedup is whole-walk wall-clock vs the sequential run "
               "(hardware with one core reports ~1x by construction); the "
               "blocks build their exponential fronts in parallel, the "
               "root fold is the sequential tail.\n";

  if (json_path && !write_json(*json_path, blocks, block_n, rows)) return 1;
  for (const ScalingRow& row : rows) {
    if (!row.identical) return 1;
  }
  std::cout << "\n[bu_scaling] done\n";
  return 0;
}
