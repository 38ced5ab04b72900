// edit_loop: the interactive analyst. One model, the Fig. 4 forest, is
// edited one leaf value at a time and re-analyzed through
// analyze_incremental() with one shared NodeFrontMemo, so only the
// edit's root-ward spine is recomputed. No wire, parse, store or encode
// work happens here.

#include <cmath>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/node_memo.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockN = 9;
/// Cold analyses measured for setup_s; the median is reported.
constexpr int kSetupRepeats = 15;
/// The oracle re-checks about one edit in this many against a cold run.
constexpr std::uint64_t kCheckEvery = 64;
/// Edits per pass of a traced run.
constexpr std::size_t kTracedEdits = 150;

/// The Fig. 4 forest: an attacker AND over k blocks, each two Fig. 4
/// subtrees of depth n meeting at a defender AND behind an INH carrier,
/// plus a bypass that truncates the block front (8 blocks at n = 9 is
/// 489 nodes).
adtp::AugmentedAdt fig4_forest(std::size_t blocks, std::size_t n) {
  using namespace adtp;
  Adt adt;
  Attribution beta;
  std::vector<NodeId> block_roots;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::string bs = std::to_string(b);
    auto fig4 = [&](const char* side) {
      std::vector<NodeId> gates;
      for (std::size_t i = 1; i <= n; ++i) {
        const std::string suffix =
            "_" + std::string(side) + bs + "_" + std::to_string(i);
        const NodeId d = adt.add_basic("d" + suffix, Agent::Defender);
        const NodeId a = adt.add_basic("a" + suffix, Agent::Attacker);
        gates.push_back(adt.add_inhibit("I" + suffix, d, a));
        const double weight = std::ldexp(1.0, static_cast<int>(i) - 1);
        beta.set("d" + suffix, weight);
        beta.set("a" + suffix, weight);
      }
      return adt.add_gate("fig4_" + std::string(side) + bs, GateType::Or,
                          Agent::Defender, std::move(gates));
    };
    const NodeId defenses = adt.add_gate("defenses_" + bs, GateType::And,
                                         Agent::Defender, {fig4("l"), fig4("r")});
    const NodeId a_main = adt.add_basic("main_" + bs, Agent::Attacker);
    beta.set("main_" + bs, 1.0);
    const NodeId carrier = adt.add_inhibit("carrier_" + bs, a_main, defenses);
    const NodeId bypass = adt.add_basic("bypass_" + bs, Agent::Attacker);
    beta.set("bypass_" + bs,
             std::ldexp(1.0, static_cast<int>(n > 4 ? n - 4 : 1)));
    block_roots.push_back(adt.add_gate("block" + bs, GateType::Or,
                                       Agent::Attacker, {carrier, bypass}));
  }
  const NodeId root = adt.add_gate("top", GateType::And, Agent::Attacker,
                                   std::move(block_roots));
  adt.set_root(root);
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

/// The analyst's session: the current model, its memo, and the seeded
/// edit stream. The current model is always the base forest with one
/// leaf set to a new integer value: each edit restores the previous
/// leaf and changes another, so the work per edit stays the same over a
/// run instead of drifting as random values pile up and shrink fronts.
struct Session {
  explicit Session(unsigned threads)
      : model(fig4_forest(kBlocks, kBlockN)),
        base(model.attribution()),
        memo(std::max<std::size_t>(4096, 8 * model.adt().size())) {
    options.intra_model_threads = threads;
    const adtp::Adt& adt = model.adt();
    for (const adtp::NodeId id : adt.attack_steps()) leaves.push_back(adt.name(id));
    for (const adtp::NodeId id : adt.defense_steps()) {
      leaves.push_back(adt.name(id));
    }
  }

  /// The first, cold analysis that fills the memo; returns its seconds.
  double cold_start() {
    const Clock::time_point t0 = Clock::now();
    (void)adtp::analyze_incremental(model, memo, options);
    return seconds_between(t0, Clock::now());
  }

  /// Applies the next seeded edit to the model (not timed).
  void next_edit(Rng& rng) {
    const std::string& leaf = leaves[below(rng, leaves.size())];
    adtp::Attribution beta = base;
    beta.set(leaf, static_cast<double>(1 + below(rng, 1u << kBlockN)));
    model = adtp::AugmentedAdt(model.adt(), std::move(beta),
                               model.defender_domain(),
                               model.attacker_domain());
  }

  adtp::AugmentedAdt model;
  adtp::Attribution base;
  adtp::NodeFrontMemo memo;
  adtp::AnalysisOptions options;
  std::vector<std::string> leaves;
};

/// The oracle: the memoized front must equal a cold analyze() bit for bit.
bool matches_cold(const Session& s, const adtp::AnalysisResult& result,
                  Outcome& out) {
  const adtp::AnalysisResult cold = adtp::analyze(s.model, s.options);
  if (result.front.bit_identical_values(cold.front)) return true;
  out.fail("edit front differs from a cold analysis: " +
           result.front.to_string() + " vs " + cold.front.to_string());
  return false;
}

struct EditPass {
  std::vector<double> ms;  ///< per-edit milliseconds
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

/// One pass of \p edits seeded edits from a fresh cold start. With
/// \p spans set, each edit is a request span around a core.edit child,
/// and the content hash of the edited model is timed as a span of its
/// own before it; the per-edit time includes the span recording, so a
/// traced pass against an untraced one shows what tracing costs.
EditPass edit_pass(const RunOptions& options, unsigned threads,
                   std::size_t edits, SpanRecorder* spans, Outcome& out) {
  Session s(threads);
  (void)s.cold_start();
  Rng rng(options.seed * 0xD1B54A32D192ED03ULL + 5);
  EditPass pass;
  for (std::size_t e = 0; e < edits; ++e) {
    s.next_edit(rng);
    const std::uint64_t id = e + 1;
    if (spans != nullptr) {
      spans->timed("core.hash", id, SpanRecorder::kRoot,
                   [&] { return adtp::subtree_value_hashes(s.model); });
    }
    const std::int64_t t0 = now_ns();
    adtp::AnalysisResult result;
    if (spans != nullptr) {
      const std::int64_t root = spans->begin("edit.request", id);
      result = spans->timed("core.edit", id, root, [&] {
        return adtp::analyze_incremental(s.model, s.memo, s.options);
      });
      spans->end(root);
    } else {
      result = adtp::analyze_incremental(s.model, s.memo, s.options);
    }
    const std::int64_t t1 = now_ns();
    pass.ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    pass.memo_hits += result.memo_hits;
    pass.memo_misses += result.memo_misses;
    ++out.attempted;
    if (e % 50 == 0 && !matches_cold(s, result, out)) ++out.failed;
  }
  return pass;
}

}  // namespace

Outcome run_edit_loop(const RunOptions& options) {
  Outcome out;
  Session s(options.nproc);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s.memo.clear();
    setup_s.push_back(s.cold_start());
  }

  Rng rng(options.seed * 0xD1B54A32D192ED03ULL + 5);
  Rng check_rng(options.seed + 0x5EEDULL);
  std::vector<OpSample> ops;
  // The run's clock leaves out the oracle's cold analyses.
  std::int64_t check_ns = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t checks = 0;
  const std::int64_t start = now_ns();
  const auto run_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  while (true) {
    const std::int64_t elapsed = now_ns() - check_ns - start;
    if (elapsed >= 3 * run_ns) break;
    if (elapsed >= run_ns && ops.size() >= kMinOps) break;
    s.next_edit(rng);
    const std::int64_t t0 = now_ns();
    const adtp::AnalysisResult result =
        adtp::analyze_incremental(s.model, s.memo, s.options);
    const std::int64_t t1 = now_ns();
    ops.push_back({t1 - check_ns, static_cast<double>(t1 - t0) / 1e6});
    hits += result.memo_hits;
    misses += result.memo_misses;
    ++out.attempted;
    if (ops.size() == 1 || below(check_rng, kCheckEvery) == 0) {
      const std::int64_t c0 = now_ns();
      ++checks;
      if (!matches_cold(s, result, out)) ++out.failed;
      check_ns += now_ns() - c0;
    }
  }
  const double wall_s = static_cast<double>(now_ns() - check_ns - start) / 1e9;

  add_window_metrics(out, windows_by_count(std::move(ops), start));
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.fact("model_nodes", static_cast<double>(s.model.adt().size()));
  out.fact("threads", options.nproc);
  out.fact("oracle_checks", static_cast<double>(checks));
  out.fact("memo_hits", static_cast<double>(hits));
  out.fact("memo_misses", static_cast<double>(misses));
  out.fact("wall_s", wall_s);
  return out;
}

Outcome trace_edit_loop(const RunOptions& options, SpanRecorder& spans) {
  Outcome out;
  // The same seeded edits four times at nproc threads: untraced, traced,
  // untraced (the two untraced passes bracket the traced one, cancelling
  // a slow drift), then untraced at one thread.
  const EditPass plain =
      edit_pass(options, options.nproc, kTracedEdits, nullptr, out);
  const EditPass traced =
      edit_pass(options, options.nproc, kTracedEdits, &spans, out);
  const EditPass plain_after =
      edit_pass(options, options.nproc, kTracedEdits, nullptr, out);
  const EditPass single = edit_pass(options, 1, kTracedEdits, nullptr, out);
  const double plain_ms = (median(plain.ms) + median(plain_after.ms)) / 2;

  const auto summary = summarize(spans.spans());
  const std::uint64_t hits = traced.memo_hits;
  const std::uint64_t misses = traced.memo_misses;
  out.add("core.edit_ms", median(summary.at("core.edit").self_us) / 1e3, "ms");
  out.add("core.hash_us", median(summary.at("core.hash").self_us), "us");
  out.add("core.memo_hits", static_cast<double>(hits), "count");
  out.add("core.memo_misses", static_cast<double>(misses), "count");
  out.add("core.memo_hit_ratio",
          hits + misses == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(hits + misses),
          "ratio");
  out.add("util.edit_speedup_nproc", median(single.ms) / plain_ms, "x");
  out.add("trace.edit_overhead_pct",
          100.0 * (median(traced.ms) - plain_ms) / plain_ms, "%");
  return out;
}

}  // namespace perfbench
