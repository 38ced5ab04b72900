/// \file manager.hpp
/// \brief A from-scratch ROBDD engine (Definition 10).
///
/// Classic index-based reduced ordered binary decision diagrams without
/// complement edges:
///  - nodes are (var, low, high) triples hash-consed in a unique table, so
///    structurally equal functions share one node (reduction rule 1);
///  - mk() collapses nodes with identical children (reduction rule 2);
///  - binary operations go through a memoized apply(); negation has its own
///    memoized recursion.
///
/// Variables are dense indices 0..num_vars-1 and the index *is* the order:
/// smaller variables are tested closer to the root. Mapping ADT leaves to
/// variable indices (including the paper's defense-first orders) is the job
/// of bdd/order.hpp.
///
/// Concurrency: the manager supports *concurrent construction* - mk() and
/// the apply family may be called from several threads at once (the
/// level-parallel builder in bdd/build.cpp does exactly that) once
/// enter_concurrent_mode() has been called. The unique table and the
/// computed cache are striped: each of kStripes shards owns its own mutex
/// and hash map, so threads building independent subtrees rarely contend;
/// outside concurrent mode the stripe locks are skipped entirely, keeping
/// the serial hot path as fast as a single-map design. Node storage is a
/// chunked arena whose chunks never move, making node reads lock-free in
/// both modes; a published Ref (one obtained from any manager operation)
/// can always be dereferenced safely. The *set* of nodes a build creates
/// is canonical, so node counts and every structural query are identical
/// for every thread count - only node indices may be permuted between
/// runs.
///
/// Nodes are never garbage collected: the analyses in this library build a
/// bounded number of functions per manager, and node indices stay stable,
/// which the Pareto propagation (core/bdd_bu.cpp) relies on. A configurable
/// node limit guards against ordering-induced blow-up; exceeding it throws
/// LimitError rather than exhausting memory.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace adtp::bdd {

/// Index of a BDD node within its manager. 0 and 1 are the terminals.
using Ref = std::uint32_t;

inline constexpr Ref kFalse = 0;
inline constexpr Ref kTrue = 1;

/// One nonterminal BDD node. Terminals use var = kTermVar.
struct BddNode {
  std::uint32_t var;
  Ref low;
  Ref high;
};

/// Aggregate statistics of a manager (for benches and reports). Counter
/// values are exact after construction quiesces; num_nodes is always
/// exact. Note that cache hit/miss tallies can vary across thread counts
/// (racing threads may both miss the same apply before one publishes) -
/// the produced BDD never does.
struct ManagerStats {
  std::size_t num_nodes = 0;     ///< total allocated, incl. both terminals
  std::size_t unique_hits = 0;   ///< mk() calls answered from the table
  std::size_t cache_hits = 0;    ///< apply/not calls answered from cache
  std::size_t cache_misses = 0;
};

class Manager {
 public:
  /// A manager over \p num_vars variables; \p node_limit bounds the total
  /// number of allocated nodes (0 means the default of 16M).
  explicit Manager(std::uint32_t num_vars, std::size_t node_limit = 0);

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  /// A snapshot of the counters (aggregated across stripes).
  [[nodiscard]] ManagerStats stats() const;

  [[nodiscard]] bool is_terminal(Ref f) const noexcept { return f <= kTrue; }

  /// Variable index of a nonterminal node; throws for terminals.
  [[nodiscard]] std::uint32_t var(Ref f) const;
  [[nodiscard]] Ref low(Ref f) const;
  [[nodiscard]] Ref high(Ref f) const;

  /// Switches the manager into concurrent-construction mode: from then
  /// on every unique-table / computed-cache / allocation access takes
  /// its stripe lock. One-way, and it must happen-before the first
  /// concurrent operation (the level-parallel builder flips it before
  /// dispatching to its pool, so the pool's own synchronization
  /// publishes the flag). Serial callers never pay for locks they do
  /// not need - the single-threaded hot path stays lock-free.
  void enter_concurrent_mode() noexcept { concurrent_ = true; }

  /// The hash-consing constructor: returns the canonical node for
  /// (var, low, high), applying both ROBDD reduction rules. Thread-safe
  /// in concurrent mode.
  Ref mk(std::uint32_t var, Ref low, Ref high);

  /// The function "variable v" and its negation.
  Ref make_var(std::uint32_t v);
  Ref make_nvar(std::uint32_t v);

  // Memoized Boolean operations; thread-safe.
  Ref apply_and(Ref f, Ref g);
  Ref apply_or(Ref f, Ref g);
  Ref apply_xor(Ref f, Ref g);
  Ref apply_not(Ref f);

  /// if-then-else: f ? g : h.
  Ref ite(Ref f, Ref g, Ref h);

  /// Cofactor: f with variable \p v fixed to \p value.
  Ref restrict_var(Ref f, std::uint32_t v, bool value);

  /// Evaluates f under a full assignment (index = variable).
  [[nodiscard]] bool evaluate(Ref f, const std::vector<bool>& assignment) const;

  /// Number of satisfying assignments of f over all num_vars() variables.
  [[nodiscard]] double sat_count(Ref f) const;

  /// Number of nodes reachable from f (terminals included) - the |W| of
  /// the paper's complexity bound.
  [[nodiscard]] std::size_t size(Ref f) const;

  /// Nodes reachable from \p f in ascending index order (children before
  /// parents - a node's children exist before mk() can reference them, so
  /// index order is topological even under concurrent construction).
  [[nodiscard]] std::vector<Ref> reachable(Ref f) const;

  /// A path assignment: one entry per variable; 0/1 for decisions taken
  /// along the path, DontCare for variables the path skips (the paper's
  /// Example 6 writes these as '*').
  static constexpr std::int8_t kDontCare = -1;

  /// Enumerates every root-to-\p target path of \p f as partial
  /// assignments (the paper's "paths in the BDD correspond to evaluations
  /// of the structure function"). Throws LimitError when more than
  /// \p max_paths paths exist (path counts are worst-case exponential).
  [[nodiscard]] std::vector<std::vector<std::int8_t>> enumerate_paths(
      Ref f, Ref target, std::size_t max_paths = 1u << 20) const;

 private:
  enum class Op : std::uint8_t { And, Or, Xor };

  struct UniqueKey {
    std::uint32_t var;
    Ref low;
    Ref high;
    bool operator==(const UniqueKey&) const = default;
  };
  struct UniqueKeyHash {
    std::size_t operator()(const UniqueKey& k) const noexcept;
  };
  struct CacheKey {
    std::uint8_t op;  // Op, or 0xFF for NOT
    Ref f;
    Ref g;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept;
  };

  /// Lock shards of the unique table / computed cache. 64 stripes keep
  /// 8-16 concurrent builders mostly contention-free while the per-stripe
  /// maps stay small enough to be cheap for tiny managers.
  static constexpr std::size_t kStripes = 64;

  struct UniqueStripe {
    mutable std::mutex mutex;  // mutable: stats() locks through const this
    std::unordered_map<UniqueKey, Ref, UniqueKeyHash> map;
    std::size_t hits = 0;  ///< guarded by mutex
  };
  struct CacheStripe {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, Ref, CacheKeyHash> map;
    std::size_t hits = 0;    ///< guarded by mutex
    std::size_t misses = 0;  ///< guarded by mutex
  };

  // Chunked node arena: chunk c holds 2^(kFirstChunkBits + c) nodes and
  // starts at index (2^c - 1) << kFirstChunkBits, so capacity doubles
  // while small managers only ever touch the first 1K-node chunk. Chunks
  // never move, which is what makes node() lock-free.
  static constexpr std::uint32_t kFirstChunkBits = 10;
  static constexpr std::size_t kMaxChunks = 33;

  static std::uint32_t chunk_of(Ref f) noexcept {
    return static_cast<std::uint32_t>(
               std::bit_width((f >> kFirstChunkBits) + 1)) -
           1;
  }
  static Ref chunk_start(std::uint32_t c) noexcept {
    return ((Ref{1} << c) - 1) << kFirstChunkBits;
  }

  /// Lock-free node read; \p f must be a published nonterminal Ref.
  [[nodiscard]] const BddNode& node(Ref f) const noexcept {
    const std::uint32_t c = chunk_of(f);
    return chunks_[c].load(std::memory_order_acquire)[f - chunk_start(c)];
  }

  /// Locks \p m only in concurrent mode (see enter_concurrent_mode()).
  class MaybeLock {
   public:
    MaybeLock(std::mutex& m, bool enabled) : m_(enabled ? &m : nullptr) {
      if (m_ != nullptr) m_->lock();
    }
    MaybeLock(const MaybeLock&) = delete;
    MaybeLock& operator=(const MaybeLock&) = delete;
    ~MaybeLock() {
      if (m_ != nullptr) m_->unlock();
    }

   private:
    std::mutex* m_;
  };

  /// Appends a node to the arena; takes alloc_mutex_ (in concurrent
  /// mode) and enforces the node limit.
  Ref allocate(const BddNode& n);

  Ref apply(Op op, Ref f, Ref g);
  [[nodiscard]] static bool terminal_of(Op op, bool a, bool b) noexcept;

  std::uint32_t num_vars_;
  std::size_t node_limit_;
  bool concurrent_ = false;

  std::array<std::atomic<BddNode*>, kMaxChunks> chunks_{};
  std::vector<std::unique_ptr<BddNode[]>> chunk_storage_;  // alloc_mutex_
  std::mutex alloc_mutex_;
  std::atomic<std::uint32_t> size_{0};

  std::array<UniqueStripe, kStripes> unique_;
  std::array<CacheStripe, kStripes> cache_;

  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFu;
};

}  // namespace adtp::bdd
