/// \file shard.hpp
/// \brief Crash-safe, append-only persistent store of encoded analysis
///        results, keyed by FrontCacheKey.
///
/// A FrontStore is a directory holding one *generation* of a shard - a
/// payload log plus an index of fixed-size records - and a CURRENT file
/// naming the live generation:
///
///   <dir>/CURRENT            "g<gen>\n", rewritten via tmp + rename
///   <dir>/shard-<gen>.data   16-byte header, then raw payload bytes
///   <dir>/shard-<gen>.idx    16-byte header, then 56-byte index records
///
/// Commit protocol (write-then-publish): an entry's payload is appended
/// to the data file and fsynced *before* its index record is appended -
/// the index record is the publication. A crash between the two leaves
/// unreachable payload bytes, never a record pointing at missing or
/// partial data. Each index record carries the key, the payload's
/// offset/length, an FNV-1a checksum of the payload, and an FNV-1a
/// checksum of the record itself.
///
/// Recovery on open scans the index: a record is *live* only if it is
/// complete, its record checksum matches, its payload lies within the
/// data file, and the payload bytes match their checksum. Invalid
/// records are skipped (counted, never served); a partial or invalid
/// tail is truncated from both files, so a crashed append disappears
/// entirely. Under the kill -9 crash model the recovered set is exactly
/// a prefix of the committed entries (the crash-matrix test in
/// tests/store sweeps every byte offset to hold it there). A stale
/// format version or foreign magic is treated as "nothing recoverable":
/// the store starts a fresh generation rather than guess at bytes it
/// cannot verify.
///
/// Entries are immutable and deduplicated on put (analysis results are
/// deterministic functions of the key, so the first write wins - same
/// rule as FrontCache::insert). Eviction is logical: over max_entries,
/// the oldest entries leave the in-memory map and their file bytes
/// become dead. Compaction rewrites the live entries into generation
/// g+1, fsyncs, atomically republishes CURRENT, and removes the old
/// files; a crash mid-compaction leaves CURRENT on the old, complete
/// generation.
///
/// Multi-process sharing (single writer, many readers): a *writer*
/// holds <dir>/LOCK - an exclusive flock taken at open and released
/// only by close or process death (kill -9 included) - so a second
/// writer open fails with a clear StoreError instead of interleaving
/// appends into the same log. Any number of *followers*
/// (AttachMode::Follower) attach read-only without the lease: they
/// never truncate, never append, and serve only records that pass the
/// same checksum discipline as recovery, so a torn writer tail is
/// invisible to them. refresh() picks up entries the live writer
/// appended since attach (and re-reads CURRENT across a compaction -
/// published generations are immutable, so a follower never observes a
/// half-built one). When the writer dies, its lease evaporates with it
/// and promote() turns a follower into the writer: it takes the LOCK,
/// re-runs full writer recovery (torn-tail truncation included), and
/// appends from exactly the committed prefix - the crash-matrix suite
/// holds writer-death-at-every-byte-offset to that contract with a
/// live follower watching.
///
/// All file I/O goes through the FileOps seam (util/fault.hpp). Methods
/// throw StoreError (transient iff the underlying IoError was) - the
/// PersistentFrontCache layer above turns that into retry + graceful
/// degradation; this layer never degrades silently.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/front_cache.hpp"
#include "util/adaptive_mutex.hpp"
#include "util/fault.hpp"

namespace adtp::store {

/// A store operation failed; \p transient mirrors IoError::transient().
class StoreError : public Error {
 public:
  explicit StoreError(const std::string& what, bool transient = false)
      : Error(what), transient_(transient) {}

  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  bool transient_;
};

/// What open() found and what it did about it.
struct RecoveryReport {
  std::uint64_t entries_recovered = 0;  ///< live entries after the scan
  std::uint64_t bytes_recovered = 0;    ///< payload bytes of those entries
  /// Complete records whose record or payload checksum failed, or whose
  /// payload range fell outside the data file - skipped, never served.
  std::uint64_t records_skipped = 0;
  /// Later records repeating an already-live key - skipped (first wins).
  std::uint64_t duplicates_skipped = 0;
  /// Bytes truncated off the two files (partial tail record + payload
  /// bytes beyond the last live entry).
  std::uint64_t tail_bytes_truncated = 0;
  /// True when CURRENT pointed at files with a wrong magic or version:
  /// nothing was served from them and a fresh generation was started.
  bool stale_generation = false;
};

/// How a FrontStore attaches to its directory.
enum class AttachMode : std::uint8_t {
  /// Takes the exclusive writer lease (<dir>/LOCK) at open; fails with
  /// StoreError when another live process holds it. The only mode that
  /// may append, truncate, or compact.
  Writer,
  /// Attaches read-only without the lease. put/compact throw; refresh()
  /// follows the writer's appends; promote() takes over a dead writer's
  /// lease. Attach requires an initialized store (a CURRENT file) and
  /// throws a transient StoreError until a writer has created one.
  Follower,
};

/// What refresh() found on a follower.
struct RefreshReport {
  /// Live entries gained by this refresh (committed appends picked up,
  /// or the live set of a republished generation).
  std::uint64_t new_entries = 0;
  /// CURRENT moved (the writer compacted): the follower reopened and
  /// rescanned the new generation.
  bool generation_changed = false;
};

struct StoreOptions {
  /// File-system seam; nullptr means real_file_ops().
  FileOps* ops = nullptr;
  /// Writer (lease-holding appender) or read-only follower.
  AttachMode mode = AttachMode::Writer;
  /// Maximum live entries (0 = unbounded); beyond it the oldest entry is
  /// logically evicted on put.
  std::size_t max_entries = 0;
  /// Auto-compact on put when dead payload bytes exceed this fraction of
  /// the data file (and there is at least one dead byte). <= 0 disables.
  double compact_dead_fraction = 0.5;
};

/// Cumulative counters since open (recovery numbers excluded).
struct StoreStats {
  std::uint64_t puts = 0;
  std::uint64_t duplicate_puts = 0;  ///< rejected: key already live
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  /// Entries dropped at read time because their payload no longer
  /// matched its checksum (bit rot after recovery verified it).
  std::uint64_t corrupt_reads = 0;
  std::uint64_t evictions = 0;
  std::uint64_t compactions = 0;
  std::size_t entries = 0;      ///< live entries right now
  std::uint64_t data_bytes = 0; ///< data file size (header included)
  std::uint64_t dead_bytes = 0; ///< payload bytes of evicted entries
};

class FrontStore {
 public:
  /// Opens (creating or recovering) the store in directory \p dir.
  /// Throws StoreError when the directory cannot be created or the shard
  /// files cannot be opened/scanned.
  explicit FrontStore(std::string dir, StoreOptions options = {});
  ~FrontStore();

  FrontStore(const FrontStore&) = delete;
  FrontStore& operator=(const FrontStore&) = delete;

  /// Stores \p payload under \p key. Returns false (and writes nothing)
  /// when the key is already live. Throws StoreError on I/O failure; the
  /// store stays consistent (a failed append is invisible to readers and
  /// to recovery).
  bool put(const FrontCacheKey& key, const std::uint8_t* payload,
           std::size_t size);
  bool put(const FrontCacheKey& key, const std::vector<std::uint8_t>& payload);

  /// Returns the payload stored under \p key, or nullopt when absent.
  /// A payload that fails its checksum at read time is dropped and
  /// reported as absent - a corrupt front is never served.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const FrontCacheKey& key);

  [[nodiscard]] bool contains(const FrontCacheKey& key) const;

  /// Rewrites the live entries into a new generation and republishes
  /// CURRENT atomically. No-op on an empty dead set unless \p force.
  void compact(bool force = false);

  /// True while attached read-only (promote() flips this off).
  [[nodiscard]] bool follower() const;

  /// Follower only (writer: no-op returning {}): re-reads CURRENT and
  /// picks up entries the writer committed since attach or the last
  /// refresh. A partially appended tail is simply not picked up yet -
  /// the next refresh retries from the same offset; nothing is ever
  /// truncated. Throws StoreError (transient for retryable conditions)
  /// when the store cannot be read at all.
  RefreshReport refresh();

  /// Follower only: takes over the writer lease. Throws a *transient*
  /// StoreError while the previous writer still holds it (the caller
  /// polls); on success the store re-runs full writer recovery - the
  /// torn tail the dead writer left, if any, is truncated exactly as a
  /// restart would - and put/compact work from then on.
  void promote();

  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

 private:
  struct Entry {
    std::uint64_t offset = 0;  ///< payload offset in the data file
    std::uint32_t length = 0;
    std::uint64_t checksum = 0;  ///< FNV-1a of the payload bytes
  };

  struct KeyHash {
    std::size_t operator()(const FrontCacheKey& k) const noexcept;
  };

  // All private methods below expect mutex_ held.
  void open_or_create();
  void open_follower();
  void acquire_lease();
  void release_lease() noexcept;
  void start_fresh_generation();
  void create_generation(std::uint64_t gen);
  void publish_current(std::uint64_t gen);
  /// Reads CURRENT; nullopt when the file is absent or malformed.
  [[nodiscard]] std::optional<std::uint64_t> read_current();
  /// Decodes and applies index records from \p start_idx to the current
  /// end of the index file, trimming (and, for writers, truncating)
  /// trailing invalid records. Returns the live entries gained.
  std::uint64_t scan_records(std::uint64_t start_idx, bool truncate_tail);
  void close_files() noexcept;
  void evict_oldest_locked();
  void compact_locked(bool force);
  void rollback_tail(std::uint64_t data_size, std::uint64_t idx_size) noexcept;
  void drop_generation_files(std::uint64_t gen) noexcept;
  [[nodiscard]] std::uint64_t next_free_generation();
  [[nodiscard]] std::string data_path(std::uint64_t gen) const;
  [[nodiscard]] std::string idx_path(std::uint64_t gen) const;

  std::string dir_;
  StoreOptions options_;
  FileOps* ops_;  ///< resolved (never null after construction)

  mutable AdaptiveMutex mutex_;
  AttachMode mode_ = AttachMode::Writer;
  std::uint64_t gen_ = 0;
  int lock_fd_ = -1;  ///< the writer lease; held for the store's lifetime
  int data_fd_ = -1;  ///< -1 also flags a broken store (rollback failed)
  int idx_fd_ = -1;
  std::uint64_t data_size_ = 0;  ///< append offset of the data file
  std::uint64_t idx_size_ = 0;   ///< append offset of the index file
  std::unordered_map<FrontCacheKey, Entry, KeyHash> map_;
  /// Live keys in insertion order (eviction order); evicted keys are
  /// removed, so the front is always the oldest live entry.
  std::deque<FrontCacheKey> order_;
  std::uint64_t dead_bytes_ = 0;
  RecoveryReport recovery_;
  StoreStats stats_;
};

}  // namespace adtp::store
