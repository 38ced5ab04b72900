#include "store/shard.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/hash.hpp"

namespace adtp::store {

namespace {

// ---- on-disk format --------------------------------------------------------
// Both shard files open with a 16-byte header: an 8-byte magic naming the
// file's role and a little-endian u32 format version (plus 4 reserved
// bytes). Anything else - foreign magic, future version - is "stale":
// recovery serves nothing from it and starts a fresh generation.

constexpr std::array<std::uint8_t, 8> kDataMagic = {'A', 'D', 'T', 'P',
                                                    'd', 'a', 't', '1'};
constexpr std::array<std::uint8_t, 8> kIdxMagic = {'A', 'D', 'T', 'P',
                                                   'i', 'd', 'x', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderSize = 16;

// Fixed-size index record; fixed size is what keeps the scan aligned past
// a corrupt record instead of losing the rest of the file:
//   u64 structure | u64 attribution | u64 options |
//   u64 offset    | u32 length      | u32 flags   |
//   u64 payload_checksum | u64 record_checksum (FNV-1a of bytes [0, 48))
constexpr std::uint64_t kRecordSize = 56;
constexpr std::size_t kRecordChecksumAt = 48;

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

std::array<std::uint8_t, kHeaderSize> make_header(
    const std::array<std::uint8_t, 8>& magic) {
  std::array<std::uint8_t, kHeaderSize> h{};
  std::memcpy(h.data(), magic.data(), magic.size());
  put_u32(h.data() + 8, kFormatVersion);
  return h;
}

std::uint64_t checksum_bytes(const std::uint8_t* data, std::size_t size) {
  return Fnv1a().bytes(data, size).digest();
}

struct RawRecord {
  FrontCacheKey key;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint64_t payload_checksum = 0;
  bool valid = false;
};

std::array<std::uint8_t, kRecordSize> encode_record(
    const FrontCacheKey& key, std::uint64_t offset, std::uint32_t length,
    std::uint64_t payload_checksum) {
  std::array<std::uint8_t, kRecordSize> rec{};
  put_u64(rec.data() + 0, key.structure);
  put_u64(rec.data() + 8, key.attribution);
  put_u64(rec.data() + 16, key.options);
  put_u64(rec.data() + 24, offset);
  put_u32(rec.data() + 32, length);
  put_u32(rec.data() + 36, 0);  // flags, reserved
  put_u64(rec.data() + 40, payload_checksum);
  put_u64(rec.data() + kRecordChecksumAt,
          checksum_bytes(rec.data(), kRecordChecksumAt));
  return rec;
}

RawRecord decode_record(const std::array<std::uint8_t, kRecordSize>& rec) {
  RawRecord out;
  out.key.structure = get_u64(rec.data() + 0);
  out.key.attribution = get_u64(rec.data() + 8);
  out.key.options = get_u64(rec.data() + 16);
  out.offset = get_u64(rec.data() + 24);
  out.length = get_u32(rec.data() + 32);
  out.payload_checksum = get_u64(rec.data() + 40);
  out.valid = get_u64(rec.data() + kRecordChecksumAt) ==
              checksum_bytes(rec.data(), kRecordChecksumAt);
  return out;
}

[[noreturn]] void rethrow_as_store_error(const char* doing, const IoError& e) {
  throw StoreError(std::string(doing) + ": " + e.what(), e.transient());
}

bool header_ok(FileOps& ops, int fd,
               const std::array<std::uint8_t, 8>& magic) {
  if (ops.file_size(fd) < kHeaderSize) return false;
  std::array<std::uint8_t, kHeaderSize> h{};
  if (!ops.pread_all(fd, h.data(), h.size(), 0)) return false;
  return std::memcmp(h.data(), magic.data(), magic.size()) == 0 &&
         get_u32(h.data() + 8) == kFormatVersion;
}

}  // namespace

std::size_t FrontStore::KeyHash::operator()(
    const FrontCacheKey& k) const noexcept {
  std::uint64_t h = hash_combine(k.structure, k.attribution);
  h = hash_combine(h, k.options);
  return static_cast<std::size_t>(h);
}

FrontStore::FrontStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      ops_(options.ops != nullptr ? options.ops : &real_file_ops()),
      mode_(options.mode) {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  try {
    if (mode_ == AttachMode::Follower) {
      open_follower();
    } else {
      open_or_create();
    }
  } catch (const IoError& e) {
    close_files();
    release_lease();
    rethrow_as_store_error("store open", e);
  } catch (...) {
    close_files();
    release_lease();
    throw;
  }
}

FrontStore::~FrontStore() {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  close_files();
  release_lease();
}

void FrontStore::acquire_lease() {
  if (lock_fd_ >= 0) return;
  int fd = -1;
  try {
    fd = ops_->try_lock_file(dir_ + "/LOCK");
  } catch (const IoError& e) {
    rethrow_as_store_error("store lock", e);
  }
  if (fd < 0) {
    // Transient: the holder may die (its lease evaporates with it), so
    // "wait and retry" is a legitimate response - but appending without
    // the lease never is.
    throw StoreError("store " + dir_ +
                         " is locked by another writer (LOCK held); attach "
                         "as a follower or wait for the lease",
                     /*transient=*/true);
  }
  lock_fd_ = fd;
}

void FrontStore::release_lease() noexcept {
  if (lock_fd_ >= 0) ops_->close_fd(lock_fd_);
  lock_fd_ = -1;
}

std::string FrontStore::data_path(std::uint64_t gen) const {
  return dir_ + "/shard-" + std::to_string(gen) + ".data";
}

std::string FrontStore::idx_path(std::uint64_t gen) const {
  return dir_ + "/shard-" + std::to_string(gen) + ".idx";
}

void FrontStore::close_files() noexcept {
  if (data_fd_ >= 0) ops_->close_fd(data_fd_);
  if (idx_fd_ >= 0) ops_->close_fd(idx_fd_);
  data_fd_ = -1;
  idx_fd_ = -1;
}

std::uint64_t FrontStore::next_free_generation() {
  // Never reuse a generation number that has files on disk - a crashed
  // compaction may have left a half-written higher generation behind.
  std::uint64_t max_gen = 0;
  for (const std::string& name : ops_->list_dir(dir_)) {
    if (name.rfind("shard-", 0) != 0) continue;
    const std::size_t dot = name.find('.', 6);
    if (dot == std::string::npos) continue;
    std::uint64_t gen = 0;
    bool numeric = dot > 6;
    for (std::size_t i = 6; i < dot && numeric; ++i) {
      const char c = name[i];
      numeric = c >= '0' && c <= '9';
      if (numeric) gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (numeric) max_gen = std::max(max_gen, gen);
  }
  return max_gen + 1;
}

void FrontStore::publish_current(std::uint64_t gen) {
  const std::string tmp = dir_ + "/CURRENT.tmp";
  const int fd = ops_->open_file(tmp, FileOps::OpenMode::Truncate);
  try {
    const std::string body = "g" + std::to_string(gen) + "\n";
    ops_->write_all(fd, body.data(), body.size());
    ops_->sync_file(fd);
  } catch (...) {
    ops_->close_fd(fd);
    throw;
  }
  ops_->close_fd(fd);
  ops_->rename_file(tmp, dir_ + "/CURRENT");
  ops_->sync_dir(dir_);
}

void FrontStore::create_generation(std::uint64_t gen) {
  gen_ = gen;
  data_fd_ = ops_->open_file(data_path(gen), FileOps::OpenMode::Truncate);
  idx_fd_ = ops_->open_file(idx_path(gen), FileOps::OpenMode::Truncate);
  const auto data_header = make_header(kDataMagic);
  const auto idx_header = make_header(kIdxMagic);
  ops_->write_all(data_fd_, data_header.data(), data_header.size());
  ops_->write_all(idx_fd_, idx_header.data(), idx_header.size());
  ops_->sync_file(data_fd_);
  ops_->sync_file(idx_fd_);
  data_size_ = kHeaderSize;
  idx_size_ = kHeaderSize;
}

void FrontStore::start_fresh_generation() {
  recovery_.stale_generation = true;
  close_files();
  const std::uint64_t old = gen_;
  create_generation(next_free_generation());
  publish_current(gen_);
  if (old != 0 && old != gen_) drop_generation_files(old);
}

std::optional<std::uint64_t> FrontStore::read_current() {
  // Parse CURRENT ("g<gen>\n"). Malformed contents mean the pointer
  // itself cannot be trusted.
  std::string body;
  {
    const int fd =
        ops_->open_file(dir_ + "/CURRENT", FileOps::OpenMode::Read);
    try {
      const std::uint64_t size = std::min<std::uint64_t>(ops_->file_size(fd), 64);
      body.resize(static_cast<std::size_t>(size));
      if (!body.empty() && !ops_->pread_all(fd, body.data(), body.size(), 0)) {
        body.clear();
      }
    } catch (...) {
      ops_->close_fd(fd);
      throw;
    }
    ops_->close_fd(fd);
  }
  std::uint64_t gen = 0;
  bool parsed = body.size() >= 3 && body.front() == 'g' && body.back() == '\n';
  for (std::size_t i = 1; i + 1 < body.size() && parsed; ++i) {
    parsed = body[i] >= '0' && body[i] <= '9';
    if (parsed) gen = gen * 10 + static_cast<std::uint64_t>(body[i] - '0');
  }
  if (!parsed || gen == 0) return std::nullopt;
  return gen;
}

void FrontStore::open_or_create() {
  ops_->make_dir(dir_);
  // The lease comes first: everything after it may append or truncate,
  // and two processes doing that to one log is how logs get corrupted.
  acquire_lease();
  if (!ops_->exists(dir_ + "/CURRENT")) {
    create_generation(next_free_generation());
    publish_current(gen_);
    return;
  }

  const std::optional<std::uint64_t> gen = read_current();
  if (!gen.has_value()) {
    // Untrustworthy pointer: recover nothing, start fresh.
    start_fresh_generation();
    return;
  }

  gen_ = *gen;
  data_fd_ = ops_->open_file(data_path(gen_), FileOps::OpenMode::Append);
  idx_fd_ = ops_->open_file(idx_path(gen_), FileOps::OpenMode::Append);
  if (!header_ok(*ops_, data_fd_, kDataMagic) ||
      !header_ok(*ops_, idx_fd_, kIdxMagic)) {
    start_fresh_generation();
    return;
  }
  data_size_ = kHeaderSize;
  idx_size_ = kHeaderSize;
  scan_records(kHeaderSize, /*truncate_tail=*/true);
  dead_bytes_ = data_size_ - kHeaderSize - recovery_.bytes_recovered;
}

void FrontStore::open_follower() {
  if (!ops_->exists(dir_ + "/CURRENT")) {
    // Transient: a writer may initialize the directory any moment.
    throw StoreError(
        "store " + dir_ + " has no CURRENT yet (no writer initialized it)",
        /*transient=*/true);
  }
  const std::optional<std::uint64_t> gen = read_current();
  if (!gen.has_value()) {
    throw StoreError("store " + dir_ + " has a malformed CURRENT");
  }
  gen_ = *gen;
  try {
    data_fd_ = ops_->open_file(data_path(gen_), FileOps::OpenMode::Read);
    idx_fd_ = ops_->open_file(idx_path(gen_), FileOps::OpenMode::Read);
  } catch (const IoError& e) {
    // The published generation can vanish between reading CURRENT and
    // opening its files only while the writer swaps generations; the
    // next attempt sees the new CURRENT.
    throw StoreError(
        "store " + dir_ + " generation " + std::to_string(gen_) +
            " unreadable (writer compacting?): " + e.what(),
        /*transient=*/true);
  }
  if (!header_ok(*ops_, data_fd_, kDataMagic) ||
      !header_ok(*ops_, idx_fd_, kIdxMagic)) {
    // A follower cannot start a fresh generation; only a writer may
    // decide the published one is unrecoverable.
    throw StoreError("store " + dir_ + " generation " + std::to_string(gen_) +
                     " has a stale or foreign header");
  }
  data_size_ = kHeaderSize;
  idx_size_ = kHeaderSize;
  scan_records(kHeaderSize, /*truncate_tail=*/false);
  dead_bytes_ = data_size_ - kHeaderSize - recovery_.bytes_recovered;
}

std::uint64_t FrontStore::scan_records(std::uint64_t start_idx,
                                       bool truncate_tail) {
  const std::uint64_t data_file_size = ops_->file_size(data_fd_);
  const std::uint64_t idx_file_size = ops_->file_size(idx_fd_);
  if (idx_file_size <= start_idx) return 0;
  const std::uint64_t n_records = (idx_file_size - start_idx) / kRecordSize;

  // First pass: decode every complete record and settle its validity -
  // record checksum, payload bounds, payload checksum. The distinction
  // between "skipped" and "truncated/in-progress" needs the position of
  // the last valid record, so validity is settled before anything is
  // applied.
  std::vector<RawRecord> records;
  records.reserve(static_cast<std::size_t>(n_records));
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < n_records; ++i) {
    std::array<std::uint8_t, kRecordSize> raw{};
    if (!ops_->pread_all(idx_fd_, raw.data(), raw.size(),
                         start_idx + i * kRecordSize)) {
      break;  // file shrank under us; treat the rest as absent
    }
    RawRecord rec = decode_record(raw);
    if (rec.valid) {
      rec.valid = rec.offset >= kHeaderSize &&
                  rec.offset + rec.length <= data_file_size;
    }
    if (rec.valid) {
      payload.resize(rec.length);
      rec.valid =
          (rec.length == 0 ||
           ops_->pread_all(data_fd_, payload.data(), payload.size(),
                           rec.offset)) &&
          checksum_bytes(payload.data(), payload.size()) == rec.payload_checksum;
    }
    records.push_back(rec);
  }

  // Trailing invalid records are a torn tail for a recovering writer,
  // and an append still in flight for a follower - either way they are
  // not applied. Followers retry from the same offset next refresh.
  std::size_t n_keep = records.size();
  while (n_keep > 0 && !records[n_keep - 1].valid) --n_keep;

  std::uint64_t data_end = data_size_;
  std::uint64_t gained = 0;
  for (std::size_t i = 0; i < n_keep; ++i) {
    const RawRecord& rec = records[i];
    if (!rec.valid) {
      ++recovery_.records_skipped;  // mid-file damage: skip, keep scanning
      continue;
    }
    data_end = std::max(data_end, rec.offset + rec.length);
    if (map_.count(rec.key) != 0) {
      ++recovery_.duplicates_skipped;  // first record for a key wins
      continue;
    }
    map_.emplace(rec.key, Entry{rec.offset, rec.length, rec.payload_checksum});
    order_.push_back(rec.key);
    recovery_.bytes_recovered += rec.length;
    ++gained;
  }
  recovery_.entries_recovered = map_.size();

  const std::uint64_t idx_end = start_idx + n_keep * kRecordSize;
  if (truncate_tail) {
    // Writers truncate the torn tail: trailing invalid/partial index
    // records and any payload bytes past the last valid record's
    // payload. Committed entries are untouched - this only removes what
    // a crashed append (or tail corruption) left behind. Followers
    // NEVER take this branch: the files belong to the writer.
    if (idx_file_size > idx_end) {
      ops_->truncate_file(idx_fd_, idx_end);
      recovery_.tail_bytes_truncated += idx_file_size - idx_end;
    }
    if (data_file_size > data_end) {
      ops_->truncate_file(data_fd_, data_end);
      recovery_.tail_bytes_truncated += data_file_size - data_end;
    }
  }
  data_size_ = data_end;
  idx_size_ = idx_end;

  if (options_.max_entries != 0) {
    while (map_.size() > options_.max_entries) evict_oldest_locked();
  }
  return gained;
}

bool FrontStore::follower() const {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  return mode_ == AttachMode::Follower;
}

RefreshReport FrontStore::refresh() {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  RefreshReport report;
  if (mode_ != AttachMode::Follower) return report;
  if (data_fd_ < 0) throw StoreError("store is broken (earlier I/O failure)");
  try {
    const std::optional<std::uint64_t> gen = read_current();
    if (!gen.has_value()) {
      throw IoError("CURRENT unreadable during refresh", /*transient=*/true);
    }
    if (*gen != gen_) {
      // The writer republished (compaction): drop the in-memory index
      // and attach to the new generation. Its files are complete before
      // CURRENT ever names them, so the full rescan sees a committed
      // set.
      close_files();
      map_.clear();
      order_.clear();
      dead_bytes_ = 0;
      gen_ = *gen;
      data_fd_ = ops_->open_file(data_path(gen_), FileOps::OpenMode::Read);
      idx_fd_ = ops_->open_file(idx_path(gen_), FileOps::OpenMode::Read);
      if (!header_ok(*ops_, data_fd_, kDataMagic) ||
          !header_ok(*ops_, idx_fd_, kIdxMagic)) {
        throw IoError("republished generation has a stale header");
      }
      data_size_ = kHeaderSize;
      idx_size_ = kHeaderSize;
      report.generation_changed = true;
      report.new_entries = scan_records(kHeaderSize, /*truncate_tail=*/false);
    } else {
      report.new_entries = scan_records(idx_size_, /*truncate_tail=*/false);
    }
  } catch (const IoError& e) {
    rethrow_as_store_error("store refresh", e);
  }
  return report;
}

void FrontStore::promote() {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  if (mode_ == AttachMode::Writer) return;
  acquire_lease();  // throws a transient StoreError while the writer lives
  // Lease in hand: re-run full writer recovery over the directory, torn
  // tail truncation included - exactly what a restarted writer would do.
  close_files();
  map_.clear();
  order_.clear();
  dead_bytes_ = 0;
  data_size_ = 0;
  idx_size_ = 0;
  recovery_ = RecoveryReport{};
  mode_ = AttachMode::Writer;
  try {
    open_or_create();
  } catch (const IoError& e) {
    close_files();
    rethrow_as_store_error("store promote", e);
  }
}

void FrontStore::rollback_tail(std::uint64_t data_size,
                               std::uint64_t idx_size) noexcept {
  // Best effort: trim the partial append so in-process readers never see
  // it. If even the rollback fails (e.g. a simulated crash fails every
  // subsequent op), the fds close and the store reports itself broken -
  // recovery on the next open removes the torn tail instead.
  try {
    ops_->truncate_file(data_fd_, data_size);
    ops_->truncate_file(idx_fd_, idx_size);
  } catch (...) {
    close_files();
  }
}

bool FrontStore::put(const FrontCacheKey& key, const std::uint8_t* payload,
                     std::size_t size) {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  if (mode_ == AttachMode::Follower) {
    throw StoreError("follower store is read-only (promote() to write)");
  }
  if (data_fd_ < 0) throw StoreError("store is broken (earlier I/O failure)");
  if (map_.count(key) != 0) {
    ++stats_.duplicate_puts;
    return false;
  }
  const std::uint64_t offset = data_size_;
  const std::uint64_t idx_committed = idx_size_;
  const std::uint64_t payload_checksum = checksum_bytes(payload, size);
  try {
    // Write-then-publish: the payload is on disk (and synced) before the
    // index record that makes it reachable exists at all.
    ops_->write_all(data_fd_, payload, size);
    ops_->sync_file(data_fd_);
    const auto rec = encode_record(key, offset,
                                   static_cast<std::uint32_t>(size),
                                   payload_checksum);
    ops_->write_all(idx_fd_, rec.data(), rec.size());
    ops_->sync_file(idx_fd_);
  } catch (const IoError& e) {
    rollback_tail(offset, idx_committed);
    rethrow_as_store_error("store put", e);
  }
  data_size_ = offset + size;
  idx_size_ = idx_committed + kRecordSize;
  map_.emplace(key, Entry{offset, static_cast<std::uint32_t>(size),
                          payload_checksum});
  order_.push_back(key);
  ++stats_.puts;
  if (options_.max_entries != 0) {
    while (map_.size() > options_.max_entries) evict_oldest_locked();
  }
  if (options_.compact_dead_fraction > 0 && dead_bytes_ > 0 &&
      static_cast<double>(dead_bytes_) >
          options_.compact_dead_fraction * static_cast<double>(data_size_)) {
    compact_locked(/*force=*/false);
  }
  return true;
}

bool FrontStore::put(const FrontCacheKey& key,
                     const std::vector<std::uint8_t>& payload) {
  return put(key, payload.data(), payload.size());
}

std::optional<std::vector<std::uint8_t>> FrontStore::get(
    const FrontCacheKey& key) {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  ++stats_.gets;
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  if (data_fd_ < 0) throw StoreError("store is broken (earlier I/O failure)");
  const Entry entry = it->second;
  std::vector<std::uint8_t> payload(entry.length);
  bool read_ok = false;
  try {
    read_ok = entry.length == 0 ||
              ops_->pread_all(data_fd_, payload.data(), payload.size(),
                              entry.offset);
  } catch (const IoError& e) {
    rethrow_as_store_error("store get", e);
  }
  if (!read_ok ||
      checksum_bytes(payload.data(), payload.size()) != entry.checksum) {
    // Verified at recovery, wrong now: the bytes rotted underneath us.
    // Drop the entry rather than serve it.
    ++stats_.corrupt_reads;
    dead_bytes_ += entry.length;
    order_.erase(std::find(order_.begin(), order_.end(), key));
    map_.erase(it);
    return std::nullopt;
  }
  ++stats_.get_hits;
  return payload;
}

bool FrontStore::contains(const FrontCacheKey& key) const {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  return map_.count(key) != 0;
}

void FrontStore::evict_oldest_locked() {
  const FrontCacheKey victim = order_.front();
  order_.pop_front();
  const auto it = map_.find(victim);
  dead_bytes_ += it->second.length;
  map_.erase(it);
  ++stats_.evictions;
}

void FrontStore::drop_generation_files(std::uint64_t gen) noexcept {
  // Unreferenced once CURRENT moved on; failing to remove them only
  // leaks disk, so errors are ignored.
  try {
    ops_->remove_file(data_path(gen));
  } catch (...) {
  }
  try {
    ops_->remove_file(idx_path(gen));
  } catch (...) {
  }
}

void FrontStore::compact(bool force) {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  if (mode_ == AttachMode::Follower) {
    throw StoreError("follower store is read-only (promote() to compact)");
  }
  if (data_fd_ < 0) throw StoreError("store is broken (earlier I/O failure)");
  try {
    compact_locked(force);
  } catch (const IoError& e) {
    rethrow_as_store_error("store compact", e);
  }
}

void FrontStore::compact_locked(bool force) {
  if (!force && dead_bytes_ == 0) return;
  const std::uint64_t new_gen = next_free_generation();
  const std::string new_data = data_path(new_gen);
  const std::string new_idx = idx_path(new_gen);
  int new_data_fd = -1;
  int new_idx_fd = -1;
  std::unordered_map<FrontCacheKey, Entry, KeyHash> new_map;
  std::uint64_t new_data_size = kHeaderSize;
  std::uint64_t new_idx_size = kHeaderSize;
  try {
    new_data_fd = ops_->open_file(new_data, FileOps::OpenMode::Truncate);
    new_idx_fd = ops_->open_file(new_idx, FileOps::OpenMode::Truncate);
    const auto data_header = make_header(kDataMagic);
    const auto idx_header = make_header(kIdxMagic);
    ops_->write_all(new_data_fd, data_header.data(), data_header.size());
    ops_->write_all(new_idx_fd, idx_header.data(), idx_header.size());
    std::vector<std::uint8_t> payload;
    for (const FrontCacheKey& key : order_) {
      const Entry& old_entry = map_.at(key);
      payload.resize(old_entry.length);
      if (old_entry.length != 0 &&
          !ops_->pread_all(data_fd_, payload.data(), payload.size(),
                           old_entry.offset)) {
        throw IoError("compact: live payload unreadable");
      }
      ops_->write_all(new_data_fd, payload.data(), payload.size());
      const auto rec =
          encode_record(key, new_data_size, old_entry.length,
                        old_entry.checksum);
      ops_->write_all(new_idx_fd, rec.data(), rec.size());
      new_map.emplace(key, Entry{new_data_size, old_entry.length,
                                 old_entry.checksum});
      new_data_size += old_entry.length;
      new_idx_size += kRecordSize;
    }
    ops_->sync_file(new_data_fd);
    ops_->sync_file(new_idx_fd);
    // The point of no return: after this rename + dir sync, the new
    // generation is the store. Any failure before it leaves CURRENT on
    // the old, fully intact generation.
    publish_current(new_gen);
  } catch (...) {
    if (new_data_fd >= 0) ops_->close_fd(new_data_fd);
    if (new_idx_fd >= 0) ops_->close_fd(new_idx_fd);
    try {
      if (ops_->exists(new_data)) ops_->remove_file(new_data);
      if (ops_->exists(new_idx)) ops_->remove_file(new_idx);
    } catch (...) {
    }
    throw;
  }
  const std::uint64_t old_gen = gen_;
  close_files();
  gen_ = new_gen;
  data_fd_ = new_data_fd;
  idx_fd_ = new_idx_fd;
  data_size_ = new_data_size;
  idx_size_ = new_idx_size;
  map_ = std::move(new_map);
  dead_bytes_ = 0;
  ++stats_.compactions;
  drop_generation_files(old_gen);
}

StoreStats FrontStore::stats() const {
  const std::lock_guard<AdaptiveMutex> lock(mutex_);
  StoreStats out = stats_;
  out.entries = map_.size();
  out.data_bytes = data_size_;
  out.dead_bytes = dead_bytes_;
  return out;
}

}  // namespace adtp::store
