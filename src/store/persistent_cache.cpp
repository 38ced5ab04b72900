#include "store/persistent_cache.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "store/codec.hpp"

namespace adtp::store {

PersistentFrontCache::PersistentFrontCache(std::string dir,
                                           PersistentCacheOptions options)
    : FrontCache(options.memory_capacity), options_(std::move(options)) {
  // Transient open failures (most commonly a follower attaching before
  // the writer has published CURRENT) are polled within the configured
  // grace period; anything permanent - or the grace running out -
  // degrades to memory-only as before.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.open_retry_seconds));
  for (;;) {
    try {
      store_ = std::make_shared<FrontStore>(dir, options_.store);
      recovery_ = store_->recovery();
      break;
    } catch (const StoreError& e) {
      ++pstats_.store_errors;
      if (!e.transient() || std::chrono::steady_clock::now() >= deadline) {
        degrade_locked(std::string("open failed: ") + e.what());
        break;
      }
      ++pstats_.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

PersistentFrontCache::~PersistentFrontCache() = default;

void PersistentFrontCache::note(const std::string& what) {
  if (options_.on_store_error) options_.on_store_error(what);
}

void PersistentFrontCache::degrade_locked(const std::string& why) {
  store_.reset();
  pstats_.degraded = true;
  note("persistent front cache degraded to memory-only: " + why);
}

std::shared_ptr<FrontStore> PersistentFrontCache::snapshot() const {
  const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
  return store_;
}

template <typename Fn>
auto PersistentFrontCache::with_retry(const char* doing, Fn&& fn)
    -> std::optional<decltype(fn(std::declval<FrontStore&>()))> {
  double backoff = options_.retry_backoff_seconds;
  for (int attempt = 0;; ++attempt) {
    // Re-snapshot each attempt: a concurrent degrade ends the retries.
    const std::shared_ptr<FrontStore> store = snapshot();
    if (store == nullptr) return std::nullopt;
    try {
      return fn(*store);
    } catch (const StoreError& e) {
      const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
      ++pstats_.store_errors;
      if (!e.transient() || attempt >= options_.max_retries) {
        degrade_locked(std::string(doing) + ": " + e.what());
        return std::nullopt;
      }
      ++pstats_.retries;
    }
    // The sleep holds no lock: other keys keep hitting the store (it is
    // internally synchronized) while this operation backs off.
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2;
    }
  }
}

std::optional<AnalysisResult> PersistentFrontCache::lookup(
    const FrontCacheKey& key) {
  if (auto hit = FrontCache::lookup(key)) return hit;
  // Memory miss (booked as such in the base stats); consult the store.
  const auto payload =
      with_retry("get", [&](FrontStore& store) { return store.get(key); });
  if (!payload.has_value() || !payload->has_value()) return std::nullopt;
  AnalysisResult result;
  try {
    result = decode_result((*payload)->data(), (*payload)->size());
  } catch (const CodecError& e) {
    // Checksums passed but the bytes don't decode (version skew, codec
    // bug). Count it, never serve it; the store itself stays up.
    const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
    ++pstats_.decode_failures;
    note(std::string("stored payload failed to decode: ") + e.what());
    return std::nullopt;
  }
  {
    const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
    ++pstats_.store_hits;
  }
  FrontCache::insert(key, result);  // promote so the next hit is memory
  return result;
}

bool PersistentFrontCache::insert(const FrontCacheKey& key,
                                  const AnalysisResult& result) {
  const bool fresh = FrontCache::insert(key, result);
  // A disabled memory tier never reports an entry fresh; the store's own
  // duplicate check decides then.
  if (!fresh && capacity() != 0) return false;
  const std::shared_ptr<FrontStore> store = snapshot();
  // A follower never appends; the entry stays memory-only until this
  // process is promoted to writer (the check is the store's live mode,
  // so post-promotion inserts persist without reconstruction).
  if (store == nullptr || store->follower()) return true;
  const std::vector<std::uint8_t> payload = encode_result(result);
  const auto wrote = with_retry(
      "put", [&](FrontStore& s) { return s.put(key, payload); });
  if (wrote.has_value() && *wrote) {
    const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
    ++pstats_.store_writes;
  }
  return true;
}

bool PersistentFrontCache::persistent() const {
  const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
  return store_ != nullptr;
}

bool PersistentFrontCache::follower() const {
  const std::shared_ptr<FrontStore> store = snapshot();
  return store != nullptr && store->follower();
}

PersistentCacheStats PersistentFrontCache::persistence_stats() const {
  const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
  return pstats_;
}

std::optional<RecoveryReport> PersistentFrontCache::recovery() const {
  const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
  return recovery_;
}

std::optional<StoreStats> PersistentFrontCache::store_stats() const {
  const std::shared_ptr<FrontStore> store = snapshot();
  if (store == nullptr) return std::nullopt;
  return store->stats();
}

std::optional<RefreshReport> PersistentFrontCache::refresh() {
  return with_retry("refresh",
                    [&](FrontStore& store) { return store.refresh(); });
}

bool PersistentFrontCache::promote() {
  // Not with_retry: "the writer is still alive" is the expected answer
  // while polling, and must never degrade the cache (contract 5 says
  // analysis keeps working; a follower that failed to promote keeps
  // serving reads).
  const std::shared_ptr<FrontStore> store = snapshot();
  if (store == nullptr) return false;
  try {
    store->promote();
    return true;
  } catch (const StoreError& e) {
    const std::lock_guard<AdaptiveMutex> lock(store_mutex_);
    ++pstats_.store_errors;
    note(std::string("promote failed: ") + e.what());
    return false;
  }
}

}  // namespace adtp::store
