#include "core/front_cache.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace adtp {

namespace {

std::uint64_t structure_hash(const Adt& adt) {
  Fnv1a h;
  h.size(adt.size());
  h.u32(adt.root());
  for (const Node& n : adt.nodes()) {
    h.u8(static_cast<std::uint8_t>(n.type));
    h.u8(static_cast<std::uint8_t>(n.agent));
    h.size(n.children.size());
    for (NodeId c : n.children) h.u32(c);
  }
  return h.digest();
}

std::uint64_t attribution_hash(const AugmentedAdt& aadt) {
  Fnv1a h;
  // Built-in kinds are fully described by their enum tag (one/zero and the
  // operators are functions of the kind).
  h.u8(static_cast<std::uint8_t>(aadt.defender_domain().kind()));
  h.u8(static_cast<std::uint8_t>(aadt.attacker_domain().kind()));
  const Adt& adt = aadt.adt();
  h.size(adt.num_attacks());
  for (std::size_t i = 0; i < adt.num_attacks(); ++i) {
    h.f64(aadt.attack_value(i));
  }
  h.size(adt.num_defenses());
  for (std::size_t i = 0; i < adt.num_defenses(); ++i) {
    h.f64(aadt.defense_value(i));
  }
  return h.digest();
}

std::uint64_t options_hash(const AnalysisOptions& options) {
  // Every result field - one that can change the produced front *or*
  // turn a success into a guard failure - participates; options.run and
  // intra_model_threads do not (see the header's key contract): they are
  // result-invariant by construction, so a sequential run must hit the
  // cache entry a sharded run stored, and vice versa.
  Fnv1a h;
  h.u8(static_cast<std::uint8_t>(options.algorithm));
  h.size(options.naive.max_bits);
  h.size(options.bottom_up.max_front_points);
  hash_result_fields(h, options.bdd);
  hash_result_fields(h, options.hybrid.bdd);
  return h.digest();
}

}  // namespace

bool cacheable(const AugmentedAdt& aadt) {
  return aadt.defender_domain().kind() != SemiringKind::Custom &&
         aadt.attacker_domain().kind() != SemiringKind::Custom;
}

FrontCacheKey front_cache_key(const AugmentedAdt& aadt,
                              const AnalysisOptions& options) {
  if (!cacheable(aadt)) {
    throw Error(
        "front_cache_key: custom semiring domains cannot be content-hashed");
  }
  FrontCacheKey key;
  key.structure = structure_hash(aadt.adt());
  key.attribution = attribution_hash(aadt);
  key.options = options_hash(options);
  return key;
}

std::size_t FrontCache::KeyHash::operator()(
    const FrontCacheKey& k) const noexcept {
  std::uint64_t h = hash_combine(k.structure, k.attribution);
  h = hash_combine(h, k.options);
  return static_cast<std::size_t>(h);
}

FrontCache::FrontCache(std::size_t capacity) : memory_(capacity) {}

FrontCache::~FrontCache() = default;

std::optional<AnalysisResult> FrontCache::lookup(const FrontCacheKey& key) {
  AnalysisResult hit;
  if (!memory_.lookup(key, hit)) return std::nullopt;
  return hit;
}

bool FrontCache::insert(const FrontCacheKey& key,
                        const AnalysisResult& result) {
  return memory_.insert(key, result);
}

FrontCache::Served FrontCache::get_or_compute(
    const FrontCacheKey& key, const std::function<AnalysisResult()>& compute) {
  // A hit needs no single-flight state, so the first lookup runs before
  // the lock: concurrent hits never queue behind one another (or behind
  // a PersistentFrontCache's store reads) on flight_mutex_.
  if (std::optional<AnalysisResult> hit = lookup(key)) {
    return {std::move(*hit), /*cached=*/true};
  }
  std::unique_lock<std::mutex> flight(flight_mutex_);
  // That lookup and each failed one below book a miss; all but the one
  // that sticks (the computing caller's first) are provisional and get
  // uncounted, so a call counts exactly one of {hit, miss}.
  std::uint64_t provisional = 1;
  for (;;) {
    if (std::optional<AnalysisResult> hit = lookup(key)) {
      uncounted_misses_ += provisional;
      if (provisional > 1) ++coalesced_;
      return {std::move(*hit), /*cached=*/true};
    }
    ++provisional;
    if (in_flight_.insert(key).second) break;
    flight_cv_.wait(flight);
  }
  uncounted_misses_ += provisional - 1;
  flight.unlock();

  // The key is this caller's until the release below runs - after the
  // insert on success, during unwinding when compute (or the insert)
  // throws - and the release wakes every waiter either way.
  struct Release {
    FrontCache& cache;
    const FrontCacheKey& key;
    ~Release() {
      {
        const std::lock_guard<std::mutex> lock(cache.flight_mutex_);
        cache.in_flight_.erase(key);
      }
      cache.flight_cv_.notify_all();
    }
  } release{*this, key};
  AnalysisResult result = compute();
  {
    const std::lock_guard<std::mutex> lock(flight_mutex_);
    insert(key, result);
  }
  return {std::move(result), /*cached=*/false};
}

FrontCache::Stats FrontCache::stats() const {
  // The corrections are read first: each is booked only after the misses
  // it uncounts, so the subtraction below never wraps.
  const std::uint64_t uncounted = uncounted_misses_.load();
  Stats out{memory_.stats(), coalesced_.load()};
  out.misses -= uncounted;
  return out;
}

void FrontCache::clear() {
  uncounted_misses_ = 0;
  coalesced_ = 0;
  memory_.clear();
}

}  // namespace adtp
