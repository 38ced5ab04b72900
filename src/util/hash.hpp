/// \file hash.hpp
/// \brief Deterministic content hashing: FNV-1a for keys that are
///        persisted or pinned, WordHash for process-local keys.
///
/// Fnv1a keys the FrontCache (and through it the store), the options
/// hash and the node memo's contexts: content rather than object
/// identity, so two independently built but byte-identical models hash
/// equal and a cache shared across batches or restarts still hits. Its
/// values are pinned by tests and stored on disk, so they never change.
/// Doubles are hashed by bit pattern with -0.0 folded onto +0.0 (the
/// only pair of distinct patterns the analysis treats as equal values).
///
/// WordHash keys the node memo (core/node_memo.hpp): subtree hashes and
/// value keys, recomputed on every memoized run and never stored, so
/// they may change between builds. It consumes whole 64-bit words, an
/// order of magnitude faster than FNV-1a's byte loop; its callers feed
/// doubles as raw bit patterns (std::bit_cast), so only bit-identical
/// values agree.
///
/// Neither is cryptographic. Both hashers are streaming and
/// order-sensitive: feed fields in a fixed canonical order.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace adtp {

/// A streaming FNV-1a 64-bit hasher.
class Fnv1a {
 public:
  Fnv1a() = default;

  Fnv1a& bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
    return *this;
  }

  Fnv1a& u64(std::uint64_t v) noexcept { return bytes(&v, sizeof(v)); }
  Fnv1a& u32(std::uint32_t v) noexcept { return bytes(&v, sizeof(v)); }
  Fnv1a& u8(std::uint8_t v) noexcept { return bytes(&v, sizeof(v)); }
  Fnv1a& size(std::size_t v) noexcept {
    return u64(static_cast<std::uint64_t>(v));
  }
  Fnv1a& boolean(bool v) noexcept { return u8(v ? 1 : 0); }

  /// Hashes the IEEE-754 bit pattern, folding -0.0 onto +0.0.
  Fnv1a& f64(double v) noexcept {
    return u64(std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
  }

  /// Hashes length then contents, so {"ab","c"} and {"a","bc"} differ.
  Fnv1a& str(std::string_view s) noexcept {
    size(s.size());
    return bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t state_ = kOffset;
};

/// A fast streaming hash of 64-bit words (see the file comment). Each
/// step multiplies two words into a 128-bit product and folds its halves
/// together with xor, so every input bit reaches the output; both
/// operands carry the running state, so no single word value zeroes the
/// product whatever came before it. The node memo's keys *are* these
/// hashes (a collision would replay a wrong front), so
/// `ValueKeys.*` in tests/core/node_memo_test.cpp pins their strength
/// on the small-integer fronts a weaker mixer collides on.
class WordHash {
 public:
  /// Mixes two words with one multiply.
  constexpr WordHash& pair(std::uint64_t a, std::uint64_t b) noexcept {
    state_ = mul_fold(a ^ state_ ^ kSecret0,
                      b ^ std::rotr(state_, 32) ^ kSecret1);
    return *this;
  }

  constexpr WordHash& word(std::uint64_t w) noexcept {
    return pair(w, kSecret2);
  }

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return state_;
  }

 private:
  /// The 64x64 -> 128-bit product of \p a and \p b, halves xored.
  static constexpr std::uint64_t mul_fold(std::uint64_t a,
                                          std::uint64_t b) noexcept {
    const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(p) ^
           static_cast<std::uint64_t>(p >> 64);
  }

  // wyhash's default secrets: odd, with balanced bits.
  static constexpr std::uint64_t kSecret0 = 0xa0761d6478bd642fULL;
  static constexpr std::uint64_t kSecret1 = 0xe7037ed1a0b428dbULL;
  static constexpr std::uint64_t kSecret2 = 0x8ebc6af09c88c6e3ULL;
  std::uint64_t state_ = 0x589965cc75374cc3ULL;
};

/// Boost-style combiner for pre-computed 64-bit hashes.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t value) noexcept {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace adtp
