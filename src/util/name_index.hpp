/// \file name_index.hpp
/// \brief An open-addressing index from names to dense ids whose names
/// live in the owner's own storage.
///
/// Adt (node names) and Attribution (entry names) each keep their names
/// once, in their own records, and find them through a NameIndex: a
/// power-of-two table of (id, hash) slots, probed linearly and kept at
/// most half full. A lookup hashes the probe's std::string_view with
/// std::hash<std::string_view>, compares the stored hash first and only
/// then the owner's name, so it builds no temporary string. Growing
/// rehashes from the stored hash bits and never reads a name.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace adtp {

/// Names to dense 32-bit ids. Every operation that compares names takes
/// the owner's `name_of(id) -> std::string_view`.
class NameIndex {
 public:
  /// The id reported for a name that is not in the index.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// The id stored under \p name, or kAbsent.
  template <typename NameOf>
  [[nodiscard]] std::uint32_t find(std::string_view name,
                                   const NameOf& name_of) const {
    if (slots_.empty()) return kAbsent;
    const std::uint32_t h = hash(name);
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      const Slot s = slots_[i];
      if (s.id == kAbsent) return kAbsent;
      if (s.hash == h && name_of(s.id) == name) return s.id;
    }
  }

  /// Stores \p id under \p name unless the name is already present.
  /// Returns the id stored under \p name afterwards: \p id, or the
  /// earlier id on a duplicate (the index is then unchanged).
  /// \p name_of is only asked about ids already in the index.
  template <typename NameOf>
  std::uint32_t insert(std::string_view name, std::uint32_t id,
                       const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint32_t h = hash(name);
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.id == kAbsent) {
        s = Slot{id, h};
        ++size_;
        return id;
      }
      if (s.hash == h && name_of(s.id) == name) return s.id;
    }
  }

 private:
  struct Slot {
    std::uint32_t id = kAbsent;
    std::uint32_t hash = 0;  ///< low 32 bits of the name's std::hash
  };

  [[nodiscard]] static std::uint32_t hash(std::string_view name) noexcept {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// Doubles the table (16 slots at first) and re-seats every slot by
  /// its stored hash; stored names are distinct, so no name is compared.
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot s : old) {
      if (s.id == kAbsent) continue;
      std::size_t i = s.hash & mask();
      while (slots_[i].id != kAbsent) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace adtp
