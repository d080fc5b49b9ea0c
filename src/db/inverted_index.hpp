// Inverted symbol index: symbol -> posting list of image ids.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "symbolic/alphabet.hpp"

namespace bes {

class inverted_index {
 public:
  // Registers an image under each of its (distinct) symbols. Ids must be
  // added in increasing order so posting lists stay sorted. Two-phase for
  // the strong guarantee: every allocation (hash nodes, posting capacity)
  // happens before any posting lands, so a throwing add never leaves a
  // partial set of postings for `id` — at worst an empty list for a new
  // symbol, which is semantically invisible.
  void add(std::uint32_t id, std::span<const symbol_id> symbols);

  // Pre-sizes the posting-list hash for `symbol_count` distinct symbols so
  // a bulk load never rehashes mid-ingest.
  void reserve(std::size_t symbol_count) { lists_.reserve(symbol_count); }

  // Union of the posting lists of `symbols`, restricted to ids in
  // [lo, hi) (sorted, unique). Costs one binary search per list plus the
  // ids copied, never the ids outside the range. `hits` (if non-null)
  // receives the in-range ids copied before dedup.
  [[nodiscard]] std::vector<std::uint32_t> lookup_any(
      std::span<const symbol_id> symbols, std::uint32_t lo = 0,
      std::uint32_t hi = std::numeric_limits<std::uint32_t>::max(),
      std::size_t* hits = nullptr) const;

  [[nodiscard]] std::size_t postings(symbol_id symbol) const noexcept;
  [[nodiscard]] std::size_t distinct_symbols() const noexcept {
    return lists_.size();
  }

 private:
  std::unordered_map<symbol_id, std::vector<std::uint32_t>> lists_;
};

}  // namespace bes
