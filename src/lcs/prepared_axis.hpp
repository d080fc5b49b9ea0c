// One query axis prepared once for scoring many records.
//
// A top-k scan scores thousands of database strings against ONE query, so
// everything that depends only on the query is built here, once per query
// axis (and once per dihedral variant for transform-invariant scans), and
// shared by every pair of the scan:
//   - the query's tokens (the columns of every LCS pair),
//   - the word-packed column masks of the bit-parallel kernel: one row of
//     words() words per distinct query token, bit j set iff token j equals
//     it, plus a shared all-zero row for tokens the query does not contain,
//   - the per-token counts behind the pruner's histogram bound.
//
// Lookup is a two-level perfect hash on lcs_detail::token_key (hash and
// displace): one multiply splits the key into a bucket and an offset, the
// bucket's displacement rotates the offset onto the key's own slot, and one
// compare selects between the token's row and the zero row — one extra load,
// no probe loop and no branch. Memory grows with the query, never with the
// alphabet (symbol ids span all of uint32_t): distinct() tokens take
// bit_ceil(distinct) buckets, four slots per bucket and one mask row each,
// whatever their ids. The multiplier is drawn at prepare time from a
// per-process random sequence until the displacements fit
// (prepared_axis.cpp), so no chosen set of ids can force a larger table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/token.hpp"

namespace bes {

class token_histogram;

namespace lcs_detail {

// Tokens packed into keys below 2^33 for the kernels' compare tables: 0 for
// the dummy (all dummies share it, matching the histogram order), and
// 2 * symbol + kind + 1 for a boundary, so a densely interned alphabet of A
// symbols maps onto 1..2A.
[[nodiscard]] inline std::uint64_t token_key(token t) noexcept {
  const std::uint64_t boundary =
      ((static_cast<std::uint64_t>(t.symbol()) << 1) |
       static_cast<std::uint64_t>(t.kind())) + 1;
  // A mask, not a conditional: compilers turn the latter into a branch that
  // mispredicts on every dummy of a scanned string.
  const auto keep = static_cast<std::uint64_t>(!t.is_dummy());
  return boundary & (std::uint64_t{0} - keep);
}

}  // namespace lcs_detail

class prepared_axis {
 public:
  prepared_axis() = default;
  explicit prepared_axis(std::span<const token> tokens) { assign(tokens); }

  // Re-prepares for `tokens`, reusing this object's buffers (the pairwise
  // entry points keep one per lcs_context, so they allocate O(1) times).
  void assign(std::span<const token> tokens);

  [[nodiscard]] std::span<const token> tokens() const noexcept {
    return tokens_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return tokens_.size(); }
  // Words per column mask: ceil(size() / 64).
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  [[nodiscard]] std::size_t distinct() const noexcept {
    return counts_.size() - 1;
  }

  // The words() mask words of `t`: bit j of word j / 64 is set iff
  // tokens()[j] == t; all zeros when the query lacks t.
  [[nodiscard]] const std::uint64_t* mask(token t) const noexcept {
    return masks_.data() + row_of(t) * words_;
  }

  // Occurrences of `t` in tokens().
  [[nodiscard]] std::uint32_t count(token t) const noexcept {
    return counts_[row_of(t)];
  }

  // Multiset intersection size of tokens() with `h` — exactly
  // token_histogram::intersection_size(token_histogram(tokens()), h), at
  // one lookup per bucket of h instead of a merge.
  [[nodiscard]] std::size_t shared_with(
      const token_histogram& h) const noexcept;

  // Bytes held by this axis (tokens, slots, displacements, masks, counts
  // and prepare-time scratch).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  // Slot entries pack (row << row_shift) | key. An empty slot holds 0 —
  // the dummy's key with row 0 — so a lookup landing on one always
  // selects the zero row: a dummy only reaches an empty slot when the query
  // has none.
  static constexpr unsigned row_shift = 34;
  static constexpr std::uint64_t key_bits = (std::uint64_t{1} << row_shift) - 1;

  // The top bits of key * multiplier_ pick the bucket, the bits below them
  // the offset that the bucket's displacement rotates. An offset keeps its
  // bucket's bits above the slot bits; the final mask drops them.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> bucket_shift_);
  }
  [[nodiscard]] std::size_t offset_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> offset_shift_);
  }
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    const std::uint64_t hash = key * multiplier_;
    return (offset_of(hash) + displacement_[bucket_of(hash)]) & slot_mask_;
  }

  // 1..distinct() for a token of the query, 0 (the zero row) otherwise.
  [[nodiscard]] std::size_t row_of(token t) const noexcept {
    const std::uint64_t key = lcs_detail::token_key(t);
    const std::uint64_t entry = slots_[slot_of(key)];
    // Selected by mask for the same reason as in token_key: a scanned
    // string's tokens hit and miss the query unpredictably.
    const auto found = static_cast<std::uint64_t>((entry & key_bits) == key);
    const std::uint64_t hit = std::uint64_t{0} - found;
    return static_cast<std::size_t>((entry >> row_shift) & hit);
  }

  // The slot entry of row k + 1.
  [[nodiscard]] std::uint64_t entry(std::uint32_t k) const noexcept {
    return ((std::uint64_t{k} + 1) << row_shift) | keys_[k];
  }

  // Fills slots_ and displacement_ for keys_ under `multiplier`, or returns
  // false (leaving both zeroed) when its buckets are too uneven to place.
  bool try_place(std::uint64_t multiplier);

  std::vector<token> tokens_;
  std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(8, 0);
  std::vector<std::uint32_t> displacement_ =
      std::vector<std::uint32_t>(2, 0);  // per bucket
  std::vector<std::uint64_t> masks_;  // (distinct + 1) rows; row 0 = zeros
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(1, 0);
  // Prepare-time scratch: the distinct keys (row r holds keys_[r - 1]),
  // each token's row, the key indices grouped by bucket (bucket b's from
  // bucket_start_[b] to bucket_start_[b + 1]), and the buckets to place in
  // order.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> token_rows_;
  std::vector<std::uint32_t> grouped_;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> order_;
  std::uint64_t multiplier_ = 1;
  unsigned bucket_shift_ = 63;  // 64 - log2(buckets)
  unsigned offset_shift_ = 60;  // bucket_shift_ - log2(slots)
  std::size_t slot_mask_ = 7;   // slots - 1
  std::size_t words_ = 0;
};

}  // namespace bes
