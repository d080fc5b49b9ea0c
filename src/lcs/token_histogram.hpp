// Token histograms: an admissible upper bound for the (constrained) LCS.
//
// Any common subsequence of two strings uses each token value at most
// min(count_q, count_d) times, so the multiset-intersection size bounds the
// LCS length from above. The bound costs O(u) per pair (u = distinct token
// values, typically tiny) against O(mn) for the LCS itself, which makes it
// an effective top-k scan pruner (db/query.cpp): candidates whose bound
// cannot beat the current k-th score are skipped without running the DP.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/be_string.hpp"
#include "lcs/similarity.hpp"

namespace bes {

// Sorted (token, count) pairs.
class token_histogram {
 public:
  struct bucket {
    token value;
    std::uint32_t count = 0;
    friend bool operator==(const bucket&, const bucket&) = default;
  };

  token_histogram() = default;
  explicit token_histogram(std::span<const token> tokens);

  // Rebuilds a histogram from persisted buckets (the BSEG1 segment stores
  // them so a load never re-sorts token streams). Validates the invariant —
  // strictly increasing in histogram token order, all counts nonzero — and
  // throws std::invalid_argument when it does not hold.
  [[nodiscard]] static token_histogram from_buckets(
      std::vector<bucket> buckets);

  // The sorted (token, count) buckets, for persistence.
  [[nodiscard]] const std::vector<bucket>& buckets() const noexcept {
    return counts_;
  }

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t distinct() const noexcept {
    return counts_.size();
  }

  // Multiset intersection size — an upper bound on lcs(a, b) and therefore
  // also on the constrained be_lcs(a, b).
  [[nodiscard]] static std::size_t intersection_size(
      const token_histogram& a, const token_histogram& b) noexcept;

  friend bool operator==(const token_histogram&,
                         const token_histogram&) = default;

 private:
  std::vector<bucket> counts_;  // sorted by token ordering
  std::size_t total_ = 0;
};

// Histograms for both axes of a 2D BE-string.
struct be_histogram2d {
  token_histogram x;
  token_histogram y;
  std::size_t x_len = 0;
  std::size_t y_len = 0;

  friend bool operator==(const be_histogram2d&,
                         const be_histogram2d&) = default;
};

[[nodiscard]] be_histogram2d make_histograms(const be_string2d& strings);

// Upper bound on one axis_similarity under the given normalization, from
// the multiset intersection size `shared` of the two axis strings (their
// histograms' intersection_size, or prepared_axis::shared_with); guaranteed
// >= the true axis score. The query path feeds these per-axis caps into
// similarity_bounded to tighten its in-DP early-exit band.
[[nodiscard]] double axis_similarity_upper_bound(std::size_t shared,
                                                 std::size_t q_len,
                                                 std::size_t d_len,
                                                 norm_kind norm);

// The same bound from the two axis histograms.
[[nodiscard]] double axis_similarity_upper_bound(const token_histogram& q,
                                                 std::size_t q_len,
                                                 const token_histogram& d,
                                                 std::size_t d_len,
                                                 norm_kind norm);

// Upper bound on similarity(q, d) under the given normalization, computed
// from histograms only; guaranteed >= the true score for the same norm.
[[nodiscard]] double similarity_upper_bound(const be_histogram2d& q,
                                            const be_histogram2d& d,
                                            norm_kind norm);

}  // namespace bes
