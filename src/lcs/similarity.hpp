// Similarity evaluation between a query image and a database image (paper
// §4): the modified-LCS length of each axis pair, normalized and averaged.
//
// The paper's evaluation "can evaluate all similarity no matter how the
// matched LCS string whether appears all query objects or not, or whether
// appears all spatial relationships or not" — i.e. partial matches score
// proportionally instead of being filtered out. The normalization policy is
// configurable; the default divides by the query string length ("how much of
// the query appears in the database image"), which is the reading that makes
// sim(q, d) == 1 exactly when q is fully embedded in d.
#pragma once

#include <span>
#include <vector>

#include "core/be_string.hpp"
#include "core/transform.hpp"
#include "lcs/be_lcs.hpp"
#include "lcs/prepared_axis.hpp"

namespace bes {

enum class norm_kind : std::uint8_t {
  query,    // lcs / |q|            (paper default: partial-query emphasis)
  max_len,  // lcs / max(|q|, |d|)  (symmetric, penalizes extra db content)
  dice,     // 2*lcs / (|q| + |d|)  (Sorensen-Dice)
  min_len,  // lcs / min(|q|, |d|)  (containment)
};

// Validating conversion for norm_kind values arriving from outside the type
// system (report JSON, CLI flags): throws std::invalid_argument on anything
// without an enumerator instead of letting a raw static_cast smuggle an
// out-of-enum value into the scoring switch.
[[nodiscard]] norm_kind checked_norm_kind(long long raw);

struct similarity_options {
  norm_kind norm = norm_kind::query;
  // Use the exact two-layer DP instead of the paper's signed-table variant.
  bool exact_lcs = false;

  friend bool operator==(const similarity_options&,
                         const similarity_options&) = default;
};

// Normalized similarity of one axis pair, in [0, 1]. The context-less
// overloads score through the calling thread's lcs_context.
[[nodiscard]] double axis_similarity(std::span<const token> q,
                                     std::span<const token> d,
                                     const similarity_options& options = {});
[[nodiscard]] double axis_similarity(std::span<const token> q,
                                     std::span<const token> d,
                                     const similarity_options& options,
                                     lcs_context& ctx);

// Both axes of one query orientation, each prepared once for scoring many
// records (lcs/prepared_axis.hpp).
struct prepared_strings {
  prepared_axis x;
  prepared_axis y;

  prepared_strings() = default;
  explicit prepared_strings(const be_string2d& q)
      : x(q.x.span()), y(q.y.span()) {}
};

// A query prepared once per scan: the identity orientation, plus — when
// built for transform-invariant scoring — the other 7 dihedral variants,
// indexed by static_cast<std::size_t>(dihedral). Every scan layer (flat,
// sharded, batch, planned, cache delta, shard server) scores through one
// of these; the pairwise overloads below build their own.
class prepared_query {
 public:
  // The empty query.
  prepared_query() : variants_(1) {}
  explicit prepared_query(const be_string2d& q, bool all_transforms = false);

  [[nodiscard]] const prepared_strings& identity() const noexcept {
    return variants_.front();
  }
  // One entry, or all_dihedral.size() entries in all_dihedral order.
  [[nodiscard]] std::span<const prepared_strings> variants() const noexcept {
    return variants_;
  }
  [[nodiscard]] bool all_transforms() const noexcept {
    return variants_.size() == all_dihedral.size();
  }

 private:
  std::vector<prepared_strings> variants_;
};

// Mean of the two axis similarities, in [0, 1].
[[nodiscard]] double similarity(const prepared_strings& q,
                                const be_string2d& d,
                                const similarity_options& options,
                                lcs_context& ctx);
// Pairwise: prepares each axis's shorter string in the context.
[[nodiscard]] double similarity(const be_string2d& q, const be_string2d& d,
                                const similarity_options& options = {});
[[nodiscard]] double similarity(const be_string2d& q, const be_string2d& d,
                                const similarity_options& options,
                                lcs_context& ctx);

// Thresholded similarity with an in-DP early-exit band: identical to
// similarity() whenever the true score is >= min_score. When the score is
// provably < min_score the axis DPs bail as soon as their best-achievable
// remaining value cannot reach the per-axis requirement, and an upper bound
// on the true score (itself < min_score) is returned. So the result is
// always >= the true score, and exact whenever it is >= min_score — which
// makes it safe for top-k pruning: candidates whose result falls below the
// running k-th score can be discarded without ever finishing their DP.
// y_cap is an optional admissible cap on the y-axis similarity (e.g. from
// token histograms) that tightens the x-axis band — the x axis is scored
// first, so only the not-yet-scored axis benefits from a cap; 1.0 when
// unknown.
[[nodiscard]] double similarity_bounded(const prepared_strings& q,
                                        const be_string2d& d,
                                        const similarity_options& options,
                                        double min_score, lcs_context& ctx,
                                        double y_cap = 1.0);

// Similarity under the best of the 8 linear transformations of the query
// (paper: rotation/reflection retrieval by string reversal).
struct transform_match {
  dihedral transform = dihedral::identity;
  double score = 0.0;
};

// `q` must be built with all_transforms (std::invalid_argument otherwise).
[[nodiscard]] transform_match best_transform_similarity(
    const prepared_query& q, const be_string2d& d,
    const similarity_options& options, lcs_context& ctx);

// Single-pair convenience: prepares the 8 variants internally. Scans over
// many records should prepare the query once instead.
[[nodiscard]] transform_match best_transform_similarity(
    const be_string2d& q, const be_string2d& d,
    const similarity_options& options = {});

}  // namespace bes
