#include "lcs/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bes {

namespace {

// The one switch over norm_kind: both the score (normalize) and the band
// threshold (min_tokens_for) divide by this, so they can never disagree.
// An out-of-enum value (a static_cast from untrusted input that skipped
// checked_norm_kind) throws instead of silently normalizing by 1.0 —
// scores > 1 from that path used to survive all the way into reports.
double norm_denominator(std::size_t m, std::size_t n, norm_kind norm) {
  switch (norm) {
    case norm_kind::query:
      return static_cast<double>(m);
    case norm_kind::max_len:
      return static_cast<double>(std::max(m, n));
    case norm_kind::dice:
      return 0.5 * static_cast<double>(m + n);
    case norm_kind::min_len:
      return static_cast<double>(std::min(m, n));
  }
  throw std::invalid_argument("norm_denominator: invalid norm_kind " +
                              std::to_string(static_cast<int>(norm)));
}

}  // namespace

norm_kind checked_norm_kind(long long raw) {
  switch (raw) {
    case static_cast<long long>(norm_kind::query):
    case static_cast<long long>(norm_kind::max_len):
    case static_cast<long long>(norm_kind::dice):
    case static_cast<long long>(norm_kind::min_len):
      return static_cast<norm_kind>(raw);
    default:
      throw std::invalid_argument("checked_norm_kind: invalid norm_kind " +
                                  std::to_string(raw));
  }
}

namespace {

double normalize(std::size_t lcs, std::size_t m, std::size_t n,
                 norm_kind norm) {
  if (m == 0 || n == 0) return 0.0;
  return static_cast<double>(lcs) / norm_denominator(m, n, norm);
}

// Anything within this margin of a threshold is scored exactly instead of
// pruned. It absorbs the rounding of the derived axis requirements (a few
// ulps), so candidates at the exact float threshold — where top-k ties are
// decided — always take the same path as an exhaustive scan, and every
// early return sits a full margin below min_score even after rounding.
constexpr double band_margin = 1e-9;

// Smallest LCS length whose normalized value reaches `target` less the
// margin; float error can only weaken the band (stay admissible), never
// discard a candidate whose score ties the threshold.
std::size_t min_tokens_for(double target, std::size_t m, std::size_t n,
                           norm_kind norm) {
  if (m == 0 || n == 0) return 0;
  const double cells = (target - band_margin) * norm_denominator(m, n, norm);
  if (cells <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(cells));
}

std::size_t axis_lcs(const prepared_axis& q, std::span<const token> d,
                     const similarity_options& options, std::size_t min_needed,
                     lcs_context& ctx) {
  return options.exact_lcs
             ? be_lcs_length_exact_bounded(q, d, min_needed, ctx)
             : be_lcs_length_bounded(q, d, min_needed, ctx);
}

}  // namespace

double axis_similarity(std::span<const token> q, std::span<const token> d,
                       const similarity_options& options) {
  return axis_similarity(q, d, options, lcs_context::thread_local_instance());
}

double axis_similarity(std::span<const token> q, std::span<const token> d,
                       const similarity_options& options, lcs_context& ctx) {
  const std::size_t lcs = options.exact_lcs ? be_lcs_length_exact(q, d, ctx)
                                            : be_lcs_length(q, d, ctx);
  return normalize(lcs, q.size(), d.size(), options.norm);
}

prepared_query::prepared_query(const be_string2d& q, bool all_transforms) {
  if (!all_transforms) {
    variants_.emplace_back(q);
    return;
  }
  variants_.reserve(all_dihedral.size());
  for (dihedral t : all_dihedral) variants_.emplace_back(apply(t, q));
}

double similarity(const prepared_strings& q, const be_string2d& d,
                  const similarity_options& options, lcs_context& ctx) {
  const std::size_t lx = axis_lcs(q.x, d.x.span(), options, 0, ctx);
  const std::size_t ly = axis_lcs(q.y, d.y.span(), options, 0, ctx);
  return 0.5 * (normalize(lx, q.x.size(), d.x.size(), options.norm) +
                normalize(ly, q.y.size(), d.y.size(), options.norm));
}

double similarity(const be_string2d& q, const be_string2d& d,
                  const similarity_options& options) {
  return similarity(q, d, options, lcs_context::thread_local_instance());
}

double similarity(const be_string2d& q, const be_string2d& d,
                  const similarity_options& options, lcs_context& ctx) {
  return 0.5 * (axis_similarity(q.x.span(), d.x.span(), options, ctx) +
                axis_similarity(q.y.span(), d.y.span(), options, ctx));
}

double similarity_bounded(const prepared_strings& q, const be_string2d& d,
                          const similarity_options& options, double min_score,
                          lcs_context& ctx, double y_cap) {
  y_cap = std::min(y_cap, 1.0);
  // The x axis must reach 2*min_score - y_cap for the pair to stay alive.
  const std::size_t mx = q.x.size();
  const std::size_t nx = d.x.size();
  const double need_x = 2.0 * min_score - y_cap;
  const std::size_t band_x = min_tokens_for(need_x, mx, nx, options.norm);
  const std::size_t lx = axis_lcs(q.x, d.x.span(), options, band_x, ctx);
  const double sx = normalize(lx, mx, nx, options.norm);
  // The shortcut is decided in integer token space — floats at the exact
  // threshold would be rounding-dependent. lx < band_x covers both a bailed
  // DP (its result is an upper bound < band_x) and an exact value below the
  // band; either way the true x score sits a full margin under need_x, so
  // the total stays strictly < min_score even after rounding. lx >= band_x
  // implies the DP finished, making sx exact.
  if (lx < band_x) return 0.5 * (sx + y_cap);

  const std::size_t my = q.y.size();
  const std::size_t ny = d.y.size();
  const double need_y = 2.0 * min_score - sx;
  const std::size_t band_y = min_tokens_for(need_y, my, ny, options.norm);
  const std::size_t ly = axis_lcs(q.y, d.y.span(), options, band_y, ctx);
  const double sy = normalize(ly, my, ny, options.norm);
  return 0.5 * (sx + sy);
}

transform_match best_transform_similarity(const prepared_query& q,
                                          const be_string2d& d,
                                          const similarity_options& options,
                                          lcs_context& ctx) {
  if (!q.all_transforms()) {
    throw std::invalid_argument(
        "best_transform_similarity: query not prepared with all transforms");
  }
  transform_match best;
  best.score = -1.0;
  for (dihedral t : all_dihedral) {
    const prepared_strings& variant = q.variants()[static_cast<std::size_t>(t)];
    // Once one variant is scored, the rest only matter if they beat it, so
    // they run under the early-exit band at the current best. Ties keep the
    // earlier transform, exactly like an unbanded strict-greater scan.
    const double score =
        best.score < 0.0
            ? similarity(variant, d, options, ctx)
            : similarity_bounded(variant, d, options, best.score, ctx);
    if (score > best.score) {
      best = transform_match{t, score};
    }
  }
  return best;
}

transform_match best_transform_similarity(const be_string2d& q,
                                          const be_string2d& d,
                                          const similarity_options& options) {
  return best_transform_similarity(prepared_query(q, /*all_transforms=*/true),
                                   d, options,
                                   lcs_context::thread_local_instance());
}

}  // namespace bes
