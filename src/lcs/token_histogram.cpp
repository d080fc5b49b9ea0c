#include "lcs/token_histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace bes {

namespace {

bool token_less(token a, token b) noexcept {
  // Total order: dummy first, then boundary (symbol, kind) order.
  if (a.is_dummy() != b.is_dummy()) return a.is_dummy();
  if (a.is_dummy()) return false;
  return a < b;
}

}  // namespace

token_histogram::token_histogram(std::span<const token> tokens) {
  std::vector<token> sorted(tokens.begin(), tokens.end());
  std::sort(sorted.begin(), sorted.end(), token_less);
  for (token t : sorted) {
    if (!counts_.empty() && counts_.back().value == t) {
      ++counts_.back().count;
    } else {
      counts_.push_back(bucket{t, 1});
    }
  }
  total_ = tokens.size();
}

token_histogram token_histogram::from_buckets(std::vector<bucket> buckets) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].count == 0) {
      throw std::invalid_argument("token_histogram: zero-count bucket");
    }
    if (i > 0 && !token_less(buckets[i - 1].value, buckets[i].value)) {
      throw std::invalid_argument("token_histogram: buckets out of order");
    }
    total += buckets[i].count;
  }
  token_histogram out;
  out.counts_ = std::move(buckets);
  out.total_ = total;
  return out;
}

std::size_t token_histogram::intersection_size(
    const token_histogram& a, const token_histogram& b) noexcept {
  std::size_t shared = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.counts_.size() && j < b.counts_.size()) {
    if (token_less(a.counts_[i].value, b.counts_[j].value)) {
      ++i;
    } else if (token_less(b.counts_[j].value, a.counts_[i].value)) {
      ++j;
    } else {
      shared += std::min(a.counts_[i].count, b.counts_[j].count);
      ++i;
      ++j;
    }
  }
  return shared;
}

be_histogram2d make_histograms(const be_string2d& strings) {
  return be_histogram2d{token_histogram(strings.x.span()),
                        token_histogram(strings.y.span()), strings.x.size(),
                        strings.y.size()};
}

double axis_similarity_upper_bound(std::size_t shared, std::size_t q_len,
                                   std::size_t d_len, norm_kind norm) {
  if (q_len == 0 || d_len == 0) return 0.0;
  const auto s = static_cast<double>(shared);
  switch (norm) {
    case norm_kind::query:
      return s / static_cast<double>(q_len);
    case norm_kind::max_len:
      return s / static_cast<double>(std::max(q_len, d_len));
    case norm_kind::dice:
      return 2.0 * s / static_cast<double>(q_len + d_len);
    case norm_kind::min_len:
      return s / static_cast<double>(std::min(q_len, d_len));
  }
  return 1.0;
}

double axis_similarity_upper_bound(const token_histogram& q,
                                   std::size_t q_len, const token_histogram& d,
                                   std::size_t d_len, norm_kind norm) {
  return axis_similarity_upper_bound(token_histogram::intersection_size(q, d),
                                     q_len, d_len, norm);
}

double similarity_upper_bound(const be_histogram2d& q, const be_histogram2d& d,
                              norm_kind norm) {
  return 0.5 *
         (axis_similarity_upper_bound(q.x, q.x_len, d.x, d.x_len, norm) +
          axis_similarity_upper_bound(q.y, q.y_len, d.y, d.y_len, norm));
}

}  // namespace bes
