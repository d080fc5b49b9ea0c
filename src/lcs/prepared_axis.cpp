#include "lcs/prepared_axis.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>

#include "lcs/token_histogram.hpp"
#include "util/rng.hpp"

namespace bes {

namespace {

using u64 = std::uint64_t;

// Keeps bucket + offset bits within the 64-bit hash, displacements within
// 32 bits and rows within the 30 bits above row_shift.
constexpr std::size_t max_distinct = (std::size_t{1} << 30) - 1;

// Odd multipliers from a sequence seeded once per process. Multiply-shift
// is universal over random odd multipliers whatever the keys, so a try
// succeeds with constant probability (see try_place) and no chosen set of
// symbol ids can make every try fail. The seed only decides the table's
// layout, never a row, a mask or a count, so results stay deterministic.
u64 next_multiplier() {
  static std::atomic<u64> attempt{0};
  static const u64 process_seed = [] {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    u64 seed = static_cast<u64>(now.count()) ^
               reinterpret_cast<std::uintptr_t>(&attempt);
    try {
      std::random_device device;
      seed ^= (u64{device()} << 32) ^ u64{device()};
    } catch (const std::exception&) {
      // No entropy source: the clock and the address still vary per process.
    }
    return seed;
  }();
  return derive_seed(process_seed, attempt++) | 1u;
}

}  // namespace

// Hash and displace. A multiplier is rejected when two keys of one bucket
// share an offset (they would share a slot under every displacement) or
// when its bucket sizes s have sum(s^2) > slots. Otherwise the buckets are
// placed largest first, each at the least displacement whose slots are all
// free — one always exists: a bucket of s keys meets o occupied slots at no
// more than s * o displacements, and s * o <= the sum of the squares of the
// larger, earlier buckets < slots (lone keys, last, just take free slots).
// With buckets >= distinct and slots = 4 * buckets, a random multiplier
// (bucket collision probability <= 2 / buckets per key pair) gives
// E[sum(s^2) - distinct] <= 2 * distinct, over the 3 * distinct margin with
// probability <= 2/3 (Markov), and at most 1/4 expected pairs with a shared
// offset: a try succeeds with probability >= 1/12 whatever the keys.
bool prepared_axis::try_place(std::uint64_t multiplier) {
  multiplier_ = multiplier;
  const std::size_t buckets = displacement_.size();
  const auto bucket = [&](std::uint32_t k) {
    return bucket_of(keys_[k] * multiplier);
  };
  const auto offset = [&](std::uint32_t k) {
    return offset_of(keys_[k] * multiplier);
  };

  bucket_start_.assign(buckets + 1, 0);
  for (std::uint32_t k = 0; k < keys_.size(); ++k) ++bucket_start_[bucket(k)];
  std::size_t square_sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    square_sum += std::size_t{bucket_start_[b]} * bucket_start_[b];
  }
  if (square_sum > slot_mask_ + 1) return false;

  // Counting sort of the key indices: filling each bucket from its end
  // leaves bucket_start_[b] at its first key.
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
  grouped_.resize(keys_.size());
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    grouped_[--bucket_start_[bucket(k)]] = k;
  }
  const auto group = [this](std::size_t b) {
    return std::span<const std::uint32_t>(
        grouped_.data() + bucket_start_[b],
        grouped_.data() + bucket_start_[b + 1]);
  };

  // Crowded buckets (two keys or more) gather at the front of order_, lone
  // keys' buckets at the back — without a branch: how full a bucket is is
  // as unpredictable as the hash.
  order_.resize(buckets);
  std::size_t crowded = 0;
  std::size_t lone = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t size = group(b).size();
    order_[crowded] = static_cast<std::uint32_t>(b);
    order_[buckets - 1 - lone] = static_cast<std::uint32_t>(b);
    crowded += static_cast<std::size_t>(size >= 2);
    lone += static_cast<std::size_t>(size == 1);
  }
  const std::span<std::uint32_t> crowded_buckets(order_.data(), crowded);
  for (const std::uint32_t b : crowded_buckets) {
    const std::span<const std::uint32_t> g = group(b);
    for (std::size_t i = 1; i < g.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (((offset(g[i]) ^ offset(g[j])) & slot_mask_) == 0) return false;
      }
    }
  }

  std::sort(crowded_buckets.begin(), crowded_buckets.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return group(a).size() > group(b).size();
            });
  for (const std::uint32_t b : crowded_buckets) {
    const std::span<const std::uint32_t> g = group(b);
    const auto slot_at = [&](std::uint32_t k, std::size_t shift) {
      return (offset(k) + shift) & slot_mask_;
    };
    std::size_t shift = 0;
    while (!std::all_of(g.begin(), g.end(), [&](std::uint32_t k) {
      return slots_[slot_at(k, shift)] == 0;
    })) {
      ++shift;  // < slots, by the bound above
    }
    displacement_[b] = static_cast<std::uint32_t>(shift);
    for (const std::uint32_t k : g) slots_[slot_at(k, shift)] = entry(k);
  }

  // A lone key takes the next free slot outright; its displacement is
  // whatever rotates its offset there. Free slots outnumber the keys.
  std::size_t free_slot = 0;
  for (std::size_t i = buckets - lone; i < buckets; ++i) {
    const std::uint32_t k = grouped_[bucket_start_[order_[i]]];
    while (slots_[free_slot] != 0) ++free_slot;
    displacement_[order_[i]] =
        static_cast<std::uint32_t>((free_slot - offset(k)) & slot_mask_);
    slots_[free_slot] = entry(k);
  }
  return true;
}

void prepared_axis::assign(std::span<const token> tokens) {
  tokens_.assign(tokens.begin(), tokens.end());
  words_ = (tokens_.size() + 63) / 64;

  // Rows in order of first appearance (keys_[r - 1] is row r's key), found
  // through slots_ as a scratch linear-probing set of at least twice the
  // token count, whose entries are already the final (row, key) packing.
  const std::size_t set_size =
      std::bit_ceil(std::max<std::size_t>(2, 2 * tokens_.size()));
  const auto set_shift =
      static_cast<unsigned>(64 - std::countr_zero(set_size));
  const u64 set_multiplier = next_multiplier();
  slots_.assign(set_size, 0);
  keys_.resize(tokens_.size());
  token_rows_.resize(tokens_.size());
  std::size_t distinct = 0;
  for (std::size_t j = 0; j < tokens_.size(); ++j) {
    const u64 key = lcs_detail::token_key(tokens_[j]);
    auto s = static_cast<std::size_t>((key * set_multiplier) >> set_shift);
    while (slots_[s] != 0 && (slots_[s] & key_bits) != key) {
      s = (s + 1) & (set_size - 1);
    }
    // Written unconditionally and kept only when new: whether a token
    // repeats is as unpredictable as in the kernels.
    keys_[distinct] = key;
    const bool fresh = slots_[s] == 0;
    distinct += static_cast<std::size_t>(fresh);
    slots_[s] = fresh ? (u64{distinct} << row_shift) | key : slots_[s];
    token_rows_[j] = static_cast<std::uint32_t>(slots_[s] >> row_shift);
  }
  keys_.resize(distinct);
  if (distinct > max_distinct) {
    throw std::length_error("prepared_axis: too many distinct tokens");
  }

  masks_.assign((distinct + 1) * words_, 0);
  counts_.assign(distinct + 1, 0);
  for (std::size_t j = 0; j < tokens_.size(); ++j) {
    masks_[token_rows_[j] * words_ + j / 64] |= u64{1} << (j % 64);
    ++counts_[token_rows_[j]];
  }

  // bit_ceil(distinct) buckets (at least 2, so the bucket shift stays
  // below 64) and four slots per bucket.
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(2, distinct));
  const auto log_buckets = static_cast<unsigned>(std::countr_zero(buckets));
  bucket_shift_ = 64 - log_buckets;
  offset_shift_ = bucket_shift_ - (log_buckets + 2);
  slot_mask_ = 4 * buckets - 1;
  slots_.assign(4 * buckets, 0);
  displacement_.assign(buckets, 0);
  while (!try_place(next_multiplier())) {
  }
}

std::size_t prepared_axis::shared_with(
    const token_histogram& h) const noexcept {
  std::size_t shared = 0;
  for (const token_histogram::bucket& b : h.buckets()) {
    shared += std::min(count(b.value), b.count);
  }
  return shared;
}

std::size_t prepared_axis::footprint_bytes() const noexcept {
  return tokens_.capacity() * sizeof(token) +
         (slots_.capacity() + masks_.capacity() + keys_.capacity()) *
             sizeof(u64) +
         (displacement_.capacity() + counts_.capacity() +
          token_rows_.capacity() + grouped_.capacity() +
          bucket_start_.capacity() + order_.capacity()) *
             sizeof(std::uint32_t);
}

}  // namespace bes
