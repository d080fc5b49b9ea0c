// The paper's modified LCS over BE-strings (§4.1, Algorithms 2 and 3).
//
// Two revisions of the classic algorithm:
//  1. The common subsequence may never pick two dummy objects in a row —
//     "only one dummy object sufficiently represents the relative spatial
//     relationship between two boundary symbols".
//  2. The direction matrix is dropped: a cell of the length table W is
//     NEGATIVE iff the subsequence realizing it ends in a dummy, which is
//     both the state needed by revision 1 and enough to re-infer the path
//     (Algorithm 3).
//
// be_lcs_string is a literal translation of Algorithm 3 over the Algorithm 2
// table. The paper's sign trick keeps only ONE candidate per cell; a priori
// that could underestimate the constrained optimum on tie patterns, so
// be_lcs_length_exact tracks both "ends in dummy" and "ends in boundary"
// layers and is provably exact (oracle-tested against exhaustive search).
// Measured: the two variants agreed on every one of >4.5M randomized token
// pairs and all encoded scene pairs tried — the paper's shortcut holds up
// (EXPERIMENTS.md fidelity note F1).
//
// Length-only queries do not materialize the table: every *_length kernel is
// a rolling DP over flat scratch buffers (an lcs_context) that are reused
// across calls, so a scan over a database performs no per-pair allocation
// and touches O(columns) rolling state instead of O(mn). The columns are a
// prepared_axis (lcs/prepared_axis.hpp): a scan prepares its query once
// and scores every record against it (the query along the columns, the
// record along the rows); the pairwise overloads prepare the shorter
// string into the context and call the same kernels. The constrained LCS
// is argument-symmetric (fuzzed in both orientations in
// tests/lcs_fuzz_test.cpp), so the orientation never changes a length.
// be_lcs_fill keeps the full table solely for be_lcs_string's traceback.
//
// The kernel IMPLEMENTATION behind each entry point is CPU-dispatched: the
// lcs/kernel.hpp registry selects (once, at startup) between the scalar
// rolling reference, a bit-parallel variant packing 64 DP cells per word,
// and an AVX2 SoA-row weighted variant. Each lcs_context is bound to one
// kernel at construction — the active one by default — so the dispatch
// costs a cached pointer read, never a per-pair resolution. Construct a
// context from a specific lcs_kernel to pin a variant (tests, benches).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/be_string.hpp"
#include "lcs/kernel.hpp"
#include "lcs/prepared_axis.hpp"

namespace bes {

// Reusable scratch for the rolling LCS kernels. One context per thread:
// the kernels hand out spans into these buffers, so a context must never be
// shared by concurrent calls. Buffers only grow; a scan that scores
// thousands of candidates allocates O(1) times.
class lcs_context {
 public:
  // Binds to active_lcs_kernel() — the startup-selected variant.
  lcs_context();
  // Pins a specific registered kernel (differential tests, benches).
  explicit lcs_context(const lcs_kernel& kernel);
  lcs_context(const lcs_context&) = delete;
  lcs_context& operator=(const lcs_context&) = delete;

  // The kernel every entry point taking this context dispatches through.
  [[nodiscard]] const lcs_kernel& kernel() const noexcept { return *kernel_; }

  // Scratch of at least `cells` entries; contents are unspecified (kernels
  // initialize what they read).
  [[nodiscard]] std::span<std::int32_t> int_cells(std::size_t cells);
  [[nodiscard]] std::span<double> real_cells(std::size_t cells);
  [[nodiscard]] std::span<std::uint64_t> word_cells(std::size_t cells);

  // High-water scratch footprint of the DP cells, for benchmarks and memory
  // assertions. The pairwise prepared axis is reported by prepared_bytes().
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return ints_.capacity() * sizeof(std::int32_t) +
           reals_.capacity() * sizeof(double) +
           words_.capacity() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t prepared_bytes() const noexcept {
    return pair_axis_.footprint_bytes();
  }

  // Re-prepares this context's pairwise axis for `tokens` (reusing its
  // buffers) and returns it; valid until the next call. The pairwise entry
  // points below use it for the shorter string of each pair.
  const prepared_axis& prepare(std::span<const token> tokens);

  // The calling thread's context — what the context-less entry points use.
  [[nodiscard]] static lcs_context& thread_local_instance();

 private:
  const lcs_kernel* kernel_;
  std::vector<std::int32_t> ints_;
  std::vector<double> reals_;
  std::vector<std::uint64_t> words_;
  prepared_axis pair_axis_;
};

// The LCS length inferring table W; (m+1) x (n+1) signed cells.
class be_lcs_table {
 public:
  be_lcs_table(std::size_t m, std::size_t n)
      : rows_(m + 1), cols_(n + 1), cells_(rows_ * cols_, 0) {}

  [[nodiscard]] std::int32_t at(std::size_t i, std::size_t j) const {
    return cells_[i * cols_ + j];
  }
  std::int32_t& at(std::size_t i, std::size_t j) {
    return cells_[i * cols_ + j];
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t storage_cells() const noexcept {
    return cells_.size();
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::int32_t> cells_;
};

// Algorithm 2: fills W for query string q and database string d. Needed only
// when the matched subsequence itself is wanted (be_lcs_string traceback);
// length queries should use the rolling kernels below.
[[nodiscard]] be_lcs_table be_lcs_fill(std::span<const token> q,
                                       std::span<const token> d);

// |W[m][n]| — the modified-LCS length, via the rolling two-row kernel.
[[nodiscard]] std::size_t be_lcs_length(std::span<const token> q,
                                        std::span<const token> d);
[[nodiscard]] std::size_t be_lcs_length(std::span<const token> q,
                                        std::span<const token> d,
                                        lcs_context& ctx);

// The prepared forms: the same lengths with `q` prepared once for many
// calls (a scan's query axis). min_needed == 0 is unbounded; otherwise the
// band contract of be_lcs_length_bounded below applies.
[[nodiscard]] std::size_t be_lcs_length_bounded(const prepared_axis& q,
                                                std::span<const token> d,
                                                std::size_t min_needed,
                                                lcs_context& ctx);
[[nodiscard]] std::size_t be_lcs_length_exact_bounded(
    const prepared_axis& q, std::span<const token> d, std::size_t min_needed,
    lcs_context& ctx);

// Early-exit band variant: identical to be_lcs_length whenever the true
// length is >= min_needed. When the best still-achievable length (current
// row max + one per remaining row, an admissible bound) drops below
// min_needed the DP bails and returns that bound instead. Either way the
// result is an upper bound on the true length, and (result >= min_needed)
// iff (true length >= min_needed). min_needed == 0 disables the band.
[[nodiscard]] std::size_t be_lcs_length_bounded(std::span<const token> q,
                                                std::span<const token> d,
                                                std::size_t min_needed,
                                                lcs_context& ctx);

// Algorithm 3: reconstructs one common subsequence of length |W[m][n]| from
// the filled table (iterative traceback; the paper's recursion bottoms out
// identically). The result never contains two adjacent dummies.
[[nodiscard]] std::vector<token> be_lcs_string(std::span<const token> q,
                                               const be_lcs_table& w);

// Convenience: fill + traceback.
[[nodiscard]] std::vector<token> be_lcs_string(std::span<const token> q,
                                               std::span<const token> d);

// Exact constrained LCS via a two-layer rolling DP (see header comment).
// Same O(mn) time; always >= be_lcs_length and equal to the true optimum.
[[nodiscard]] std::size_t be_lcs_length_exact(std::span<const token> q,
                                              std::span<const token> d);
[[nodiscard]] std::size_t be_lcs_length_exact(std::span<const token> q,
                                              std::span<const token> d,
                                              lcs_context& ctx);

// Early-exit band over the exact DP; same contract as be_lcs_length_bounded.
[[nodiscard]] std::size_t be_lcs_length_exact_bounded(std::span<const token> q,
                                                      std::span<const token> d,
                                                      std::size_t min_needed,
                                                      lcs_context& ctx);

// Weighted variant: maximizes (boundary matches) + dummy_weight * (dummy
// matches) over constrained common subsequences. dummy_weight in [0, 1];
// weight 1 recovers be_lcs_length_exact, weight 0 scores spatial-relation
// carriers (dummies) as worthless and counts boundary matches only. Used by
// the dummy-weight ablation.
[[nodiscard]] double be_lcs_weighted(std::span<const token> q,
                                     std::span<const token> d,
                                     double dummy_weight);
[[nodiscard]] double be_lcs_weighted(std::span<const token> q,
                                     std::span<const token> d,
                                     double dummy_weight, lcs_context& ctx);

}  // namespace bes
