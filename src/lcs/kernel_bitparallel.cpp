// Bit-parallel constrained-LCS length kernel: 64 DP cells per word.
//
// Let F[i][j] = max(solid[i][j], gap[i][j]) be the combined value of the
// exact two-layer DP (kernel_scalar.cpp). Three provable facts turn F into
// a classic Crochemore/Iliopoulos/Pinzon bit-vector LCS:
//
//  (1) Diagonal step lemma: F[i][j] <= F[i-1][j-1] + 1 for ALL cells. (Any
//      constrained common subsequence of the (i, j) prefixes either omits
//      q_i, omits d_j, or matches them to each other as its final pair;
//      each case is bounded by a neighbour + 1, and steps along a row or
//      column are at most 1 by the same argument.)
//  (2) A boundary match always achieves it: solid gets the candidate
//      F[i-1][j-1] + 1, so F[i][j] = F[i-1][j-1] + 1 exactly — and the
//      cell's best ends in a boundary (g = 0 below).
//  (3) A dummy match contributes solid[i-1][j-1] + 1, which equals
//      F[i-1][j-1] + 1 exactly when the diagonal cell's best is achievable
//      ending in a boundary, and is dominated by the up-neighbour
//      otherwise (gap - solid <= 1 everywhere).
//
// So F obeys the UNCONSTRAINED LCS recurrence over an *effective* match
// mask: boundary matches always count; a dummy match counts iff the
// diagonal cell has g = 0, where g[i][j] = F[i][j] - solid[i][j] in {0, 1}
// flags cells whose best is only achievable ending in a dummy. That is the
// paper's no-two-adjacent-dummies constraint folded into a second carry
// mask over the match vector — the bit-row mirror of the solid/gap layers
// of the scalar rolling DP.
//
// Row state, one bit per column (word-packed, bit j-1 <-> column j):
//   V   the CIPR row profile: bit 0 marks an increment position
//       (F[i][j] = F[i][j-1] + 1); F[i][n] = number of zero bits.
//       Update per row: U = V & Meff; V' = (V + U) | (V & ~Meff).
//   g   the ends-in-dummy-only flags of the current row.
//   R'  the previous row's increment positions (~V before the update).
//
// After the V update, with R = ~V' (current increments), the column steps
// C (c_j = F[i][j] - F[i-1][j]) follow c_j = !r'_j & (r_j | c_{j-1}).
// The new g row is the complement of the "solid reaches F" set
// s_j = a_j | (!r_j & s_{j-1}): seeds a are boundary-match cells (fact 2)
// and cells with c_j = 0 whose up-neighbour had g = 0, and zero-ness
// flows right while F stays flat. Both are instances of the first-order
// chain x_j = P_j & (inj_j | x_{j-1}) — the carry recurrence of binary
// addition with generate = P & inj and propagate = P, so one addition
// P + (inj & P) computes a whole word of it (prop_chain below; the
// carry-out feeds the next word). Note the naive "smear seeds with
// T = P + (A << 1)" trick is WRONG here: a seed injected onto a P = 0
// barrier position that simultaneously receives a carry produces
// 0 + 1 + 1 and re-launches the carry past the barrier.
//
// The kernel computes the EXACT two-layer optimum and serves both the
// signed and exact lcs_kernel entries: the paper's signed heuristic equals
// the exact optimum on every input ever tested (fidelity note F1, enforced
// continuously by tests/lcs_fuzz_test.cpp); if a divergence is ever found,
// the bit-parallel answer is the correct constrained optimum and the
// fixture-pinning protocol in that test applies.
//
// The early-exit band is bit-identical to the scalar exact kernel's over
// the same (rows, cols): F is row-monotone, so the row maximum is F[i][n]
// (the zeros of V, tracked as the running sum of the last column's steps),
// and the bail row and returned admissible bound match exactly.
//
// The columns are a prepared_axis (lcs/prepared_axis.hpp): its match masks
// are built once per query, so a scan streams every candidate through the
// same masks instead of rebuilding a table per pair.
#include <algorithm>

#include "lcs/be_lcs.hpp"
#include "lcs/kernel_detail.hpp"

namespace bes::lcs_detail {

namespace {

using u64 = std::uint64_t;

// a + b + cin -> sum, with cin/carry-out in {0, 1}.
inline u64 add_carry(u64 a, u64 b, u64& carry) noexcept {
  const u64 s1 = a + b;
  const u64 c1 = static_cast<u64>(s1 < a);
  const u64 s2 = s1 + carry;
  carry = c1 | static_cast<u64>(s2 < s1);
  return s2;
}

// One word of the first-order chain x_j = P_j & (inj_j | x_{j-1}). This is
// the carry recurrence of binary addition with generate = p & inj and
// propagate = p, so the whole word is one addition p + (inj & p); the
// full-adder identity sum ^ p ^ (inj & p) recovers the carry INTO each bit,
// i.e. x_{j-1}, hence the >> 1. `carry` threads x_63 across words.
inline u64 prop_chain(u64 p, u64 inj, u64& carry) noexcept {
  const u64 y = inj & p;
  const u64 s1 = p + y;
  const u64 c1 = static_cast<u64>(s1 < p);
  const u64 sum = s1 + carry;
  const u64 out = c1 | static_cast<u64>(sum < s1);
  const u64 cin = sum ^ p ^ y;
  carry = out;
  return (cin >> 1) | (out << 63);
}

// Carries threaded across the words of one row: g << 1, the V + U add, the
// two propagation chains, and the seed << 1 shift feeding the second chain.
struct row_carries {
  u64 sh_g = 0, add_v = 0, add_c = 0, sh_z = 0, add_z = 0;
};

// One word of one DP row; returns the row's column steps C. `dummy`
// is all ones on a dummy row and zero otherwise, so the dummy veto and the
// boundary-only seeds are masks, not branches. `live` clears the columns
// past the prepared string's end (all ones except in the last word).
inline u64 row_word(u64 m, u64 dummy, u64 live, u64& v, u64& g, u64& rp,
                    row_carries& c) noexcept {
  const u64 g_prev = g;
  const u64 v_prev = v;
  const u64 r_prev = rp;

  // Effective match mask: dummy matches are vetoed where the diagonal cell
  // (bit shifted up by one) only reaches F ending in a dummy.
  const u64 g_diag = (g_prev << 1) | c.sh_g;
  c.sh_g = g_prev >> 63;
  const u64 meff = m & ~(g_diag & dummy);

  // CIPR profile update.
  const u64 u = v_prev & meff;
  const u64 v_new = add_carry(v_prev, u, c.add_v) | (v_prev & ~meff);
  const u64 r = ~v_new;  // tail bits of v_new stay 1, so r's tail is 0

  // Column steps: c_j = !r'_j & (r_j | c_{j-1}).
  const u64 c_col = prop_chain(~r_prev, r, c.add_c);

  // New g row: cells where solid CANNOT reach F are the complement of the
  // seed-and-propagate set s_j = a_j | (!r_j & s_{j-1}) — seeds are
  // boundary matches plus cells with a flat column step over a g = 0
  // up-neighbour; zero-ness flows right through flat row steps.
  const u64 a_z = (m & ~dummy) | (~c_col & ~g_prev);
  const u64 zsh = (a_z << 1) | c.sh_z;
  c.sh_z = a_z >> 63;
  const u64 solid_ok = a_z | prop_chain(v_new, zsh, c.add_z);

  v = v_new;
  g = ~solid_ok & live;
  rp = r;
  return c_col;
}

// The one row-loop body: the prepared query's column masks against the
// candidate's rows, one mask lookup and no branch per row. W > 0 fixes the
// word count at compile time so the row state lives in registers (the
// one- and two-word cases cover queries up to 128 tokens); W == 0 reads it
// from `cols` and keeps the state in context scratch.
template <bool banded, std::size_t W>
std::size_t run(const prepared_axis& cols, std::span<const token> rows,
                std::size_t min_needed, lcs_context& ctx) {
  const std::size_t r_count = rows.size();
  const std::size_t c_count = cols.size();
  if (r_count == 0 || c_count == 0) return 0;
  if (banded && min_needed > std::min(r_count, c_count)) {
    return std::min(r_count, c_count);  // lcs <= min(m, n)
  }

  const std::size_t words = W > 0 ? W : cols.words();
  // State layout: V | g | R'.
  u64 fixed[3 * (W > 0 ? W : 1)];
  u64* const v = W > 0 ? fixed : ctx.word_cells(3 * words).data();
  u64* const g = v + words;
  u64* const rp = g + words;

  // Row 0: no increments (V all ones, tail included so the tail never
  // produces phantom zeros), no steps, nothing ends in a dummy.
  std::fill(v, v + words, ~u64{0});
  std::fill(g, g + 2 * words, u64{0});  // g, R'
  const unsigned last_bit = static_cast<unsigned>((c_count - 1) % 64);
  const u64 tail_mask = last_bit == 63 ? ~u64{0} : (u64{2} << last_bit) - 1;

  // F[i][n], the row maximum, advances by the last column's step c_n —
  // a shift where a popcount of V would cost a call on baseline x86-64.
  std::size_t f_n = 0;
  for (std::size_t i = 1; i <= r_count; ++i) {
    const token qi = rows[i - 1];
    const u64* m_row = cols.mask(qi);
    const u64 dummy = u64{0} - static_cast<u64>(qi.is_dummy());
    row_carries carries;
    u64 steps = 0;
    for (std::size_t k = 0; k < words; ++k) {
      const u64 live = k + 1 == words ? tail_mask : ~u64{0};
      steps = row_word(m_row[k], dummy, live, v[k], g[k], rp[k], carries);
    }
    f_n += static_cast<std::size_t>((steps >> last_bit) & 1u);
    if constexpr (banded) {
      const std::size_t achievable = f_n + (r_count - i);
      if (achievable < min_needed) return achievable;
    }
  }
  return f_n;
}

template <std::size_t W>
std::size_t run_words(const prepared_axis& cols, std::span<const token> rows,
                      std::size_t min_needed, lcs_context& ctx) {
  return min_needed == 0 ? run<false, W>(cols, rows, 0, ctx)
                         : run<true, W>(cols, rows, min_needed, ctx);
}

}  // namespace

std::size_t bitparallel_exact(const prepared_axis& cols,
                              std::span<const token> rows,
                              std::size_t min_needed, lcs_context& ctx) {
  switch (cols.words()) {
    case 1:
      return run_words<1>(cols, rows, min_needed, ctx);
    case 2:
      return run_words<2>(cols, rows, min_needed, ctx);
    default:
      return run_words<0>(cols, rows, min_needed, ctx);
  }
}

}  // namespace bes::lcs_detail
