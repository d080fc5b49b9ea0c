// Differential fuzzing of the LCS kernels.
//
// Three implementations answer length queries: the paper's signed-table DP
// (Algorithm 2, both as the full-table be_lcs_fill and as the rolling
// two-row kernel behind be_lcs_length), and the exact two-layer DP. This
// suite drives them against each other over seeded adversarial token
// strings — tiny alphabet, dense repeats, dummy runs — which is exactly the
// tie-pattern territory where the sign trick could in principle diverge
// from the exact optimum and where the rolling kernel's argument
// transposition could in principle change the signed heuristic's answer.
// Measured: no divergence anywhere (2M+ pairs offline, >1000 pairs here);
// if one ever appears, pin it as a fixture in tests/support and document it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/encoder.hpp"
#include "lcs/be_lcs.hpp"
#include "lcs/prepared_axis.hpp"
#include "lcs/token_histogram.hpp"
#include "util/rng.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

token Bb(symbol_id s) { return token::boundary(s, boundary_kind::begin); }
token Be(symbol_id s) { return token::boundary(s, boundary_kind::end); }

// Adversarial generator: up to `max_len` tokens over `symbols` distinct
// icons plus the dummy, dummy-heavy so the constrained rule is exercised.
std::vector<token> random_tokens(rng& r, std::size_t max_len, int symbols) {
  std::vector<token> out(
      static_cast<std::size_t>(r.uniform_int(0, static_cast<int>(max_len))));
  for (token& t : out) {
    const int pick = r.uniform_int(0, 4);
    if (pick == 0) {
      t = token::dummy();
    } else {
      const auto s = static_cast<symbol_id>(r.uniform_int(0, symbols - 1));
      t = pick % 2 == 1 ? Bb(s) : Be(s);
    }
  }
  return out;
}

// ---------------------------------------------- signed vs exact (paper F1)

class SignedVsExactFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignedVsExactFuzz, PaperSignTrickMatchesExactDp) {
  // 8 pairs per seed x 150 seeds = 1200 differential pairs.
  rng r(GetParam());
  for (int round = 0; round < 8; ++round) {
    const int symbols = 2 + static_cast<int>(GetParam() % 3);
    const std::vector<token> q = random_tokens(r, 20, symbols);
    const std::vector<token> d = random_tokens(r, 20, symbols);
    const std::size_t paper = be_lcs_length(q, d);
    const std::size_t exact = be_lcs_length_exact(q, d);
    ASSERT_EQ(paper, exact)
        << "sign-trick divergence at seed " << GetParam() << " round "
        << round << " — pin this pair as a tests/support fixture and "
        << "document it (header of lcs/be_lcs.hpp)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignedVsExactFuzz,
                         ::testing::Range<std::uint64_t>(0, 150));

// ------------------------------------- rolling kernels vs the seed table

class RollingVsTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingVsTableFuzz, RollingLengthMatchesFullTableFill) {
  // The rolling kernel transposes its arguments to keep the scratch row
  // along the shorter string; the full-table fill never does. Agreement
  // here is what licenses the transposition.
  rng r(GetParam() + 500);
  for (int round = 0; round < 6; ++round) {
    const std::vector<token> q = random_tokens(r, 24, 2);
    const std::vector<token> d = random_tokens(r, 24, 2);
    const be_lcs_table w = be_lcs_fill(q, d);
    const auto table_len =
        static_cast<std::size_t>(std::abs(w.at(q.size(), d.size())));
    EXPECT_EQ(be_lcs_length(q, d), table_len);
    EXPECT_EQ(be_lcs_length(d, q), table_len) << "orientation asymmetry";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingVsTableFuzz,
                         ::testing::Range<std::uint64_t>(0, 60));

// ----------------------------------------------- early-exit band contract

class BoundedKernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedKernelFuzz, BandIsAdmissible) {
  // Contract: result >= true length always; result == true length whenever
  // the true length >= min_needed (equivalently whenever result >=
  // min_needed). Fuzz it across the whole threshold range on both kernels.
  rng r(GetParam() + 9000);
  lcs_context ctx;
  for (int round = 0; round < 5; ++round) {
    const std::vector<token> q = random_tokens(r, 22, 3);
    const std::vector<token> d = random_tokens(r, 22, 3);
    const std::size_t paper = be_lcs_length(q, d, ctx);
    const std::size_t exact = be_lcs_length_exact(q, d, ctx);
    for (std::size_t needed = 0; needed <= std::min(q.size(), d.size()) + 2;
         ++needed) {
      const std::size_t bp = be_lcs_length_bounded(q, d, needed, ctx);
      const std::size_t bx = be_lcs_length_exact_bounded(q, d, needed, ctx);
      EXPECT_GE(bp, paper) << "bounded below true at threshold " << needed;
      EXPECT_GE(bx, exact) << "bounded below true at threshold " << needed;
      EXPECT_EQ(bp >= needed, paper >= needed);
      EXPECT_EQ(bx >= needed, exact >= needed);
      if (paper >= needed) {
        EXPECT_EQ(bp, paper);
      }
      if (exact >= needed) {
        EXPECT_EQ(bx, exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedKernelFuzz,
                         ::testing::Range<std::uint64_t>(0, 40));

// -------------------------------------- registered kernels vs the scalar

// Directed shapes that historically break bit-packed DPs: lengths that
// straddle 64-bit word boundaries, unbroken dummy runs (the constraint's
// worst case), and single-symbol alphabets (maximal match-mask density).
std::vector<token> shaped_tokens(rng& r, std::size_t len, int shape) {
  std::vector<token> out(len);
  for (std::size_t i = 0; i < out.size(); ++i) {
    switch (shape) {
      case 0:  // all dummies
        out[i] = token::dummy();
        break;
      case 1:  // one symbol, begin/end/dummy mix
        out[i] = r.uniform_int(0, 3) == 0 ? token::dummy()
                 : r.uniform_int(0, 1) == 0 ? Bb(0)
                                            : Be(0);
        break;
      default:  // small alphabet, dummy-heavy
        out[i] = r.uniform_int(0, 2) == 0
                     ? token::dummy()
                     : Bb(static_cast<symbol_id>(r.uniform_int(0, 2)));
        break;
    }
  }
  return out;
}

class KernelDispatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelDispatchFuzz, EveryRegisteredKernelMatchesScalar) {
  // Differential fuzz of the CPU-dispatch registry: every registered kernel
  // (scalar, bit-parallel, AVX2 where compiled+supported) must be
  // bit-identical to the scalar reference on the signed, exact, and
  // weighted entry points, with lengths crossing the 64-cell word packing
  // of the bit-parallel variant.
  const lcs_kernel* scalar = find_lcs_kernel("scalar");
  ASSERT_NE(scalar, nullptr);
  lcs_context ref(*scalar);
  rng r(GetParam() * 31 + 17);
  constexpr std::size_t kLens[] = {1, 7, 63, 64, 65, 127, 128};
  for (const std::size_t len : kLens) {
    for (int shape = 0; shape < 3; ++shape) {
      const std::vector<token> q = shaped_tokens(r, len, shape);
      const std::vector<token> d =
          shaped_tokens(r, 1 + len / (1 + static_cast<std::size_t>(
                                              r.uniform_int(0, 2))),
                        shape);
      const std::size_t paper = be_lcs_length(q, d, ref);
      const std::size_t exact = be_lcs_length_exact(q, d, ref);
      const double weighted = be_lcs_weighted(q, d, 0.5, ref);
      for (const lcs_kernel& k : registered_lcs_kernels()) {
        lcs_context ctx(k);
        EXPECT_EQ(be_lcs_length(q, d, ctx), paper)
            << "kernel " << k.name << " len " << len << " shape " << shape;
        EXPECT_EQ(be_lcs_length_exact(q, d, ctx), exact)
            << "kernel " << k.name << " len " << len << " shape " << shape;
        EXPECT_DOUBLE_EQ(be_lcs_weighted(q, d, 0.5, ctx), weighted)
            << "kernel " << k.name << " len " << len << " shape " << shape;
      }
    }
  }
}

TEST_P(KernelDispatchFuzz, BandContractHoldsAroundTrueLength) {
  // The early-exit band's contract, probed exactly where it bites: at
  // min_needed of the true length and one either side, for every kernel.
  // (The bit-parallel banded path bails with a DIFFERENT admissible bound
  // than the scalar signed one may, so assert the contract, not equality.)
  rng r(GetParam() * 131 + 7);
  for (int round = 0; round < 4; ++round) {
    const std::vector<token> q = random_tokens(r, 70, 2);
    const std::vector<token> d = random_tokens(r, 70, 2);
    for (const lcs_kernel& k : registered_lcs_kernels()) {
      lcs_context ctx(k);
      const std::size_t exact = be_lcs_length_exact(q, d, ctx);
      for (int delta = -1; delta <= 1; ++delta) {
        if (static_cast<long>(exact) + delta < 1) continue;
        const std::size_t needed = exact + static_cast<std::size_t>(delta);
        const std::size_t bounded =
            be_lcs_length_exact_bounded(q, d, needed, ctx);
        EXPECT_GE(bounded, exact) << "kernel " << k.name;
        EXPECT_EQ(bounded >= needed, exact >= needed) << "kernel " << k.name;
        if (exact >= needed) {
          EXPECT_EQ(bounded, exact) << "kernel " << k.name;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDispatchFuzz,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(KernelDispatch, RegistryAlwaysHasScalarFirst) {
  // The registry is ordered by ascending preference with the portable
  // scalar reference always present; BES_LCS_KERNEL=scalar must therefore
  // resolve on every machine.
  const auto kernels = registered_lcs_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front().name, "scalar");
  EXPECT_NE(find_lcs_kernel("bitparallel"), nullptr);
  EXPECT_EQ(find_lcs_kernel("no-such-kernel"), nullptr);
  // The active kernel is one of the registered ones.
  const lcs_kernel& active = active_lcs_kernel();
  bool found = false;
  for (const lcs_kernel& k : kernels) found |= &k == &active;
  EXPECT_TRUE(found);
}

// ------------------------------------------ prepared query axis (scans)

// Tokens over an explicit symbol set, dummy-heavy, for the prepared-axis
// fuzz: `symbols` may hold ids anywhere in uint32_t below the dummy's.
std::vector<token> tokens_over(rng& r, std::size_t len,
                               const std::vector<symbol_id>& symbols,
                               int dummy_one_in) {
  std::vector<token> out(len);
  for (token& t : out) {
    if (symbols.empty() || r.uniform_int(0, dummy_one_in - 1) == 0) {
      t = token::dummy();
    } else {
      const symbol_id s = symbols[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<int>(symbols.size()) - 1))];
      t = r.uniform_int(0, 1) == 0 ? Bb(s) : Be(s);
    }
  }
  return out;
}

// Symbol pools a scan can meet: a dense interned alphabet, ids past 2^20,
// and ids just under UINT32_MAX (the dummy's id, which is excluded).
std::vector<symbol_id> symbol_pool(rng& r, int kind, std::size_t count) {
  std::vector<symbol_id> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (kind) {
      case 0:
        out[i] = static_cast<symbol_id>(i);
        break;
      case 1:
        out[i] = static_cast<symbol_id>((1u << 20) + (r.next_u64() >> 40));
        break;
      default:
        out[i] = static_cast<symbol_id>(0xFFFFFFFEu - (r.next_u64() >> 44));
        break;
    }
  }
  return out;
}

class PreparedKernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PreparedKernelFuzz, PreparedLengthMatchesPairwiseScalarBothWays) {
  // Scans prepare the query as the columns and stream records along the
  // rows; the pairwise scalar reference lays the shorter string along the
  // columns. Every registered kernel's prepared entry must match the
  // pairwise scalar exact (and signed) length with EITHER side prepared,
  // across 1-, 2- and 3+-word column strings, all-dummy runs, row tokens
  // the query lacks, and symbol ids far from the dense range.
  const lcs_kernel* scalar = find_lcs_kernel("scalar");
  ASSERT_NE(scalar, nullptr);
  lcs_context ref(*scalar);
  rng r(GetParam() * 7919 + 3);
  constexpr std::size_t kLens[] = {1, 2, 40, 64, 65, 100, 128, 129, 200};
  for (const std::size_t len : kLens) {
    const int pool_kind = r.uniform_int(0, 2);
    const std::vector<symbol_id> pool = symbol_pool(r, pool_kind, 6);
    // The other side mixes the query's symbols with ones it never uses.
    std::vector<symbol_id> other = pool;
    other.resize(3);
    for (const symbol_id s : symbol_pool(r, 1, 3)) other.push_back(s + 7);
    const int dummy_one_in = len % 3 == 0 ? 1 : 3;  // every third: all dummy
    const std::vector<token> q = tokens_over(r, len, pool, dummy_one_in);
    const std::vector<token> d = tokens_over(
        r, 1 + static_cast<std::size_t>(r.uniform_int(0, 150)), other, 3);
    const std::size_t exact = be_lcs_length_exact(q, d, ref);
    const std::size_t paper = be_lcs_length(q, d, ref);
    const prepared_axis pq(q);
    const prepared_axis pd(d);
    for (const lcs_kernel& k : registered_lcs_kernels()) {
      lcs_context ctx(k);
      EXPECT_EQ(be_lcs_length_exact_bounded(pq, d, 0, ctx), exact)
          << "kernel " << k.name << " len " << len << " pool " << pool_kind;
      EXPECT_EQ(be_lcs_length_exact_bounded(pd, q, 0, ctx), exact)
          << "kernel " << k.name << " len " << len << " pool " << pool_kind;
      EXPECT_EQ(be_lcs_length_bounded(pq, d, 0, ctx), paper)
          << "kernel " << k.name << " len " << len << " pool " << pool_kind;
      EXPECT_EQ(be_lcs_length_bounded(pd, q, 0, ctx), paper)
          << "kernel " << k.name << " len " << len << " pool " << pool_kind;
    }
  }
}

TEST_P(PreparedKernelFuzz, PreparedBandContractAtRandomThresholds) {
  // The band contract through the prepared entry, for every kernel and
  // both prepared sides: result >= true length, (result >= min_needed) iff
  // (true >= min_needed), and exact whenever true >= min_needed.
  rng r(GetParam() * 104729 + 11);
  for (int round = 0; round < 6; ++round) {
    const std::vector<symbol_id> pool = symbol_pool(r, round % 3, 4);
    const std::vector<token> q = tokens_over(
        r, 1 + static_cast<std::size_t>(r.uniform_int(0, 180)), pool, 3);
    const std::vector<token> d = tokens_over(
        r, 1 + static_cast<std::size_t>(r.uniform_int(0, 180)), pool, 3);
    const prepared_axis pq(q);
    const prepared_axis pd(d);
    for (const lcs_kernel& k : registered_lcs_kernels()) {
      lcs_context ctx(k);
      const std::size_t exact = be_lcs_length_exact(q, d, ctx);
      for (int probe = 0; probe < 8; ++probe) {
        const auto needed = static_cast<std::size_t>(r.uniform_int(
            1, static_cast<int>(std::min(q.size(), d.size())) + 2));
        for (const auto& [cols, rows] :
             {std::pair{&pq, std::span<const token>(d)},
              std::pair{&pd, std::span<const token>(q)}}) {
          const std::size_t bounded =
              be_lcs_length_exact_bounded(*cols, rows, needed, ctx);
          EXPECT_GE(bounded, exact) << "kernel " << k.name;
          EXPECT_EQ(bounded >= needed, exact >= needed) << "kernel " << k.name;
          if (exact >= needed) {
            EXPECT_EQ(bounded, exact) << "kernel " << k.name;
          }
        }
      }
    }
  }
}

TEST_P(PreparedKernelFuzz, SharedWithIsTheHistogramIntersection) {
  // The pruner's bound reads prepared_axis::shared_with; it must be the
  // histogram intersection size exactly, so every pruning decision (and
  // every search_stats counter) is unchanged.
  rng r(GetParam() * 6151 + 5);
  for (int round = 0; round < 10; ++round) {
    const std::vector<symbol_id> pool = symbol_pool(r, round % 3, 8);
    const std::vector<token> a = tokens_over(
        r, static_cast<std::size_t>(r.uniform_int(0, 90)), pool, 3);
    const std::vector<token> b = tokens_over(
        r, static_cast<std::size_t>(r.uniform_int(0, 90)), pool, 2);
    const token_histogram ha(a);
    const token_histogram hb(b);
    EXPECT_EQ(prepared_axis(a).shared_with(hb),
              token_histogram::intersection_size(ha, hb));
    EXPECT_EQ(prepared_axis(b).shared_with(ha),
              token_histogram::intersection_size(hb, ha));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedKernelFuzz,
                         ::testing::Range<std::uint64_t>(0, 25));

// What a prepared axis may hold: its mask rows (distinct tokens plus the
// zero row, words() words each) and a constant number of bytes per token
// for the tokens, the slot table, the displacements and the prepare-time
// scratch. A table that grows with the alphabet or quadratically with the
// distinct tokens exceeds it.
std::size_t footprint_allowance(const prepared_axis& axis) {
  return (axis.distinct() + 1) * axis.words() * sizeof(std::uint64_t) +
         128 * (axis.size() + 1);
}

// Every column's mask bit and every token's count, plus the zero row for a
// token the query lacks.
void expect_describes(const prepared_axis& axis, std::span<const token> q,
                      token absent) {
  for (std::size_t j = 0; j < q.size(); ++j) {
    ASSERT_TRUE((axis.mask(q[j])[j / 64] >> (j % 64)) & 1u) << "column " << j;
    ASSERT_EQ(axis.count(q[j]),
              static_cast<std::uint32_t>(std::count(q.begin(), q.end(), q[j])))
        << "column " << j;
  }
  EXPECT_EQ(axis.count(absent), 0u);
  for (std::size_t k = 0; k < axis.words(); ++k) {
    EXPECT_EQ(axis.mask(absent)[k], 0u);
  }
}

TEST(PreparedAxis, FootprintGrowsWithTheQueryNotTheAlphabet) {
  // symbol_id spans uint32_t, so a table indexed by symbol would be
  // alphabet-sized. The prepared axis must stay O(distinct tokens x words)
  // however large or sparse the ids: the same string shape prepared over
  // a dense pool, ids past 2^20, and ids near UINT32_MAX.
  rng r(99);
  for (const std::size_t len : {8u, 60u, 130u, 300u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const std::vector<symbol_id> pool = symbol_pool(r, kind, len / 3 + 1);
      const prepared_axis axis(tokens_over(r, len, pool, 4));
      ASSERT_GE(axis.words(), 1u);
      EXPECT_LE(axis.footprint_bytes(), footprint_allowance(axis))
          << "len " << len << " pool " << kind;
    }
  }
}

TEST(PreparedAxis, ThousandsOfSparseIdsStayWithinTheAllowance) {
  // 4096 distinct tokens — one begin and one end boundary for each of 2048
  // ids — from random 32-bit ids, ids near UINT32_MAX, and ids strided by
  // powers of two (keys equal modulo every table size, the classic worst
  // case of multiply-shift with a fixed multiplier). A slot table that grew
  // until one multiplier separated every key would need ~distinct^2 slots.
  rng r(4096);
  using id_pattern = std::function<symbol_id(std::uint32_t)>;
  const std::vector<std::pair<std::string, id_pattern>> patterns = {
      {"random",
       [&](std::uint32_t) {
         return static_cast<symbol_id>(r.next_u64() % 0xFFFFFFFEu);
       }},
      {"near-max", [](std::uint32_t i) { return 0xFFFFFFFEu - 1 - i; }},
      {"stride-2^11", [](std::uint32_t i) { return i << 11; }},
      {"stride-2^20", [](std::uint32_t i) { return i << 20; }},
  };
  for (const auto& [name, id_of] : patterns) {
    std::vector<token> q;
    for (std::uint32_t i = 0; i < 2048; ++i) {
      const symbol_id id = id_of(i);
      q.push_back(Bb(id));
      q.push_back(Be(id));
    }
    // Repeated prepares draw fresh multipliers; every one must fit.
    for (int repeat = 0; repeat < 3; ++repeat) {
      const prepared_axis axis(q);
      std::vector<token> unique = q;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      ASSERT_EQ(axis.distinct(), unique.size()) << name;
      EXPECT_LE(axis.footprint_bytes(), footprint_allowance(axis)) << name;
      expect_describes(axis, q, Bb(0xFFFFFFFEu));
    }
  }
}

TEST(PreparedAxis, MasksAndCountsDescribeTheTokens) {
  rng r(17);
  const std::vector<symbol_id> pool = symbol_pool(r, 2, 5);
  const std::vector<token> q = tokens_over(r, 150, pool, 3);
  const prepared_axis axis(q);
  ASSERT_EQ(axis.words(), 3u);
  std::vector<token> seen = q;
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(axis.distinct(), seen.size());
  // A token the query lacks selects the zero row.
  expect_describes(axis, q, Bb(12345));
  // Re-preparing in place forgets the previous query entirely.
  prepared_axis reused(q);
  reused.assign(std::vector<token>{Bb(7), token::dummy()});
  EXPECT_EQ(reused.distinct(), 2u);
  for (const token t : seen) {
    if (t != Bb(7) && t != token::dummy()) {
      EXPECT_EQ(reused.count(t), 0u);
    }
  }
}

// ----------------------------------------------- scoring context hygiene

TEST(LcsContext, ReuseAcrossMixedSizesStaysCorrect) {
  // Interleave calls of wildly different sizes through ONE context; stale
  // scratch from a larger earlier call must never bleed into a later one.
  rng r(4242);
  lcs_context ctx;
  for (int round = 0; round < 200; ++round) {
    const std::size_t max_len = round % 3 == 0 ? 60 : 6;
    const std::vector<token> q = random_tokens(r, max_len, 2);
    const std::vector<token> d = random_tokens(r, max_len, 2);
    EXPECT_EQ(be_lcs_length(q, d, ctx), be_lcs_length_exact(q, d, ctx));
    EXPECT_DOUBLE_EQ(
        be_lcs_weighted(q, d, 1.0, ctx),
        static_cast<double>(be_lcs_length_exact(q, d, ctx)));
  }
}

TEST(LcsContext, ScratchStaysLinearInShorterString) {
  // The acceptance bar for the rolling refactor: length-only scoring over
  // an (m, n) pair touches O(min(m, n)) cells, not O(mn) like be_lcs_fill.
  alphabet names;
  rng r(7);
  scene_params params;
  params.object_count = 128;
  params.symbol_pool = 32;
  const be_string2d big = encode(random_scene(params, r, names));
  params.object_count = 8;
  const be_string2d small = encode(random_scene(params, r, names));

  // The strict linear bound is a property of the scalar rolling kernel;
  // pin it so the assertion holds regardless of the CPU-dispatched default.
  lcs_context ctx(*find_lcs_kernel("scalar"));
  (void)be_lcs_length(big.x.span(), small.x.span(), ctx);
  (void)be_lcs_length(small.x.span(), big.x.span(), ctx);
  (void)be_lcs_length_exact(big.x.span(), small.x.span(), ctx);
  const std::size_t shorter = std::min(big.x.size(), small.x.size());
  const std::size_t longer = std::max(big.x.size(), small.x.size());
  // Exact kernel needs 4 rolling rows of (shorter + 1) int32 cells; allow
  // the geometric slack of vector growth but stay far under one table row
  // per longer-string token.
  EXPECT_LE(ctx.scratch_bytes(), 4 * (shorter + 1) * sizeof(std::int32_t) * 2);
  EXPECT_LT(ctx.scratch_bytes(), longer * sizeof(std::int32_t) * (shorter + 1));

  const be_lcs_table w = be_lcs_fill(big.x.span(), small.x.span());
  EXPECT_EQ(w.storage_cells(), (big.x.size() + 1) * (small.x.size() + 1));
  EXPECT_LT(ctx.scratch_bytes(), w.storage_cells() * sizeof(std::int32_t));

  // Every registered kernel, including the bit-parallel one with the
  // prepared shorter string's match masks, must still stay far below the
  // full table: O(shorter / 64 * distinct-tokens) words, not O(mn) cells.
  for (const lcs_kernel& k : registered_lcs_kernels()) {
    lcs_context kctx(k);
    (void)be_lcs_length(big.x.span(), small.x.span(), kctx);
    (void)be_lcs_length_exact(big.x.span(), small.x.span(), kctx);
    (void)be_lcs_weighted(big.x.span(), small.x.span(), 0.5, kctx);
    EXPECT_LT(kctx.scratch_bytes(), w.storage_cells() * sizeof(std::int32_t))
        << "kernel " << k.name;
    EXPECT_LT(kctx.scratch_bytes() + kctx.prepared_bytes(),
              w.storage_cells() * sizeof(std::int32_t))
        << "kernel " << k.name;
  }
}

// ----------------------------------------------------- encoded real scenes

TEST(SignedVsExactFuzz, EncodedScenePairsAgree) {
  // Real (well-formed) BE-strings from the scene generator, including the
  // degenerate grid-aligned ones that maximize coincident boundaries.
  alphabet names;
  rng r(11);
  for (int trial = 0; trial < 60; ++trial) {
    scene_params params;
    params.object_count = 4 + static_cast<std::size_t>(trial % 9);
    params.symbol_pool = 4;
    params.grid = trial % 2 == 0 ? 8 : 0;  // grid forces shared coordinates
    const be_string2d a = encode(random_scene(params, r, names));
    const be_string2d b = encode(random_scene(params, r, names));
    EXPECT_EQ(be_lcs_length(a.x.span(), b.x.span()),
              be_lcs_length_exact(a.x.span(), b.x.span()));
    EXPECT_EQ(be_lcs_length(a.y.span(), b.y.span()),
              be_lcs_length_exact(a.y.span(), b.y.span()));
  }
}

}  // namespace
}  // namespace bes
