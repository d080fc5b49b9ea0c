// search_stats semantics and pruned-scan equivalence.
//
// The contract under test: every scan path accounts each scanned candidate
// as exactly one of scored/pruned (scanned == scored + pruned), exhaustive
// scans never prune, and the pruned scan — histogram bound ordering, the
// running k-th-score threshold, and the in-DP early-exit band, serial or
// parallel — returns results identical to the exhaustive scan for the same
// inputs. Plus search_batch == per-query search, for every mode.
//
// ISSUE 7 extends the accounting upstream of the scan: every entry point
// also reports candidates_generated — the RAW ids its access path produced
// before dedup — so scanned == scored + pruned keeps partitioning what was
// visited while generated >= scanned exposes the generation overhead of
// prefiltered paths (duplicate posting/window hits that dedup removed).
// Legacy entry points leave stats.plans empty; only the planner records
// plans (db_planner_test covers those).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/transform.hpp"
#include "db/prefilter.hpp"
#include "db/query.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"

namespace bes {
namespace {

// A corpus with near-duplicate pairs so top-k boundaries see score ties.
image_database sibling_corpus(std::size_t bases, std::uint64_t seed = 23) {
  image_database db;
  rng r(seed);
  scene_params params;
  params.object_count = 8;
  params.symbol_pool = 10;
  for (std::size_t i = 0; i < bases; ++i) {
    const symbolic_image scene = random_scene(params, r, db.symbols());
    db.add("base" + std::to_string(i), scene);
    distortion_params sibling;
    sibling.keep_fraction = 0.8;
    sibling.jitter = 16;
    db.add("sib" + std::to_string(i), distort(scene, sibling, r, db.symbols()));
  }
  return db;
}

symbolic_image distorted_query(const image_database& db, std::uint64_t seed,
                               double keep = 0.6) {
  rng r(seed);
  distortion_params d;
  d.keep_fraction = keep;
  d.jitter = 8;
  alphabet scratch = db.symbols();
  return distort(db.record(static_cast<image_id>(seed % db.size())).image, d,
                 r, scratch);
}

// ------------------------------------------------------- stats invariants

class StatsConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsConsistency, BothPathsPartitionScannedIdentically) {
  const image_database db = sibling_corpus(20);
  const symbolic_image query = distorted_query(db, GetParam());
  query_options exhaustive;
  exhaustive.top_k = 5;
  query_options pruned = exhaustive;
  pruned.histogram_pruning = true;

  search_stats es;
  search_stats ps;
  const auto a = search(db, query, exhaustive, &es);
  const auto b = search(db, query, pruned, &ps);
  EXPECT_EQ(a, b);

  // Same candidate set on both paths.
  EXPECT_EQ(es.scanned, ps.scanned);
  // Exhaustive: everything scored, nothing pruned, no band.
  EXPECT_EQ(es.scored, es.scanned);
  EXPECT_EQ(es.pruned, 0u);
  EXPECT_EQ(es.band_rejected, 0u);
  // Pruned: scored/pruned partition scanned; the band only rejects scored
  // candidates.
  EXPECT_EQ(ps.scored + ps.pruned, ps.scanned);
  EXPECT_LE(ps.band_rejected, ps.scored);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsConsistency,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(StatsConsistency, ParallelPrunedPartitionsScannedToo) {
  const image_database db = sibling_corpus(30);
  const symbolic_image query = distorted_query(db, 3);
  query_options pruned;
  pruned.top_k = 5;
  pruned.histogram_pruning = true;
  pruned.threads = 4;
  search_stats ps;
  (void)search(db, query, pruned, &ps);
  EXPECT_EQ(ps.scored + ps.pruned, ps.scanned);
}

// ------------------------------------- pruned == exhaustive, all variants

class PrunedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrunedEquivalence, EarlyExitTopKIsIdenticalToExhaustive) {
  const image_database db = sibling_corpus(25, 29 + GetParam());
  const symbolic_image query = distorted_query(db, GetParam());
  for (std::size_t k : {1u, 4u, 10u}) {
    for (double min_score : {0.0, 0.3, 0.6}) {
      for (unsigned threads : {1u, 4u}) {
        query_options plain;
        plain.top_k = k;
        plain.min_score = min_score;
        query_options pruned = plain;
        pruned.histogram_pruning = true;
        pruned.threads = threads;
        EXPECT_EQ(search(db, query, plain), search(db, query, pruned))
            << "k=" << k << " min_score=" << min_score
            << " threads=" << threads;
      }
    }
  }
}

TEST_P(PrunedEquivalence, HoldsUnderEveryNormAndBothKernels) {
  // The band's admissibility math (min_tokens_for, the y-axis cap) is
  // norm-dependent, and the exact kernel has its own banded path; sweep all
  // of it against the exhaustive scan.
  const image_database db = sibling_corpus(15, 61 + GetParam());
  const symbolic_image query = distorted_query(db, GetParam());
  for (norm_kind norm : {norm_kind::query, norm_kind::max_len, norm_kind::dice,
                         norm_kind::min_len}) {
    for (bool exact : {false, true}) {
      query_options plain;
      plain.top_k = 5;
      plain.min_score = 0.4;
      plain.similarity.norm = norm;
      plain.similarity.exact_lcs = exact;
      query_options pruned = plain;
      pruned.histogram_pruning = true;
      EXPECT_EQ(search(db, query, plain), search(db, query, pruned))
          << "norm=" << static_cast<int>(norm) << " exact=" << exact;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedEquivalence,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(PrunedEquivalence, MinScoreOnlyPruningWithUnlimitedTopK) {
  // top_k == 0 used to disable the pruner entirely; a min_score floor alone
  // is enough of a threshold.
  const image_database db = sibling_corpus(20);
  const symbolic_image query = distorted_query(db, 5, 0.9);
  query_options plain;
  plain.top_k = 0;
  plain.min_score = 0.8;
  query_options pruned = plain;
  pruned.histogram_pruning = true;
  search_stats stats;
  EXPECT_EQ(search(db, query, plain), search(db, query, pruned, &stats));
  EXPECT_EQ(stats.scored + stats.pruned, stats.scanned);
  EXPECT_GT(stats.pruned, 0u) << "min_score floor never engaged the pruner";
}

TEST(PrunedEquivalence, UnderfilledTopKStillPrunesViaMinScore) {
  // Regression: the old scan only pruned once top_k results were held, so a
  // min_score most candidates miss meant every one was fully scored even
  // though its bound already ruled it out.
  const image_database db = sibling_corpus(40);
  const symbolic_image query = distorted_query(db, 7, 0.7);
  query_options options;
  options.top_k = 25;  // far more than will clear the floor
  options.min_score = 0.75;
  options.histogram_pruning = true;
  search_stats stats;
  const auto results = search(db, query, options, &stats);
  EXPECT_LT(results.size(), options.top_k);  // the floor leaves top-k short
  EXPECT_GT(stats.pruned, 0u)
      << "bound below min_score must prune even while top-k is underfilled";
  EXPECT_EQ(stats.scored + stats.pruned, stats.scanned);
  query_options plain = options;
  plain.histogram_pruning = false;
  EXPECT_EQ(results, search(db, query, plain));
}

TEST(PrunedEquivalence, BandActuallyCutsDpsShort) {
  // On a sibling-heavy corpus with a selective query the in-DP band must
  // reject at least some scored candidates before they finish.
  const image_database db = sibling_corpus(40);
  const symbolic_image query = distorted_query(db, 1, 0.8);
  query_options options;
  options.top_k = 3;
  options.histogram_pruning = true;
  search_stats stats;
  (void)search(db, query, options, &stats);
  EXPECT_GT(stats.band_rejected, 0u) << "early-exit band never engaged";
}

// ------------------------ pruned == exhaustive, transform-invariant scans

// The scene with every x interval snapped to one of two columns. Its x
// string holds far fewer dummies than its y string, so under the dummy cap
// the variants that swap the axes are bounded unlike the identity: a copy
// rotated by 90 degrees can score 1.0 while its identity bound is far less.
symbolic_image columns(const symbolic_image& scene) {
  symbolic_image out(scene.width(), scene.height());
  const int half = scene.width() / 2;
  for (std::size_t k = 0; k < scene.size(); ++k) {
    icon obj = scene.icons()[k];
    obj.mbr.x = k % 2 == 0 ? interval{0, half} : interval{half, scene.width()};
    out.add(obj);
  }
  return out;
}

// A corpus where one record's variants tie and several records tie on
// their best variant: each base scene (every other one in columns) is
// stored with a rotated, a reflected and a duplicate copy, next to a
// distorted sibling.
image_database transformed_corpus(std::size_t bases, std::uint64_t seed) {
  image_database db;
  rng r(seed);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 8;
  for (std::size_t i = 0; i < bases; ++i) {
    symbolic_image scene = random_scene(params, r, db.symbols());
    if (i % 2 == 1) scene = columns(scene);
    const std::string n = std::to_string(i);
    db.add("base" + n, scene);
    db.add("rot" + n, apply(all_dihedral[1 + i % 3], scene));
    db.add("refl" + n, apply(all_dihedral[4 + i % 4], scene));
    db.add("dup" + n, scene);
    distortion_params sibling;
    sibling.keep_fraction = 0.7;
    sibling.jitter = 12;
    db.add("sib" + n, distort(scene, sibling, r, db.symbols()));
  }
  return db;
}

class PrunedTransformInvariant
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrunedTransformInvariant, IdenticalToExhaustiveIncludingTransform) {
  const image_database db = transformed_corpus(8, 41 + GetParam());
  // A transformed copy of one stored scene with objects dropped, and for
  // even seeds jittered too.
  rng r(GetParam());
  distortion_params d;
  d.keep_fraction = 0.8;
  d.jitter = GetParam() % 2 == 0 ? 6 : 0;
  alphabet scratch = db.symbols();
  const symbolic_image query = distort(
      apply(all_dihedral[GetParam() % all_dihedral.size()],
            db.record(static_cast<image_id>(GetParam() * 7 % db.size())).image),
      d, r, scratch);
  std::vector<similarity_options> kernels(5);
  kernels[1].exact_lcs = true;
  kernels[2].norm = norm_kind::max_len;
  kernels[3].norm = norm_kind::dice;
  kernels[4].norm = norm_kind::min_len;
  for (const similarity_options& sim : kernels) {
    for (unsigned threads : {1u, 4u}) {
      for (std::size_t k : {1u, 3u, 10u}) {
        for (double min_score : {0.0, 0.4}) {
          for (bool use_index : {false, true}) {
            query_options plain;
            plain.transform_invariant = true;
            plain.similarity = sim;
            plain.top_k = k;
            plain.min_score = min_score;
            plain.use_index = use_index;
            query_options pruned = plain;
            pruned.histogram_pruning = true;
            pruned.threads = threads;
            search_stats stats;
            EXPECT_EQ(search(db, query, plain),
                      search(db, query, pruned, &stats))
                << "norm=" << static_cast<int>(sim.norm)
                << " exact=" << sim.exact_lcs << " threads=" << threads
                << " k=" << k << " min_score=" << min_score
                << " use_index=" << use_index;
            EXPECT_EQ(stats.scored + stats.pruned, stats.scanned);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedTransformInvariant,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(PrunedTransformInvariant, BoundsEveryVariantNotJustTheIdentity) {
  // Base scene 3 is in columns; its rot90 copy (id 16) and anti_transpose
  // copy (id 17) swap its axes. Against a rot90 query those two have a
  // full identity bound and score 1.0, while the base (15) and duplicate
  // (18) copies score 1.0 only under rot270 and are bounded by that
  // variant, not the identity. Ties rank by id, so the top 2 is {15, 16}.
  const image_database db = transformed_corpus(20, 5);
  const symbolic_image query = apply(dihedral::rot90, db.record(15).image);
  const be_string2d strings = encode(query);
  query_options options;
  options.transform_invariant = true;
  options.histogram_pruning = true;
  for (std::size_t k : {2u, 4u}) {
    options.top_k = k;
    search_stats stats;
    const auto results = search(db, query, options, &stats);
    ASSERT_EQ(results.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      const query_result& r = results[i];
      EXPECT_EQ(r.id, 15u + i);
      EXPECT_EQ(r.score, 1.0) << db.record(r.id).name;
      EXPECT_EQ(apply(r.transform, strings), db.record(r.id).strings)
          << db.record(r.id).name;
    }
    EXPECT_GT(stats.pruned, stats.scanned / 2) << "k=" << k;
  }
}

// ------------------------------------- candidate-generation accounting

TEST(StatsGeneration, FullScanGeneratesExactlyTheCorpus) {
  const image_database db = sibling_corpus(12);
  const symbolic_image query = distorted_query(db, 2);
  query_options options;
  options.use_index = false;
  search_stats stats;
  (void)search(db, query, options, &stats);
  EXPECT_EQ(stats.candidates_generated, db.size());
  EXPECT_EQ(stats.scanned, db.size());
  EXPECT_TRUE(stats.plans.empty()) << "legacy entry points never plan";
}

TEST(StatsGeneration, IndexedScanCountsRawPostingHits) {
  const image_database db = sibling_corpus(20);
  const symbolic_image query = distorted_query(db, 4);
  query_options options;
  options.use_index = true;
  options.histogram_pruning = true;
  search_stats stats;
  (void)search(db, query, options, &stats);
  // Raw posting hits can only exceed or equal the deduped scan set, and
  // scored/pruned still partitions exactly what was visited.
  EXPECT_GE(stats.candidates_generated, stats.scanned);
  EXPECT_GT(stats.scanned, 0u);
  EXPECT_EQ(stats.scored + stats.pruned, stats.scanned);
  EXPECT_TRUE(stats.plans.empty());
}

TEST(StatsGeneration, ExplicitCandidateListGeneratesItsOwnSize) {
  // search_candidates scores exactly the given list — generation is the
  // caller's doing, so generated == scanned == the list's size.
  const image_database db = sibling_corpus(15);
  const spatial_index spatial(db);
  const symbolic_image query = distorted_query(db, 3, 0.8);
  const auto set = window_candidates(spatial, query, 16);
  ASSERT_FALSE(set.empty());
  search_stats stats;
  (void)search_candidates(db, encode(query), set, {}, &stats);
  EXPECT_EQ(stats.candidates_generated, set.size());
  EXPECT_EQ(stats.scanned, set.size());
  EXPECT_EQ(stats.scored + stats.pruned, stats.scanned);
  EXPECT_TRUE(stats.plans.empty());
}

TEST(StatsGeneration, BatchStatsCarryGenerationPerQuery) {
  const image_database db = sibling_corpus(15);
  std::vector<symbolic_image> queries;
  for (std::uint64_t s = 0; s < 5; ++s) {
    queries.push_back(distorted_query(db, s));
  }
  query_options options;
  options.top_k = 5;
  options.threads = 3;
  std::vector<search_stats> stats;
  (void)search_batch(db, queries, options, &stats);
  ASSERT_EQ(stats.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    search_stats single;
    (void)search(db, queries[i], options, &single);
    EXPECT_EQ(stats[i].candidates_generated, single.candidates_generated)
        << "query " << i;
    EXPECT_GE(stats[i].candidates_generated, stats[i].scanned);
  }
}

// --------------------------------------------------------------- batching

TEST(SearchBatch, MatchesPerQuerySearch) {
  const image_database db = sibling_corpus(15);
  std::vector<symbolic_image> queries;
  for (std::uint64_t s = 0; s < 6; ++s) {
    queries.push_back(distorted_query(db, s));
  }
  for (bool pruning : {false, true}) {
    for (unsigned threads : {1u, 3u}) {
      query_options options;
      options.top_k = 5;
      options.histogram_pruning = pruning;
      options.threads = threads;
      std::vector<search_stats> batch_stats;
      const auto batched = search_batch(db, queries, options, &batch_stats);
      ASSERT_EQ(batched.size(), queries.size());
      ASSERT_EQ(batch_stats.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        search_stats single_stats;
        EXPECT_EQ(batched[i], search(db, queries[i], options, &single_stats))
            << "query " << i << " pruning=" << pruning
            << " threads=" << threads;
        EXPECT_EQ(batch_stats[i].scanned, single_stats.scanned);
        EXPECT_EQ(batch_stats[i].scored + batch_stats[i].pruned,
                  batch_stats[i].scanned);
      }
    }
  }
}

TEST(SearchBatch, TransformInvariantMatchesPerQuerySearch) {
  image_database db;
  rng r(14);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 6;
  const symbolic_image original = random_scene(params, r, db.symbols());
  db.add("original", original);
  db.add("rotated", apply(dihedral::rot90, original));
  for (int i = 0; i < 10; ++i) {
    db.add("other" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  std::vector<symbolic_image> queries = {original,
                                         apply(dihedral::flip_x, original)};
  query_options options;
  options.transform_invariant = true;
  options.top_k = 0;
  const auto batched = search_batch(db, queries, options);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], search(db, queries[i], options)) << "query " << i;
  }
  // The rotated copy is a perfect match for both query orientations.
  ASSERT_FALSE(batched[0].empty());
  EXPECT_DOUBLE_EQ(batched[0][0].score, 1.0);
}

TEST(SearchBatch, DynamicSchedulingIsThreadAndChunkInvariant) {
  // The cross-query work queue (ISSUE 5 satellite): however the batch is
  // carved up — more threads than queries, fewer threads than queries, or
  // serial — the results must be identical. A scheduling dependence would
  // show up as a flaky mismatch across these chunkings.
  const image_database db = sibling_corpus(20);
  std::vector<symbolic_image> queries;
  for (std::uint64_t s = 0; s < 5; ++s) {
    queries.push_back(distorted_query(db, s));
  }
  for (bool pruning : {false, true}) {
    query_options options;
    options.top_k = 5;
    options.histogram_pruning = pruning;
    options.threads = 1;
    const auto reference = search_batch(db, queries, options);
    for (unsigned threads : {2u, 3u, 8u, 16u}) {  // spans nq and beyond
      query_options chunked = options;
      chunked.threads = threads;
      EXPECT_EQ(search_batch(db, queries, chunked), reference)
          << "threads=" << threads << " pruning=" << pruning;
    }
  }
}

// ------------------------------------------- prefiltered candidate batches

TEST(SearchBatchCandidates, MatchesPerQuerySearchCandidates) {
  // The ROADMAP item: a prefiltered set fed through the batch path. Per
  // query, the batch scan over an explicit candidate set must agree with
  // search_candidates — results AND stats.
  const image_database db = sibling_corpus(20);
  const spatial_index spatial(db);
  std::vector<symbolic_image> queries;
  std::vector<be_string2d> strings;
  std::vector<std::vector<image_id>> sets;
  for (std::uint64_t s = 0; s < 6; ++s) {
    queries.push_back(distorted_query(db, s, 0.8));
    strings.push_back(encode(queries.back()));
    sets.push_back(window_candidates(spatial, queries.back(), 16));
  }
  for (bool pruning : {false, true}) {
    for (unsigned threads : {1u, 4u}) {
      query_options options;
      options.top_k = 5;
      options.histogram_pruning = pruning;
      options.threads = threads;
      std::vector<search_stats> batch_stats;
      const auto batched =
          search_batch_candidates(db, strings, sets, options, &batch_stats);
      ASSERT_EQ(batched.size(), queries.size());
      ASSERT_EQ(batch_stats.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        search_stats single_stats;
        EXPECT_EQ(batched[i], search_candidates(db, strings[i], sets[i],
                                                options, &single_stats))
            << "query " << i << " pruning=" << pruning
            << " threads=" << threads;
        EXPECT_EQ(batch_stats[i].scanned, sets[i].size());
        EXPECT_EQ(batch_stats[i].scanned, single_stats.scanned);
        EXPECT_EQ(batch_stats[i].scored + batch_stats[i].pruned,
                  batch_stats[i].scanned);
      }
    }
  }
}

TEST(SearchBatchCandidates, ValidatesSizesAndIdRange) {
  const image_database db = sibling_corpus(3);
  const std::vector<be_string2d> strings(2);
  {
    const std::vector<std::vector<image_id>> sets(1);
    EXPECT_THROW((void)search_batch_candidates(db, strings, sets),
                 std::invalid_argument);
  }
  {
    const std::vector<std::vector<image_id>> sets = {
        {0}, {static_cast<image_id>(db.size())}};
    EXPECT_THROW((void)search_batch_candidates(db, strings, sets),
                 std::out_of_range);
  }
}

TEST(SearchBatch, PreEncodedOverloadValidatesSizes) {
  const image_database db = sibling_corpus(3);
  const std::vector<be_string2d> strings(2);
  const std::vector<std::vector<symbol_id>> symbols(1);
  EXPECT_THROW((void)search_batch(db, strings, symbols),
               std::invalid_argument);
}

TEST(SearchBatch, EmptyBatchIsFine) {
  const image_database db = sibling_corpus(3);
  std::vector<search_stats> stats;
  EXPECT_TRUE(
      search_batch(db, std::span<const symbolic_image>{}, {}, &stats).empty());
  EXPECT_TRUE(stats.empty());
}

}  // namespace
}  // namespace bes
