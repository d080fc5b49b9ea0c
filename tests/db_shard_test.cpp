// The sharded-database equivalence suite.
//
// Contract under test: a sharded_database is a pure partitioning — for
// every kernel, thread count, shard count, and scan path, the fan-out/merge
// search returns results bit-identical to the same options over one
// unsharded database holding the same records in global-id order. Plus the
// consistent-hash ring's structural guarantees: deterministic assignment,
// full coverage, and resizes that move only the new shard's records.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/prefilter.hpp"
#include "db/shard.hpp"
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

constexpr std::size_t kShardCounts[] = {1, 3, 8};

// ------------------------------------------------------------------- ring

TEST(ShardRing, RejectsDegenerateParameters) {
  EXPECT_THROW(shard_ring(0), std::invalid_argument);
  EXPECT_THROW(shard_ring(3, 0), std::invalid_argument);
}

TEST(ShardRing, AssignmentIsDeterministicAndCovering) {
  const shard_ring a(8);
  const shard_ring b(8);
  std::set<std::size_t> seen;
  for (image_id id = 0; id < 2000; ++id) {
    const std::size_t s = a.shard_of(id);
    ASSERT_LT(s, 8u);
    EXPECT_EQ(s, b.shard_of(id));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 8u) << "2000 ids left a shard empty";
}

TEST(ShardRing, SpreadIsReasonablyUniform) {
  const shard_ring ring(8);
  std::map<std::size_t, std::size_t> counts;
  constexpr image_id n = 8000;
  for (image_id id = 0; id < n; ++id) ++counts[ring.shard_of(id)];
  for (const auto& [shard, count] : counts) {
    // Expected 1000 per shard; consistent hashing with 64 vnodes wobbles,
    // but a shard at <1/4 or >2.5x of fair share means a broken ring.
    EXPECT_GT(count, n / 8 / 4) << "shard " << shard;
    EXPECT_LT(count, n / 8 * 5 / 2) << "shard " << shard;
  }
}

TEST(ShardRing, GrowingMovesOnlyOntoTheNewShard) {
  // The consistent-hashing contract: adding shard N leaves every id either
  // where it was or on the NEW shard — no lateral churn between survivors.
  for (std::size_t n : {2u, 4u, 7u}) {
    const shard_ring before(n);
    const shard_ring after(n + 1);
    std::size_t moved = 0;
    constexpr image_id ids = 4000;
    for (image_id id = 0; id < ids; ++id) {
      const std::size_t was = before.shard_of(id);
      const std::size_t now = after.shard_of(id);
      if (was != now) {
        EXPECT_EQ(now, n) << "id " << id << " churned between old shards";
        ++moved;
      }
    }
    // Expected ids/(n+1); anything under half the corpus proves it is not
    // rehash-everything, and at least one id must land on the new shard.
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, ids / 2);
  }
}

// -------------------------------------------------------------- structure

TEST(ShardedDatabase, PartitionsRecordsWithoutLosingAny) {
  const image_database db = sibling_corpus(20);
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    ASSERT_EQ(sharded.size(), db.size());
    ASSERT_EQ(sharded.shard_count(), shards);

    std::size_t total = 0;
    std::set<image_id> seen;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& globals = sharded.shard_global_ids(s);
      ASSERT_EQ(globals.size(), sharded.shard_db(s).size());
      total += globals.size();
      for (std::size_t local = 0; local < globals.size(); ++local) {
        const image_id g = globals[local];
        EXPECT_TRUE(seen.insert(g).second) << "global id appears twice";
        EXPECT_EQ(sharded.shard_of(g), s);
        EXPECT_EQ(sharded.ring().shard_of(g), s);
        // The shard-local record is the global record, under a local id.
        const db_record& local_rec = sharded.shard_db(s).record(
            static_cast<image_id>(local));
        EXPECT_EQ(local_rec.name, db.record(g).name);
        EXPECT_EQ(local_rec.strings, db.record(g).strings);
      }
    }
    EXPECT_EQ(total, db.size());
    // Mirrored alphabets: master == unsharded, shards are prefixes.
    EXPECT_EQ(sharded.symbols().names(), db.symbols().names());
  }
}

TEST(ShardedDatabase, CandidatesMatchUnshardedIndex) {
  const image_database db = sibling_corpus(20);
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const symbolic_image query = distorted_query(db, seed);
      EXPECT_EQ(sharded.candidates(query), db.candidates(query))
          << "shards=" << shards << " seed=" << seed;
    }
  }
}

TEST(ShardedDatabase, PrefiltersMatchUnsharded) {
  const image_database db = sibling_corpus(20);
  const spatial_index spatial(db);
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const symbolic_image query = distorted_query(db, seed, 0.8);
      for (int pad : {0, 8, 32}) {
        EXPECT_EQ(window_candidates(sharded, query, pad),
                  window_candidates(spatial, query, pad))
            << "shards=" << shards << " pad=" << pad;
        EXPECT_EQ(combined_candidates(sharded, query, pad),
                  combined_candidates(db, spatial, query, pad))
            << "shards=" << shards << " pad=" << pad;
      }
    }
  }
}

// ------------------------------------------- search == unsharded search

class ShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardEquivalence, EveryKernelThreadsAndShardCount) {
  const image_database db = sibling_corpus(25, 31 + GetParam());
  const symbolic_image query = distorted_query(db, GetParam());

  std::vector<similarity_options> kernels(3);
  kernels[0] = {};                    // signed-query
  kernels[1].exact_lcs = true;        // exact-query
  kernels[2].norm = norm_kind::dice;  // signed-dice

  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    for (const similarity_options& sim : kernels) {
      for (unsigned threads : {1u, 4u}) {
        for (bool pruning : {false, true}) {
          query_options options;
          options.top_k = 5;
          options.min_score = 0.3;
          options.use_index = false;
          options.histogram_pruning = pruning;
          options.threads = threads;
          options.similarity = sim;
          search_stats flat_stats;
          search_stats shard_stats;
          EXPECT_EQ(search(sharded, query, options, &shard_stats),
                    search(db, query, options, &flat_stats))
              << "shards=" << shards << " threads=" << threads
              << " pruning=" << pruning << " exact=" << sim.exact_lcs;
          // Same candidate universe; accounting still partitions it.
          EXPECT_EQ(shard_stats.scanned, flat_stats.scanned);
          EXPECT_EQ(shard_stats.scored + shard_stats.pruned,
                    shard_stats.scanned);
        }
      }
    }
  }
}

TEST_P(ShardEquivalence, IndexPathAndTransformInvariant) {
  const image_database db = sibling_corpus(15, 47 + GetParam());
  const symbolic_image query = distorted_query(db, GetParam(), 0.8);
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    {
      query_options indexed;  // inverted-index path, defaults
      EXPECT_EQ(search(sharded, query, indexed), search(db, query, indexed))
          << "shards=" << shards;
    }
    {
      query_options invariant;
      invariant.use_index = false;
      invariant.transform_invariant = true;
      invariant.threads = 2;
      EXPECT_EQ(search(sharded, query, invariant), search(db, query, invariant))
          << "shards=" << shards;
    }
    {
      // Pruned transform-invariant shards against the flat exhaustive scan:
      // each shard defends the global k-th score on its own variants.
      query_options exhaustive;
      exhaustive.top_k = 5;
      exhaustive.transform_invariant = true;
      query_options pruned = exhaustive;
      pruned.histogram_pruning = true;
      for (unsigned threads : {1u, 4u}) {
        pruned.threads = threads;
        EXPECT_EQ(search(sharded, query, pruned), search(db, query, exhaustive))
            << "pruned tinv shards=" << shards << " threads=" << threads;
      }
    }
  }
}

TEST_P(ShardEquivalence, ExplicitCandidateSets) {
  const image_database db = sibling_corpus(20, 7 + GetParam());
  const spatial_index spatial(db);
  const symbolic_image query = distorted_query(db, GetParam(), 0.8);
  const be_string2d strings = encode(query);
  const std::vector<image_id> candidates =
      combined_candidates(db, spatial, query, 16);
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    for (bool pruning : {false, true}) {
      query_options options;
      options.top_k = 5;
      options.histogram_pruning = pruning;
      EXPECT_EQ(search_candidates(sharded, strings, candidates, options),
                search_candidates(db, strings, candidates, options))
          << "shards=" << shards << " pruning=" << pruning;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalence,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(ShardEquivalence, CandidateIdsAreRangeChecked) {
  const image_database db = sibling_corpus(5);
  const sharded_database sharded = make_sharded(db, 3);
  const symbolic_image query = distorted_query(db, 1);
  const be_string2d strings = encode(query);
  const std::vector<image_id> bogus = {0, static_cast<image_id>(db.size())};
  EXPECT_THROW((void)search_candidates(sharded, strings, bogus),
               std::out_of_range);
}

// ---------------------------------------------------------------- batches

TEST(ShardedBatch, MatchesPerQueryAndUnshardedBatch) {
  const image_database db = sibling_corpus(15);
  std::vector<symbolic_image> queries;
  for (std::uint64_t s = 0; s < 6; ++s) {
    queries.push_back(distorted_query(db, s));
  }
  for (std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(db, shards);
    for (bool pruning : {false, true}) {
      for (unsigned threads : {1u, 4u}) {
        query_options options;
        options.top_k = 5;
        options.use_index = false;
        options.histogram_pruning = pruning;
        options.threads = threads;
        std::vector<search_stats> stats;
        const auto batched = search_batch(sharded, queries, options, &stats);
        const auto flat = search_batch(db, queries, options);
        ASSERT_EQ(batched.size(), queries.size());
        ASSERT_EQ(stats.size(), queries.size());
        for (std::size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(batched[i], flat[i])
              << "query " << i << " shards=" << shards
              << " pruning=" << pruning << " threads=" << threads;
          EXPECT_EQ(batched[i], search(sharded, queries[i], options))
              << "query " << i << " shards=" << shards;
          EXPECT_EQ(stats[i].scored + stats[i].pruned, stats[i].scanned);
        }
      }
    }
  }
}

TEST(ShardedBatch, EmptyBatchAndEmptyDatabase) {
  const sharded_database empty(4);
  EXPECT_EQ(empty.size(), 0u);
  std::vector<search_stats> stats;
  EXPECT_TRUE(
      search_batch(empty, std::span<const symbolic_image>{}, {}, &stats)
          .empty());
  EXPECT_TRUE(stats.empty());

  const image_database db = sibling_corpus(3);
  const symbolic_image query = distorted_query(db, 1);
  EXPECT_TRUE(search(empty, query).empty());
}

}  // namespace
}  // namespace bes
