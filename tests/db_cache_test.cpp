// The result-cache equivalence suite (cache_smoke label; runs under the
// ASan and TSan CI jobs).
//
// Contract under test: search_cached is invisible in the answer — for every
// kernel, option set, thread count, and shard count {1, 3, 8}, a cached
// search returns results bit-identical to the matching uncached search,
// whether the request is a miss, a pure hit, or a delta refresh, and
// whether the database is quiesced or mid-ingest. Delta refresh must score
// only the appended suffix (O(appended), never the corpus), and a forged
// "fresh" stamp on a stale entry must produce answers the equality checks
// catch — the negative control proving the suite has teeth.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "db/query.hpp"
#include "db/result_cache.hpp"
#include "db/shard.hpp"
#include "net/loopback.hpp"
#include "support/test_support.hpp"

namespace bes {
namespace {

struct scene_pool {
  alphabet symbols;
  std::vector<symbolic_image> scenes;

  explicit scene_pool(std::size_t count, std::uint64_t seed = 41) {
    testsupport::scene_opts opts;
    opts.object_count = 5;
    opts.symbol_pool = 6;
    scenes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      scenes.push_back(testsupport::make_scene(seed + i, symbols, opts));
    }
  }
};

image_database build_db(const scene_pool& pool, std::size_t count) {
  image_database db;
  for (const std::string& name : pool.symbols.names()) {
    db.symbols().intern(name);
  }
  for (std::size_t i = 0; i < count; ++i) {
    db.add("img" + std::to_string(i), pool.scenes[i]);
  }
  return db;
}

sharded_database build_sharded(const scene_pool& pool, std::size_t count,
                               std::size_t shards) {
  sharded_database db(shards);
  for (const std::string& name : pool.symbols.names()) {
    db.symbols().intern(name);
  }
  for (std::size_t i = 0; i < count; ++i) {
    db.add("img" + std::to_string(i), pool.scenes[i]);
  }
  return db;
}

// The equivalence matrix: both scoring kernels, indexed and exhaustive
// scans, pruning, thresholds, transform invariance exhaustive and pruned,
// unlimited k, and a parallel inner scan.
std::vector<std::pair<std::string, query_options>> option_matrix() {
  std::vector<std::pair<std::string, query_options>> matrix;
  {
    query_options o;
    o.top_k = 5;
    matrix.emplace_back("topk", o);
  }
  {
    query_options o;
    o.use_index = false;
    o.top_k = 5;
    matrix.emplace_back("exhaustive", o);
  }
  {
    query_options o;
    o.top_k = 8;
    o.min_score = 0.3;
    o.histogram_pruning = true;
    matrix.emplace_back("thresholded+pruned", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.similarity.exact_lcs = true;
    matrix.emplace_back("exact-lcs", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.transform_invariant = true;
    matrix.emplace_back("transform-invariant", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.transform_invariant = true;
    o.histogram_pruning = true;
    matrix.emplace_back("transform-invariant+pruned", o);
  }
  {
    query_options o;
    o.top_k = 0;  // unlimited: the whole ranking must be cached exactly
    matrix.emplace_back("unlimited", o);
  }
  {
    query_options o;
    o.use_index = false;
    o.top_k = 5;
    o.threads = 2;
    matrix.emplace_back("threaded", o);
  }
  return matrix;
}

// ------------------------------------------------------------- store unit

TEST(CacheStore, CapacityZeroThrows) {
  result_cache_options options;
  options.capacity = 0;
  EXPECT_THROW(result_cache cache(options), std::invalid_argument);
}

TEST(CacheStore, EvictsAndCountsOnceOverCapacity) {
  result_cache_options options;
  options.capacity = 2;
  options.shards = 1;
  result_cache cache(options);
  const scene_pool pool(3);
  query_options qopts;
  for (std::size_t i = 0; i < 3; ++i) {
    const be_string2d strings = encode(pool.scenes[i]);
    const cache_key key =
        make_cache_key(strings, distinct_symbols(pool.scenes[i]), qopts,
                       cache_scope::flat, 1, 0);
    cache.put(key, cache_entry{});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u) << "clear() must not count evictions";
}

TEST(CacheStore, ReReferencedEntrySurvivesAOneOffBurst) {
  result_cache_options options;
  options.capacity = 4;
  options.shards = 1;
  options.protected_fraction = 0.5;
  result_cache cache(options);
  const scene_pool pool(8);
  query_options qopts;
  auto key_of = [&](std::size_t i) {
    return make_cache_key(encode(pool.scenes[i]),
                          distinct_symbols(pool.scenes[i]), qopts,
                          cache_scope::flat, 1, 0);
  };
  cache.put(key_of(0), cache_entry{});
  ASSERT_TRUE(cache.find(key_of(0)).has_value());  // promote to protected
  for (std::size_t i = 1; i < 8; ++i) {
    cache.put(key_of(i), cache_entry{});  // one-off burst through probation
  }
  EXPECT_TRUE(cache.find(key_of(0)).has_value())
      << "the segmented LRU let a one-off burst flush the hot entry";
}

// --------------------------------------------------- flat equivalence

TEST(CacheSearch, FlatMissThenHitBitIdenticalForEveryConfig) {
  const scene_pool pool(24);
  image_database db = build_db(pool, 20);
  for (const auto& [label, options] : option_matrix()) {
    result_cache cache;
    for (const std::size_t q : {20u, 21u, 22u}) {
      const symbolic_image& query = pool.scenes[q];
      const auto expected = search(db, query, options);

      search_stats miss;
      EXPECT_EQ(search_cached(db, cache, query, options, &miss), expected)
          << label << " q" << q;
      EXPECT_EQ(miss.cache_misses, 1u) << label;
      EXPECT_EQ(miss.cache_hits, 0u) << label;

      search_stats hit;
      EXPECT_EQ(search_cached(db, cache, query, options, &hit), expected)
          << label << " q" << q << " (repeat)";
      EXPECT_EQ(hit.cache_hits, 1u) << label;
      EXPECT_EQ(hit.scanned, 0u) << label << ": a pure hit must not scan";
      EXPECT_EQ(hit.scored, 0u) << label;
    }
  }
}

TEST(CacheSearch, ShardedMissThenHitBitIdenticalForEveryConfig) {
  const scene_pool pool(24);
  const image_database flat = build_db(pool, 20);
  for (const std::size_t shards : {1u, 3u, 8u}) {
    sharded_database db = build_sharded(pool, 20, shards);
    for (const auto& [label, options] : option_matrix()) {
      result_cache cache;
      for (const std::size_t q : {20u, 22u}) {
        const symbolic_image& query = pool.scenes[q];
        const auto expected = search(db, query, options);
        EXPECT_EQ(expected, search(flat, query, options))
            << label << " shards=" << shards;

        search_stats miss;
        EXPECT_EQ(search_cached(db, cache, query, options, &miss), expected)
            << label << " shards=" << shards;
        EXPECT_EQ(miss.cache_misses, 1u) << label;

        search_stats hit;
        EXPECT_EQ(search_cached(db, cache, query, options, &hit), expected)
            << label << " shards=" << shards << " (repeat)";
        EXPECT_EQ(hit.cache_hits, 1u) << label;
        EXPECT_EQ(hit.scanned, 0u) << label;
      }
    }
  }
}

TEST(CacheSearch, BatchMatchesCachedSingles) {
  const scene_pool pool(26);
  sharded_database db = build_sharded(pool, 20, 3);
  const std::vector<symbolic_image> queries = {pool.scenes[20],
                                               pool.scenes[23]};
  query_options options;
  options.top_k = 6;
  const auto batch = search_batch(db, queries, options);
  ASSERT_EQ(batch.size(), queries.size());
  result_cache cache;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Miss pass then hit pass, both equal to the batch row.
    EXPECT_EQ(search_cached(db, cache, queries[i], options), batch[i]);
    EXPECT_EQ(search_cached(db, cache, queries[i], options), batch[i]);
  }
}

TEST(CacheSearch, ThreadCountIsExcludedFromTheKey) {
  const scene_pool pool(18);
  image_database db = build_db(pool, 16);
  query_options one;
  one.use_index = false;
  one.top_k = 5;
  query_options four = one;
  four.threads = 4;

  result_cache cache;
  const auto first = search_cached(db, cache, pool.scenes[16], one);
  search_stats stats;
  const auto second = search_cached(db, cache, pool.scenes[16], four, &stats);
  EXPECT_EQ(first, second);
  EXPECT_EQ(stats.cache_hits, 1u)
      << "results are thread-count-invariant; the key must not fragment on "
         "threads";
}

TEST(CacheSearch, TransformSiblingsShareOneEntry) {
  for (bool pruning : {false, true}) {
    SCOPED_TRACE(pruning ? "pruned" : "exhaustive");
    const scene_pool pool(18);
    image_database db = build_db(pool, 16);
    query_options options;
    options.top_k = 5;
    options.transform_invariant = true;
    options.histogram_pruning = pruning;

    const symbolic_image& query = pool.scenes[16];
    result_cache cache;
    const auto base = search_cached(db, cache, query, options);
    EXPECT_EQ(base, search(db, query, options));
    EXPECT_EQ(cache.size(), 1u);

    for (const dihedral t : all_dihedral) {
      const symbolic_image sibling = apply(t, query);
      search_stats stats;
      const auto got = search_cached(db, cache, sibling, options, &stats);
      EXPECT_EQ(stats.cache_hits, 1u) << "orientation " << static_cast<int>(t)
                                      << " missed the shared entry";
      const auto expected = search(db, sibling, options);
      ASSERT_EQ(got.size(), expected.size()) << static_cast<int>(t);
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Ids and scores are frame-independent and must match a fresh scan
        // exactly; the reported transform element may legitimately differ
        // for symmetric queries (several elements realize the same score).
        EXPECT_EQ(got[i].id, expected[i].id) << static_cast<int>(t);
        EXPECT_EQ(got[i].score, expected[i].score) << static_cast<int>(t);
      }
    }
    EXPECT_EQ(cache.size(), 1u)
        << "sibling orientations must not create fresh entries";
  }
}

// ----------------------------------------------------------- delta refresh

TEST(CacheDelta, FlatRefreshScoresOnlyTheAppendedSuffix) {
  const scene_pool pool(40);
  image_database db = build_db(pool, 24);
  query_options options;
  options.use_index = false;  // suffix size is exact for the full scan path
  options.top_k = 5;
  const symbolic_image& query = pool.scenes[36];

  result_cache cache;
  (void)search_cached(db, cache, query, options);

  const std::size_t appended = 4;
  for (std::size_t i = 0; i < appended; ++i) {
    db.add("late" + std::to_string(i), pool.scenes[24 + i]);
  }

  search_stats stats;
  const auto refreshed = search_cached(db, cache, query, options, &stats);
  EXPECT_EQ(refreshed, search(db, query, options))
      << "delta refresh changed the answer";
  EXPECT_EQ(stats.cache_delta_refreshes, 1u);
  EXPECT_EQ(stats.cache_delta_rescored, appended)
      << "refresh must score exactly the appended records";
  EXPECT_EQ(stats.scanned, appended)
      << "refresh scanned more than the appended suffix";
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);

  // The refreshed entry is stored back: an immediate repeat is a pure hit.
  search_stats hit;
  EXPECT_EQ(search_cached(db, cache, query, options, &hit), refreshed);
  EXPECT_EQ(hit.cache_hits, 1u);
}

TEST(CacheDelta, ShardedRefreshScoresOnlyTheAppendedSuffix) {
  const scene_pool pool(40);
  sharded_database db = build_sharded(pool, 24, 3);
  query_options options;
  options.use_index = false;
  options.top_k = 5;
  const symbolic_image& query = pool.scenes[36];

  result_cache cache;
  (void)search_cached(db, cache, query, options);
  const std::size_t appended = 5;
  for (std::size_t i = 0; i < appended; ++i) {
    db.add("late" + std::to_string(i), pool.scenes[24 + i]);
  }

  search_stats stats;
  const auto refreshed = search_cached(db, cache, query, options, &stats);
  EXPECT_EQ(refreshed, search(db, query, options));
  EXPECT_EQ(stats.cache_delta_refreshes, 1u);
  EXPECT_EQ(stats.cache_delta_rescored, appended);
}

TEST(CacheDelta, StalenessBudgetFallsBackToAFullScan) {
  const scene_pool pool(40);
  image_database db = build_db(pool, 16);
  query_options options;
  options.top_k = 5;
  result_cache_options copts;
  copts.max_delta_records = 2;  // tiny budget: 3 appends must overflow it
  result_cache cache(copts);
  const symbolic_image& query = pool.scenes[36];

  (void)search_cached(db, cache, query, options);
  for (std::size_t i = 0; i < 3; ++i) {
    db.add("late" + std::to_string(i), pool.scenes[16 + i]);
  }
  search_stats stats;
  EXPECT_EQ(search_cached(db, cache, query, options, &stats),
            search(db, query, options));
  EXPECT_EQ(stats.cache_misses, 1u) << "past the budget the refresh must be "
                                       "a full-scan miss";
  EXPECT_EQ(stats.cache_delta_refreshes, 0u);
}

TEST(CacheDelta, CompleteEntrySurvivesADeletionWithoutAFullScan) {
  const scene_pool pool(24);
  image_database db = build_db(pool, 16);
  query_options options;
  options.top_k = 0;  // complete: the entry holds the ENTIRE ranking
  options.use_index = false;
  const symbolic_image& query = pool.scenes[20];

  result_cache cache;
  const auto before = search_cached(db, cache, query, options);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(db.remove(before.front().id));

  search_stats stats;
  const auto after = search_cached(db, cache, query, options, &stats);
  EXPECT_EQ(after, search(db, query, options));
  EXPECT_EQ(stats.cache_delta_refreshes, 1u)
      << "a complete entry must absorb deletions as a (empty-suffix) delta";
  EXPECT_EQ(stats.scanned, 0u) << "nothing was appended, nothing to scan";
  for (const query_result& r : after) EXPECT_NE(r.id, before.front().id);
}

// One icon per symbol name, stepped along a diagonal from `shift`.
symbolic_image scene_of(alphabet& names,
                        std::initializer_list<const char*> symbols,
                        int shift) {
  symbolic_image img(64, 64);
  int offset = shift;
  for (const char* s : symbols) {
    img.add(names.intern(s),
            rect::checked(offset, offset + 9, 40 - offset, 49 - offset));
    offset += 7;
  }
  return img;
}

// Appends the mixed batch to `db` (flat or sharded) and tombstones its
// "dead" record; returns how many appended records share >= 1 symbol with
// {A, B, C}, live or dead.
template <typename Db>
std::size_t append_mixed_batch(Db& db) {
  struct late {
    const char* name;
    std::initializer_list<const char*> symbols;
    bool shares;
  };
  const late batch[] = {
      {"share_a", {"A", "X"}, true},      {"none_xy", {"X", "Y"}, false},
      {"share_bc", {"B", "C"}, true},     {"dead_ab", {"A", "B"}, true},
      {"none_z", {"Z"}, false},           {"share_c", {"Y", "C", "Z"}, true},
  };
  std::size_t sharing = 0;
  image_id dead = 0;
  int shift = 3;
  for (const late& rec : batch) {
    const image_id id =
        db.add(rec.name, scene_of(db.symbols(), rec.symbols, shift++));
    if (std::string(rec.name) == "dead_ab") dead = id;
    sharing += rec.shares ? 1 : 0;
  }
  EXPECT_TRUE(db.remove(dead));
  return sharing;
}

template <typename Db>
void seed_base(Db& db) {
  const std::initializer_list<const char*> bases[] = {
      {"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}, {"D", "F"}};
  for (int round = 0; round < 2; ++round) {
    int shift = round * 5;
    for (const auto& symbols : bases) {
      db.add("base" + std::to_string(db.size()),
             scene_of(db.symbols(), symbols, shift++));
    }
  }
}

std::vector<query_options> default_path_options() {
  query_options plain;
  plain.top_k = 4;
  query_options pruned = plain;
  pruned.histogram_pruning = true;
  pruned.threads = 4;
  return {plain, pruned};
}

// The default path (use_index = true, as the CLI and the benchmark run it):
// the appended suffix comes from the inverted index restricted to the
// appended id range. A record sharing no query symbol is never generated;
// one tombstoned after its append is generated and scanned (counted as
// pruned), never scored.
TEST(CacheDelta, FlatDefaultPathRefreshGeneratesOnlyTheSharingSuffix) {
  for (const query_options& options : default_path_options()) {
    image_database db;
    seed_base(db);
    const symbolic_image query = scene_of(db.symbols(), {"A", "B", "C"}, 2);
    const be_string2d strings = encode(query);
    const std::vector<symbol_id> symbols = distinct_symbols(query);

    result_cache cache;
    (void)search_cached(db, cache, query, options);
    const std::size_t sharing = append_mixed_batch(db);

    const db_snapshot snap = db.snapshot();
    search_stats stats;
    const auto refreshed =
        search_cached(snap, cache, strings, symbols, options, &stats);
    EXPECT_EQ(refreshed, search(snap, strings, symbols, options))
        << "delta refresh changed the answer";
    EXPECT_EQ(stats.cache_delta_refreshes, 1u);
    EXPECT_EQ(stats.scanned, sharing)
        << "the suffix must be exactly the appended records sharing a "
           "query symbol, live or dead";
    EXPECT_EQ(stats.cache_delta_rescored, sharing);
  }
}

TEST(CacheDelta, ShardedDefaultPathRefreshGeneratesOnlyTheSharingSuffix) {
  for (std::size_t shards : {1u, 3u, 4u}) {
    for (const query_options& options : default_path_options()) {
      sharded_database db(shards);
      seed_base(db);
      const symbolic_image query = scene_of(db.symbols(), {"A", "B", "C"}, 2);
      const be_string2d strings = encode(query);
      const std::vector<symbol_id> symbols = distinct_symbols(query);

      result_cache cache;
      (void)search_cached(db, cache, query, options);
      const std::size_t sharing = append_mixed_batch(db);

      const sharded_snapshot snap = db.snapshot();
      search_stats stats;
      const auto refreshed =
          search_cached(db, snap, cache, strings, symbols, options, &stats);
      EXPECT_EQ(refreshed, search(db, snap, strings, symbols, options))
          << shards << " shards";
      EXPECT_EQ(stats.cache_delta_refreshes, 1u) << shards << " shards";
      EXPECT_EQ(stats.scanned, sharing) << shards << " shards";
      EXPECT_EQ(stats.cache_delta_rescored, sharing) << shards << " shards";
    }
  }
}

TEST(CacheDelta, IncompleteEntryFallsBackToAFullScanOnDeletion) {
  const scene_pool pool(24);
  image_database db = build_db(pool, 16);
  query_options options;
  options.top_k = 3;  // truncated: a deletion may promote a hidden runner-up
  options.use_index = false;
  const symbolic_image& query = pool.scenes[20];

  result_cache cache;
  const auto before = search_cached(db, cache, query, options);
  ASSERT_EQ(before.size(), 3u) << "need a full (truncated) top-k";
  ASSERT_TRUE(db.remove(before.front().id));

  search_stats stats;
  const auto after = search_cached(db, cache, query, options, &stats);
  EXPECT_EQ(after, search(db, query, options))
      << "the promoted runner-up must appear";
  EXPECT_EQ(stats.cache_misses, 1u)
      << "an incomplete entry cannot answer past a deletion without a rescan";
}

// --------------------------------------------------------- negative control

// THE NEGATIVE CONTROL: forge an entry's cuts forward without rescanning —
// exactly what a staleness bug in the refresh logic would do — and confirm
// the cached answer now DIFFERS from the uncached truth. If this test ever
// starts failing (cached == uncached despite the forgery), the equivalence
// assertions above have lost their power to catch staleness bugs.
TEST(CacheNegativeControl, ForgedFreshnessProducesADetectablyWrongAnswer) {
  const scene_pool pool(24);
  image_database db = build_db(pool, 16);
  query_options options;
  options.top_k = 5;
  const symbolic_image& query = pool.scenes[20];

  result_cache cache;
  (void)search_cached(db, cache, query, options);

  // A guaranteed new top hit: the query scene itself (similarity 1.0).
  db.add("the-query-itself", query);
  const db_snapshot now = db.snapshot();

  const cache_key key =
      make_cache_key(encode(query), distinct_symbols(query), options,
                     cache_scope::flat, 1, 0);
  ASSERT_TRUE(cache.debug_mutate(key, [&](cache_entry& entry) {
    entry.cuts = {cache_cut{now.visible, now.epoch}};  // forged: no rescan
  }));

  search_stats stats;
  const auto forged = search_cached(db, cache, query, options, &stats);
  EXPECT_EQ(stats.cache_hits, 1u) << "the forgery must look like a pure hit";
  EXPECT_NE(forged, search(db, query, options))
      << "a stale entry served as fresh produced the CORRECT answer — the "
         "equivalence suite would miss a real staleness bug";
}

// ------------------------------------------------------------ racing ingest

constexpr std::size_t race_total = 72;
constexpr std::size_t race_initial = 24;
constexpr std::size_t race_readers = 3;
constexpr std::size_t race_iterations = 12;

// Distinct victims, each already added and live when removed.
bool delete_after(std::size_t i, image_id* victim) {
  if (i % 3 != 0) return false;
  *victim = static_cast<image_id>(2 * i / 3);
  return true;
}

// Readers share ONE cache and run pinned cached searches while a writer
// races adds + removes; every recorded (snapshot, results) pair must equal
// the pinned UNCACHED search at the same snapshot, replayed after the dust
// settles. TSan-green by construction: the cache is internally locked, the
// snapshots pin visibility.
TEST(CacheRace, FlatCachedSearchesMatchPinnedUncachedUnderIngest) {
  const scene_pool pool(race_total + 2, 43);
  std::vector<be_string2d> query_strings;
  std::vector<std::vector<symbol_id>> query_symbols;
  for (std::size_t q = 0; q < 2; ++q) {
    query_strings.push_back(encode(pool.scenes[race_total + q]));
    query_symbols.push_back(distinct_symbols(pool.scenes[race_total + q]));
  }
  query_options options;
  options.top_k = 6;

  image_database db = build_db(pool, race_initial);
  result_cache cache;

  struct sample {
    db_snapshot snap;
    std::size_t query = 0;
    std::vector<query_result> results;
  };
  std::vector<std::vector<sample>> samples(race_readers);
  std::vector<std::thread> readers;
  readers.reserve(race_readers);
  for (std::size_t r = 0; r < race_readers; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t it = 0; it < race_iterations; ++it) {
        sample s;
        s.query = (r + it) % 2;
        s.snap = db.snapshot();
        s.results = search_cached(s.snap, cache, query_strings[s.query],
                                  query_symbols[s.query], options);
        samples[r].push_back(std::move(s));
      }
    });
  }
  std::thread writer([&] {
    for (std::size_t i = race_initial; i < race_total; ++i) {
      db.add("img" + std::to_string(i), pool.scenes[i]);
      image_id victim = 0;
      if (delete_after(i, &victim)) {
        EXPECT_TRUE(db.remove(victim)) << "victim " << victim;
      }
    }
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  for (const auto& reader_samples : samples) {
    for (const sample& s : reader_samples) {
      EXPECT_EQ(s.results, search(s.snap, query_strings[s.query],
                                  query_symbols[s.query], options))
          << "snapshot visible=" << s.snap.visible
          << " epoch=" << s.snap.epoch;
    }
  }
}

void sharded_cache_race(std::size_t shard_count) {
  const scene_pool pool(race_total + 2, 47);
  std::vector<be_string2d> query_strings;
  std::vector<std::vector<symbol_id>> query_symbols;
  for (std::size_t q = 0; q < 2; ++q) {
    query_strings.push_back(encode(pool.scenes[race_total + q]));
    query_symbols.push_back(distinct_symbols(pool.scenes[race_total + q]));
  }
  query_options options;
  options.top_k = 6;

  sharded_database db = build_sharded(pool, race_initial, shard_count);
  result_cache cache;

  struct sample {
    sharded_snapshot snap;
    std::size_t query = 0;
    std::vector<query_result> results;
  };
  std::vector<std::vector<sample>> samples(race_readers);
  std::vector<std::thread> readers;
  readers.reserve(race_readers);
  for (std::size_t r = 0; r < race_readers; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t it = 0; it < race_iterations; ++it) {
        sample s;
        s.query = (r + it) % 2;
        s.snap = db.snapshot();
        s.results = search_cached(db, s.snap, cache, query_strings[s.query],
                                  query_symbols[s.query], options);
        samples[r].push_back(std::move(s));
      }
    });
  }
  std::thread writer([&] {
    for (std::size_t i = race_initial; i < race_total; ++i) {
      db.add("img" + std::to_string(i), pool.scenes[i]);
      image_id victim = 0;
      if (delete_after(i, &victim)) {
        EXPECT_TRUE(db.remove(victim)) << "victim " << victim;
      }
    }
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  for (const auto& reader_samples : samples) {
    for (const sample& s : reader_samples) {
      EXPECT_EQ(s.results, search(db, s.snap, query_strings[s.query],
                                  query_symbols[s.query], options))
          << "shards=" << shard_count;
    }
  }
}

TEST(CacheRace, ShardedCachedSearchesMatchPinnedUncachedThreeShards) {
  sharded_cache_race(3);
}

TEST(CacheRace, ShardedCachedSearchesMatchPinnedUncachedEightShards) {
  sharded_cache_race(8);
}

// ------------------------------------------------------- coordinator cache

TEST(CacheCoordinator, LoopbackHitsServeTheGatheredUnionExactly) {
  const scene_pool pool(20);
  const image_database flat = build_db(pool, 16);
  const sharded_database sharded = make_sharded(flat, 3);
  net::coordinator_options copts;
  copts.cache_entries = 64;
  net::loopback_cluster cluster(sharded, {}, copts);

  const symbolic_image& query = pool.scenes[17];
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  query_options qopts;
  qopts.top_k = 5;

  const net::remote_result first = cluster.front().search(strings, symbols,
                                                          qopts);
  EXPECT_EQ(first.results, search(flat, query, qopts));
  EXPECT_EQ(first.stats.cache_misses, 1u);

  const net::remote_result second = cluster.front().search(strings, symbols,
                                                           qopts);
  EXPECT_EQ(second.results, first.results) << "a hit must be bit-identical";
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.stats.scanned, 0u) << "a hit must not touch the shards";

  // A SHALLOWER request is served from the same union (any k <= gathered_k).
  query_options shallow = qopts;
  shallow.top_k = 3;
  const net::remote_result third = cluster.front().search(strings, symbols,
                                                          shallow);
  EXPECT_EQ(third.results, search(flat, query, shallow));
  EXPECT_EQ(third.stats.cache_hits, 1u);

  // A DEEPER request cannot be: it re-scatters (counted as a refresh) with
  // the cached union seeding the gossip floor, and must still be exact.
  query_options deep = qopts;
  deep.top_k = 9;
  const net::remote_result fourth = cluster.front().search(strings, symbols,
                                                           deep);
  EXPECT_EQ(fourth.results, search(flat, query, deep));
  EXPECT_EQ(fourth.stats.cache_delta_refreshes, 1u);

  EXPECT_GE(cluster.front().cache_stats().hits, 2u);
  cluster.front().invalidate_cache();
  const net::remote_result fifth = cluster.front().search(strings, symbols,
                                                          qopts);
  EXPECT_EQ(fifth.results, first.results);
  EXPECT_EQ(fifth.stats.cache_misses, 1u) << "invalidate must drop entries";
}

}  // namespace
}  // namespace bes
