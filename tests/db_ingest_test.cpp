// Live ingest (epoch snapshots + tombstones): snapshot visibility, remove
// semantics, tombstone-aware stats accounting, the add_encoded strong
// guarantee, and the write-while-scanning torture battery — adds and
// deletes racing pinned searches across scan kernels, thread counts, and
// shard counts {1, 3, 8}, with every racing result checked bit-identical
// against a quiesced rebuild of the database at the snapshot's epoch, plus
// planned sharded searches racing the shards' R-tree inserts. Runs under
// the ASan and TSan CI jobs (ingest_smoke label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "db/planner.hpp"
#include "db/query.hpp"
#include "db/scan.hpp"
#include "db/shard.hpp"
#include "support/test_support.hpp"

namespace bes {
namespace {

// A deterministic pool of scenes over one shared alphabet: every image and
// every query is built before any thread starts, so the torture threads
// never race on alphabet interning.
struct scene_pool {
  alphabet symbols;
  std::vector<symbolic_image> scenes;

  explicit scene_pool(std::size_t count, std::uint64_t seed = 7) {
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

// The deterministic delete schedule both tortures and their quiesced
// rebuilds share: after add i (i >= initial), remove id 2 * i / 3 when
// i % 3 == 0. The victims are distinct and already added, so every remove
// hits a live record, and they run from the initial records into the
// freshly added ones as i grows.
bool delete_after(std::size_t i, image_id* victim) {
  if (i % 3 != 0) return false;
  *victim = static_cast<image_id>(2 * i / 3);
  return true;
}

// ------------------------------------------------------ snapshot semantics

TEST(IngestSnapshot, PinsVisibilityAgainstLaterAdds) {
  const scene_pool pool(12);
  image_database db = build_db(pool, 8);
  const db_snapshot snap = db.snapshot();
  const auto before = search(snap, pool.scenes[2]);
  for (std::size_t i = 8; i < 12; ++i) {
    db.add("late" + std::to_string(i), pool.scenes[i]);
  }
  // The pinned view never sees the late adds; the live view does.
  EXPECT_EQ(search(snap, pool.scenes[2]), before);
  query_options all;
  all.top_k = 0;
  EXPECT_EQ(search(db, pool.scenes[2], all).size(), 12u);
  search_stats stats;
  query_options exhaustive;
  exhaustive.use_index = false;
  exhaustive.top_k = 0;
  (void)search(snap, pool.scenes[2], exhaustive, &stats);
  // Records published after the watermark are excluded from scanned.
  EXPECT_EQ(stats.scanned, 8u);
}

TEST(IngestSnapshot, PinsTombstonesAgainstLaterRemoves) {
  const scene_pool pool(8);
  image_database db = build_db(pool, 8);
  const db_snapshot snap = db.snapshot();
  const auto before = search(snap, pool.scenes[3]);
  ASSERT_TRUE(db.remove(3));
  EXPECT_EQ(search(snap, pool.scenes[3]), before)
      << "a remove after the snapshot leaked into the pinned view";
  // A fresh view hides it.
  const auto after = search(db, pool.scenes[3]);
  for (const query_result& r : after) EXPECT_NE(r.id, 3u);
}

TEST(IngestRemove, SemanticsAndAccounting) {
  const scene_pool pool(6);
  image_database db = build_db(pool, 6);
  EXPECT_EQ(db.tombstone_count(), 0u);
  EXPECT_EQ(db.live_size(), 6u);
  EXPECT_TRUE(db.remove(2));
  EXPECT_FALSE(db.remove(2)) << "double remove must report false";
  EXPECT_FALSE(db.remove(99)) << "unknown id must report false";
  EXPECT_TRUE(db.removed(2));
  EXPECT_NE(db.removed_epoch(2), 0u);
  EXPECT_EQ(db.tombstone_count(), 1u);
  EXPECT_EQ(db.live_size(), 5u);
  // The record stays addressable (persistence still writes it).
  EXPECT_EQ(db.record(2).name, "img2");
}

TEST(IngestStats, TombstonedCandidatesCountAsPrunedNotScored) {
  const scene_pool pool(10);
  image_database db = build_db(pool, 10);
  ASSERT_TRUE(db.remove(1));
  ASSERT_TRUE(db.remove(4));
  ASSERT_TRUE(db.remove(7));

  query_options exhaustive;
  exhaustive.use_index = false;
  exhaustive.top_k = 0;
  search_stats stats;
  const auto results = search(db, pool.scenes[0], exhaustive, &stats);
  // scanned == scored + pruned, with the three tombstoned candidates
  // scanned AND pruned — never scored.
  EXPECT_EQ(stats.scanned, 10u);
  EXPECT_EQ(stats.scored, 7u);
  EXPECT_EQ(stats.pruned, 3u);
  EXPECT_EQ(stats.scanned, stats.scored + stats.pruned);
  for (const query_result& r : results) {
    EXPECT_FALSE(db.removed(r.id));
  }

  // The invariant holds on the pruned path too (pruned then absorbs both
  // histogram-bound skips and tombstones).
  query_options pruned;
  pruned.histogram_pruning = true;
  pruned.top_k = 3;
  search_stats pstats;
  (void)search(db, pool.scenes[0], pruned, &pstats);
  EXPECT_EQ(pstats.scanned, pstats.scored + pstats.pruned);
  EXPECT_GE(pstats.pruned, 3u) << "tombstones must count into pruned";
}

// ------------------------------------- add_encoded strong guarantee (bugfix)

TEST(IngestAddEncoded, UnknownSymbolThrowsAndLeavesDatabaseUnchanged) {
  const scene_pool pool(4);
  image_database db = build_db(pool, 4);
  const auto baseline = search(db, pool.scenes[0]);
  const std::size_t size_before = db.size();
  const std::uint64_t epoch_before = db.epoch();

  // A picture encoded against a BIGGER alphabet: its strings reference a
  // symbol id the target database never interned.
  alphabet bigger;
  for (const std::string& name : pool.symbols.names()) bigger.intern(name);
  symbolic_image alien(32, 32);
  alien.add(bigger.intern("alien-symbol"), rect::checked(2, 9, 3, 11));
  be_string2d strings = encode(alien);

  EXPECT_THROW(
      (void)db.add_encoded("alien", alien, std::move(strings)),
      std::invalid_argument);
  // Strong guarantee: no phantom record, no phantom posting, no epoch tick.
  EXPECT_EQ(db.size(), size_before);
  EXPECT_EQ(db.epoch(), epoch_before);
  EXPECT_EQ(search(db, pool.scenes[0]), baseline);
  // The database stays fully usable.
  const image_id id = db.add("after", pool.scenes[3]);
  EXPECT_EQ(id, size_before);
}

TEST(IngestReserve, OverflowThrowsLengthErrorAndDatabaseStaysUsable) {
  const scene_pool pool(3);
  image_database db = build_db(pool, 2);
  EXPECT_THROW(db.reserve(std::numeric_limits<std::size_t>::max()),
               std::length_error);
  // A sane reserve (records AND posting lists) then a working add.
  db.reserve(64, pool.symbols.size());
  const image_id id = db.add("post-reserve", pool.scenes[2]);
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(search(db, pool.scenes[2]).front().id, id);
}

// ------------------------------------------------------ sharded equivalence

TEST(IngestSharded, RemoveMatchesFlatDatabase) {
  const scene_pool pool(20);
  image_database flat = build_db(pool, 20);
  sharded_database sharded(3);
  for (const std::string& name : pool.symbols.names()) {
    sharded.symbols().intern(name);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    sharded.add("img" + std::to_string(i), pool.scenes[i]);
  }
  for (const image_id id : {2u, 7u, 13u, 19u}) {
    ASSERT_TRUE(flat.remove(id));
    ASSERT_TRUE(sharded.remove(id));
  }
  EXPECT_FALSE(sharded.remove(7));
  EXPECT_EQ(sharded.tombstone_count(), 4u);
  EXPECT_EQ(sharded.live_size(), 16u);

  for (const std::size_t q : {0u, 5u, 13u}) {
    query_options options;
    options.top_k = 0;
    EXPECT_EQ(search(sharded, pool.scenes[q], options),
              search(flat, pool.scenes[q], options))
        << "query " << q;
  }
}

TEST(IngestSharded, SnapshotPinsAllShards) {
  const scene_pool pool(18);
  sharded_database db(3);
  for (const std::string& name : pool.symbols.names()) {
    db.symbols().intern(name);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    db.add("img" + std::to_string(i), pool.scenes[i]);
  }
  const sharded_snapshot snap = db.snapshot();
  const auto before = search(db, snap, pool.scenes[4]);
  for (std::size_t i = 12; i < 18; ++i) {
    db.add("late" + std::to_string(i), pool.scenes[i]);
  }
  ASSERT_TRUE(db.remove(4));
  EXPECT_EQ(search(db, snap, pool.scenes[4]), before);
  // Shard-count mismatch fails loudly.
  sharded_snapshot wrong;
  wrong.shards.resize(2);
  EXPECT_THROW((void)search(db, wrong, pool.scenes[4]),
               std::invalid_argument);
}

// ------------------------------------------------- write-while-scan torture
//
// One writer races adds + removes against reader threads that pin
// snapshots and search; after the threads join, every recorded (snapshot,
// results) pair is replayed against a freshly built database quiesced in
// exactly the snapshot's state. Results must match bit for bit.

struct torture_sample {
  std::uint64_t visible = 0;
  std::uint64_t epoch = 0;
  std::size_t query = 0;
  std::vector<query_result> results;
  search_stats stats;
};

// The scan configurations the readers rotate through: plain indexed scan,
// exhaustive scan, the histogram-pruned kernel and a pruned
// transform-invariant scan, across 1- and 2-thread inner scans.
std::vector<query_options> torture_configs() {
  std::vector<query_options> configs;
  {
    query_options plain;  // indexed scan kernel
    plain.top_k = 6;
    configs.push_back(plain);
  }
  {
    query_options exhaustive;  // full-scan kernel
    exhaustive.use_index = false;
    exhaustive.top_k = 6;
    configs.push_back(exhaustive);
  }
  {
    query_options pruned;  // histogram-bound pruning kernel
    pruned.histogram_pruning = true;
    pruned.top_k = 6;
    configs.push_back(pruned);
  }
  {
    query_options threaded;  // parallel inner scan
    threaded.use_index = false;
    threaded.top_k = 6;
    threaded.threads = 2;
    configs.push_back(threaded);
  }
  {
    query_options tinv;  // pruned transform-invariant scan, parallel
    tinv.transform_invariant = true;
    tinv.histogram_pruning = true;
    tinv.top_k = 6;
    tinv.threads = 2;
    configs.push_back(tinv);
  }
  return configs;
}

constexpr std::size_t torture_total = 96;
constexpr std::size_t torture_initial = 32;
constexpr std::size_t torture_queries = 2;
constexpr std::size_t torture_readers = 3;
constexpr std::size_t torture_iterations = 10;

TEST(IngestTorture, FlatSearchesMatchQuiescedRebuildAtSameEpoch) {
  const scene_pool pool(torture_total + torture_queries, 23);
  const std::vector<query_options> configs = torture_configs();

  for (std::size_t c = 0; c < configs.size(); ++c) {
    const query_options& options = configs[c];
    image_database db = build_db(pool, torture_initial);

    std::vector<std::vector<torture_sample>> samples(torture_readers);
    std::vector<std::thread> readers;
    readers.reserve(torture_readers);
    for (std::size_t r = 0; r < torture_readers; ++r) {
      readers.emplace_back([&, r] {
        for (std::size_t it = 0; it < torture_iterations; ++it) {
          torture_sample sample;
          sample.query = (r + it) % torture_queries;
          const db_snapshot snap = db.snapshot();
          sample.visible = snap.visible;
          sample.epoch = snap.epoch;
          sample.results = search(
              snap, pool.scenes[torture_total + sample.query], options,
              &sample.stats);
          samples[r].push_back(std::move(sample));
        }
      });
    }
    std::thread writer([&] {
      for (std::size_t i = torture_initial; i < torture_total; ++i) {
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
      for (const torture_sample& sample : reader_samples) {
        // scanned == scored + pruned must hold mid-race too.
        EXPECT_EQ(sample.stats.scanned,
                  sample.stats.scored + sample.stats.pruned)
            << "config " << c;
        // Quiesced rebuild at the snapshot's exact state: the first
        // `visible` records, with every remove at epoch <= the snapshot's
        // re-applied. Epochs tick once per remove, so the filter is exact.
        image_database rebuilt;
        for (const std::string& name : pool.symbols.names()) {
          rebuilt.symbols().intern(name);
        }
        for (std::uint64_t id = 0; id < sample.visible; ++id) {
          rebuilt.add(db.record(static_cast<image_id>(id)).name,
                      db.record(static_cast<image_id>(id)).image);
        }
        for (std::uint64_t id = 0; id < sample.visible; ++id) {
          const std::uint64_t at =
              db.removed_epoch(static_cast<image_id>(id));
          if (at != 0 && at <= sample.epoch) {
            ASSERT_TRUE(rebuilt.remove(static_cast<image_id>(id)));
          }
        }
        EXPECT_EQ(sample.results,
                  search(rebuilt, pool.scenes[torture_total + sample.query],
                         options))
            << "config " << c << " snapshot at visible=" << sample.visible
            << " epoch=" << sample.epoch;
      }
    }
  }
}

// Sharded torture: per-shard snapshots are captured at one instant but
// shard watermarks advance independently, so the quiesced oracle filters
// per shard — local visibility cut, local tombstone epoch — and rescores
// the surviving GLOBAL candidates on a tombstone-free rebuild.
void sharded_torture(std::size_t shard_count) {
  const scene_pool pool(torture_total + torture_queries, 29);
  std::vector<be_string2d> query_strings;
  for (std::size_t q = 0; q < torture_queries; ++q) {
    query_strings.push_back(encode(pool.scenes[torture_total + q]));
  }

  struct sharded_sample {
    sharded_snapshot snap;
    std::size_t query = 0;
    std::vector<query_result> results;
    search_stats stats;
  };

  const std::vector<query_options> configs = torture_configs();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const query_options& options = configs[c];
    sharded_database db(shard_count);
    for (const std::string& name : pool.symbols.names()) {
      db.symbols().intern(name);
    }
    for (std::size_t i = 0; i < torture_initial; ++i) {
      db.add("img" + std::to_string(i), pool.scenes[i]);
    }

    std::vector<std::vector<sharded_sample>> samples(torture_readers);
    std::vector<std::thread> readers;
    readers.reserve(torture_readers);
    for (std::size_t r = 0; r < torture_readers; ++r) {
      readers.emplace_back([&, r] {
        for (std::size_t it = 0; it < torture_iterations; ++it) {
          sharded_sample sample;
          sample.query = (r + it) % torture_queries;
          sample.snap = db.snapshot();
          sample.results = search(
              db, sample.snap, pool.scenes[torture_total + sample.query],
              options, &sample.stats);
          samples[r].push_back(std::move(sample));
        }
      });
    }
    std::thread writer([&] {
      for (std::size_t i = torture_initial; i < torture_total; ++i) {
        db.add("img" + std::to_string(i), pool.scenes[i]);
        image_id victim = 0;
        if (delete_after(i, &victim)) {
          EXPECT_TRUE(db.remove(victim)) << "victim " << victim;
        }
      }
    });
    writer.join();
    for (std::thread& t : readers) t.join();

    // The tombstone-free oracle: every record, flat, global-id order.
    image_database oracle = build_db(pool, torture_total);

    for (const auto& reader_samples : samples) {
      for (const sharded_sample& sample : reader_samples) {
        EXPECT_EQ(sample.stats.scanned,
                  sample.stats.scored + sample.stats.pruned)
            << "config " << c << " shards " << shard_count;
        // The live global candidates under this snapshot: shard s exposes
        // its first shards[s].visible locals, minus removes at epochs <=
        // shards[s].epoch (removed_at is the SHARD-local epoch).
        std::vector<image_id> live;
        std::vector<std::uint64_t> seen(shard_count, 0);
        for (std::uint64_t g = 0; g < db.size(); ++g) {
          const auto id = static_cast<image_id>(g);
          const std::size_t s = db.ring().shard_of(id);
          if (seen[s] >= sample.snap.shards[s].visible) continue;
          ++seen[s];
          const db_record& rec = db.record(id);
          if (rec.removed_at == 0 ||
              rec.removed_at > sample.snap.shards[s].epoch) {
            live.push_back(id);
          }
        }
        EXPECT_EQ(sample.results,
                  search_candidates(oracle, query_strings[sample.query],
                                    live, options))
            << "config " << c << " shards " << shard_count;
      }
    }
  }
}

TEST(IngestTorture, ShardedSearchesMatchQuiescedOracleThreeShards) {
  sharded_torture(3);
}

TEST(IngestTorture, ShardedSearchesMatchQuiescedOracleEightShards) {
  sharded_torture(8);
}

// Planned sharded searches racing adds and removes. Each shard's plan reads
// its R-tree's height and may generate through the tree while add() inserts
// into it; both must go through the index's lock (the TSan job runs this).
// Racing answers have no quiesced oracle here, so each is checked for
// shape: at most top_k results, strictly ranked, ids already handed out.
TEST(IngestTorture, PlannedShardedSearchesRaceAddsAndRemoves) {
  const scene_pool pool(torture_total + torture_queries, 37);
  sharded_database db(3);
  for (const std::string& name : pool.symbols.names()) {
    db.symbols().intern(name);
  }
  // Few records up front, so every shard's tree grows several levels (each
  // a root split that writes the height) while the readers run.
  constexpr std::size_t initial = 4;
  for (std::size_t i = 0; i < initial; ++i) {
    db.add("img" + std::to_string(i), pool.scenes[i]);
  }
  query_options options;
  options.top_k = 6;
  options.histogram_pruning = true;

  std::atomic<bool> done{false};
  std::atomic<std::size_t> spatial_plans{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < torture_readers; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t it = 0; it < torture_iterations || !done.load(); ++it) {
        const symbolic_image& query =
            pool.scenes[torture_total + (r + it) % torture_queries];
        search_stats stats;
        const auto results = search_planned(db, query, options, &stats);
        const std::size_t size = db.size();
        EXPECT_LE(results.size(), options.top_k);
        for (std::size_t i = 0; i < results.size(); ++i) {
          EXPECT_LT(results[i].id, size);
          if (i > 0) {
            EXPECT_TRUE(detail::result_better(results[i - 1], results[i]))
                << "rank " << i;
          }
        }
        EXPECT_EQ(stats.plans.size(), db.shard_count());
        for (const planned_scan& plan : stats.plans) {
          if (plan.path == access_path_kind::hybrid) ++spatial_plans;
        }
      }
    });
  }
  // The planner's height read, polled with no other synchronization, so an
  // unlocked read races every root split the inserts make.
  readers.emplace_back([&] {
    int height = 0;
    while (!done.load()) {
      for (std::size_t s = 0; s < db.shard_count(); ++s) {
        height = std::max(height, db.shard_spatial(s).height());
      }
    }
    EXPECT_GT(height, 0);
  });
  std::thread writer([&] {
    for (std::size_t i = initial; i < torture_total; ++i) {
      db.add("img" + std::to_string(i), pool.scenes[i]);
      image_id victim = 0;
      if (delete_after(i, &victim)) {
        EXPECT_TRUE(db.remove(victim)) << "victim " << victim;
      }
    }
    done.store(true);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  // The race is only worth having if some plans walked the trees.
  EXPECT_GT(spatial_plans.load(), 0u);
}

// Batch searches capture ONE snapshot for the whole batch: every query in
// the batch observes the same instant even while the writer races, so the
// copies of one query within a batch answer identically. Flat and sharded
// databases alike.
template <typename Database>
void batch_observes_one_snapshot(Database& db) {
  const scene_pool pool(64 + 2, 31);
  for (const std::string& name : pool.symbols.names()) {
    db.symbols().intern(name);
  }
  for (std::size_t i = 0; i < 24; ++i) {
    db.add("img" + std::to_string(i), pool.scenes[i]);
  }
  // Three copies each of two queries, interleaved.
  std::vector<symbolic_image> queries;
  for (int copy = 0; copy < 3; ++copy) {
    queries.push_back(pool.scenes[64]);
    queries.push_back(pool.scenes[65]);
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 24; i < 64; ++i) {
      db.add("img" + std::to_string(i), pool.scenes[i]);
      image_id victim = 0;
      if (delete_after(i, &victim)) {
        EXPECT_TRUE(db.remove(victim)) << "victim " << victim;
      }
      // Spreads the adds over many batches.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    done.store(true);
  });
  query_options options;
  options.top_k = 5;
  // Alternate serial batches and batches on a 3-thread work queue.
  for (unsigned round = 0; !done.load(); ++round) {
    options.threads = round % 2 == 0 ? 1 : 3;
    const auto batch = search_batch(db, queries, options);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 2; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i], batch[i % 2])
          << "copy " << i << " threads " << options.threads;
    }
  }
  writer.join();
  // Quiesced: batch results equal per-query searches exactly.
  options.threads = 1;
  const auto batch = search_batch(db, queries, options);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], search(db, queries[i], options)) << "query " << i;
  }
}

TEST(IngestTorture, BatchObservesOneConsistentSnapshot) {
  sharded_database sharded(3);
  batch_observes_one_snapshot(sharded);
  image_database flat;
  batch_observes_one_snapshot(flat);
}

}  // namespace
}  // namespace bes
