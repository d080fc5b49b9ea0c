// Shard-per-core database partitions with a fan-out/merge query layer
// (ROADMAP "Scan parallelism beyond one box").
//
// The paper's BE-string model makes every record independent — similarity
// is a pure function of (query, record) — so the database partitions
// embarrassingly: a sharded_database splits records across N shards by
// consistent hashing on the global image_id, and each shard owns its own
// image_database (records + inverted symbol index), its own spatial R-tree,
// and its own histogram-bound scan order. Queries fan out one scan per
// shard; the scans share a single running top-k threshold (an atomic
// min-score floor, db/scan.hpp) and their local top-k heaps merge into a
// final ranking that is provably IDENTICAL to the unsharded exhaustive
// result — see the admissibility note in db/scan.hpp.
//
// Why consistent hashing instead of id % N: growing or shrinking the shard
// count (besdb shard split/merge) must not reshuffle the whole corpus. On
// the ring, adding shard N+1 only claims the ids whose hash lands in the
// new shard's arcs — every other record stays where it was, which is what
// keeps an on-disk reshard (and the future cross-process move) ~1/N of the
// data instead of all of it.
#pragma once

#include <memory>

#include "db/database.hpp"
#include "db/query.hpp"
#include "db/spatial_index.hpp"

namespace bes {

// The consistent-hash ring mapping global image ids to shards. Each shard
// contributes `replicas` virtual nodes (points derived from the shard index
// alone, never from the shard count); an id belongs to the shard owning the
// first virtual node at or after hash(id), wrapping at the top. Because a
// shard's points do not move when other shards come or go, resizing from N
// to N+1 shards reassigns only ids captured by the new shard's points —
// expected 1/(N+1) of the corpus.
class shard_ring {
 public:
  explicit shard_ring(std::size_t shard_count, std::size_t replicas = 64);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }
  [[nodiscard]] std::size_t replicas() const noexcept { return replicas_; }
  [[nodiscard]] std::size_t shard_of(image_id id) const noexcept;

 private:
  struct vnode {
    std::uint64_t point;
    std::uint32_t shard;
  };
  std::vector<vnode> ring_;  // sorted by (point, shard)
  std::size_t shards_;
  std::size_t replicas_;
};

// N shard partitions behind one logical database. Global ids are dense in
// insertion order (exactly the ids the same records would get in one
// unsharded image_database); each record lives in the shard the ring
// assigns its global id, under a dense shard-local id. All shards mirror
// one master alphabet, so symbol ids, BE-string tokens, and inverted-index
// keys mean the same thing in every partition.
//
// Live ingest: like image_database, the sharded database is single-writer/
// many-reader — one thread may add()/remove() while any number of scans
// run. The local->global mapping and the global locator table live in
// chunked stable storage and publish in the order scans need them (mapping
// staged before the record becomes visible, locator last), so a racing
// scan sees either nothing or a fully wired record. snapshot() captures
// one db_snapshot per shard for pinned fan-out searches.
struct sharded_snapshot;

class sharded_database {
 public:
  explicit sharded_database(std::size_t shard_count,
                            std::size_t ring_replicas = 64);

  [[nodiscard]] const shard_ring& ring() const noexcept { return ring_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  // The master alphabet shared by every shard. Build scenes against this;
  // adds mirror it into the owning shard's local alphabet.
  [[nodiscard]] alphabet& symbols() noexcept { return symbols_; }
  [[nodiscard]] const alphabet& symbols() const noexcept { return symbols_; }

  // Encodes and stores a picture; returns its GLOBAL id (dense, insertion
  // order — identical to what an unsharded image_database would assign).
  image_id add(std::string name, symbolic_image image);

  // Bulk-load entry point for the sharded-corpus loader: installs a record
  // that already carries its encoded strings and histograms. Records must
  // arrive in global-id order (the streaming writer's order); the global id
  // assigned is returned.
  image_id add_encoded(std::string name, symbolic_image image,
                       be_string2d strings, be_histogram2d histograms);

  // Tombstones global id `id` in its owning shard (image_database::remove
  // semantics: the record stays addressable, searches skip it from the next
  // snapshot on). Returns false when unknown or already removed. Safe
  // against concurrent scans.
  bool remove(image_id id);

  // One db_snapshot per shard, captured now: pass to the pinned sharded
  // search overload so several queries observe the same instant.
  [[nodiscard]] sharded_snapshot snapshot() const;

  [[nodiscard]] std::size_t size() const noexcept { return locs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return locs_.empty(); }
  // Tombstoned records across all shards / records not tombstoned.
  [[nodiscard]] std::size_t tombstone_count() const noexcept;
  [[nodiscard]] std::size_t live_size() const noexcept {
    return size() - tombstone_count();
  }

  // The record with global id `id`. NOTE: the returned record's `.id` field
  // is the shard-LOCAL id; query results carry global ids.
  [[nodiscard]] const db_record& record(image_id id) const;
  // Which shard holds global id `id`.
  [[nodiscard]] std::size_t shard_of(image_id id) const;
  // Epoch at which global id `id` was removed (0 = live), read from the
  // owning shard. Safe against a concurrent remove, like the flat
  // image_database::removed_epoch.
  [[nodiscard]] std::uint64_t removed_epoch(image_id id) const;

  // Per-shard views (s < shard_count()). Each shard has one R-tree;
  // shard_hybrid returns the same object as shard_spatial and remains only
  // because the benchmark adapter (perfbench/adapter.hpp) names it.
  [[nodiscard]] const image_database& shard_db(std::size_t s) const;
  [[nodiscard]] const spatial_index& shard_spatial(std::size_t s) const;
  [[nodiscard]] const spatial_index& shard_hybrid(std::size_t s) const {
    return shard_spatial(s);
  }
  // Shard-local id -> global id, in local insertion order (ascending).
  // Chunked stable storage: safe to read while adds grow it.
  [[nodiscard]] const stable_vector<image_id>& shard_global_ids(
      std::size_t s) const;

  // Global ids of images sharing at least one symbol with `query_symbols`
  // (union of the per-shard inverted indexes; sorted, unique).
  [[nodiscard]] std::vector<image_id> candidates(
      std::span<const symbol_id> query_symbols) const;
  [[nodiscard]] std::vector<image_id> candidates(
      const symbolic_image& query) const;

 private:
  struct shard_part {
    image_database db;
    spatial_index spatial{db, deferred_build};
    stable_vector<image_id> global_ids;  // local -> global
  };

  shard_part& route(std::size_t shard);
  image_id install(std::size_t shard, shard_part& part, image_id global,
                   std::string name, symbolic_image image, be_string2d strings,
                   be_histogram2d histograms);

  shard_ring ring_;
  alphabet symbols_;
  // Stable addresses: spatial_index borrows its sibling db by reference.
  std::vector<std::unique_ptr<shard_part>> shards_;
  // global id -> (shard, local id); grows last in an add, so size() counts
  // only fully wired records.
  stable_vector<std::pair<std::uint32_t, image_id>> locs_;
};

// One db_snapshot per shard, captured at one instant
// (sharded_database::snapshot()): pins a fan-out search so every shard scan
// filters against the same view while add()/remove() proceed.
struct sharded_snapshot {
  std::vector<db_snapshot> shards;
};

// Partitions a copy of `db` into `shard_count` shards. Record i of `db`
// becomes global id i, so sharded results compare 1:1 against unsharded
// ones over the same database.
[[nodiscard]] sharded_database make_sharded(const image_database& db,
                                            std::size_t shard_count,
                                            std::size_t ring_replicas = 64);

// ----------------------------------------------------------- query fan-out
//
// Each call runs the search executor (db/scan.hpp) with one partition per
// shard: one scan per shard on a dynamic queue (shard-per-core when shards
// >= threads), inner candidate parallelism with the leftover thread budget,
// one shared top-k per query. Results (global ids) are identical to running the same
// options over one unsharded database holding the same records in global-id
// order, for every kernel, thread count, and shard count; `stats` sums the
// per-shard accounting (scanned == scored + pruned still holds).

[[nodiscard]] std::vector<query_result> search(const sharded_database& db,
                                               const symbolic_image& query,
                                               const query_options& options = {},
                                               search_stats* stats = nullptr);

[[nodiscard]] std::vector<query_result> search(
    const sharded_database& db, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options = {},
    search_stats* stats = nullptr);

// Pinned fan-out: every shard scan filters against the matching entry of
// `snap` (db.snapshot()), so several searches can observe one instant while
// writes continue. snap.shards.size() must equal db.shard_count(); throws
// std::invalid_argument otherwise. The unpinned overloads are equivalent to
// pinning a fresh snapshot per search.
[[nodiscard]] std::vector<query_result> search(
    const sharded_database& db, const sharded_snapshot& snap,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options = {}, search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search(const sharded_database& db,
                                               const sharded_snapshot& snap,
                                               const symbolic_image& query,
                                               const query_options& options = {},
                                               search_stats* stats = nullptr);

// Scores exactly the given GLOBAL-id candidate set (sorted or not;
// duplicates scored twice), partitioned to the owning shards. Throws
// std::out_of_range on an id >= size(). options.use_index is ignored.
[[nodiscard]] std::vector<query_result> search_candidates(
    const sharded_database& db, const be_string2d& query_strings,
    std::span<const image_id> candidates, const query_options& options = {},
    search_stats* stats = nullptr);

// Cached fan-out searches (db/result_cache.hpp): identical results to the
// matching sharded search() overload, consulting/populating `cache` around
// the fan-out. Entries are stamped with one {visible, epoch} cut PER SHARD;
// a delta refresh rescans only each shard's appended suffix. Semantics
// otherwise match the flat search_cached family (db/query.hpp).
[[nodiscard]] std::vector<query_result> search_cached(
    const sharded_database& db, result_cache& cache,
    const symbolic_image& query, const query_options& options = {},
    search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search_cached(
    const sharded_database& db, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options = {}, search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search_cached(
    const sharded_database& db, const sharded_snapshot& snap,
    result_cache& cache, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options = {},
    search_stats* stats = nullptr);

// Batch retrieval: results[i] == search(db, snap, queries[i], options) for
// one snapshot taken at the start of the batch. The (query, shard) pairs
// become work items on ONE dynamic queue, so neither a slow query nor a hot
// shard can serialize the batch tail; per-query precomputation is amortized
// exactly as in the unsharded search_batch.
[[nodiscard]] std::vector<std::vector<query_result>> search_batch(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

[[nodiscard]] std::vector<std::vector<query_result>> search_batch(
    const sharded_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

// ------------------------------------------------------- prefilter fan-out

// window_candidates over the per-shard R-trees; global ids, sorted, unique.
// Equal to the unsharded prefilter over the same records.
[[nodiscard]] std::vector<image_id> window_candidates(
    const sharded_database& db, const symbolic_image& query, int pad);

}  // namespace bes
