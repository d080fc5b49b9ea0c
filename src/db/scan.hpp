// The one in-process search executor, shared by the flat (db/query.hpp),
// sharded (db/shard.hpp), planned (db/planner.hpp) and prefiltered
// (db/prefilter.hpp) entry points. Internal: every public overload is a
// short call into it.
//
// A search runs over a list of PARTITIONS, each a database, the map from
// its record ids to the ids results report, and the snapshot its scans
// filter against. A flat image_database (or db_snapshot) is the one-
// partition case with the identity map; a sharded_database is one partition
// per shard. The executor pins every partition's snapshot once per call, so
// a batch, flat or sharded, observes one instant however writes interleave.
// Its work queue holds one item per (query, partition) scan, and the scan
// primitive of every item is scan_shard below.
//
// The partitioned scan keeps the single-database admissibility argument
// intact by sharing ONE running top-k across every scan of a query: the
// partition scans (like the worker threads inside one scan) insert into the
// same shared_topk, whose k-th score only grows and is served to the hot
// pruning checks from a lock-free atomic cache. A candidate pruned at
// max(min_score, cached k-th) provably has >= k strictly better rivals
// across the union of partitions, so dropping it cannot change the merged
// result — the same argument that makes the pruned scan identical to the
// exhaustive one. (A per-partition heap would NOT work: it defends k results
// per partition, so its threshold is only the k-th best of one partition —
// measurably weaker pruning the more partitions there are.)
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>

#include "db/database.hpp"
#include "db/query.hpp"
#include "lcs/similarity.hpp"

namespace bes {

class spatial_index;
class hybrid_index;
class sharded_database;
struct sharded_snapshot;
class result_cache;

}  // namespace bes

namespace bes::detail {

// Strict total order on results: score descending, id ascending. Ids are
// unique within a scan, so there are no equal elements to destabilize
// top-k eviction.
[[nodiscard]] bool result_better(const query_result& a,
                                 const query_result& b) noexcept;

// min_score filter + sort by result_better + top_k truncation, returned in
// an exactly sized vector (no capacity left over from the input).
[[nodiscard]] std::vector<query_result> rank_results(
    std::vector<query_result> hits, const query_options& options);

// Whether the histogram pruner engages for these options (it needs a
// threshold to defend).
[[nodiscard]] bool pruning_applies(const query_options& options);

// Candidate ids in `range` for an index/full scan over one database (flat
// or one shard): the inverted-index hits when the index engages, else every
// record id — answered through the access-path interface
// (db/access_path.hpp), and shared so the flat and sharded paths can never
// diverge on index-engagement rules. The default range is the whole
// database; a cache delta refresh passes its appended suffix and pays only
// for the ids in it. `generated` (if non-null) receives the raw pre-dedup
// hit count (search_stats::candidates_generated). Defined in
// access_path.cpp.
[[nodiscard]] std::vector<image_id> scan_ids(
    const image_database& db, std::span<const symbol_id> query_symbols,
    const query_options& options, std::size_t* generated = nullptr,
    id_range range = {});

// The prepared query (lcs/similarity.hpp) a scan under `options` scores
// against: both axes' match masks and token counts, for all 8 dihedral
// variants when transform_invariant. Every entry point builds it once per
// query and hands it to every scan of that query.
[[nodiscard]] prepared_query prepare_query(const be_string2d& query_strings,
                                           const query_options& options);

// prepare_query for every query of a batch, up front and in parallel across
// the batch.
[[nodiscard]] std::vector<prepared_query> make_plans(
    std::span<const be_string2d> queries, const query_options& options);

// Encoded strings and distinct symbols for a batch of symbolic queries,
// computed in parallel across the batch.
struct encoded_queries {
  std::vector<be_string2d> strings;
  std::vector<std::vector<symbol_id>> symbols;
};
[[nodiscard]] encoded_queries encode_queries(
    std::span<const symbolic_image> queries, unsigned threads);

// The running top-k shared by every worker of a scan — and, in a fan-out,
// by every shard scan of a query. The heap lives under a mutex, but the
// k-th score (the pruning threshold) is mirrored into an atomic on every
// insert that keeps the heap full, so the per-candidate threshold() read
// on the hot path never takes the lock. The k-th score only grows as
// candidates are inserted, so reading the cache at any moment yields an
// admissible threshold: a candidate provably below it can never enter the
// FINAL top-k either.
class shared_topk {
 public:
  // capacity == 0 means unlimited (min_score is then the only threshold).
  shared_topk(std::size_t capacity, double min_score);

  // max(min_score, current cached k-th score, remote floor); lock-free.
  [[nodiscard]] double threshold() const noexcept {
    return std::max({min_score_, kth_.load(std::memory_order_relaxed),
                     floor_.load(std::memory_order_relaxed)});
  }

  // Raises the external pruning floor (never lowers it) — the remote
  // threshold-gossip entry point (src/net): a coordinator that already
  // holds k results scoring >= f may broadcast f to in-flight shard scans,
  // because any candidate below f provably has >= k better rivals
  // somewhere in the union of shards. Lock-free; safe to call concurrently
  // with scans reading threshold(). Callers own admissibility: an
  // inadmissible floor silently changes results.
  void raise_floor(double f) noexcept;

  void insert(const query_result& r);

  // The held results, sorted by result_better. Call once, after all
  // inserting scans have finished.
  [[nodiscard]] std::vector<query_result> take();

 private:
  mutable std::mutex mutex_;
  std::vector<query_result> top_;  // kept sorted by result_better()
  std::size_t capacity_;
  double min_score_;
  // Cached k-th score; only meaningful once the heap is full. Starts at
  // min_score so threshold() is min_score until then.
  std::atomic<double> kth_;
  // Externally gossiped pruning floor (raise_floor); starts at min_score.
  std::atomic<double> floor_;
};

// Maps scan-local record ids to the ids reported in results. Default-
// constructed = identity (the unsharded scan). `flat` serves a loaded,
// static mapping (the shard server); `chunked` serves a live sharded part
// whose mapping grows under concurrent adds — chunked storage never moves,
// so the read is safe mid-ingest where a reallocating span would not be.
struct id_map {
  std::span<const image_id> flat{};
  const stable_vector<image_id>* chunked = nullptr;

  [[nodiscard]] image_id operator()(image_id local) const noexcept {
    if (chunked != nullptr) return (*chunked)[local];
    return flat.empty() ? local : flat[local];
  }
};

// One shard-local scan: scores `ids` (record ids local to `db`) under
// `options`.
//
// `query` is prepare_query(strings, options), built once per query and
// shared by every scan of it — batches, shard fan-outs and a server's
// chunks alike.
// `globals` maps local record ids to the ids reported in results (and used
// for top-k tie-breaks); pass {} for identity (the unsharded scan).
// `stats` (if non-null) is overwritten with this scan's accounting
// (scanned == scored + pruned).
//
// `snap` pins the scan to a database snapshot; null means "capture
// db.snapshot() now". Candidates not yet visible in the snapshot are
// dropped before the scan (they do not exist in that view, so they are not
// scanned); tombstoned candidates count as scanned AND pruned — never
// scored. When the snapshot is all-live the filter is skipped outright and
// the scan is byte-identical to the pre-ingest engine.
//
// `shared` is the query's cross-scan top-k, or null for a lone scan. When
// null (or when the scan is exhaustive — no threshold to share), the
// return value is this scan's ranked result: min_score-filtered, sorted,
// truncated to top_k, ready to merge by concatenation + re-rank. When
// `shared` is non-null and the pruner engages, survivors go into `shared`
// instead and the return value is EMPTY — the caller takes the shared heap
// once, after every scan of the query finished.
[[nodiscard]] std::vector<query_result> scan_shard(
    const image_database& db, const prepared_query& query,
    std::span<const image_id> ids, id_map globals,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap = nullptr);

// Adds one scan's accounting into `into`: the counters sum, plans and shard
// statuses append, degraded ORs. The one rule for combining the stats of a
// query's partition scans, and of a shard server's chunks.
void accumulate(search_stats& into, const search_stats& part);

// ------------------------------------------------------------- executor

// One partition of a search. `spatial`/`hybrid` are the access structures
// the planner may use; null takes those paths off its menu.
struct partition {
  const image_database* db = nullptr;
  id_map globals;
  db_snapshot snap;
  const spatial_index* spatial = nullptr;
  const hybrid_index* hybrid = nullptr;
};

// The partitions one executor call runs over, each pinned to its snapshot.
struct partition_view {
  std::vector<partition> parts;
  // The sharded database the partitions are the shards of; null for the
  // flat view (one partition, identity ids).
  const sharded_database* sharded = nullptr;

  // (partition, local id) of a reported id.
  [[nodiscard]] std::pair<std::size_t, image_id> locate(image_id id) const;
};

[[nodiscard]] partition_view flat_view(const db_snapshot& snap,
                                       const spatial_index* spatial = nullptr,
                                       const hybrid_index* hybrid = nullptr);
// Throws std::invalid_argument when `snap` has the wrong shard count.
[[nodiscard]] partition_view sharded_view(const sharded_database& db,
                                          const sharded_snapshot& snap);

// The candidates one (query, partition) scan covers: partition-local ids,
// the raw generation count (search_stats::candidates_generated), and the
// plan that chose them (planned generation only).
struct scan_candidates {
  std::vector<image_id> ids;
  std::size_t generated = 0;
  std::optional<planned_scan> plan;
};

// Where the scan of (query q, partition s) gets its candidates: from
// `lists[q * parts + s]` when lists are given (explicit local ids; an empty
// list is not scanned at all), else from generate(partition, q), called on
// the worker that then scans them.
struct candidate_source {
  std::span<const std::vector<image_id>> lists{};
  std::function<scan_candidates(const partition&, std::size_t)> generate{};
};

// Runs queries.size() queries over every partition of `view` on ONE dynamic
// work queue of (query, partition) scans (chunk 1: a worker claims one scan
// at a time), so neither a slow query nor a hot partition strands the batch
// tail. The thread budget goes to the queue first; what is left over goes
// inside each scan. Scans of one query share that query's running top-k
// when the pruner engages; exhaustive scans merge their ranked parts.
// results[q] is the query's ranked answer in reported ids; `stats` (if
// non-null) gets one accumulated entry per query. Results are identical
// for every thread count and partition count.
[[nodiscard]] std::vector<std::vector<query_result>> execute(
    const partition_view& view, std::span<const prepared_query> queries,
    const candidate_source& source, const query_options& options,
    std::vector<search_stats>* stats);

// execute() for one query.
[[nodiscard]] std::vector<query_result> execute_one(
    const partition_view& view, const prepared_query& query,
    const candidate_source& source, const query_options& options,
    search_stats* stats);

// The index/full-scan search of one query (scan_ids in every partition).
[[nodiscard]] std::vector<query_result> execute_search(
    const partition_view& view, const be_string2d& query_strings,
    std::span<const symbol_id> symbols, const query_options& options,
    search_stats* stats);

// The index/full-scan batch; throws std::invalid_argument when the spans'
// sizes differ.
[[nodiscard]] std::vector<std::vector<query_result>> execute_batch(
    const partition_view& view, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats);

// The cached lookup over `view` (db/result_cache.hpp): a pure hit when the
// entry's cuts equal the view's, a delta refresh that scores only each
// partition's appended suffix when the cuts moved forward within budget,
// else the full scan. The cache key's scope is flat for a flat view and
// sharded otherwise.
[[nodiscard]] std::vector<query_result> execute_cached(
    const partition_view& view, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats);

}  // namespace bes::detail
