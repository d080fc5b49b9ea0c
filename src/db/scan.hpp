// The candidate-scan engine shared by db/query.cpp (one database) and
// db/shard.cpp (fan-out/merge over shard partitions). Internal: the stable
// user-facing entry points are search()/search_batch() in db/query.hpp and
// their sharded overloads in db/shard.hpp; everything here may change shape
// as the sharding layer grows toward cross-process partitions.
//
// The sharded scan keeps the unsharded admissibility argument intact by
// sharing ONE running top-k across every scan of a query: shard scans (like
// PR 2's worker threads) insert into the same shared_topk, whose k-th score
// only grows and is served to the hot pruning checks from a lock-free
// atomic cache. A candidate pruned at max(min_score, cached k-th) provably
// has >= k strictly better rivals across the union of shards, so dropping
// it cannot change the merged result — the same argument that makes the
// single-database pruned scan identical to the exhaustive one. (A per-shard
// heap would NOT work: it defends k results per shard, so its threshold is
// only the k-th best of one partition — measurably weaker pruning the more
// shards there are.)
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>

#include "db/database.hpp"
#include "db/query.hpp"
#include "lcs/similarity.hpp"

namespace bes::detail {

// Strict total order on results: score descending, id ascending. Ids are
// unique within a scan, so there are no equal elements to destabilize
// top-k eviction.
[[nodiscard]] bool result_better(const query_result& a,
                                 const query_result& b) noexcept;

// min_score filter + sort by result_better + top_k truncation.
[[nodiscard]] std::vector<query_result> rank_results(
    std::vector<query_result> hits, const query_options& options);

// Whether the histogram pruner engages for these options (needs a threshold
// to defend and is bypassed by transform-invariant scans).
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

// Drives `run_one(i, per_query_options)` over every query of a batch on
// parallel_for's dynamic queue (chunk 1: a worker claims ONE query at a
// time), splitting the thread budget between query-level and
// candidate-level parallelism. Shared by the flat batch entry points and
// the planned batches (db/planner.cpp); results are identical to a serial
// loop because every scan is thread-count-invariant by construction.
void for_each_query(
    std::size_t count, const query_options& options,
    const std::function<void(std::size_t, const query_options&)>& run_one);

// Precomputed per-query scan state for a batch: the pruner histograms when
// pruning engages, the 8 dihedral query variants when transform-invariant
// (each left empty otherwise). Computed once per query up front, in
// parallel across the batch — shared by the flat and sharded batch paths.
struct query_plan {
  be_histogram2d histograms;
  query_transforms transforms;
};
[[nodiscard]] std::vector<query_plan> make_plans(
    std::span<const be_string2d> queries, const query_options& options);

// Encoded strings and distinct symbols for a batch of symbolic queries,
// computed in parallel across the batch — shared by the flat and sharded
// search_batch overloads.
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
// `globals` maps local record ids to the ids reported in results (and used
// for top-k tie-breaks); pass {} for identity (the unsharded scan).
// `histograms`/`transforms` are optional precomputed per-query state
// (search_batch amortizes them across scans); null means compute on demand.
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
    const image_database& db, const be_string2d& query_strings,
    std::span<const image_id> ids, id_map globals,
    const be_histogram2d* histograms, const query_transforms* transforms,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap = nullptr);

}  // namespace bes::detail
