// The retrieval engine: rank database images by BE-string similarity to a
// query picture (paper §4), optionally under the best of the 8 linear
// transformations (paper §4/§5) and optionally in parallel.
#pragma once

#include <vector>

#include "db/access_path.hpp"
#include "db/database.hpp"
#include "lcs/similarity.hpp"

namespace bes {

struct query_options {
  std::size_t top_k = 10;          // 0 = unlimited
  double min_score = 0.0;          // drop results strictly below this
  bool transform_invariant = false;  // try all 8 dihedral variants of the query
  bool use_index = true;           // scan only images sharing >= 1 symbol
  unsigned threads = 1;            // parallel scoring workers
  // Two-stage admissible pruning: candidates whose token-histogram upper
  // bound cannot reach max(min_score, current k-th score) are skipped
  // outright, and candidates that are scored run their LCS DPs under an
  // early-exit band at that same threshold, bailing as soon as the best
  // still-achievable score falls below it. Results are identical to the
  // unpruned scan. Honors `threads` and needs a threshold to engage (top_k
  // > 0 or min_score > 0). A transform-invariant query bounds each record by
  // the best of its 8 variants' bounds, and scores only the variants whose
  // own bound can still beat max(threshold, best variant so far).
  bool histogram_pruning = false;
  similarity_options similarity;
};

struct query_result {
  image_id id = 0;
  double score = 0.0;
  // Transform of the query that realized `score` (identity unless
  // transform_invariant).
  dihedral transform = dihedral::identity;

  friend bool operator==(const query_result&, const query_result&) = default;
};

// One planned scan's record in search_stats: what the planner chose and how
// its estimate compared to reality. Sharded searches append one entry per
// shard (each shard is planned against its own statistics); flat planned
// searches append exactly one.
struct planned_scan {
  access_path_kind path = access_path_kind::full_scan;
  int pad = 0;                           // adaptive window pad (spatial paths)
  std::size_t estimated_candidates = 0;  // the planner's pre-generation bound
  std::size_t actual_candidates = 0;     // what generate() returned

  friend bool operator==(const planned_scan&, const planned_scan&) = default;
};

// How one shard's contribution to a scattered query ended. In-process scans
// always complete (their statuses stay empty); the network coordinator
// (src/net) records one entry per remote shard so a partial answer names
// exactly which partitions degraded it and why.
enum class shard_scan_state : std::uint8_t {
  ok,         // full contribution merged
  timed_out,  // no response before the query deadline
  failed,     // connection refused/lost or a malformed response
  expired,    // the shard gave up mid-scan (deadline/cancel); partial results
  rejected,   // the shard's admission queue was full
};

[[nodiscard]] std::string_view to_string(shard_scan_state state) noexcept;

struct shard_scan_status {
  std::uint32_t shard = 0;
  shard_scan_state state = shard_scan_state::ok;

  friend bool operator==(const shard_scan_status&,
                         const shard_scan_status&) = default;
};

// Scan accounting (filled when a non-null pointer is passed to search).
// Every scanned candidate is either scored or pruned, on every scan path:
// scanned == scored + pruned always holds. Tombstoned candidates (live
// ingest: image_database::remove) count as scanned AND pruned — never
// scored — so an exhaustive scan reports scored == scanned, pruned == 0
// exactly when every scanned candidate was live in the scan's snapshot.
// Candidates published after the snapshot's watermark do not exist in that
// view and are excluded from scanned entirely.
//
// `scanned` counts the candidates handed to the scoring scan — AFTER the
// access path deduplicated, window-rejected, and intersected its raw hits.
// `candidates_generated` counts those raw hits (access_path_stats), so the
// prefiltered paths' generated-but-rejected work is visible too:
// candidates_generated >= scanned always, with equality exactly when
// generation was already exact (full scan, explicit candidate lists).
struct search_stats {
  std::size_t scanned = 0;  // candidates considered (== scored + pruned)
  std::size_t scored = 0;   // LCS evaluations started
  std::size_t pruned = 0;   // skipped outright via the histogram upper bound
  // Of the scored, how many the early-exit band rejected: their banded DP
  // either bailed before finishing or completed below the pruning threshold.
  std::size_t band_rejected = 0;
  // Raw candidate ids generated before dedup/rejection (>= scanned).
  std::size_t candidates_generated = 0;
  // Filled by the planned searches (db/planner.hpp): the chosen plan(s),
  // one per partition scan. Empty on every other search, whose access path
  // is fixed by use_index or by the caller's candidate list.
  std::vector<planned_scan> plans;
  // Filled by the network coordinator (src/net): true when at least one
  // shard's contribution is missing or partial, with one status entry per
  // remote shard saying how it ended. In-process scans never degrade:
  // degraded stays false and shard_statuses stays empty.
  bool degraded = false;
  std::vector<shard_scan_status> shard_statuses;
  // Filled by the search_cached entry points (db/result_cache.hpp). A pure
  // hit reports cache_hits == 1 and touches nothing else; a miss reports
  // cache_misses == 1 plus the full scan's accounting; a delta refresh
  // reports cache_delta_refreshes == 1 with scanned/scored/pruned covering
  // ONLY the appended suffix and cache_delta_rescored == that suffix's
  // scanned count (the O(appended) claim, measurable per query). Plain
  // search() leaves all four at zero.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_delta_refreshes = 0;
  std::size_t cache_delta_rescored = 0;
};

// Ranks by score descending, ties by id ascending; truncates to top_k.
[[nodiscard]] std::vector<query_result> search(const image_database& db,
                                               const symbolic_image& query,
                                               const query_options& options = {},
                                               search_stats* stats = nullptr);

// Same, for a query already encoded (query_symbols drive the index filter;
// pass empty to force a full scan).
[[nodiscard]] std::vector<query_result> search(
    const image_database& db, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options = {},
    search_stats* stats = nullptr);

// Pinned searches: score against an explicit snapshot (db.snapshot()) so
// several queries observe the SAME instant while add()/remove() proceed
// underneath. Results are exactly what searching a quiesced database in the
// snapshot's state would return. The snapshot's database must outlive the
// call; the unpinned overloads are equivalent to pinning a fresh snapshot
// per search.
[[nodiscard]] std::vector<query_result> search(
    const db_snapshot& snap, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options = {},
    search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search(const db_snapshot& snap,
                                               const symbolic_image& query,
                                               const query_options& options = {},
                                               search_stats* stats = nullptr);

class result_cache;  // db/result_cache.hpp

// Cached searches: identical results to the matching search() overload —
// bit-identical ids, scores, and transforms — consulting/populating `cache`
// around the scan. A fresh entry is stamped with the scan's snapshot cut;
// a later identical query at the same cut is a pure hit, at a newer cut it
// is upgraded by scoring only the records appended since (delta-scan
// refresh; see db/result_cache.hpp for the invalidation rules). The
// unpinned overloads evaluate at a fresh db.snapshot(); the pinned overload
// evaluates exactly at `snap` and never serves results the snapshot cannot
// see. Safe to call concurrently with add()/remove() and with other cached
// or uncached searches.
[[nodiscard]] std::vector<query_result> search_cached(
    const image_database& db, result_cache& cache, const symbolic_image& query,
    const query_options& options = {}, search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search_cached(
    const image_database& db, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options = {}, search_stats* stats = nullptr);
[[nodiscard]] std::vector<query_result> search_cached(
    const db_snapshot& snap, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options = {}, search_stats* stats = nullptr);

// Scores exactly the given candidate set (sorted or not, duplicates scored
// twice — callers pass the sorted/unique output of a prefilter). This is the
// entry point for external access paths (R-tree window prefilter, combined
// symbol ∩ window prefilter, db/prefilter.hpp): candidate generation is the
// caller's, ranking/pruning/threads behave exactly as in search().
// options.use_index is ignored. Throws std::out_of_range on an id >= size.
[[nodiscard]] std::vector<query_result> search_candidates(
    const image_database& db, const be_string2d& query_strings,
    std::span<const image_id> candidates, const query_options& options = {},
    search_stats* stats = nullptr);

// Batch retrieval: results[i] == search(snap, queries[i], options) for one
// snapshot taken at the start of the batch, with the per-query
// precomputation amortized. Encoding, symbol extraction and the
// prepared query — the match masks every LCS pair streams through and the
// token counts backing the pruner, for all 8 dihedral variants under
// transform_invariant — are each computed exactly once per query up front
// (in parallel across the batch), never per database record; the candidate
// loops then run through parallel_for with options.threads workers,
// including the histogram-pruned path. When `stats` is non-null it is
// resized to queries.size() with per-query accounting.
[[nodiscard]] std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const symbolic_image> queries,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

// Same, for queries already encoded; query_symbols[i] drives the index
// filter for queries[i] (empty forces a full scan). The two spans must have
// equal length.
[[nodiscard]] std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

// Batch counterpart of search_candidates: results[i] ==
// search_candidates(db, queries[i], candidates[i], options), with per-query
// precomputation amortized and the queries scheduled on one dynamic work
// queue. This is how a prefiltered candidate set (e.g. combined_candidates,
// see db/prefilter.hpp) rides the batch path. The two spans must have equal
// length; options.use_index is ignored; throws std::out_of_range on any id
// >= db.size().
[[nodiscard]] std::vector<std::vector<query_result>> search_batch_candidates(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<image_id>> candidates,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

}  // namespace bes
