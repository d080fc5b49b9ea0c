// The cost-based query planner (ISSUE 7 tentpole, part 3): picks ONE access
// path per query from statistics that are already on hand — database size,
// posting-list lengths, the query's window/domain area ratios (the cheap
// spatial-density stand-in), its icon count (the LCS cost driver), top_k
// and min_score — and sizes the prefilter pad adaptively from the query's
// own spread instead of a fixed jitter budget.
//
// The choice is a pure function of (query, database statistics, options):
// no randomness, no wall-clock feedback, so the same inputs always plan the
// same path — the property db_planner_test locks. Sharded databases are
// planned per (query, shard): each shard's own statistics drive its plan,
// so a shard whose postings are dense may scan while a sparse one probes
// its R-tree, all feeding one shared top-k.
#pragma once

#include "db/access_path.hpp"
#include "db/query.hpp"

namespace bes {

class spatial_index;
class sharded_database;

// The planner's verdict for one (query, database) pair.
struct access_plan {
  access_path_kind path = access_path_kind::full_scan;
  int pad = 0;                           // adaptive window pad (spatial paths)
  std::size_t estimated_candidates = 0;  // the estimate that won

  friend bool operator==(const access_plan&, const access_plan&) = default;
};

// Everything the planner may plan against. `db` is required; null
// `spatial`/`hybrid` simply take those paths off the menu. A partition's one
// index fills both; `hybrid` remains only because the benchmark adapter
// (perfbench/adapter.hpp) names it.
struct planner_context {
  const image_database* db = nullptr;
  const spatial_index* spatial = nullptr;
  const spatial_index* hybrid = nullptr;
};

// The adaptive prefilter pad: the fixed displacement budget the eval
// harness used (domain/16 + domain/32) computed from the QUERY's own extent
// instead of a corpus-wide constant, plus an eighth of the mean icon extent
// so scenes with large objects (whose MBRs drift further under distortion)
// get wider windows. Never below 2. On the eval corpus this is >= the old
// fixed pad, so planner recall can only match or beat the fixed-pad cells.
[[nodiscard]] int adaptive_pad(const symbolic_image& query);

// Plans one query. Deterministic; never generates candidates. Rules:
// full_scan when the index is off, the query has no symbols, or the
// database is empty; lossy spatial paths are considered only when a
// threshold exists to defend (top_k > 0 or min_score > 0 — with neither,
// the caller wants every score, which only admissible paths provide) and
// the query is not transform-invariant (windows around the identity
// layout are wrong for the 7 other dihedral variants). Among the eligible
// paths the cheapest modeled cost wins: scoring a candidate costs ~16 x
// icon-count generation units, so a path is worth its generation overhead
// exactly when its candidate estimate is enough smaller. Ties go to the
// earlier (more conservative) path.
[[nodiscard]] access_plan plan_query(const planner_context& ctx,
                                     const symbolic_image& query,
                                     std::span<const symbol_id> symbols,
                                     const query_options& options);

// Plan, generate through the chosen access path, scan — one database.
// `stats` additionally records the plan (stats->plans, one entry) and the
// generation accounting (candidates_generated).
[[nodiscard]] std::vector<query_result> search_planned(
    const planner_context& ctx, const symbolic_image& query,
    const query_options& options = {}, search_stats* stats = nullptr);

// Same, for a query already encoded (skips re-encoding; the eval harness
// and batch path use this).
[[nodiscard]] std::vector<query_result> search_planned(
    const planner_context& ctx, const symbolic_image& query,
    const be_string2d& query_strings, std::span<const symbol_id> symbols,
    const query_options& options = {}, search_stats* stats = nullptr);

// Batch counterpart: results[i] == search_planned(ctx, queries[i], options)
// at one snapshot taken at the start of the batch, with encoding and query
// preparation amortized and the queries scheduled on the search executor's
// one dynamic work queue (db/scan.hpp).
[[nodiscard]] std::vector<std::vector<query_result>> search_batch_planned(
    const planner_context& ctx, std::span<const symbolic_image> queries,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

// Sharded: one plan per (query, shard) against that shard's own statistics;
// the shard scans of a query share one top-k in the search executor
// (db/scan.hpp), so results merge exactly like every other sharded search.
// stats->plans gets shard_count() entries, in shard order.
[[nodiscard]] std::vector<query_result> search_planned(
    const sharded_database& db, const symbolic_image& query,
    const query_options& options = {}, search_stats* stats = nullptr);

[[nodiscard]] std::vector<std::vector<query_result>> search_batch_planned(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options = {},
    std::vector<search_stats>* stats = nullptr);

}  // namespace bes
