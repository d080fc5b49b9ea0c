#include "db/planner.hpp"

#include <algorithm>
#include <vector>

#include "db/hybrid_index.hpp"
#include "db/scan.hpp"
#include "db/shard.hpp"
#include "db/spatial_index.hpp"

namespace bes {

int adaptive_pad(const symbolic_image& query) {
  const int domain = std::max(query.width(), query.height());
  long long extent = 0;
  for (const icon& obj : query.icons()) {
    extent += (obj.mbr.x.hi - obj.mbr.x.lo) + (obj.mbr.y.hi - obj.mbr.y.lo);
  }
  const int mean_extent =
      query.size() == 0
          ? 0
          : static_cast<int>(extent / (2 * static_cast<long long>(query.size())));
  return std::max(2, domain / 16 + domain / 32 + mean_extent / 8);
}

access_plan plan_query(const planner_context& ctx, const symbolic_image& query,
                       std::span<const symbol_id> symbols,
                       const query_options& options) {
  const image_database& db = *ctx.db;
  const std::size_t n = db.size();
  const access_plan full{access_path_kind::full_scan, 0, n};
  if (n == 0 || symbols.empty() || !options.use_index) return full;

  // Cost unit: emitting one raw candidate id during generation. Scoring one
  // candidate runs an LCS DP whose work grows with the query's icon count,
  // so a smaller candidate set buys its generation overhead back at
  // score_weight : 1.
  const std::size_t score_weight = 16 * std::max<std::size_t>(1, query.size());

  struct costed {
    access_plan plan;
    std::size_t cost;
  };
  std::vector<costed> menu;
  menu.push_back({full, n * score_weight});

  std::size_t mass = 0;  // Σ posting-list lengths == index generation work
  for (symbol_id s : symbols) mass += db.postings(s);
  const std::size_t est_index = std::min(n, mass);
  menu.push_back({access_plan{access_path_kind::inverted_index, 0, est_index},
                  est_index * score_weight + mass});

  // Lossy spatial paths need a threshold to defend (otherwise the caller
  // wants every score, which only admissible paths deliver) and an identity
  // query layout (padded windows around the identity icons are wrong for
  // the 7 other dihedral variants).
  const bool lossy_ok = !options.transform_invariant && query.size() > 0 &&
                        (options.top_k > 0 || options.min_score > 0.0);
  const access_path_context actx{ctx.db, ctx.spatial, ctx.hybrid};
  const int pad = adaptive_pad(query);
  const path_probe probe{&query, symbols, pad};
  if (lossy_ok && ctx.hybrid != nullptr) {
    const std::size_t est =
        make_access_path(access_path_kind::hybrid, actx)->estimate(probe);
    // One fused traversal: each level tests at most max_entries entries per
    // query-icon probe, plus the exact recheck over the raw hits.
    const std::size_t traversal =
        query.size() *
        static_cast<std::size_t>(ctx.hybrid->tree().height() + 1) *
        rtree::max_entries;
    menu.push_back({access_plan{access_path_kind::hybrid, pad, est},
                    est * score_weight + traversal + est});
  } else if (lossy_ok && ctx.spatial != nullptr) {
    const std::size_t est =
        make_access_path(access_path_kind::combined, actx)->estimate(probe);
    // Two full materializations (index union + window hits) intersected
    // after the fact — the overhead the hybrid path exists to avoid.
    menu.push_back({access_plan{access_path_kind::combined, pad, est},
                    est * score_weight + mass + 2 * est});
  }

  // Strictly-cheaper wins; ties keep the earlier, more conservative entry.
  costed best = menu.front();
  for (const costed& c : menu) {
    if (c.cost < best.cost) best = c;
  }
  return best.plan;
}

namespace {

// Plan + generate for one (query, partition): each partition is planned
// against ITS statistics — postings and density differ per shard, so may
// the chosen path.
detail::scan_candidates planned_candidates(const detail::partition& p,
                                           const symbolic_image& query,
                                           std::span<const symbol_id> symbols,
                                           const query_options& options) {
  const planner_context ctx{p.db, p.spatial, p.hybrid};
  const access_plan plan = plan_query(ctx, query, symbols, options);
  access_path_stats gen;
  detail::scan_candidates out;
  out.ids = make_access_path(plan.path, {p.db, p.spatial, p.hybrid})
                ->generate(path_probe{&query, symbols, plan.pad}, &gen);
  out.generated = gen.candidates_generated;
  out.plan = planned_scan{plan.path, plan.pad, plan.estimated_candidates,
                          out.ids.size()};
  return out;
}

// The planned search and batch over any partition view.
std::vector<std::vector<query_result>> planned_batch(
    const detail::partition_view& view, std::span<const symbolic_image> images,
    std::span<const be_string2d> strings,
    std::span<const std::vector<symbol_id>> symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  return detail::execute(
      view, detail::make_plans(strings, options),
      {.generate =
           [&](const detail::partition& p, std::size_t q) {
             return planned_candidates(p, images[q], symbols[q], options);
           }},
      options, stats);
}

std::vector<query_result> planned_search(const detail::partition_view& view,
                                         const symbolic_image& query,
                                         const be_string2d& strings,
                                         std::span<const symbol_id> symbols,
                                         const query_options& options,
                                         search_stats* stats) {
  return detail::execute_one(
      view, detail::prepare_query(strings, options),
      {.generate =
           [&](const detail::partition& p, std::size_t) {
             return planned_candidates(p, query, symbols, options);
           }},
      options, stats);
}

detail::partition_view flat_view(const planner_context& ctx) {
  return detail::flat_view(ctx.db->snapshot(), ctx.spatial, ctx.hybrid);
}

}  // namespace

std::vector<query_result> search_planned(const planner_context& ctx,
                                         const symbolic_image& query,
                                         const be_string2d& query_strings,
                                         std::span<const symbol_id> symbols,
                                         const query_options& options,
                                         search_stats* stats) {
  return planned_search(flat_view(ctx), query, query_strings, symbols,
                        options, stats);
}

std::vector<query_result> search_planned(const planner_context& ctx,
                                         const symbolic_image& query,
                                         const query_options& options,
                                         search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search_planned(ctx, query, strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_planned(
    const planner_context& ctx, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return planned_batch(flat_view(ctx), queries, encoded.strings,
                       encoded.symbols, options, stats);
}

std::vector<query_result> search_planned(const sharded_database& db,
                                         const symbolic_image& query,
                                         const query_options& options,
                                         search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return planned_search(detail::sharded_view(db, db.snapshot()), query,
                        strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_planned(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return planned_batch(detail::sharded_view(db, db.snapshot()), queries,
                       encoded.strings, encoded.symbols, options, stats);
}

}  // namespace bes
