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

// Plan + generate for one (query, database): the shared front half of every
// planned search.
struct generation {
  access_plan plan;
  std::vector<image_id> ids;
  std::size_t generated = 0;
};

generation generate_planned(const planner_context& ctx,
                            const symbolic_image& query,
                            std::span<const symbol_id> symbols,
                            const query_options& options) {
  generation out;
  out.plan = plan_query(ctx, query, symbols, options);
  const access_path_context actx{ctx.db, ctx.spatial, ctx.hybrid};
  access_path_stats gen;
  out.ids = make_access_path(out.plan.path, actx)
                ->generate(path_probe{&query, symbols, out.plan.pad}, &gen);
  out.generated = gen.candidates_generated;
  return out;
}

std::vector<query_result> planned_impl(
    const planner_context& ctx, const symbolic_image& query,
    const prepared_query& prepared, std::span<const symbol_id> symbols,
    const query_options& options, search_stats* stats) {
  generation g = generate_planned(ctx, query, symbols, options);
  auto out = detail::scan_shard(*ctx.db, prepared, g.ids, {}, options,
                                nullptr, stats);
  if (stats != nullptr) {
    stats->candidates_generated = g.generated;
    stats->plans.push_back(planned_scan{g.plan.path, g.plan.pad,
                                        g.plan.estimated_candidates,
                                        g.ids.size()});
  }
  return out;
}

std::vector<query_result> sharded_planned_impl(
    const sharded_database& db, const symbolic_image& query,
    const be_string2d& strings, std::span<const symbol_id> symbols,
    const query_options& options, search_stats* stats) {
  const std::size_t shards = db.shard_count();
  std::vector<std::vector<image_id>> local(shards);
  std::vector<planned_scan> plans;
  plans.reserve(shards);
  std::size_t generated = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Each shard is planned against ITS statistics: postings and density
    // differ per partition, so so may the chosen path.
    const planner_context ctx{&db.shard_db(s), &db.shard_spatial(s),
                              &db.shard_hybrid(s)};
    generation g = generate_planned(ctx, query, symbols, options);
    generated += g.generated;
    plans.push_back(planned_scan{g.plan.path, g.plan.pad,
                                 g.plan.estimated_candidates, g.ids.size()});
    local[s] = std::move(g.ids);
  }
  auto out = search_local_candidates(db, strings, local, options, stats);
  if (stats != nullptr) {
    stats->candidates_generated = generated;
    stats->plans = std::move(plans);
  }
  return out;
}

}  // namespace

std::vector<query_result> search_planned(const planner_context& ctx,
                                         const symbolic_image& query,
                                         const be_string2d& query_strings,
                                         std::span<const symbol_id> symbols,
                                         const query_options& options,
                                         search_stats* stats) {
  return planned_impl(ctx, query,
                      detail::prepare_query(query_strings, options),
                      symbols, options, stats);
}

std::vector<query_result> search_planned(const planner_context& ctx,
                                         const symbolic_image& query,
                                         const query_options& options,
                                         search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return planned_impl(ctx, query,
                      detail::prepare_query(strings, options),
                      symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_planned(
    const planner_context& ctx, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  const std::vector<prepared_query> plans =
      detail::make_plans(encoded.strings, options);

  if (stats != nullptr) stats->assign(queries.size(), search_stats{});
  std::vector<std::vector<query_result>> results(queries.size());
  detail::for_each_query(
      queries.size(), options,
      [&](std::size_t i, const query_options& per_query) {
        results[i] = planned_impl(
            ctx, queries[i], plans[i], encoded.symbols[i], per_query,
            stats != nullptr ? &(*stats)[i] : nullptr);
      });
  return results;
}

std::vector<query_result> search_planned(const sharded_database& db,
                                         const symbolic_image& query,
                                         const query_options& options,
                                         search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return sharded_planned_impl(db, query, strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_planned(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  if (stats != nullptr) stats->assign(queries.size(), search_stats{});
  std::vector<std::vector<query_result>> results(queries.size());
  detail::for_each_query(
      queries.size(), options,
      [&](std::size_t i, const query_options& per_query) {
        results[i] = sharded_planned_impl(
            db, queries[i], encoded.strings[i], encoded.symbols[i], per_query,
            stats != nullptr ? &(*stats)[i] : nullptr);
      });
  return results;
}

}  // namespace bes
