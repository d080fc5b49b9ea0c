#include "db/query.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "db/result_cache.hpp"
#include "db/scan.hpp"
#include "util/parallel.hpp"

namespace bes {

namespace detail {

bool result_better(const query_result& a, const query_result& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

std::vector<query_result> rank_results(std::vector<query_result> hits,
                                       const query_options& options) {
  std::erase_if(hits, [&](const query_result& r) {
    return r.score < options.min_score;
  });
  std::sort(hits.begin(), hits.end(), result_better);
  if (options.top_k != 0 && hits.size() > options.top_k) {
    hits.resize(options.top_k);
  }
  return hits;
}

bool pruning_applies(const query_options& options) {
  return options.histogram_pruning && !options.transform_invariant &&
         (options.top_k > 0 || options.min_score > 0.0);
}

shared_topk::shared_topk(std::size_t capacity, double min_score)
    : capacity_(capacity == 0 ? std::numeric_limits<std::size_t>::max()
                              : capacity),
      min_score_(min_score),
      kth_(min_score),
      floor_(min_score) {}

void shared_topk::raise_floor(double f) noexcept {
  // CAS max: concurrent raises keep the largest floor ever offered, and a
  // racing lower offer can never overwrite a higher one.
  double current = floor_.load(std::memory_order_relaxed);
  while (f > current && !floor_.compare_exchange_weak(
                            current, f, std::memory_order_relaxed)) {
  }
}

void shared_topk::insert(const query_result& r) {
  std::lock_guard lock(mutex_);
  const auto pos = std::lower_bound(top_.begin(), top_.end(), r, result_better);
  top_.insert(pos, r);
  if (top_.size() > capacity_) top_.pop_back();
  if (top_.size() == capacity_) {
    // The k-th score is monotone non-decreasing once the heap is full, so
    // a stale read elsewhere is merely a weaker (still admissible) bound.
    kth_.store(top_.back().score, std::memory_order_relaxed);
  }
}

std::vector<query_result> shared_topk::take() { return std::move(top_); }

}  // namespace detail

std::string_view to_string(shard_scan_state state) noexcept {
  switch (state) {
    case shard_scan_state::ok: return "ok";
    case shard_scan_state::timed_out: return "timed_out";
    case shard_scan_state::failed: return "failed";
    case shard_scan_state::expired: return "expired";
    case shard_scan_state::rejected: return "rejected";
  }
  return "?";
}

namespace {

using detail::id_map;
using detail::result_better;
using detail::shared_topk;

// Top-k scan with the two-stage admissible pruner. Stage 1: candidates are
// visited in decreasing histogram-bound order and skipped (or, serially,
// the whole tail dropped) once their bound falls below the running
// threshold. Stage 2: survivors are scored through similarity_bounded, so
// the threshold also cuts the DP short from the inside. Both stages discard
// only candidates provably outside the final result, so the output is
// IDENTICAL to the exhaustive scan for any thread count — and, when several
// shard scans feed one `shared` heap, the union of shards is identical to
// one big scan (the heap defends the GLOBAL k-th score either way).
//
// With a `shared` heap the survivors live there and the return value is
// empty; standalone, the heap is local and the ranked result is returned.
std::vector<query_result> pruned_search(const image_database& db,
                                        const be_string2d& query_strings,
                                        const be_histogram2d& query_histograms,
                                        std::span<const image_id> ids,
                                        id_map globals,
                                        const query_options& options,
                                        shared_topk* shared,
                                        search_stats* stats) {
  struct bounded {
    double bound;
    double y_cap;
    image_id id;
  };
  std::vector<bounded> order(ids.size());
  const norm_kind norm = options.similarity.norm;
  parallel_for(ids.size(), options.threads, [&](std::size_t k) {
    const image_id id = ids[k];
    const be_histogram2d& h = db.record(id).histograms;
    const double x_cap = axis_similarity_upper_bound(
        query_histograms.x, query_histograms.x_len, h.x, h.x_len, norm);
    const double y_cap = axis_similarity_upper_bound(
        query_histograms.y, query_histograms.y_len, h.y, h.y_len, norm);
    order[k] = bounded{0.5 * (x_cap + y_cap), y_cap, id};
  });
  std::sort(order.begin(), order.end(), [](const bounded& a, const bounded& b) {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id < b.id;
  });

  std::optional<shared_topk> local;
  if (shared == nullptr) {
    local.emplace(options.top_k, options.min_score);
  }
  shared_topk& top = shared != nullptr ? *shared : *local;
  std::atomic<std::size_t> scored{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> band_rejected{0};

  // One scoring context per scan worker, bound once to the CPU-dispatched
  // kernel: the per-candidate hot loop pays neither a thread_local lookup
  // nor any kernel re-resolution.
  std::vector<lcs_context> contexts(
      parallel_workers(order.size(), options.threads));

  auto visit = [&](lcs_context& ctx, const bounded& c) {
    const double threshold = top.threshold();
    if (c.bound < threshold) {
      pruned.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const db_record& rec = db.record(c.id);
    scored.fetch_add(1, std::memory_order_relaxed);
    const double score =
        similarity_bounded(query_strings, rec.strings, options.similarity,
                           threshold, ctx, c.y_cap);
    // Below the threshold the value may be an unfinished upper bound; either
    // way the candidate cannot reach the final result.
    if (score < threshold || score < options.min_score) {
      band_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    top.insert(query_result{globals(rec.id), score, dihedral::identity});
  };

  if (options.threads <= 1) {
    // Serial fast path: bounds are sorted descending, so the first candidate
    // below the threshold ends the scan outright. Valid per shard too: the
    // shared threshold is monotone, so the drop only ever grows stricter.
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i].bound < top.threshold()) {
        pruned.fetch_add(order.size() - i, std::memory_order_relaxed);
        break;
      }
      visit(contexts[0], order[i]);
    }
  } else {
    parallel_for(order.size(), options.threads,
                 [&](unsigned worker, std::size_t i) {
                   visit(contexts[worker], order[i]);
                 });
  }

  if (stats != nullptr) {
    stats->scored = scored.load();
    stats->pruned = pruned.load();
    stats->band_rejected = band_rejected.load();
  }
  return shared != nullptr ? std::vector<query_result>{} : local->take();
}

std::vector<query_result> exhaustive_search(const image_database& db,
                                            const be_string2d& query_strings,
                                            const query_transforms* transforms,
                                            std::span<const image_id> ids,
                                            id_map globals,
                                            const query_options& options,
                                            search_stats* stats) {
  // Transform-invariant scans need the 8 query variants; build them once for
  // the whole scan, never per record.
  query_transforms local;
  if (options.transform_invariant && transforms == nullptr) {
    local = precompute_transforms(query_strings);
    transforms = &local;
  }
  std::vector<query_result> hits(ids.size());
  // Per-worker contexts, same rationale as the pruned scan above.
  std::vector<lcs_context> contexts(
      parallel_workers(ids.size(), options.threads));
  parallel_for(ids.size(), options.threads, [&](unsigned worker,
                                                std::size_t k) {
    const db_record& rec = db.record(ids[k]);
    lcs_context& ctx = contexts[worker];
    query_result r;
    r.id = globals(rec.id);
    if (options.transform_invariant) {
      const transform_match best = best_transform_similarity(
          *transforms, rec.strings, options.similarity, ctx);
      r.score = best.score;
      r.transform = best.transform;
    } else {
      r.score = similarity(query_strings, rec.strings, options.similarity, ctx);
    }
    hits[k] = r;
  });
  if (stats != nullptr) stats->scored = hits.size();
  return detail::rank_results(std::move(hits), options);
}

}  // namespace

namespace detail {

std::vector<query_result> scan_shard(
    const image_database& db, const be_string2d& query_strings,
    std::span<const image_id> ids, id_map globals,
    const be_histogram2d* histograms, const query_transforms* transforms,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap) {
  db_snapshot captured;
  if (snap == nullptr) {
    captured = db.snapshot();
    snap = &captured;
  }
  // Snapshot filter. Candidates the snapshot cannot see (published after its
  // watermark) are dropped before the scan even starts — they do not exist
  // in this view, so they are neither scanned nor pruned. Tombstoned
  // candidates ARE scanned: they count as pruned (the tombstone is a free,
  // always-admissible pruning decision), never as scored. When the snapshot
  // is all-live the scan runs on the caller's span untouched — EXCEPT for
  // past-watermark ids, which must still be dropped: the inverted index
  // publishes a record's postings BEFORE the record itself commits (that
  // order is what makes the local->global mapping safe to read), so an
  // index-generated candidate can precede the watermark bump by one racing
  // add even when no tombstone exists.
  std::vector<image_id> live;
  std::size_t dead = 0;
  std::span<const image_id> scan = ids;
  if (!snap->all_live()) {
    live.reserve(ids.size());
    for (image_id id : ids) {
      if (id >= snap->visible) continue;
      if (snap->alive(id)) {
        live.push_back(id);
      } else {
        ++dead;
      }
    }
    scan = live;
  } else {
    std::size_t keep = 0;
    while (keep < ids.size() && ids[keep] < snap->visible) ++keep;
    if (keep < ids.size()) {
      live.assign(ids.begin(),
                  ids.begin() + static_cast<std::ptrdiff_t>(keep));
      for (std::size_t k = keep + 1; k < ids.size(); ++k) {
        if (ids[k] < snap->visible) live.push_back(ids[k]);
      }
      scan = live;
    }
  }
  if (stats != nullptr) {
    *stats = search_stats{};
    stats->scanned = scan.size() + dead;
  }
  std::vector<query_result> out;
  if (pruning_applies(options)) {
    if (histograms != nullptr) {
      out = pruned_search(db, query_strings, *histograms, scan, globals,
                          options, shared, stats);
    } else {
      out = pruned_search(db, query_strings, make_histograms(query_strings),
                          scan, globals, options, shared, stats);
    }
  } else {
    out = exhaustive_search(db, query_strings, transforms, scan, globals,
                            options, stats);
  }
  if (stats != nullptr) stats->pruned += dead;
  return out;
}

}  // namespace detail

namespace {

std::vector<query_result> search_impl(const image_database& db,
                                      const be_string2d& query_strings,
                                      std::span<const symbol_id> query_symbols,
                                      const be_histogram2d* histograms,
                                      const query_transforms* transforms,
                                      const query_options& options,
                                      search_stats* stats,
                                      const db_snapshot* snap = nullptr) {
  std::size_t generated = 0;
  const std::vector<image_id> ids =
      detail::scan_ids(db, query_symbols, options,
                       stats != nullptr ? &generated : nullptr);
  auto out = detail::scan_shard(db, query_strings, ids, {}, histograms,
                                transforms, options, nullptr, stats, snap);
  // scan_shard resets *stats; generation accounting goes on top.
  if (stats != nullptr) stats->candidates_generated = generated;
  return out;
}

void check_candidates_in_range(const image_database& db,
                               std::span<const image_id> candidates) {
  for (image_id id : candidates) {
    if (id >= db.size()) {
      throw std::out_of_range("search_candidates: id " + std::to_string(id) +
                              " out of range");
    }
  }
}

}  // namespace

std::vector<query_result> search(const image_database& db,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return search_impl(db, query_strings, query_symbols, nullptr, nullptr,
                     options, stats);
}

std::vector<query_result> search_candidates(const image_database& db,
                                            const be_string2d& query_strings,
                                            std::span<const image_id> candidates,
                                            const query_options& options,
                                            search_stats* stats) {
  check_candidates_in_range(db, candidates);
  auto out = detail::scan_shard(db, query_strings, candidates, {}, nullptr,
                                nullptr, options, nullptr, stats);
  // Generation happened outside; the handed-in list is what was generated.
  if (stats != nullptr) stats->candidates_generated = candidates.size();
  return out;
}

std::vector<query_result> search(const image_database& db,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(db, strings, symbols, options, stats);
}

std::vector<query_result> search(const db_snapshot& snap,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return search_impl(*snap.db, query_strings, query_symbols, nullptr, nullptr,
                     options, stats, &snap);
}

std::vector<query_result> search(const db_snapshot& snap,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(snap, strings, symbols, options, stats);
}

namespace detail {

std::vector<query_plan> make_plans(std::span<const be_string2d> queries,
                                   const query_options& options) {
  const bool want_histograms = pruning_applies(options);
  const bool want_transforms = options.transform_invariant;
  std::vector<query_plan> plans(queries.size());
  parallel_for(queries.size(), options.threads, [&](std::size_t i) {
    if (want_histograms) plans[i].histograms = make_histograms(queries[i]);
    if (want_transforms) plans[i].transforms = precompute_transforms(queries[i]);
  });
  return plans;
}

encoded_queries encode_queries(std::span<const symbolic_image> queries,
                               unsigned threads) {
  encoded_queries out;
  out.strings.resize(queries.size());
  out.symbols.resize(queries.size());
  parallel_for(queries.size(), threads, [&](std::size_t i) {
    out.strings[i] = encode(queries[i]);
    out.symbols[i] = distinct_symbols(queries[i]);
  });
  return out;
}

// The batch used to walk queries one after another, each scan fanning its
// candidates over all threads — so the batch tail was serialized behind
// whichever query happened to be slow. Now the queries themselves are work
// items on parallel_for's dynamic queue (chunk = 1: a worker claims ONE
// query at a time), with the thread budget split between query-level and
// candidate-level parallelism. A slow query occupies one worker while the
// others drain the rest of the batch; results are identical either way
// because every scan is thread-count-invariant by construction.
void for_each_query(
    std::size_t count, const query_options& options,
    const std::function<void(std::size_t, const query_options&)>& run_one) {
  if (count <= 1 || options.threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i, options);
    return;
  }
  const unsigned outer = static_cast<unsigned>(
      std::min<std::size_t>(options.threads, count));
  query_options per_query = options;
  per_query.threads = std::max(1u, options.threads / outer);
  parallel_for(
      count, outer, [&](std::size_t i) { run_one(i, per_query); },
      /*chunk=*/1);
}

}  // namespace detail

namespace {

using detail::for_each_query;
using detail::make_plans;
using detail::query_plan;

std::vector<std::vector<query_result>> batch_impl(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  if (queries.size() != query_symbols.size()) {
    throw std::invalid_argument(
        "search_batch: queries and query_symbols sizes differ");
  }
  const bool want_histograms = detail::pruning_applies(options);
  const bool want_transforms = options.transform_invariant;
  const std::vector<query_plan> plans = make_plans(queries, options);

  if (stats != nullptr) {
    stats->assign(queries.size(), search_stats{});
  }
  std::vector<std::vector<query_result>> results(queries.size());
  for_each_query(
      queries.size(), options,
      [&](std::size_t i, const query_options& per_query) {
        results[i] = search_impl(
            db, queries[i], query_symbols[i],
            want_histograms ? &plans[i].histograms : nullptr,
            want_transforms ? &plans[i].transforms : nullptr, per_query,
            stats != nullptr ? &(*stats)[i] : nullptr);
      });
  return results;
}

}  // namespace

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  return batch_impl(db, queries, query_symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return batch_impl(db, encoded.strings, encoded.symbols, options, stats);
}

namespace {

// Delta-scan refresh of a flat cache entry: upgrade results valid at the
// entry's cut to `now` by (1) re-checking the cached hits against the new
// snapshot's tombstone view and (2) scoring only the records appended in
// [cut.visible, now.visible). Returns nullopt when the entry cannot be
// upgraded without a full rescan — a deletion hit an INCOMPLETE entry (the
// deletion may promote a runner-up the entry never stored), in which case
// the caller falls back to the full scan.
std::optional<std::vector<query_result>> flat_delta_refresh(
    const image_database& db, const db_snapshot& snap, result_cache& cache,
    const cache_key& key, const cache_entry& entry, const cache_cut& now,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats) {
  const cache_cut& at = entry.cuts[0];

  // Survivors: cached hits still alive at the new cut, back in query frame.
  std::vector<query_result> survivors = entry.results;
  from_canonical_frame(survivors, key.canon);
  std::size_t deaths = 0;
  std::erase_if(survivors, [&](const query_result& r) {
    const bool dead = !snap.alive(r.id);
    deaths += dead ? 1 : 0;
    return dead;
  });
  if (deaths > 0 && !entry.complete) return std::nullopt;

  // Suffix candidates: the full scan's generation rule, restricted to the
  // appended range. Records the entry's cut already saw are NOT generated.
  const std::vector<image_id> suffix = detail::scan_ids(
      db, query_symbols, options, nullptr,
      id_range{static_cast<image_id>(at.visible),
               static_cast<image_id>(now.visible)});

  // With a full cached top-k the k-th surviving score is an admissible floor
  // for suffix candidates: every suffix id is larger than every cached id,
  // so an equal score loses the id-ascending tie-break anyway.
  query_options delta_options = options;
  if (options.top_k > 0 && survivors.size() == options.top_k) {
    delta_options.min_score =
        std::max(options.min_score, survivors.back().score);
  }

  search_stats delta_stats;
  std::vector<query_result> fresh =
      detail::scan_shard(db, query_strings, suffix, {}, nullptr, nullptr,
                         delta_options, nullptr, &delta_stats, &snap);

  std::vector<query_result> merged = std::move(survivors);
  merged.insert(merged.end(), fresh.begin(), fresh.end());
  merged = detail::rank_results(std::move(merged), options);

  cache.note_delta_refresh(delta_stats.scanned);
  if (stats != nullptr) {
    *stats = delta_stats;
    stats->candidates_generated = suffix.size();
    stats->cache_delta_refreshes = 1;
    stats->cache_delta_rescored = delta_stats.scanned;
  }

  cache_entry updated;
  updated.results = merged;
  to_canonical_frame(updated.results, key.canon);
  updated.cuts = {now};
  updated.complete = options.top_k == 0 || merged.size() < options.top_k;
  cache.put(key, std::move(updated));
  return merged;
}

std::vector<query_result> flat_cached_impl(
    const image_database& db, const db_snapshot& snap, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats) {
  const cache_key key = make_cache_key(query_strings, query_symbols, options,
                                       cache_scope::flat, /*shard_count=*/1,
                                       /*ring_replicas=*/0);
  const cache_cut now{snap.visible, snap.epoch};

  const std::optional<cache_entry> entry = cache.find(key);
  if (entry.has_value() && entry->cuts.size() == 1) {
    if (entry->cuts[0] == now) {
      cache.note_hit();
      if (stats != nullptr) {
        *stats = search_stats{};
        stats->cache_hits = 1;
      }
      std::vector<query_result> out = entry->results;
      from_canonical_frame(out, key.canon);
      return out;
    }
    const cache_cut& at = entry->cuts[0];
    const bool forward = now.visible >= at.visible && now.epoch >= at.epoch;
    if (forward &&
        now.visible - at.visible <= cache.options().max_delta_records) {
      auto refreshed =
          flat_delta_refresh(db, snap, cache, key, *entry, now, query_strings,
                             query_symbols, options, stats);
      if (refreshed.has_value()) return std::move(*refreshed);
    }
  }

  // Miss (no entry, past the staleness budget, or not upgradeable): full
  // pinned scan. Store unless it would REGRESS a fresher entry — a search
  // pinned to an old snapshot must not overwrite results newer readers use.
  cache.note_miss();
  std::vector<query_result> out = search_impl(
      db, query_strings, query_symbols, nullptr, nullptr, options, stats,
      &snap);
  if (stats != nullptr) stats->cache_misses = 1;
  const bool store =
      !entry.has_value() || entry->cuts.size() != 1 ||
      (now.visible >= entry->cuts[0].visible &&
       now.epoch >= entry->cuts[0].epoch);
  if (store) {
    cache_entry fresh;
    fresh.results = out;
    to_canonical_frame(fresh.results, key.canon);
    fresh.cuts = {now};
    fresh.complete = options.top_k == 0 || out.size() < options.top_k;
    cache.put(key, std::move(fresh));
  }
  return out;
}

}  // namespace

std::vector<query_result> search_cached(const db_snapshot& snap,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return flat_cached_impl(*snap.db, snap, cache, query_strings, query_symbols,
                          options, stats);
}

std::vector<query_result> search_cached(const image_database& db,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  const db_snapshot snap = db.snapshot();
  return flat_cached_impl(db, snap, cache, query_strings, query_symbols,
                          options, stats);
}

std::vector<query_result> search_cached(const image_database& db,
                                        result_cache& cache,
                                        const symbolic_image& query,
                                        const query_options& options,
                                        search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search_cached(db, cache, strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_candidates(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<image_id>> candidates,
    const query_options& options, std::vector<search_stats>* stats) {
  if (queries.size() != candidates.size()) {
    throw std::invalid_argument(
        "search_batch_candidates: queries and candidates sizes differ");
  }
  for (const std::vector<image_id>& set : candidates) {
    check_candidates_in_range(db, set);
  }
  const bool want_histograms = detail::pruning_applies(options);
  const bool want_transforms = options.transform_invariant;
  const std::vector<query_plan> plans = make_plans(queries, options);

  if (stats != nullptr) {
    stats->assign(queries.size(), search_stats{});
  }
  std::vector<std::vector<query_result>> results(queries.size());
  for_each_query(
      queries.size(), options,
      [&](std::size_t i, const query_options& per_query) {
        results[i] = detail::scan_shard(
            db, queries[i], candidates[i], {},
            want_histograms ? &plans[i].histograms : nullptr,
            want_transforms ? &plans[i].transforms : nullptr, per_query,
            nullptr, stats != nullptr ? &(*stats)[i] : nullptr);
        if (stats != nullptr) {
          (*stats)[i].candidates_generated = candidates[i].size();
        }
      });
  return results;
}

}  // namespace bes
