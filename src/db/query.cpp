#include "db/query.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "db/result_cache.hpp"
#include "db/scan.hpp"
#include "db/shard.hpp"
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
  const std::size_t keep = options.top_k == 0
                               ? hits.size()
                               : std::min(hits.size(), options.top_k);
  const auto kept = hits.begin() + static_cast<std::ptrdiff_t>(keep);
  if (kept == hits.end()) {
    std::sort(hits.begin(), hits.end(), result_better);
  } else {
    std::partial_sort(hits.begin(), kept, hits.end(), result_better);
  }
  // An exactly sized answer: a caller holding a top-10 of a 16k-record scan
  // must not keep the whole scan's buffer alive with it.
  if (hits.capacity() == keep) return hits;
  return std::vector<query_result>(hits.begin(), kept);
}

bool pruning_applies(const query_options& options) {
  return options.histogram_pruning &&
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

// Admissible cap on the similarity of query axis `q` to a record axis with
// histogram `h` and `len` tokens: the paper's dummy rule (axis_lcs_cap)
// applied to their multiset intersection.
double axis_cap(const prepared_axis& q, const token_histogram& h,
                std::size_t len, norm_kind norm) {
  const std::size_t dummies =
      std::min<std::size_t>(q.count(token::dummy()), h.dummies());
  return axis_similarity_upper_bound(axis_lcs_cap(q.shared_with(h), dummies),
                                     q.size(), len, norm);
}

// One query variant's caps against one record: the bound on its similarity
// and on its y-axis score (similarity_bounded's y_cap).
struct variant_cap {
  double bound = 0.0;
  double y_cap = 0.0;
};

// The caps of every variant of a prepared query against one record. The 8
// dihedral variants draw each axis from only 4 strings (x, y and their
// reverse_swap; core/transform.cpp), so the intersections run once per
// distinct axis string: x_first_[v] / y_first_[v] name the first variant
// whose axis string equals variant v's.
class variant_caps {
 public:
  variant_caps(std::span<const prepared_strings> variants, norm_kind norm)
      : variants_(variants), norm_(norm) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      std::size_t& fx = x_first_[v];
      while (!std::ranges::equal(variants[fx].x.tokens(),
                                 variants[v].x.tokens())) {
        ++fx;
      }
      std::size_t& fy = y_first_[v];
      while (!std::ranges::equal(variants[fy].y.tokens(),
                                 variants[v].y.tokens())) {
        ++fy;
      }
    }
  }

  void compute(const be_histogram2d& h,
               std::span<variant_cap, all_dihedral.size()> out) const {
    std::array<double, all_dihedral.size()> x{};
    std::array<double, all_dihedral.size()> y{};
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      x[v] = x_first_[v] == v ? axis_cap(variants_[v].x, h.x, h.x_len, norm_)
                              : x[x_first_[v]];
      y[v] = y_first_[v] == v ? axis_cap(variants_[v].y, h.y, h.y_len, norm_)
                              : y[y_first_[v]];
      out[v] = variant_cap{0.5 * (x[v] + y[v]), y[v]};
    }
  }

 private:
  std::span<const prepared_strings> variants_;
  norm_kind norm_;
  std::array<std::size_t, all_dihedral.size()> x_first_{};
  std::array<std::size_t, all_dihedral.size()> y_first_{};
};

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
// A transform-invariant record is bounded by the best of its 8 variants'
// bounds. A survivor then walks the variants in all_dihedral order like
// best_transform_similarity, skipping each variant whose own bound cannot
// reach max(threshold, best so far) and scoring the rest banded at that
// floor; a strictly greater score replaces the best, so a tie keeps the
// earliest variant, as the exhaustive scan does.
//
// With a `shared` heap the survivors live there and the return value is
// empty; standalone, the heap is local and the ranked result is returned.
std::vector<query_result> pruned_search(const image_database& db,
                                        const prepared_query& query,
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
  const std::span<const prepared_strings> variants =
      options.transform_invariant ? query.variants()
                                  : query.variants().first(1);
  const variant_caps caps(variants, options.similarity.norm);
  std::vector<bounded> order(ids.size());
  parallel_for(ids.size(), options.threads, [&](std::size_t k) {
    const image_id id = ids[k];
    std::array<variant_cap, all_dihedral.size()> vc;
    caps.compute(db.record(id).histograms, vc);
    const auto best = std::max_element(
        vc.begin(), vc.begin() + static_cast<std::ptrdiff_t>(variants.size()),
        [](const variant_cap& a, const variant_cap& b) {
          return a.bound < b.bound;
        });
    order[k] = bounded{best->bound, best->y_cap, id};
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
    std::array<variant_cap, all_dihedral.size()> vc;
    if (variants.size() == 1) {
      vc[0] = variant_cap{c.bound, c.y_cap};
    } else {
      caps.compute(rec.histograms, vc);
    }
    double best = -1.0;
    dihedral transform = dihedral::identity;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const double floor = std::max(threshold, best);
      if (vc[v].bound < floor) continue;
      // Below the floor the value may be an unfinished upper bound. It then
      // either loses to the best so far or, as the new best, stays under
      // the threshold, where only an exact later score can lift the record.
      const double score =
          similarity_bounded(variants[v], rec.strings, options.similarity,
                             floor, ctx, vc[v].y_cap);
      if (score > best) {
        best = score;
        transform = all_dihedral[v];
      }
    }
    if (best < threshold || best < options.min_score) {
      band_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    top.insert(query_result{globals(rec.id), best, transform});
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
                                            const prepared_query& query,
                                            std::span<const image_id> ids,
                                            id_map globals,
                                            const query_options& options,
                                            search_stats* stats) {
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
          query, rec.strings, options.similarity, ctx);
      r.score = best.score;
      r.transform = best.transform;
    } else {
      r.score =
          similarity(query.identity(), rec.strings, options.similarity, ctx);
    }
    hits[k] = r;
  });
  if (stats != nullptr) stats->scored = hits.size();
  return detail::rank_results(std::move(hits), options);
}

}  // namespace

namespace detail {

std::vector<query_result> scan_shard(
    const image_database& db, const prepared_query& query,
    std::span<const image_id> ids, id_map globals,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap) {
  if (options.transform_invariant && !query.all_transforms()) {
    throw std::invalid_argument(
        "scan_shard: transform-invariant scan of a query prepared without "
        "its transforms");
  }
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
    out = pruned_search(db, query, scan, globals, options, shared, stats);
  } else {
    out = exhaustive_search(db, query, scan, globals, options, stats);
  }
  if (stats != nullptr) stats->pruned += dead;
  return out;
}

prepared_query prepare_query(const be_string2d& query_strings,
                             const query_options& options) {
  return prepared_query(query_strings, options.transform_invariant);
}

std::vector<prepared_query> make_plans(std::span<const be_string2d> queries,
                                       const query_options& options) {
  std::vector<prepared_query> plans(queries.size());
  parallel_for(queries.size(), options.threads, [&](std::size_t i) {
    plans[i] = prepare_query(queries[i], options);
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

void accumulate(search_stats& into, const search_stats& part) {
  into.scanned += part.scanned;
  into.scored += part.scored;
  into.pruned += part.pruned;
  into.band_rejected += part.band_rejected;
  into.candidates_generated += part.candidates_generated;
  into.plans.insert(into.plans.end(), part.plans.begin(), part.plans.end());
  into.degraded = into.degraded || part.degraded;
  into.shard_statuses.insert(into.shard_statuses.end(),
                             part.shard_statuses.begin(),
                             part.shard_statuses.end());
}

partition_view flat_view(const db_snapshot& snap, const spatial_index* spatial,
                         const hybrid_index* hybrid) {
  return partition_view{{partition{snap.db, {}, snap, spatial, hybrid}},
                        nullptr};
}

namespace {

scan_candidates index_candidates(const partition& p,
                                 std::span<const symbol_id> symbols,
                                 const query_options& options) {
  scan_candidates out;
  out.ids = scan_ids(*p.db, symbols, options, &out.generated);
  return out;
}

// Concatenates one query's ranked partition parts and re-ranks. Each part
// is already min_score-filtered and truncated; the merge only has to pick
// the global top_k by the same total order every scan used.
std::vector<query_result> merge_parts(
    std::span<std::vector<query_result>> parts, const query_options& options) {
  if (parts.size() == 1) return std::move(parts[0]);
  std::vector<query_result> all;
  for (auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return rank_results(std::move(all), options);
}

}  // namespace

std::vector<std::vector<query_result>> execute(
    const partition_view& view, std::span<const prepared_query> queries,
    const candidate_source& source, const query_options& options,
    std::vector<search_stats>* stats) {
  const std::size_t nq = queries.size();
  const std::size_t np = view.parts.size();
  const bool pruned = pruning_applies(options);
  // Every (query, partition) scan is one item, less those whose explicit
  // list is empty: they would scan nothing and report zeros.
  std::vector<std::size_t> items;
  items.reserve(nq * np);
  for (std::size_t item = 0; item < nq * np; ++item) {
    if (source.lists.empty() || !source.lists[item].empty()) {
      items.push_back(item);
    }
  }
  // Fewer items than threads: the leftover budget goes inside each scan.
  const unsigned outer = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(options.threads, items.size())));
  query_options inner = options;
  inner.threads = std::max(1u, options.threads / outer);

  std::deque<shared_topk> shared;
  for (std::size_t q = 0; pruned && q < nq; ++q) {
    shared.emplace_back(options.top_k, options.min_score);
  }
  std::vector<std::vector<query_result>> parts(nq * np);
  std::vector<search_stats> part_stats(nq * np);
  parallel_for(
      items.size(), outer,
      [&](std::size_t a) {
        const std::size_t item = items[a];
        const std::size_t q = item / np;
        const partition& p = view.parts[item % np];
        scan_candidates generated;
        std::span<const image_id> ids;
        if (source.lists.empty()) {
          generated = source.generate(p, q);
          ids = generated.ids;
        } else {
          ids = source.lists[item];
          generated.generated = ids.size();
        }
        parts[item] = scan_shard(*p.db, queries[q], ids, p.globals, inner,
                                 pruned ? &shared[q] : nullptr,
                                 &part_stats[item], &p.snap);
        // scan_shard resets its stats; the generation accounting goes on top.
        part_stats[item].candidates_generated = generated.generated;
        if (generated.plan) part_stats[item].plans.push_back(*generated.plan);
      },
      /*chunk=*/1);

  if (stats != nullptr) stats->assign(nq, search_stats{});
  std::vector<std::vector<query_result>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    // Pruned survivors already merged inside the shared heap (sorted,
    // min_score-filtered, capacity-trimmed); exhaustive parts need the merge.
    results[q] = pruned ? shared[q].take()
                        : merge_parts(std::span(parts).subspan(q * np, np),
                                      options);
    for (std::size_t s = 0; stats != nullptr && s < np; ++s) {
      accumulate((*stats)[q], part_stats[q * np + s]);
    }
  }
  return results;
}

std::vector<query_result> execute_one(const partition_view& view,
                                      const prepared_query& query,
                                      const candidate_source& source,
                                      const query_options& options,
                                      search_stats* stats) {
  std::vector<search_stats> one;
  std::vector<std::vector<query_result>> results =
      execute(view, std::span(&query, 1), source, options,
              stats != nullptr ? &one : nullptr);
  if (stats != nullptr) *stats = std::move(one[0]);
  return std::move(results[0]);
}

std::vector<query_result> execute_search(const partition_view& view,
                                         const be_string2d& query_strings,
                                         std::span<const symbol_id> symbols,
                                         const query_options& options,
                                         search_stats* stats) {
  return execute_one(
      view, prepare_query(query_strings, options),
      {.generate =
           [&](const partition& p, std::size_t) {
             return index_candidates(p, symbols, options);
           }},
      options, stats);
}

std::vector<std::vector<query_result>> execute_batch(
    const partition_view& view, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  if (queries.size() != query_symbols.size()) {
    throw std::invalid_argument(
        "search_batch: queries and query_symbols sizes differ");
  }
  return execute(view, make_plans(queries, options),
                 {.generate =
                      [&](const partition& p, std::size_t q) {
                        return index_candidates(p, query_symbols[q], options);
                      }},
                 options, stats);
}

namespace {

std::vector<cache_cut> cuts_of(const partition_view& view) {
  std::vector<cache_cut> cuts;
  cuts.reserve(view.parts.size());
  for (const partition& p : view.parts) {
    cuts.push_back(cache_cut{p.snap.visible, p.snap.epoch});
  }
  return cuts;
}

// Records appended between the cuts `at` and `now`, or nullopt unless every
// cut of `now` is at or past its counterpart in `at`.
std::optional<std::uint64_t> appended_since(const std::vector<cache_cut>& at,
                                            const std::vector<cache_cut>& now) {
  std::uint64_t appended = 0;
  for (std::size_t s = 0; s < now.size(); ++s) {
    if (now[s].visible < at[s].visible || now[s].epoch < at[s].epoch) {
      return std::nullopt;
    }
    appended += now[s].visible - at[s].visible;
  }
  return appended;
}

cache_entry make_entry(std::vector<query_result> results, const cache_key& key,
                       std::vector<cache_cut> cuts,
                       const query_options& options) {
  cache_entry entry;
  entry.complete = options.top_k == 0 || results.size() < options.top_k;
  entry.results = std::move(results);
  to_canonical_frame(entry.results, key.canon);
  entry.cuts = std::move(cuts);
  return entry;
}

// Delta-scan refresh: upgrade an entry valid at its cuts to `now` by (1)
// re-checking the cached hits against each owning partition's new snapshot
// and (2) scoring only each partition's records appended since its cut,
// through that partition's own generation rule. Nullopt = not upgradeable
// (a deletion hit an INCOMPLETE entry, which may promote a runner-up the
// entry never stored); the caller full-scans instead.
//
// With a FULL surviving top-k the k-th survivor's score is an admissible
// floor for the suffix: both the min_score filter and the pruning threshold
// discard strictly-below scores only, and every record scoring below it is
// beaten by at least top_k alive records.
std::optional<std::vector<query_result>> delta_refresh(
    const partition_view& view, result_cache& cache, const cache_key& key,
    const cache_entry& entry, const std::vector<cache_cut>& now,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats) {
  std::vector<query_result> survivors = entry.results;
  from_canonical_frame(survivors, key.canon);
  std::size_t deaths = 0;
  std::erase_if(survivors, [&](const query_result& r) {
    const auto [s, local] = view.locate(r.id);
    const bool dead = !view.parts[s].snap.alive(local);
    deaths += dead ? 1 : 0;
    return dead;
  });
  if (deaths > 0 && !entry.complete) return std::nullopt;

  std::vector<std::vector<image_id>> suffix(view.parts.size());
  for (std::size_t s = 0; s < suffix.size(); ++s) {
    suffix[s] = scan_ids(*view.parts[s].db, query_symbols, options, nullptr,
                         id_range{static_cast<image_id>(entry.cuts[s].visible),
                                  static_cast<image_id>(now[s].visible)});
  }

  query_options delta_options = options;
  if (options.top_k > 0 && survivors.size() == options.top_k) {
    delta_options.min_score =
        std::max(options.min_score, survivors.back().score);
  }

  // An empty suffix scores nothing: skip preparing the query for it.
  search_stats delta_stats;
  std::vector<query_result> fresh;
  if (std::any_of(suffix.begin(), suffix.end(),
                  [](const auto& ids) { return !ids.empty(); })) {
    fresh = execute_one(view, prepare_query(query_strings, options),
                        {.lists = suffix}, delta_options, &delta_stats);
  }

  std::vector<query_result> merged = std::move(survivors);
  merged.insert(merged.end(), fresh.begin(), fresh.end());
  merged = rank_results(std::move(merged), options);

  cache.note_delta_refresh(delta_stats.scanned);
  if (stats != nullptr) {
    *stats = delta_stats;
    stats->cache_delta_refreshes = 1;
    stats->cache_delta_rescored = delta_stats.scanned;
  }
  cache.put(key, make_entry(merged, key, now, options));
  return merged;
}

}  // namespace

std::vector<query_result> execute_cached(
    const partition_view& view, result_cache& cache,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats) {
  const bool flat = view.sharded == nullptr;
  const cache_key key = make_cache_key(
      query_strings, query_symbols, options,
      flat ? cache_scope::flat : cache_scope::sharded,
      static_cast<std::uint32_t>(view.parts.size()),
      flat ? 0 : static_cast<std::uint32_t>(view.sharded->ring().replicas()));
  const std::vector<cache_cut> now = cuts_of(view);

  const std::optional<cache_entry> entry = cache.find(key);
  const bool comparable =
      entry.has_value() && entry->cuts.size() == now.size();
  if (comparable) {
    if (entry->cuts == now) {
      cache.note_hit();
      if (stats != nullptr) {
        *stats = search_stats{};
        stats->cache_hits = 1;
      }
      std::vector<query_result> out = entry->results;
      from_canonical_frame(out, key.canon);
      return out;
    }
    const std::optional<std::uint64_t> appended =
        appended_since(entry->cuts, now);
    if (appended.has_value() &&
        *appended <= cache.options().max_delta_records) {
      auto refreshed = delta_refresh(view, cache, key, *entry, now,
                                     query_strings, query_symbols, options,
                                     stats);
      if (refreshed.has_value()) return std::move(*refreshed);
    }
  }

  // Miss (no entry, past the staleness budget, or not upgradeable): full
  // pinned scan. Store unless it would REGRESS a fresher entry — a search
  // pinned to an old snapshot must not overwrite results newer readers use.
  cache.note_miss();
  std::vector<query_result> out =
      execute_search(view, query_strings, query_symbols, options, stats);
  if (stats != nullptr) stats->cache_misses = 1;
  if (!comparable || appended_since(entry->cuts, now).has_value()) {
    cache.put(key, make_entry(out, key, now, options));
  }
  return out;
}

}  // namespace detail

std::vector<query_result> search(const db_snapshot& snap,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return detail::execute_search(detail::flat_view(snap), query_strings,
                                query_symbols, options, stats);
}

std::vector<query_result> search(const db_snapshot& snap,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(snap, strings, symbols, options, stats);
}

std::vector<query_result> search(const image_database& db,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return search(db.snapshot(), query_strings, query_symbols, options, stats);
}

std::vector<query_result> search(const image_database& db,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  return search(db.snapshot(), query, options, stats);
}

namespace {

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

std::vector<query_result> search_candidates(const image_database& db,
                                            const be_string2d& query_strings,
                                            std::span<const image_id> candidates,
                                            const query_options& options,
                                            search_stats* stats) {
  check_candidates_in_range(db, candidates);
  const std::vector<std::vector<image_id>> lists{
      {candidates.begin(), candidates.end()}};
  return detail::execute_one(detail::flat_view(db.snapshot()),
                             detail::prepare_query(query_strings, options),
                             {.lists = lists}, options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  return detail::execute_batch(detail::flat_view(db.snapshot()), queries,
                               query_symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return search_batch(db, encoded.strings, encoded.symbols, options, stats);
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
  return detail::execute(detail::flat_view(db.snapshot()),
                         detail::make_plans(queries, options),
                         {.lists = candidates}, options, stats);
}

std::vector<query_result> search_cached(const db_snapshot& snap,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return detail::execute_cached(detail::flat_view(snap), cache, query_strings,
                                query_symbols, options, stats);
}

std::vector<query_result> search_cached(const image_database& db,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return search_cached(db.snapshot(), cache, query_strings, query_symbols,
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

}  // namespace bes
