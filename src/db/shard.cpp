#include "db/shard.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "db/access_path.hpp"
#include "db/result_cache.hpp"
#include "db/scan.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bes {

// ------------------------------------------------------------- shard_ring

namespace {

// A shard's virtual-node points depend on the shard index ALONE (two
// SplitMix64 mixes), never on the shard count — the consistent-hashing
// invariant that makes resizes move only the new/removed shard's arcs.
std::uint64_t vnode_point(std::size_t shard, std::size_t replica) {
  return derive_seed(derive_seed(0xBE55A1DBull, shard), replica);
}

std::uint64_t id_point(image_id id) {
  return derive_seed(0x1D5EEDull, id);
}

}  // namespace

shard_ring::shard_ring(std::size_t shard_count, std::size_t replicas)
    : shards_(shard_count), replicas_(replicas) {
  if (shard_count == 0) {
    throw std::invalid_argument("shard_ring: shard_count must be >= 1");
  }
  if (replicas == 0) {
    throw std::invalid_argument("shard_ring: replicas must be >= 1");
  }
  ring_.reserve(shard_count * replicas);
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (std::size_t r = 0; r < replicas; ++r) {
      ring_.push_back(vnode{vnode_point(s, r), static_cast<std::uint32_t>(s)});
    }
  }
  // The shard tiebreak keeps the ring deterministic even on (astronomically
  // unlikely) point collisions.
  std::sort(ring_.begin(), ring_.end(), [](const vnode& a, const vnode& b) {
    if (a.point != b.point) return a.point < b.point;
    return a.shard < b.shard;
  });
}

std::size_t shard_ring::shard_of(image_id id) const noexcept {
  const std::uint64_t h = id_point(id);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const vnode& v, std::uint64_t point) { return v.point < point; });
  return it == ring_.end() ? ring_.front().shard : it->shard;
}

// -------------------------------------------------------- sharded_database

sharded_database::sharded_database(std::size_t shard_count,
                                   std::size_t ring_replicas)
    : ring_(shard_count, ring_replicas) {
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<shard_part>());
  }
}

sharded_database::shard_part& sharded_database::route(std::size_t shard) {
  shard_part& part = *shards_[shard];
  // Mirror the master alphabet into the shard before the record lands, so
  // shard-local symbol ids are ALWAYS the master ids (every shard alphabet
  // is a prefix of the master at all times).
  for (std::size_t i = part.db.symbols().size(); i < symbols_.size(); ++i) {
    part.db.symbols().intern(symbols_.names()[i]);
  }
  return part;
}

// The publication order scans depend on. (1) The local->global mapping is
// STAGED (written but unpublished) before the record lands: a scan that sees
// the record — published by the shard db's commit — is guaranteed to see the
// mapping too, because the stage write happens-before that commit. Staging
// instead of pushing keeps the strong guarantee: a throwing add leaves an
// uncommitted slot the next add overwrites, never an orphan mapping that
// would skew every later local id. (2) The spatial/hybrid indexes take their
// own locks. (3) The global locator publishes LAST, so size() (and
// record(global)) only ever cover fully wired records.
image_id sharded_database::install(std::size_t shard, shard_part& part,
                                   image_id global, std::string name,
                                   symbolic_image image, be_string2d strings,
                                   be_histogram2d histograms) {
  part.global_ids.stage(global);
  const image_id local =
      part.db.add_encoded(std::move(name), std::move(image),
                          std::move(strings), std::move(histograms));
  part.global_ids.commit();
  part.spatial.add_image(local);
  part.hybrid.add_image(local);
  locs_.push_back({static_cast<std::uint32_t>(shard), local});
  return global;
}

image_id sharded_database::add(std::string name, symbolic_image image) {
  const auto global = static_cast<image_id>(locs_.size());
  const std::size_t shard = ring_.shard_of(global);
  shard_part& part = route(shard);
  be_string2d strings = encode(image);
  be_histogram2d histograms = make_histograms(strings);
  return install(shard, part, global, std::move(name), std::move(image),
                 std::move(strings), std::move(histograms));
}

image_id sharded_database::add_encoded(std::string name, symbolic_image image,
                                       be_string2d strings,
                                       be_histogram2d histograms) {
  const auto global = static_cast<image_id>(locs_.size());
  const std::size_t shard = ring_.shard_of(global);
  shard_part& part = route(shard);
  return install(shard, part, global, std::move(name), std::move(image),
                 std::move(strings), std::move(histograms));
}

bool sharded_database::remove(image_id id) {
  if (id >= locs_.size()) return false;
  const auto& [shard, local] = locs_[id];
  return shards_[shard]->db.remove(local);
}

sharded_snapshot sharded_database::snapshot() const {
  sharded_snapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& part : shards_) snap.shards.push_back(part->db.snapshot());
  return snap;
}

std::size_t sharded_database::tombstone_count() const noexcept {
  std::size_t n = 0;
  for (const auto& part : shards_) n += part->db.tombstone_count();
  return n;
}

const db_record& sharded_database::record(image_id id) const {
  if (id >= locs_.size()) {
    throw std::out_of_range("sharded_database: unknown id " +
                            std::to_string(id));
  }
  const auto& [shard, local] = locs_[id];
  return shards_[shard]->db.record(local);
}

std::size_t sharded_database::shard_of(image_id id) const {
  if (id >= locs_.size()) {
    throw std::out_of_range("sharded_database: unknown id " +
                            std::to_string(id));
  }
  return locs_[id].first;
}

std::uint64_t sharded_database::removed_epoch(image_id id) const {
  if (id >= locs_.size()) {
    throw std::out_of_range("sharded_database: unknown id " +
                            std::to_string(id));
  }
  const auto& [shard, local] = locs_[id];
  return shards_[shard]->db.removed_epoch(local);
}

const image_database& sharded_database::shard_db(std::size_t s) const {
  return shards_.at(s)->db;
}

const spatial_index& sharded_database::shard_spatial(std::size_t s) const {
  return shards_.at(s)->spatial;
}

const hybrid_index& sharded_database::shard_hybrid(std::size_t s) const {
  return shards_.at(s)->hybrid;
}

const stable_vector<image_id>& sharded_database::shard_global_ids(
    std::size_t s) const {
  return shards_.at(s)->global_ids;
}

std::vector<image_id> sharded_database::candidates(
    std::span<const symbol_id> query_symbols) const {
  std::vector<image_id> out;
  for (const auto& part : shards_) {
    // Through the access-path interface, like every other candidate
    // generation in the scan engine.
    const access_path_context ctx{&part->db, nullptr, nullptr};
    const auto path = make_access_path(access_path_kind::inverted_index, ctx);
    for (image_id local :
         path->generate(path_probe{nullptr, query_symbols, 0})) {
      out.push_back(part->global_ids[local]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<image_id> sharded_database::candidates(
    const symbolic_image& query) const {
  const auto symbols = distinct_symbols(query);
  return candidates(symbols);
}

sharded_database make_sharded(const image_database& db,
                              std::size_t shard_count,
                              std::size_t ring_replicas) {
  sharded_database out(shard_count, ring_replicas);
  for (const std::string& name : db.symbols().names()) {
    out.symbols().intern(name);
  }
  for (const db_record& rec : db.records()) {
    // Re-adding preserves global ids (dense insertion order); tombstones
    // carry over so the partitioned copy answers like the original.
    const image_id global =
        out.add_encoded(rec.name, rec.image, rec.strings, rec.histograms);
    if (rec.removed_at != 0) out.remove(global);
  }
  return out;
}

// ----------------------------------------------------------- query fan-out

namespace {

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

// Concatenate per-shard top-k lists and re-rank. Each part is already
// min_score-filtered and locally truncated; the merge only has to pick the
// global top_k by the same total order every scan used.
std::vector<query_result> merge_parts(
    std::vector<std::vector<query_result>>& parts,
    const query_options& options) {
  std::vector<query_result> all;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  all.reserve(total);
  for (auto& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return detail::rank_results(std::move(all), options);
}

// One query fanned over all shards. `local_candidates`, when non-null,
// replaces the index/full scan with explicit per-shard (local-id) candidate
// lists. `query` is prepared once by the caller and shared by every shard
// scan, never prepared per shard.
//
// When the pruner engages, every shard scan inserts into ONE shared top-k
// (detail::shared_topk), so the pruning threshold is the running GLOBAL
// k-th score — the same admissibility and the same pruning power as the
// unsharded scan, with the per-candidate threshold read served from an
// atomic. Exhaustive scans have no threshold to share: each shard returns
// its ranked slice and the merge re-ranks the concatenation.
std::vector<query_result> fanout_search(
    const sharded_database& db, const prepared_query& query,
    std::span<const symbol_id> query_symbols,
    const std::vector<std::vector<image_id>>* local_candidates,
    const query_options& options, search_stats* stats,
    const sharded_snapshot* snap = nullptr) {
  const std::size_t shards = db.shard_count();
  // Unpinned callers still get ONE consistent view across all their shard
  // scans: capturing per scan instead would let a concurrent remove land
  // between two shards of the same query.
  sharded_snapshot captured;
  if (snap == nullptr) {
    captured = db.snapshot();
    snap = &captured;
  }
  if (snap->shards.size() != shards) {
    throw std::invalid_argument("search: snapshot/shard count mismatch");
  }
  const bool pruned = detail::pruning_applies(options);
  std::optional<detail::shared_topk> shared;
  if (pruned) shared.emplace(options.top_k, options.min_score);
  // The shards to scan: all of them, or with explicit candidate lists only
  // those whose list is non-empty — an empty list scans nothing and its
  // stats stay zero, so skipping it changes no answer or total.
  std::vector<std::size_t> active;
  active.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (local_candidates == nullptr || !(*local_candidates)[s].empty()) {
      active.push_back(s);
    }
  }
  // Thread budget: shard-per-worker first (dynamic, chunk 1), leftover
  // threads go to candidate-level parallelism inside each scan. With one
  // shard this degrades to exactly the unsharded scan.
  const unsigned outer = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(options.threads, active.size())));
  query_options inner = options;
  inner.threads = std::max(1u, options.threads / outer);

  std::vector<std::vector<query_result>> parts(shards);
  std::vector<search_stats> part_stats(shards);
  parallel_for(
      active.size(), outer,
      [&](std::size_t a) {
        const std::size_t s = active[a];
        const image_database& shard = db.shard_db(s);
        std::size_t generated = 0;
        const std::vector<image_id> ids =
            local_candidates != nullptr
                ? (*local_candidates)[s]
                : detail::scan_ids(shard, query_symbols, options, &generated);
        if (local_candidates != nullptr) generated = ids.size();
        parts[s] = detail::scan_shard(
            shard, query, ids,
            detail::id_map{.chunked = &db.shard_global_ids(s)}, inner,
            pruned ? &*shared : nullptr, &part_stats[s], &snap->shards[s]);
        // scan_shard resets its stats; the generation accounting goes on top.
        part_stats[s].candidates_generated = generated;
      },
      /*chunk=*/1);

  if (stats != nullptr) {
    *stats = search_stats{};
    for (const search_stats& part : part_stats) accumulate(*stats, part);
  }
  // Pruned survivors already merged inside the shared heap (sorted,
  // min_score-filtered, capacity-trimmed); exhaustive parts need the merge.
  return pruned ? shared->take() : merge_parts(parts, options);
}

}  // namespace

std::vector<query_result> search(const sharded_database& db,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return fanout_search(db, detail::prepare_query(query_strings, options),
                       query_symbols, nullptr, options, stats);
}

std::vector<query_result> search(const sharded_database& db,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(db, strings, symbols, options, stats);
}

std::vector<query_result> search(const sharded_database& db,
                                 const sharded_snapshot& snap,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return fanout_search(db, detail::prepare_query(query_strings, options),
                       query_symbols, nullptr, options, stats, &snap);
}

std::vector<query_result> search(const sharded_database& db,
                                 const sharded_snapshot& snap,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(db, snap, strings, symbols, options, stats);
}

std::vector<query_result> search_candidates(const sharded_database& db,
                                            const be_string2d& query_strings,
                                            std::span<const image_id> candidates,
                                            const query_options& options,
                                            search_stats* stats) {
  std::vector<std::vector<image_id>> local(db.shard_count());
  for (image_id id : candidates) {
    if (id >= db.size()) {
      throw std::out_of_range("search_candidates: id " + std::to_string(id) +
                              " out of range");
    }
    const std::size_t s = db.shard_of(id);
    // record() is the (shard, local) lookup; its id field IS the local id.
    local[s].push_back(db.record(id).id);
  }
  return fanout_search(db, detail::prepare_query(query_strings, options),
                       {}, &local, options, stats);
}

std::vector<query_result> search_local_candidates(
    const sharded_database& db, const be_string2d& query_strings,
    const std::vector<std::vector<image_id>>& local_candidates,
    const query_options& options, search_stats* stats) {
  if (local_candidates.size() != db.shard_count()) {
    throw std::invalid_argument(
        "search_local_candidates: need one candidate list per shard");
  }
  for (std::size_t s = 0; s < local_candidates.size(); ++s) {
    for (image_id local : local_candidates[s]) {
      if (local >= db.shard_db(s).size()) {
        throw std::out_of_range("search_local_candidates: local id " +
                                std::to_string(local) + " out of range");
      }
    }
  }
  return fanout_search(db, detail::prepare_query(query_strings, options),
                       {}, &local_candidates, options, stats);
}

std::vector<query_result> search_local_candidates(
    const sharded_database& db, const sharded_snapshot& snap,
    const be_string2d& query_strings,
    const std::vector<std::vector<image_id>>& local_candidates,
    const query_options& options, search_stats* stats) {
  if (local_candidates.size() != db.shard_count()) {
    throw std::invalid_argument(
        "search_local_candidates: need one candidate list per shard");
  }
  for (std::size_t s = 0; s < local_candidates.size(); ++s) {
    for (image_id local : local_candidates[s]) {
      if (local >= db.shard_db(s).size()) {
        throw std::out_of_range("search_local_candidates: local id " +
                                std::to_string(local) + " out of range");
      }
    }
  }
  return fanout_search(db, detail::prepare_query(query_strings, options),
                       {}, &local_candidates, options, stats, &snap);
}

// --------------------------------------------------------- cached fan-out

namespace {

std::vector<cache_cut> cuts_of(const sharded_snapshot& snap) {
  std::vector<cache_cut> cuts;
  cuts.reserve(snap.shards.size());
  for (const db_snapshot& s : snap.shards) {
    cuts.push_back(cache_cut{s.visible, s.epoch});
  }
  return cuts;
}

// Sharded delta-scan refresh: re-check the cached hits against each owning
// shard's new cut, then score only each shard's appended local-id suffix
// through the pinned local-candidate fan-out. Nullopt = not upgradeable
// (a deletion hit an incomplete entry); the caller full-scans instead.
//
// The kth-survivor floor is admissible without any id-order argument: both
// the min_score filter and the pruning threshold discard strictly-below
// scores only, and with a FULL surviving top-k every record scoring below
// the k-th survivor is beaten by at least top_k alive records.
std::optional<std::vector<query_result>> sharded_delta_refresh(
    const sharded_database& db, const sharded_snapshot& snap,
    result_cache& cache, const cache_key& key, const cache_entry& entry,
    const std::vector<cache_cut>& now, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options,
    search_stats* stats) {
  const std::size_t shards = db.shard_count();

  std::vector<query_result> survivors = entry.results;
  from_canonical_frame(survivors, key.canon);
  std::size_t deaths = 0;
  std::erase_if(survivors, [&](const query_result& r) {
    const std::size_t s = db.shard_of(r.id);
    const bool dead = !snap.shards[s].alive(db.record(r.id).id);
    deaths += dead ? 1 : 0;
    return dead;
  });
  if (deaths > 0 && !entry.complete) return std::nullopt;

  // Each shard's suffix through that shard's own generation rule, exactly
  // as the full fan-out would generate it, restricted to the appended range.
  std::vector<std::vector<image_id>> suffix(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    suffix[s] = detail::scan_ids(
        db.shard_db(s), query_symbols, options, nullptr,
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
    fresh = search_local_candidates(db, snap, query_strings, suffix,
                                    delta_options, &delta_stats);
  }

  std::vector<query_result> merged = std::move(survivors);
  merged.insert(merged.end(), fresh.begin(), fresh.end());
  merged = detail::rank_results(std::move(merged), options);

  cache.note_delta_refresh(delta_stats.scanned);
  if (stats != nullptr) {
    *stats = delta_stats;
    stats->cache_delta_refreshes = 1;
    stats->cache_delta_rescored = delta_stats.scanned;
  }

  cache_entry updated;
  updated.results = merged;
  to_canonical_frame(updated.results, key.canon);
  updated.cuts = now;
  updated.complete = options.top_k == 0 || merged.size() < options.top_k;
  cache.put(key, std::move(updated));
  return merged;
}

std::vector<query_result> sharded_cached_impl(
    const sharded_database& db, const sharded_snapshot& snap,
    result_cache& cache, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options,
    search_stats* stats) {
  if (snap.shards.size() != db.shard_count()) {
    throw std::invalid_argument("search_cached: snapshot/shard count mismatch");
  }
  const cache_key key = make_cache_key(
      query_strings, query_symbols, options, cache_scope::sharded,
      static_cast<std::uint32_t>(db.shard_count()),
      static_cast<std::uint32_t>(db.ring().replicas()));
  const std::vector<cache_cut> now = cuts_of(snap);

  const std::optional<cache_entry> entry = cache.find(key);
  if (entry.has_value() && entry->cuts.size() == now.size()) {
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
    bool forward = true;
    std::uint64_t appended = 0;
    for (std::size_t s = 0; s < now.size(); ++s) {
      if (now[s].visible < entry->cuts[s].visible ||
          now[s].epoch < entry->cuts[s].epoch) {
        forward = false;
        break;
      }
      appended += now[s].visible - entry->cuts[s].visible;
    }
    if (forward && appended <= cache.options().max_delta_records) {
      auto refreshed =
          sharded_delta_refresh(db, snap, cache, key, *entry, now,
                                query_strings, query_symbols, options, stats);
      if (refreshed.has_value()) return std::move(*refreshed);
    }
  }

  cache.note_miss();
  std::vector<query_result> out =
      search(db, snap, query_strings, query_symbols, options, stats);
  if (stats != nullptr) stats->cache_misses = 1;
  bool store = true;
  if (entry.has_value() && entry->cuts.size() == now.size()) {
    for (std::size_t s = 0; s < now.size(); ++s) {
      if (now[s].visible < entry->cuts[s].visible ||
          now[s].epoch < entry->cuts[s].epoch) {
        store = false;
        break;
      }
    }
  }
  if (store) {
    cache_entry fresh;
    fresh.results = out;
    to_canonical_frame(fresh.results, key.canon);
    fresh.cuts = now;
    fresh.complete = options.top_k == 0 || out.size() < options.top_k;
    cache.put(key, std::move(fresh));
  }
  return out;
}

}  // namespace

std::vector<query_result> search_cached(const sharded_database& db,
                                        const sharded_snapshot& snap,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return sharded_cached_impl(db, snap, cache, query_strings, query_symbols,
                             options, stats);
}

std::vector<query_result> search_cached(const sharded_database& db,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  const sharded_snapshot snap = db.snapshot();
  return sharded_cached_impl(db, snap, cache, query_strings, query_symbols,
                             options, stats);
}

std::vector<query_result> search_cached(const sharded_database& db,
                                        result_cache& cache,
                                        const symbolic_image& query,
                                        const query_options& options,
                                        search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search_cached(db, cache, strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const sharded_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  if (queries.size() != query_symbols.size()) {
    throw std::invalid_argument(
        "search_batch: queries and query_symbols sizes differ");
  }
  const std::size_t nq = queries.size();
  const std::size_t shards = db.shard_count();
  const bool pruned = detail::pruning_applies(options);
  const std::vector<prepared_query> plans =
      detail::make_plans(queries, options);

  // Every (query, shard) pair is one item on a single dynamic work queue
  // (chunk 1): workers drain whole shard-scans one at a time, so neither a
  // slow query nor a hot shard strands the batch tail behind it. Scans of
  // the same query share that query's running top-k exactly as in the
  // single-query fan-out (heaps exist only when the pruner engages; the
  // exhaustive path merges per-shard parts instead).
  std::deque<detail::shared_topk> shared;
  for (std::size_t i = 0; pruned && i < nq; ++i) {
    shared.emplace_back(options.top_k, options.min_score);
  }
  // One snapshot for the whole batch: every (query, shard) scan filters
  // against the same instant, so each query's merged result is consistent
  // even while writes land mid-batch.
  const sharded_snapshot snap = db.snapshot();
  std::vector<std::vector<std::vector<query_result>>> parts(
      nq, std::vector<std::vector<query_result>>(shards));
  std::vector<std::vector<search_stats>> part_stats(
      nq, std::vector<search_stats>(shards));
  // Small batches on few shards can have fewer work items than threads;
  // the leftover budget goes inside each scan instead of idling.
  const unsigned outer = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(options.threads, nq * shards)));
  query_options inner = options;
  inner.threads = std::max(1u, options.threads / outer);
  parallel_for(
      nq * shards, options.threads,
      [&](std::size_t item) {
        const std::size_t q = item / shards;
        const std::size_t s = item % shards;
        const image_database& shard = db.shard_db(s);
        std::size_t generated = 0;
        const std::vector<image_id> ids =
            detail::scan_ids(shard, query_symbols[q], options, &generated);
        parts[q][s] = detail::scan_shard(
            shard, plans[q], ids,
            detail::id_map{.chunked = &db.shard_global_ids(s)}, inner,
            pruned ? &shared[q] : nullptr, &part_stats[q][s],
            &snap.shards[s]);
        part_stats[q][s].candidates_generated = generated;
      },
      /*chunk=*/1);

  if (stats != nullptr) stats->assign(nq, search_stats{});
  std::vector<std::vector<query_result>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    results[q] = pruned ? shared[q].take() : merge_parts(parts[q], options);
    if (stats != nullptr) {
      for (const search_stats& part : part_stats[q]) {
        accumulate((*stats)[q], part);
      }
    }
  }
  return results;
}

std::vector<std::vector<query_result>> search_batch(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return search_batch(db, encoded.strings, encoded.symbols, options, stats);
}

// ------------------------------------------------------- prefilter fan-out

namespace {

// Per-shard candidate generation through one access path, mapped to global
// ids. Shards partition the record set, so the union of per-shard sets IS
// the unsharded set for every path.
std::vector<image_id> fanout_path(const sharded_database& db,
                                  access_path_kind kind,
                                  const symbolic_image& query, int pad) {
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  std::vector<image_id> out;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    const access_path_context ctx{&db.shard_db(s), &db.shard_spatial(s),
                                  &db.shard_hybrid(s)};
    const auto& globals = db.shard_global_ids(s);
    for (image_id local : make_access_path(kind, ctx)->generate(
             path_probe{&query, symbols, pad})) {
      out.push_back(globals[local]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<image_id> window_candidates(const sharded_database& db,
                                        const symbolic_image& query, int pad) {
  return fanout_path(db, access_path_kind::rtree_window, query, pad);
}

std::vector<image_id> combined_candidates(const sharded_database& db,
                                          const symbolic_image& query,
                                          int pad) {
  return fanout_path(db, access_path_kind::combined, query, pad);
}

}  // namespace bes
