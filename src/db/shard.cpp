#include "db/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "db/access_path.hpp"
#include "db/scan.hpp"
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
// would skew every later local id. (2) The spatial index takes its own
// lock. (3) The global locator publishes LAST, so size() (and
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
  // A shard publishes a record before the global locator does (install), so
  // each shard is cut at the global size read first: every id a pinned
  // search reports is then below size() and resolvable by record().
  const std::size_t published = locs_.size();
  sharded_snapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& part : shards_) {
    db_snapshot shard = part->db.snapshot();
    while (shard.visible > 0 &&
           part->global_ids[shard.visible - 1] >= published) {
      --shard.visible;
    }
    snap.shards.push_back(shard);
  }
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

namespace detail {

partition_view sharded_view(const sharded_database& db,
                            const sharded_snapshot& snap) {
  if (snap.shards.size() != db.shard_count()) {
    throw std::invalid_argument("search: snapshot/shard count mismatch");
  }
  partition_view view;
  view.sharded = &db;
  view.parts.reserve(db.shard_count());
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    view.parts.push_back(partition{&db.shard_db(s),
                                   id_map{.chunked = &db.shard_global_ids(s)},
                                   snap.shards[s], &db.shard_spatial(s),
                                   &db.shard_spatial(s)});
  }
  return view;
}

std::pair<std::size_t, image_id> partition_view::locate(image_id id) const {
  if (sharded == nullptr) return {0, id};
  // record() is the (shard, local) lookup; its id field IS the local id.
  return {sharded->shard_of(id), sharded->record(id).id};
}

}  // namespace detail

std::vector<query_result> search(const sharded_database& db,
                                 const sharded_snapshot& snap,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return detail::execute_search(detail::sharded_view(db, snap), query_strings,
                                query_symbols, options, stats);
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

// Unpinned callers still get ONE consistent view across all their shard
// scans: capturing per scan instead would let a concurrent remove land
// between two shards of the same query.
std::vector<query_result> search(const sharded_database& db,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return search(db, db.snapshot(), query_strings, query_symbols, options,
                stats);
}

std::vector<query_result> search(const sharded_database& db,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  return search(db, db.snapshot(), query, options, stats);
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
    local[db.shard_of(id)].push_back(db.record(id).id);
  }
  return detail::execute_one(detail::sharded_view(db, db.snapshot()),
                             detail::prepare_query(query_strings, options),
                             {.lists = local}, options, stats);
}

std::vector<query_result> search_cached(const sharded_database& db,
                                        const sharded_snapshot& snap,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return detail::execute_cached(detail::sharded_view(db, snap), cache,
                                query_strings, query_symbols, options, stats);
}

std::vector<query_result> search_cached(const sharded_database& db,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return search_cached(db, db.snapshot(), cache, query_strings, query_symbols,
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
  return detail::execute_batch(detail::sharded_view(db, db.snapshot()),
                               queries, query_symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const sharded_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return search_batch(db, encoded.strings, encoded.symbols, options, stats);
}

// ------------------------------------------------------- prefilter fan-out

std::vector<image_id> window_candidates(const sharded_database& db,
                                        const symbolic_image& query, int pad) {
  // Shards partition the record set, so the union of the per-shard sets IS
  // the unsharded set.
  std::vector<image_id> out;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    const auto& globals = db.shard_global_ids(s);
    for (image_id local : db.shard_spatial(s).candidates(query, pad)) {
      out.push_back(globals[local]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bes
