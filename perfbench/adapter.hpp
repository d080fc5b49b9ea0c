// The benchmark's only door into the engine. Every call the benchmark makes
// into src/ goes through a function in this file, so an API change in the
// engine (for example one search executor replacing the flat/sharded twins)
// is absorbed here instead of across the runner. The runner includes no
// engine header itself.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "db/access_path.hpp"
#include "db/group_commit.hpp"
#include "db/hybrid_index.hpp"
#include "db/planner.hpp"
#include "db/query.hpp"
#include "db/result_cache.hpp"
#include "db/segment.hpp"
#include "db/shard.hpp"
#include "db/shard_storage.hpp"
#include "db/spatial_index.hpp"
#include "lcs/kernel.hpp"
#include "lcs/similarity.hpp"
#include "lcs/token_histogram.hpp"
#include "metrics/stats.hpp"
#include "net/framing.hpp"
#include "net/loopback.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_gen.hpp"
#include "workload/zipf.hpp"

namespace pb::sys {

namespace fs = std::filesystem;

using bes::access_path_kind;
using bes::alphabet;
using bes::be_string2d;
using bes::db_snapshot;
using bes::image_database;
using bes::image_id;
using bes::query_options;
using bes::query_result;
using bes::result_cache;
using bes::search_stats;
using bes::sharded_database;
using bes::sharded_snapshot;
using bes::symbol_id;
using bes::symbolic_image;

// ------------------------------------------------------------ workload/

using bes::derive_seed;
using bes::rng;
using bes::zipf_sampler;

// One corpus scene: `icons` icons over a 256x256 domain, symbols drawn from
// a pool of `pool` names.
inline symbolic_image make_scene(rng& r, std::size_t icons, std::size_t pool,
                                 alphabet& names) {
  bes::scene_params params;
  params.object_count = icons;
  params.symbol_pool = pool;
  return bes::random_scene(params, r, names);
}

// A distorted copy of a corpus scene: a quarter of its icons dropped, the
// rest jittered. No relabelling, so every query symbol exists in the corpus.
inline symbolic_image make_query(const symbolic_image& target,
                                 std::uint64_t seed, alphabet& names) {
  bes::distortion_params d;
  d.keep_fraction = 0.75;
  d.jitter = 6;
  d.seed = seed;
  return bes::distort(target, d, names);
}

// ------------------------------------------------------------ core/

struct encoded_query {
  be_string2d strings;
  std::vector<symbol_id> symbols;
};

inline encoded_query encode(const symbolic_image& image) {
  return {bes::encode(image), bes::distinct_symbols(image)};
}

inline std::size_t tokens(const be_string2d& strings) {
  return strings.total_tokens();
}

// ------------------------------------------------------------ storage

// Writes a flat BSEG1 segment holding `scenes` in order.
inline void write_segment(const fs::path& path,
                          const std::vector<symbolic_image>& scenes,
                          const alphabet& names) {
  bes::segment_writer writer(path);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    bes::db_record rec;
    rec.id = static_cast<image_id>(i);
    rec.name = "scene" + std::to_string(i);
    rec.image = scenes[i];
    rec.strings = bes::encode(scenes[i]);
    rec.histograms = bes::make_histograms(rec.strings);
    writer.append(rec, names);
  }
  writer.finish();
}

// Writes an SCRP1 corpus directory with `shards` shards.
inline void write_sharded(const fs::path& dir,
                          const std::vector<symbolic_image>& scenes,
                          const alphabet& names, std::size_t shards) {
  bes::shard_writer writer(dir, shards);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    writer.append("scene" + std::to_string(i), scenes[i], names);
  }
  writer.finish();
}

inline std::unique_ptr<image_database> load_segment(const fs::path& path) {
  return std::make_unique<image_database>(bes::load_segment(path));
}

inline std::unique_ptr<sharded_database> load_sharded(const fs::path& dir) {
  return std::make_unique<sharded_database>(bes::load_sharded_corpus(dir));
}

inline std::unique_ptr<image_database> load_sharded_flat(const fs::path& dir) {
  return std::make_unique<image_database>(bes::load_sharded_flat(dir));
}

// The two spatial structures the planner chooses among.
struct flat_indexes {
  std::unique_ptr<bes::spatial_index> spatial;
  std::unique_ptr<bes::hybrid_index> hybrid;
};

inline flat_indexes build_indexes(const image_database& db) {
  return {std::make_unique<bes::spatial_index>(db),
          std::make_unique<bes::hybrid_index>(db)};
}

// Path of one shard's BSEG1 segment inside an SCRP1 corpus directory.
inline fs::path segment_file(const fs::path& corpus_dir, std::size_t shard) {
  return corpus_dir /
         bes::read_shard_manifest(corpus_dir).shards.at(shard).file;
}

using bes::group_commit_stats;
using bes::segment_writer;
using bes::tombstone_group_commit;

// Append-only writer for ingested records (fresh file).
inline std::unique_ptr<segment_writer> open_ingest_log(const fs::path& path) {
  return std::make_unique<segment_writer>(path);
}

// Reopens an existing segment for tombstone appends.
inline std::unique_ptr<segment_writer> reopen_segment(const fs::path& path) {
  return std::make_unique<segment_writer>(path, /*append=*/true);
}

// Durable deletes: fsync on, default coalescing window.
inline std::unique_ptr<tombstone_group_commit> open_group_commit(
    segment_writer& writer) {
  bes::group_commit_options options;
  options.fsync = true;
  return std::make_unique<tombstone_group_commit>(writer, options);
}

inline long group_commit_window_ms() {
  return static_cast<long>(bes::group_commit_options{}.window.count());
}

inline void append_durably_unsynced(segment_writer& writer,
                                    const bes::db_record& rec,
                                    const alphabet& names) {
  writer.append(rec, names);
  writer.flush();
}

// ------------------------------------------------------------ ingest

inline image_id add(image_database& db, std::string name,
                    symbolic_image image) {
  return db.add(std::move(name), std::move(image));
}
inline image_id add(sharded_database& db, std::string name,
                    symbolic_image image) {
  return db.add(std::move(name), std::move(image));
}
inline bool remove(image_database& db, image_id id) { return db.remove(id); }
inline bool remove(sharded_database& db, image_id id) { return db.remove(id); }

// ------------------------------------------------------------ result_cache

inline std::unique_ptr<result_cache> make_cache(std::size_t capacity) {
  bes::result_cache_options options;
  options.capacity = capacity;
  return std::make_unique<result_cache>(options);
}

inline bes::result_cache_stats cache_counters(const result_cache& cache) {
  return cache.stats();
}

// Builds the flat-scope cache key search_cached builds for `q`; returns
// its size.
inline std::size_t cache_key_bytes(const encoded_query& q,
                                   const query_options& options) {
  return bes::make_cache_key(q.strings, q.symbols, options,
                             bes::cache_scope::flat, 1, 0)
      .bytes.size();
}

inline std::vector<query_result> search_cached(const db_snapshot& snap,
                                               result_cache& cache,
                                               const encoded_query& q,
                                               const query_options& options,
                                               search_stats* stats) {
  return bes::search_cached(snap, cache, q.strings, q.symbols, options, stats);
}

inline std::vector<query_result> search_cached(const sharded_database& db,
                                               const sharded_snapshot& snap,
                                               result_cache& cache,
                                               const encoded_query& q,
                                               const query_options& options,
                                               search_stats* stats) {
  return bes::search_cached(db, snap, cache, q.strings, q.symbols, options,
                            stats);
}

// ------------------------------------------------------------ scan + lcs

// The uncached pinned searches: the reference every exact answer is checked
// against.
inline std::vector<query_result> search(const db_snapshot& snap,
                                        const encoded_query& q,
                                        const query_options& options,
                                        search_stats* stats) {
  return bes::search(snap, q.strings, q.symbols, options, stats);
}

inline std::vector<query_result> search(const sharded_database& db,
                                        const sharded_snapshot& snap,
                                        const encoded_query& q,
                                        const query_options& options,
                                        search_stats* stats) {
  return bes::search(db, snap, q.strings, q.symbols, options, stats);
}

inline std::vector<query_result> search_candidates(
    const image_database& db, const encoded_query& q,
    const std::vector<image_id>& candidates, const query_options& options,
    search_stats* stats) {
  return bes::search_candidates(db, q.strings, candidates, options, stats);
}

// Recomputes one answer's score from scratch (identity transform, or the
// best of the 8 when transform-invariant).
inline double rescore(const image_database& db, const encoded_query& q,
                      image_id id, const query_options& options) {
  const be_string2d& d = db.record(id).strings;
  return options.transform_invariant
             ? bes::best_transform_similarity(q.strings, d, options.similarity)
                   .score
             : bes::similarity(q.strings, d, options.similarity);
}

inline const char* lcs_kernel_name() {
  return bes::active_lcs_kernel().name.data();
}

// ------------------------------------------------------------ planner

using bes::access_plan;
using bes::planner_context;

inline planner_context planner_for(const image_database& db,
                                   const flat_indexes& ix) {
  return {&db, ix.spatial.get(), ix.hybrid.get()};
}

inline std::vector<query_result> search_planned(const planner_context& ctx,
                                                const symbolic_image& image,
                                                const encoded_query& q,
                                                const query_options& options,
                                                search_stats* stats) {
  return bes::search_planned(ctx, image, q.strings, q.symbols, options, stats);
}

inline access_plan plan(const planner_context& ctx, const symbolic_image& image,
                        const encoded_query& q, const query_options& options) {
  return bes::plan_query(ctx, image, q.symbols, options);
}

inline const char* path_name(access_path_kind kind) {
  return bes::to_string(kind).data();
}

inline constexpr access_path_kind all_paths[] = {
    access_path_kind::full_scan, access_path_kind::inverted_index,
    access_path_kind::rtree_window, access_path_kind::combined,
    access_path_kind::hybrid};

// ------------------------------------------------------------ access_path

struct generated {
  std::vector<image_id> ids;
  std::size_t raw = 0;  // candidates produced before dedup/intersection
};

inline generated generate(const planner_context& ctx, access_path_kind kind,
                          const symbolic_image& image, const encoded_query& q,
                          int pad) {
  bes::access_path_stats st;
  generated out;
  out.ids = bes::make_access_path(kind, {ctx.db, ctx.spatial, ctx.hybrid})
                ->generate(bes::path_probe{&image, q.symbols, pad}, &st);
  out.raw = st.candidates_generated;
  return out;
}

// ------------------------------------------------------------ shard

inline std::unique_ptr<sharded_database> make_sharded(const image_database& db,
                                                      std::size_t shards) {
  return std::make_unique<sharded_database>(bes::make_sharded(db, shards));
}

inline planner_context shard_planner(const sharded_database& db,
                                     std::size_t s) {
  return {&db.shard_db(s), &db.shard_spatial(s), &db.shard_hybrid(s)};
}

// ------------------------------------------------------------ net

using cluster = bes::net::loopback_cluster;
using net_result = bes::net::remote_result;

// Four shard servers scanning with one thread each, a coordinator with its
// result cache off and threshold gossip on.
inline std::unique_ptr<cluster> start_cluster(const sharded_database& db) {
  bes::net::server_options server;
  server.scan_threads = 1;
  bes::net::coordinator_options coord;
  coord.cache_entries = 0;
  coord.gossip = true;
  return std::make_unique<cluster>(db, server, coord);
}

inline std::size_t fetch_symbols(cluster& c) {
  return c.front().fetch_symbols().size();
}

inline bes::net::remote_result remote_search(cluster& c,
                                             const encoded_query& q,
                                             const query_options& options) {
  return c.front().search(q.strings, q.symbols, options);
}

inline void stop_cluster(cluster& c) { c.front().shutdown_servers(); }

// Encodes the QUERY frame for `q` and a RESULT frame carrying `answer`,
// decodes both back, and returns the wire bytes of the two frames. Throws
// if a decoded message differs from what was encoded.
inline std::size_t codec_round_trip(const encoded_query& q,
                                    const query_options& options,
                                    const std::vector<query_result>& answer,
                                    std::uint64_t id) {
  bes::net::query_msg qm;
  qm.query_id = id;
  qm.options = options;
  qm.query = q.strings;
  qm.query_symbols = q.symbols;
  bes::net::result_msg rm;
  rm.query_id = id;
  rm.results = answer;
  const bes::net::frame qf = bes::net::encode(qm);
  const bes::net::frame rf = bes::net::encode(rm);
  const std::size_t bytes = bes::net::encode_frame(qf).size() +
                            bes::net::encode_frame(rf).size();
  const bes::net::query_msg qd = bes::net::decode_query(qf);
  const bes::net::result_msg rd = bes::net::decode_result(rf);
  if (qd.query != q.strings || rd.results != answer) {
    throw std::runtime_error("net codec round trip changed a message");
  }
  return bytes;
}

// ------------------------------------------------------------ metrics/

using bes::sample_stats;

}  // namespace pb::sys
