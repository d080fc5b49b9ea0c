// E9 — the demonstration retrieval system at database scale (paper §5).
//
// End-to-end: corpora built through the raster pipeline, scan throughput
// with/without the inverted symbol index, serial vs parallel scoring, and
// transform-invariant mode. The paper's demo system is interactive; the
// claim reproduced here is that a full-database LCS scan is cheap enough to
// serve queries at interactive latency for thousands of images.
#include "bench_common.hpp"

#include "db/access_path.hpp"
#include "db/planner.hpp"
#include "db/query.hpp"
#include "db/scan.hpp"
#include "db/shard.hpp"
#include "db/spatial_index.hpp"
#include "imaging/extract.hpp"
#include "util/parallel.hpp"
#include "workload/query_gen.hpp"

namespace bes {
namespace {

using benchsupport::print_header;
using benchsupport::time_per_call;

image_database build_db(std::size_t images, std::size_t objects,
                        std::size_t pool, bool through_raster = false) {
  image_database db;
  rng r(20010402);
  scene_params params;
  params.width = 256;
  params.height = 256;
  params.object_count = objects;
  params.max_extent = 48;
  params.symbol_pool = pool;
  if (through_raster) params.disjoint = true;
  for (std::size_t i = 0; i < images; ++i) {
    symbolic_image scene = random_scene(params, r, db.symbols());
    if (through_raster) {
      scene = extract_icons(render_scene(scene));
    }
    db.add("scene" + std::to_string(i), std::move(scene));
  }
  return db;
}

void print_scan_table() {
  print_header("E9a: full-scan query latency vs database size",
               "LCS scans stay interactive; the symbol index, the histogram "
               "pruner and threads shave the scan");
  text_table table({"images", "serial (ms)", "indexed (ms)", "pruned (ms)",
                    "LCS runs", "4 threads (ms)", "best-of-8 (ms)"});
  for (std::size_t images : benchsupport::smoke_sweep({100u, 400u, 1600u}, 100u)) {
    image_database db = build_db(images, 8, 40);
    rng r(5);
    alphabet scratch = db.symbols();
    distortion_params d;
    d.keep_fraction = 0.6;
    const symbolic_image query =
        distort(db.record(0).image, d, r, scratch);

    query_options serial;
    serial.use_index = false;
    query_options indexed;
    query_options pruned;
    pruned.use_index = false;
    pruned.histogram_pruning = true;
    query_options threaded;
    threaded.use_index = false;
    threaded.threads = 4;
    query_options invariant;
    invariant.use_index = false;
    invariant.transform_invariant = true;

    const double t_serial =
        1e3 * time_per_call([&] { benchmark::DoNotOptimize(search(db, query, serial)); });
    const double t_indexed =
        1e3 * time_per_call([&] { benchmark::DoNotOptimize(search(db, query, indexed)); });
    search_stats stats;
    const double t_pruned = 1e3 * time_per_call([&] {
      benchmark::DoNotOptimize(search(db, query, pruned, &stats));
    });
    const double t_threads =
        1e3 * time_per_call([&] { benchmark::DoNotOptimize(search(db, query, threaded)); });
    const double t_invariant =
        1e3 * time_per_call([&] { benchmark::DoNotOptimize(search(db, query, invariant)); });
    table.add_row({std::to_string(images), fmt_double(t_serial, 2),
                   fmt_double(t_indexed, 2), fmt_double(t_pruned, 2),
                   std::to_string(stats.scored) + "/" +
                       std::to_string(stats.scanned),
                   fmt_double(t_threads, 2), fmt_double(t_invariant, 2)});
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_batch_table() {
  print_header("E9c: batch + threshold scan variants",
               "search_batch amortizes per-query precomputation; the pruner "
               "with a min_score floor and threads compounds on top");
  text_table table({"images", "queries", "loop (ms/q)", "batch (ms/q)",
                    "batch+prune (ms/q)", "+min_score .5", "+4 threads",
                    "LCS runs"});
  for (std::size_t images : benchsupport::smoke_sweep({200u, 800u}, 100u)) {
    image_database db = build_db(images, 8, 40);
    const std::size_t batch = benchsupport::smoke_cap<std::size_t>(16, 4);
    std::vector<symbolic_image> queries;
    rng r(7);
    distortion_params d;
    d.keep_fraction = 0.7;
    alphabet scratch = db.symbols();
    for (std::size_t i = 0; i < batch; ++i) {
      queries.push_back(
          distort(db.record(static_cast<image_id>(i % db.size())).image, d, r,
                  scratch));
    }
    const auto per_query = [&](double total_s) {
      return fmt_double(1e3 * total_s / static_cast<double>(batch), 2);
    };

    query_options plain;
    plain.use_index = false;
    const double t_loop = time_per_call([&] {
      for (const symbolic_image& q : queries) {
        benchmark::DoNotOptimize(search(db, q, plain));
      }
    });
    const double t_batch = time_per_call(
        [&] { benchmark::DoNotOptimize(search_batch(db, queries, plain)); });

    query_options pruned = plain;
    pruned.histogram_pruning = true;
    const double t_pruned = time_per_call(
        [&] { benchmark::DoNotOptimize(search_batch(db, queries, pruned)); });

    query_options floored = pruned;
    floored.min_score = 0.5;
    std::vector<search_stats> stats;
    const double t_floored = time_per_call([&] {
      benchmark::DoNotOptimize(search_batch(db, queries, floored, &stats));
    });

    query_options threaded = floored;
    threaded.threads = 4;
    const double t_threads = time_per_call([&] {
      benchmark::DoNotOptimize(search_batch(db, queries, threaded));
    });

    std::size_t scored = 0;
    std::size_t scanned = 0;
    for (const search_stats& s : stats) {
      scored += s.scored;
      scanned += s.scanned;
    }
    table.add_row({std::to_string(images), std::to_string(batch),
                   per_query(t_loop), per_query(t_batch), per_query(t_pruned),
                   per_query(t_floored), per_query(t_threads),
                   std::to_string(scored) + "/" + std::to_string(scanned)});
  }
  std::fputs(table.str().c_str(), stdout);
}

// E9d of ISSUE 5: shard-per-core fan-out. Every shard scan inserts into
// ONE shared top-k whose threshold reads are a single atomic load, so the
// sharded scan prunes against the running GLOBAL k-th score and returns
// results identical to the flat scan.
//
// Two measurements per row:
//   - wall t8: the fan-out as-is on THIS machine's cores (on a box with
//     fewer cores than threads the OS serializes the workers, so this
//     column understates the fan-out exactly as it overstates the flat
//     scan's 8 threads);
//   - critical path: the slowest single shard scan, measured by running
//     the same fan-out one shard at a time — the wall time a machine with
//     one core per shard would see. This is the shard-per-core scaling
//     claim: >= 2x at 8 shards vs the single-shard scan.
void print_shard_table() {
  print_header("E9d: sharded fan-out scan vs single-shard, same thread budget",
               "shards share one running top-k through an atomic threshold; "
               "critical path = slowest shard = fan-out wall clock at one "
               "core per shard (>= 2x at 8 shards)");
  text_table table({"images", "shards", "wall exh t8 (ms)", "wall pruned t8 (ms)",
                    "LCS runs", "critical path (ms)", "crit speedup vs s1"});
  for (std::size_t images :
       benchsupport::smoke_sweep({400u, 1600u}, 100u)) {
    image_database db = build_db(images, 8, 40);
    rng r(5);
    alphabet scratch = db.symbols();
    distortion_params d;
    d.keep_fraction = 0.6;
    const symbolic_image query = distort(db.record(0).image, d, r, scratch);
    const be_string2d strings = encode(query);
    const prepared_query prepared(strings);

    query_options exhaustive;
    exhaustive.use_index = false;
    exhaustive.threads = 8;
    query_options pruned = exhaustive;
    pruned.histogram_pruning = true;

    double critical_s1 = 0.0;
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      const sharded_database sharded = make_sharded(db, shards);
      const double t_exhaustive = 1e3 * time_per_call([&] {
        benchmark::DoNotOptimize(search(sharded, query, exhaustive));
      });
      search_stats stats;
      const double t_pruned = 1e3 * time_per_call([&] {
        benchmark::DoNotOptimize(search(sharded, query, pruned, &stats));
      });

      // Critical path: each shard's pruned scan timed alone with a FRESH
      // top-k (no help from the other shards' thresholds), so the max is a
      // conservative upper bound on the wall clock of a one-core-per-shard
      // run — a live fan-out's shared threshold is only ever tighter.
      query_options serial = pruned;
      serial.threads = 1;
      double critical = 0.0;
      for (std::size_t s = 0; s < shards; ++s) {
        std::vector<image_id> ids(sharded.shard_db(s).size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ids[i] = static_cast<image_id>(i);
        }
        const double t = 1e3 * time_per_call([&] {
          detail::shared_topk top(serial.top_k, serial.min_score);
          benchmark::DoNotOptimize(detail::scan_shard(
              sharded.shard_db(s), prepared, ids,
              detail::id_map{.chunked = &sharded.shard_global_ids(s)}, serial,
              &top, nullptr));
        });
        critical = std::max(critical, t);
      }
      if (shards == 1) critical_s1 = critical;
      table.add_row({std::to_string(images), std::to_string(shards),
                     fmt_double(t_exhaustive, 2), fmt_double(t_pruned, 2),
                     std::to_string(stats.scored) + "/" +
                         std::to_string(stats.scanned),
                     fmt_double(critical, 2),
                     fmt_double(critical_s1 / critical, 2) + "x"});
    }
  }
  std::fputs(table.str().c_str(), stdout);
}

// E9e: candidate generation through the spatial access path — one fused
// traversal of the R-tree whose nodes carry symbol signatures — and the
// planner's end-to-end pick against the exhaustive scan it replaces.
void print_planner_table() {
  print_header("E9e: spatial candidates and the cost-based planner",
               "one fused R-tree traversal per query; the planner's "
               "end-to-end pick vs the exhaustive scan");
  text_table table({"images", "pad", "candidates", "gen (ms)", "plan",
                    "e2e planned (ms)", "e2e exhaustive (ms)"});
  for (std::size_t images : benchsupport::smoke_sweep({400u, 1600u}, 100u)) {
    image_database db = build_db(images, 8, 40);
    const spatial_index index(db);
    rng r(5);
    alphabet scratch = db.symbols();
    distortion_params d;
    d.keep_fraction = 0.6;
    const symbolic_image query = distort(db.record(0).image, d, r, scratch);
    const std::vector<symbol_id> symbols = distinct_symbols(query);
    const int pad = adaptive_pad(query);

    const auto spatial = make_access_path(access_path_kind::hybrid,
                                          {&db, &index, &index});
    const path_probe probe{&query, symbols, pad};
    const std::size_t cands = spatial->generate(probe).size();
    const double t_gen = 1e3 * time_per_call([&] {
      benchmark::DoNotOptimize(spatial->generate(probe));
    });

    const planner_context ctx{&db, &index, &index};
    query_options planned;
    planned.top_k = 10;
    planned.histogram_pruning = true;
    const access_plan plan = plan_query(ctx, query, symbols, planned);
    const double t_planned = 1e3 * time_per_call([&] {
      benchmark::DoNotOptimize(search_planned(ctx, query, planned));
    });
    query_options exhaustive;
    exhaustive.use_index = false;
    exhaustive.top_k = 10;
    const double t_exhaustive = 1e3 * time_per_call([&] {
      benchmark::DoNotOptimize(search(db, query, exhaustive));
    });

    table.add_row({std::to_string(images), std::to_string(pad),
                   std::to_string(cands), fmt_double(t_gen, 3),
                   std::string(to_string(plan.path)),
                   fmt_double(t_planned, 2), fmt_double(t_exhaustive, 2)});
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_index_selectivity_table() {
  print_header("E9b: inverted-index candidate selectivity",
               "images sharing no query symbol are skipped outright");
  text_table table({"symbol pool", "db images", "candidates for 5-symbol query"});
  for (std::size_t pool : benchsupport::smoke_sweep({10u, 40u, 160u}, 160u)) {
    image_database db = build_db(benchsupport::smoke_cap<std::size_t>(400, 50), 5, pool);
    const auto candidates = db.candidates(db.record(0).image);
    table.add_row({std::to_string(pool), std::to_string(db.size()),
                   std::to_string(candidates.size())});
  }
  std::fputs(table.str().c_str(), stdout);
}

void BM_SearchSerial(benchmark::State& state) {
  image_database db = build_db(static_cast<std::size_t>(state.range(0)), 8, 40);
  const symbolic_image& query = db.record(1).image;
  query_options options;
  options.use_index = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search(db, query, options));
  }
  state.counters["images_per_s"] = benchmark::Counter(
      static_cast<double>(db.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SearchSerial)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_SearchParallel(benchmark::State& state) {
  image_database db = build_db(800, 8, 40);
  const symbolic_image& query = db.record(1).image;
  query_options options;
  options.use_index = false;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search(db, query, options));
  }
}
BENCHMARK(BM_SearchParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RasterPipelineIngest(benchmark::State& state) {
  // Cost of the full front half: render + label + extract + encode + insert.
  rng r(9);
  alphabet names;
  scene_params params;
  params.width = 256;
  params.height = 256;
  params.object_count = 8;
  params.max_extent = 48;
  params.disjoint = true;
  const symbolic_image scene = random_scene(params, r, names);
  for (auto _ : state) {
    image_database db;
    db.symbols() = names;
    db.add("one", extract_icons(render_scene(scene)));
    benchmark::DoNotOptimize(db.size());
  }
}
BENCHMARK(BM_RasterPipelineIngest)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bes

int main(int argc, char** argv) {
  bes::print_scan_table();
  bes::print_batch_table();
  bes::print_shard_table();
  bes::print_planner_table();
  bes::print_index_selectivity_table();
  return bes::benchsupport::run_registered(argc, argv);
}
