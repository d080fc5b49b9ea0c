// The scatter/gather equivalence suite, run over real loopback sockets via
// net::loopback_cluster.
//
// Contract under test: the network coordinator is invisible in the answer —
// for every kernel, shard count, and option set, coordinator::search over a
// serve fleet returns results bit-identical to sharded_database::search
// (and therefore to the flat unsharded scan), gossip on or off. Failure
// modes degrade instead of lying: a dead shard, an expired scan, or a full
// admission queue shows up in stats.degraded + shard_statuses while the
// surviving shards' contribution stays exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "db/database.hpp"
#include "db/scan.hpp"
#include "db/shard.hpp"
#include "net/loopback.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

// Near-duplicate pairs so top-k boundaries see score ties, same recipe as
// the in-process sharding suite.
image_database sibling_corpus(std::size_t bases, std::uint64_t seed = 23) {
  image_database db;
  rng r(seed);
  scene_params params;
  params.object_count = 8;
  params.symbol_pool = 10;
  for (std::size_t i = 0; i < bases; ++i) {
    const symbolic_image scene = random_scene(params, r, db.symbols());
    db.add("base" + std::to_string(i), scene);
    distortion_params sibling;
    sibling.keep_fraction = 0.8;
    sibling.jitter = 16;
    db.add("sib" + std::to_string(i), distort(scene, sibling, r, db.symbols()));
  }
  return db;
}

symbolic_image distorted_query(const image_database& db, std::uint64_t seed,
                               double keep = 0.6) {
  rng r(seed);
  distortion_params d;
  d.keep_fraction = keep;
  d.jitter = 8;
  alphabet scratch = db.symbols();
  return distort(db.record(static_cast<image_id>(seed % db.size())).image, d,
                 r, scratch);
}

constexpr std::size_t kShardCounts[] = {1, 3, 8};

// The option sets the equivalence matrix sweeps: both scoring kernels
// (weighted rolling and exact bit-parallel LCS), thresholded and pruned
// scans, transform invariance exhaustive and pruned, and unlimited k.
std::vector<std::pair<std::string, query_options>> option_matrix() {
  std::vector<std::pair<std::string, query_options>> matrix;
  {
    query_options o;
    o.top_k = 5;
    matrix.emplace_back("topk", o);
  }
  {
    query_options o;
    o.top_k = 8;
    o.min_score = 0.4;
    o.histogram_pruning = true;
    matrix.emplace_back("thresholded+pruned", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.similarity.exact_lcs = true;
    matrix.emplace_back("exact-lcs", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.transform_invariant = true;
    matrix.emplace_back("transform-invariant", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.transform_invariant = true;
    o.histogram_pruning = true;
    matrix.emplace_back("transform-invariant+pruned", o);
  }
  {
    query_options o;
    o.top_k = 0;  // unlimited: the full ranking must survive the merge
    matrix.emplace_back("unlimited", o);
  }
  return matrix;
}

void expect_all_ok(const search_stats& stats, std::size_t shards,
                   const std::string& label) {
  EXPECT_FALSE(stats.degraded) << label;
  ASSERT_EQ(stats.shard_statuses.size(), shards) << label;
  for (const shard_scan_status& status : stats.shard_statuses) {
    EXPECT_EQ(status.state, shard_scan_state::ok)
        << label << " shard " << status.shard;
  }
}

// ----------------------------------------------------------- equivalence

TEST(NetService, LoopbackSearchMatchesInProcessForEveryKernelAndShardCount) {
  const image_database flat = sibling_corpus(16);
  for (const std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(flat, shards);
    net::loopback_cluster cluster(sharded);
    for (const auto& [label, options] : option_matrix()) {
      for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
        const symbolic_image query = distorted_query(flat, seed);
        const be_string2d strings = encode(query);
        const std::vector<symbol_id> symbols = distinct_symbols(query);
        const std::string tag =
            label + " shards=" + std::to_string(shards) + " seed=" +
            std::to_string(seed);

        const net::remote_result remote =
            cluster.front().search(strings, symbols, options);
        const std::vector<query_result> in_process =
            search(sharded, strings, symbols, options);
        const std::vector<query_result> flat_answer =
            search(flat, query, options);

        EXPECT_EQ(remote.results, in_process) << tag;
        EXPECT_EQ(remote.results, flat_answer) << tag;
        expect_all_ok(remote.stats, shards, tag);
      }
    }
  }
}

TEST(NetService, StatsMatchInProcessAccountingWhenNotPruned) {
  // Without pruning the wire changes nothing about the work done either:
  // every candidate a shard generates is scanned and scored exactly as the
  // in-process fan-out would.
  const image_database flat = sibling_corpus(12);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  const symbolic_image query = distorted_query(flat, 3);
  query_options options;
  options.top_k = 6;

  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);
  search_stats local;
  (void)search(sharded, encode(query), distinct_symbols(query), options,
               &local);
  EXPECT_EQ(remote.stats.scanned, local.scanned);
  EXPECT_EQ(remote.stats.scored, local.scored);
  EXPECT_EQ(remote.stats.pruned, local.pruned);
  EXPECT_EQ(remote.stats.candidates_generated, local.candidates_generated);
  EXPECT_EQ(remote.stats.scanned, remote.stats.scored + remote.stats.pruned);
}

TEST(NetService, BatchMatchesPerQuerySearch) {
  const image_database flat = sibling_corpus(12);
  for (const std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(flat, shards);
    net::loopback_cluster cluster(sharded);
    query_options options;
    options.top_k = 4;
    options.histogram_pruning = true;

    std::vector<be_string2d> queries;
    std::vector<std::vector<symbol_id>> symbols;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const symbolic_image q = distorted_query(flat, seed);
      queries.push_back(encode(q));
      symbols.push_back(distinct_symbols(q));
    }

    const std::vector<net::remote_result> batch =
        cluster.front().search_batch(queries, symbols, options);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i].results,
                search(sharded, queries[i], symbols[i], options))
          << "query " << i << " shards=" << shards;
      EXPECT_FALSE(batch[i].stats.degraded);
    }
  }
}

TEST(NetService, FetchSymbolsReturnsTheMasterAlphabet) {
  const image_database flat = sibling_corpus(10);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  EXPECT_EQ(cluster.front().fetch_symbols(), flat.symbols().names());
}

// ---------------------------------------------------------------- gossip

TEST(NetService, GossipPrunesStrictlyMoreThanNoGossip) {
  // The acceptance pin for threshold gossip: identical answers, strictly
  // fewer LCS evaluations. sequential_scatter makes the comparison
  // deterministic — each shard receives the exact floor earned by the
  // shards before it, so the pruned run's scored count cannot wobble with
  // scheduling.
  //
  // The corpus draws from a wide symbol pool so token histograms actually
  // discriminate, and the query is an exact copy of a record owned by the
  // FIRST shard in scatter order: after shard 0 answers, the gossiped floor
  // is the perfect score, and every dissimilar candidate on shards 1 and 2
  // dies on its histogram upper bound. Without gossip those shards must
  // score candidates until their own local top-k earns a comparable floor —
  // which it never does, so they provably do strictly more work.
  image_database flat;
  {
    rng r(77);
    scene_params params;
    params.object_count = 6;
    params.symbol_pool = 32;
    for (std::size_t i = 0; i < 48; ++i) {
      flat.add("scene" + std::to_string(i),
               random_scene(params, r, flat.symbols()));
    }
  }
  const sharded_database sharded = make_sharded(flat, 3);

  query_options options;
  options.top_k = 1;
  options.histogram_pruning = true;
  options.use_index = false;  // every record is a candidate on every shard

  const image_id anchor = sharded.shard_global_ids(0).front();
  const symbolic_image query = flat.record(anchor).image;
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);

  net::coordinator_options gossip_on;
  gossip_on.sequential_scatter = true;
  gossip_on.gossip = true;
  net::coordinator_options gossip_off = gossip_on;
  gossip_off.gossip = false;

  net::loopback_cluster with(sharded, {}, gossip_on);
  net::loopback_cluster without(sharded, {}, gossip_off);

  const net::remote_result pruned = with.front().search(strings, symbols, options);
  const net::remote_result control =
      without.front().search(strings, symbols, options);

  EXPECT_EQ(pruned.results, control.results);
  EXPECT_EQ(pruned.results, search(sharded, strings, symbols, options));
  EXPECT_LT(pruned.stats.scored, control.stats.scored)
      << "gossiped floor failed to prune any remote work";
  EXPECT_GT(pruned.stats.pruned, control.stats.pruned);
}

TEST(NetService, ConcurrentGossipKeepsAnswersExact) {
  // Free-running gossip (the default): scored counts may wobble with
  // scheduling, the answer must not.
  const image_database flat = sibling_corpus(20);
  const sharded_database sharded = make_sharded(flat, 8);
  net::loopback_cluster cluster(sharded);
  query_options options;
  options.top_k = 3;
  options.histogram_pruning = true;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const symbolic_image query = distorted_query(flat, seed, 0.9);
    const net::remote_result remote =
        cluster.front().search(encode(query), distinct_symbols(query), options);
    EXPECT_EQ(remote.results,
              search(sharded, encode(query), distinct_symbols(query), options))
        << "seed " << seed;
  }
}

TEST(NetService, SparseSymbolIdQueryIsPreparedInBoundedMemory) {
  // A client may send any symbol ids the wire encodes. A shard server
  // prepares every decoded query — all 16 axes of a transform-invariant
  // one — so the prepared tables must stay linear in the query's distinct
  // tokens however the ids are spread: here 4096 distinct tokens per axis
  // from ids strided by 2^19, none of them in the corpus alphabet.
  std::vector<token> tokens;
  std::vector<symbol_id> symbols;
  for (std::uint32_t i = 0; i < 2048; ++i) {
    const symbol_id id = (i << 19) | 1u;
    symbols.push_back(id);
    tokens.push_back(token::boundary(id, boundary_kind::begin));
    tokens.push_back(token::boundary(id, boundary_kind::end));
  }
  be_string2d strings;
  strings.x = axis_string(tokens);
  std::reverse(tokens.begin(), tokens.end());
  strings.y = axis_string(tokens);

  query_options options;
  options.top_k = 5;
  options.transform_invariant = true;

  net::query_msg msg;
  msg.options = options;
  msg.query = strings;
  msg.query_symbols = symbols;
  const net::query_msg decoded = net::decode_query(net::encode(msg));
  const prepared_query prepared =
      detail::prepare_query(decoded.query, decoded.options);
  ASSERT_EQ(prepared.variants().size(), all_dihedral.size());
  for (const prepared_strings& variant : prepared.variants()) {
    for (const prepared_axis* axis : {&variant.x, &variant.y}) {
      ASSERT_EQ(axis->distinct(), 4096u);
      // The mask rows plus a constant number of bytes per token.
      EXPECT_LE(axis->footprint_bytes(),
                (axis->distinct() + 1) * axis->words() * 8 +
                    128 * (axis->size() + 1));
    }
  }

  // And the serve fleet answers it exactly like the in-process scan.
  const image_database flat = sibling_corpus(8);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  const net::remote_result remote =
      cluster.front().search(strings, symbols, options);
  EXPECT_EQ(remote.results, search(sharded, strings, symbols, options));
  expect_all_ok(remote.stats, 3, "sparse ids");
}

// --------------------------------------------------------- degraded modes

TEST(NetService, DeadShardDegradesInsteadOfSinkingTheQuery) {
  const image_database flat = sibling_corpus(16);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  cluster.stop_server(1);

  query_options options;
  options.top_k = 0;      // unlimited…
  options.use_index = false;  // …over every id: fully checkable below
  const symbolic_image query = distorted_query(flat, 4);
  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);

  EXPECT_TRUE(remote.stats.degraded);
  ASSERT_EQ(remote.stats.shard_statuses.size(), 3u);
  EXPECT_EQ(remote.stats.shard_statuses[1].state, shard_scan_state::failed);
  EXPECT_EQ(remote.stats.shard_statuses[0].state, shard_scan_state::ok);
  EXPECT_EQ(remote.stats.shard_statuses[2].state, shard_scan_state::ok);

  // The survivors' contribution is exact: identical to scoring only the
  // candidates owned by shards 0 and 2.
  std::vector<image_id> surviving;
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}}) {
    const auto& ids = sharded.shard_global_ids(s);
    surviving.insert(surviving.end(), ids.begin(), ids.end());
  }
  std::sort(surviving.begin(), surviving.end());
  const std::vector<query_result> expected = search_candidates(
      sharded, encode(query), surviving, options);
  EXPECT_EQ(remote.results, expected);

  // The dead shard stays dead but the cluster stays usable: repeat queries
  // keep answering (degraded) instead of wedging the coordinator.
  const net::remote_result again =
      cluster.front().search(encode(query), distinct_symbols(query), options);
  EXPECT_TRUE(again.stats.degraded);
  EXPECT_EQ(again.results, expected);
}

TEST(NetService, SlowShardsExpireAtTheDeadlineAndDegrade) {
  const image_database flat = sibling_corpus(16);
  const sharded_database sharded = make_sharded(flat, 3);
  net::server_options slow;
  slow.scan_chunk = 1;       // many chunks, each delayed…
  slow.scan_delay_ms = 20;   // …so the budget dies mid-scan, not before it
  net::coordinator_options tight;
  tight.default_deadline_ms = 100;
  net::loopback_cluster cluster(sharded, slow, tight);

  query_options options;
  options.top_k = 5;
  const symbolic_image query = distorted_query(flat, 6);
  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);

  EXPECT_TRUE(remote.stats.degraded);
  ASSERT_EQ(remote.stats.shard_statuses.size(), 3u);
  for (const shard_scan_status& status : remote.stats.shard_statuses) {
    EXPECT_TRUE(status.state == shard_scan_state::expired ||
                status.state == shard_scan_state::timed_out)
        << "shard " << status.shard << " ended " << to_string(status.state);
  }

  // The fleet recovers once the budget is sane again: the same query with a
  // roomy deadline is exact and un-degraded.
  net::coordinator_options roomy;
  net::loopback_cluster healthy(sharded, {}, roomy);
  const net::remote_result ok =
      healthy.front().search(encode(query), distinct_symbols(query), options);
  EXPECT_FALSE(ok.stats.degraded);
  EXPECT_EQ(ok.results,
            search(sharded, encode(query), distinct_symbols(query), options));
}

TEST(NetService, FullAdmissionQueueRejectsInsteadOfQueueingForever) {
  const image_database flat = sibling_corpus(10);
  const sharded_database sharded = make_sharded(flat, 3);
  net::server_options no_room;
  no_room.max_queue = 0;
  net::loopback_cluster cluster(sharded, no_room);

  query_options options;
  options.top_k = 5;
  const symbolic_image query = distorted_query(flat, 1);
  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);

  EXPECT_TRUE(remote.stats.degraded);
  EXPECT_TRUE(remote.results.empty());
  ASSERT_EQ(remote.stats.shard_statuses.size(), 3u);
  for (const shard_scan_status& status : remote.stats.shard_statuses) {
    EXPECT_EQ(status.state, shard_scan_state::rejected)
        << "shard " << status.shard;
  }
}

TEST(NetService, CoordinatorWithNoShardsThrowsInvalidArgument) {
  net::coordinator coord({});
  query_options options;
  EXPECT_THROW((void)coord.search(be_string2d{}, {}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace bes
