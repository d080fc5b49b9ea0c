// The three benchmark workloads and the layer probe suite of the traced run.
// Inputs come only from the workload/ generators through the adapter; the
// engine sees only those generated inputs.
#include <algorithm>
#include <stdexcept>

#include "bench.hpp"

namespace pb {

void ledger::add_scan(const sys::search_stats& st, bool transform) {
  scanned += st.scanned;
  scored += st.scored;
  pruned += st.pruned;
  band_rejected += st.band_rejected;
  generated += st.candidates_generated;
  pairs += st.scored * (transform ? 8 : 1);
  hits += st.cache_hits;
  deltas += st.cache_delta_refreshes;
  misses += st.cache_misses;
  rescored += st.cache_delta_rescored;
}

ledger& ledger::operator+=(const ledger& o) {
  reads += o.reads;
  tokens += o.tokens;
  scanned += o.scanned;
  scored += o.scored;
  pruned += o.pruned;
  band_rejected += o.band_rejected;
  generated += o.generated;
  pairs += o.pairs;
  plans += o.plans;
  estimated += o.estimated;
  actual += o.actual;
  for (std::size_t k = 0; k < paths.size(); ++k) paths[k] += o.paths[k];
  hits += o.hits;
  deltas += o.deltas;
  misses += o.misses;
  rescored += o.rescored;
  evictions += o.evictions;
  skew_sum += o.skew_sum;
  skew_n += o.skew_n;
  frame_bytes += o.frame_bytes;
  codec_calls += o.codec_calls;
  remote_calls += o.remote_calls;
  remote_scored += o.remote_scored;
  local_scored += o.local_scored;
  degraded += o.degraded;
  deletes += o.deletes;
  records += o.records;
  syncs += o.syncs;
  return *this;
}

sys::query_options top10(unsigned threads) {
  sys::query_options options;
  options.top_k = 10;
  options.histogram_pruning = true;
  options.threads = threads;
  return options;
}

namespace {

// Corpus shape shared by every workload: 4-24 icons per scene, 64 symbols.
constexpr int min_icons = 4;
constexpr int max_icons = 24;
constexpr std::size_t symbol_pool = 64;
constexpr std::size_t shard_count = 4;
// Below scan_cold's distinct-query count and above zipf_ingest's hot head.
constexpr std::size_t cache_capacity = 256;
// Layer probe suite size (traced run).
constexpr std::size_t probe_queries = 16;
constexpr std::size_t probe_adds = 16;
constexpr std::size_t probe_removes = 4;

// Stream ids for derive_seed: one independent generator per input kind.
enum stream_id : std::uint64_t {
  s_corpus = 1,
  s_targets,
  s_mix,
  s_zipf,
  s_adds,
  s_removes,
  s_query_base = 1u << 20,
};

std::vector<sys::symbolic_image> make_scenes(std::uint64_t seed,
                                             std::size_t count,
                                             sys::alphabet& names,
                                             std::uint64_t stream) {
  sys::rng r(sys::derive_seed(seed, stream));
  std::vector<sys::symbolic_image> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto icons =
        static_cast<std::size_t>(r.uniform_int(min_icons, max_icons));
    out.push_back(sys::make_scene(r, icons, symbol_pool, names));
  }
  return out;
}

// `count` distorted copies of uniformly chosen corpus scenes, each with its
// own distortion seed, so no two are the same request.
std::vector<sys::symbolic_image> make_queries(
    const std::vector<sys::symbolic_image>& corpus, std::size_t count,
    std::uint64_t seed, sys::alphabet& names) {
  sys::rng r(sys::derive_seed(seed, s_targets));
  std::vector<sys::symbolic_image> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto target = static_cast<std::size_t>(
        r.uniform_int(0, static_cast<int>(corpus.size()) - 1));
    out.push_back(sys::make_query(corpus[target],
                                  sys::derive_seed(seed, s_query_base + i),
                                  names));
  }
  return out;
}

void digest_images(std::uint64_t& h,
                   const std::vector<sys::symbolic_image>& images) {
  for (const sys::symbolic_image& img : images) {
    fnv(h, img.size());
    for (const auto& ic : img.icons()) {
      fnv(h, ic.symbol);
      fnv(h, static_cast<std::uint64_t>(ic.mbr.x.lo));
      fnv(h, static_cast<std::uint64_t>(ic.mbr.x.hi));
      fnv(h, static_cast<std::uint64_t>(ic.mbr.y.lo));
      fnv(h, static_cast<std::uint64_t>(ic.mbr.y.hi));
    }
  }
}

std::uint64_t digest_stream(const std::vector<request>& stream,
                            const std::vector<sys::symbolic_image>& queries,
                            const std::vector<sys::symbolic_image>& adds) {
  std::uint64_t h = fnv_basis;
  for (const request& r : stream) {
    fnv(h, static_cast<std::uint64_t>(r.kind));
    fnv(h, r.item);
    fnv(h, r.target);
  }
  digest_images(h, queries);
  digest_images(h, adds);
  return h;
}

std::uintmax_t tree_bytes(const fs::path& p) {
  if (fs::is_regular_file(p)) return fs::file_size(p);
  std::uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(p)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// Names a cached call's span by what the cache did.
const char* cache_outcome(const sys::search_stats& st) {
  if (st.cache_hits != 0) return "cache.hit";
  if (st.cache_delta_refreshes != 0) return "cache.delta";
  return "cache.miss";
}

// An answer is well-ranked when it holds at most k distinct ids ordered by
// score descending, ties by id ascending.
bool well_ranked(const std::vector<sys::query_result>& answer,
                 std::size_t k) {
  if (answer.size() > k) return false;
  for (std::size_t i = 1; i < answer.size(); ++i) {
    const auto& a = answer[i - 1];
    const auto& b = answer[i];
    if (a.score < b.score || (a.score == b.score && a.id >= b.id)) {
      return false;
    }
  }
  return true;
}

// The layer probe suite (traced run only): fresh copies of the workload's
// corpus, flat and 4-way sharded, a loopback cluster over the sharded copy,
// a private result cache and a private ingest log. Each probe query passes
// through every layer's public call once, so every per-layer metric has a
// measurement on every workload; the runner prefers request-path
// measurements where the workload's own requests reach a layer.
void probe_suite(std::unique_ptr<sys::image_database> flat,
                 const std::vector<sys::symbolic_image>& queries,
                 const fs::path& work, tracer& t, ledgers& l) {
  ledger& p = l.probe;
  constexpr std::uint64_t probe_base = 1ull << 40;
  sys::flat_indexes ix;
  {
    span_guard g(t, "storage.index_build", probe_base, origin::probe);
    ix = sys::build_indexes(*flat);
  }
  const sys::planner_context ctx = sys::planner_for(*flat, ix);
  const auto sharded = sys::make_sharded(*flat, shard_count);
  auto cache = sys::make_cache(cache_capacity);
  const sys::query_options options = top10(4);
  std::vector<sys::encoded_query> encoded;

  {
    const auto cl = sys::start_cluster(*sharded);
    sys::fetch_symbols(*cl);
    const sys::db_snapshot snap = flat->snapshot();
    const sys::sharded_snapshot ssnap = sharded->snapshot();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint64_t id = probe_base + i;
      const sys::symbolic_image& image = queries[i];
      span_guard root(t, "probe", id, origin::probe);
      sys::encoded_query q;
      {
        span_guard g(t, "core.encode", id, origin::probe);
        q = sys::encode(image);
      }
      p.reads += 1;
      p.tokens += sys::tokens(q.strings);
      {
        span_guard g(t, "cache.key", id, origin::probe);
        (void)sys::cache_key_bytes(q, options);
      }
      sys::access_plan plan;
      {
        span_guard g(t, "planner.plan", id, origin::probe);
        plan = sys::plan(ctx, image, q, options);
      }
      sys::generated gen;
      {
        span_guard g(t, "access_path.generate", id, origin::probe);
        gen = sys::generate(ctx, plan.path, image, q, plan.pad);
      }
      p.plans += 1;
      p.estimated += plan.estimated_candidates;
      p.actual += gen.ids.size();
      p.paths[static_cast<std::size_t>(plan.path)] += 1;

      std::size_t most = 0, total = 0;
      for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
        const std::size_t n =
            sys::generate(sys::shard_planner(*sharded, s),
                          sys::access_path_kind::inverted_index, image, q, 0)
                .ids.size();
        most = std::max(most, n);
        total += n;
      }
      if (total > 0) {
        p.skew_sum += double(most) * double(sharded->shard_count()) /
                      double(total);
        p.skew_n += 1;
      }

      sys::search_stats flat_st, shard_st;
      std::vector<sys::query_result> flat_ans, shard_ans;
      {
        span_guard g(t, "scan.search", id, origin::probe);
        flat_ans = sys::search(snap, q, options, &flat_st);
      }
      p.add_scan(flat_st, false);
      {
        span_guard g(t, "shard.search", id, origin::probe);
        shard_ans = sys::search(*sharded, ssnap, q, options, &shard_st);
      }
      sys::net_result remote;
      {
        span_guard g(t, "net.search", id, origin::probe);
        remote = sys::remote_search(*cl, q, options);
      }
      if (flat_ans != shard_ans || flat_ans != remote.results) {
        throw std::runtime_error("probe: flat, sharded and remote disagree");
      }
      p.remote_calls += 1;
      p.remote_scored += remote.stats.scored;
      p.local_scored += shard_st.scored;
      p.degraded += remote.stats.degraded ? 1 : 0;
      {
        span_guard g(t, "net.codec", id, origin::probe);
        p.frame_bytes += sys::codec_round_trip(q, options, remote.results, id);
      }
      p.codec_calls += 1;
      for (int pass = 0; pass < 2; ++pass) {  // miss, then hit
        sys::search_stats st;
        span_guard g(t, "cache.miss", id, origin::probe);
        (void)sys::search_cached(snap, *cache, q, options, &st);
        g.rename(cache_outcome(st));
        p.hits += st.cache_hits;
        p.misses += st.cache_misses;
      }
      encoded.push_back(std::move(q));
    }
    sys::stop_cluster(*cl);
  }

  // Writes: durable-append adds, then group-committed deletes of some of
  // them (the log holds their ordinals).
  {
    const auto log = sys::open_ingest_log(work / "probe-ingest.bseg");
    std::vector<sys::image_id> added;
    for (std::size_t j = 0; j < probe_adds; ++j) {
      const std::uint64_t id = probe_base + (1u << 20) + j;
      span_guard root(t, "probe", id, origin::probe);
      sys::image_id g;
      {
        span_guard s(t, "ingest.add", id, origin::probe);
        g = sys::add(*flat, "probe" + std::to_string(j),
                     queries[j % queries.size()]);
      }
      {
        span_guard s(t, "storage.append", id, origin::probe);
        sys::append_durably_unsynced(*log, flat->record(g), flat->symbols());
      }
      added.push_back(g);
    }
    const auto gc = sys::open_group_commit(*log);
    for (std::size_t j = 0; j < probe_removes; ++j) {
      const std::uint64_t id = probe_base + (2u << 20) + j;
      span_guard root(t, "probe", id, origin::probe);
      {
        span_guard s(t, "ingest.remove", id, origin::probe);
        if (!sys::remove(*flat, added[j])) {
          throw std::runtime_error("probe: remove refused");
        }
      }
      span_guard s(t, "storage.tombstone", id, origin::probe);
      gc->remove(j);
    }
    const sys::group_commit_stats gs = gc->stats();
    p.deletes += gs.deletes;
    p.records += gs.records;
    p.syncs += gs.syncs;
  }

  // The cached entries are now one append batch behind: delta refreshes.
  const sys::db_snapshot later = flat->snapshot();
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    sys::search_stats st;
    span_guard g(t, "cache.delta", probe_base + (3u << 20) + i,
                 origin::probe);
    (void)sys::search_cached(later, *cache, encoded[i], options, &st);
    g.rename(cache_outcome(st));
    p.deltas += st.cache_delta_refreshes;
    p.misses += st.cache_misses;
    p.rescored += st.cache_delta_rescored;
  }
  p.evictions += sys::cache_counters(*cache).evictions;
}

std::vector<sys::symbolic_image> first_reads(
    const std::vector<request>& stream,
    const std::vector<sys::symbolic_image>& pool) {
  std::vector<sys::symbolic_image> out;
  for (const request& r : stream) {
    if (out.size() == probe_queries) break;
    if (r.kind == op::read) out.push_back(pool[r.item]);
  }
  return out;
}

// ------------------------------------------------------------- scan_cold
//
// Scoring cost: a flat 16k-scene database loaded from BSEG1, one client
// with 4 scan threads, queries that never repeat. 6/8 top-10 pruned
// search_cached calls, 1/8 the same transform-invariant, 1/8 search_planned
// over the spatial and hybrid indexes. The cache is smaller than the number
// of distinct queries, so it only ever misses and evicts.
class scan_cold final : public workload {
 public:
  const char* name() const override { return "scan_cold"; }

  void generate(const fs::path& dir, std::uint64_t seed, bool smoke) override {
    const std::size_t images = smoke ? 1024 : 16384;
    const std::size_t requests = smoke ? 256 : 4096;
    dir_ = dir;
    path_ = dir / "corpus.bseg";
    auto corpus = make_scenes(seed, images, names_, s_corpus);
    sys::write_segment(path_, corpus, names_);
    queries_ = make_queries(corpus, requests, seed, names_);
    sys::rng mix(sys::derive_seed(seed, s_mix));
    std::vector<op> block = {op::read, op::read,      op::read,   op::read,
                             op::read, op::read,      op::transform,
                             op::planned};
    for (std::size_t i = 0; i < requests; i += block.size()) {
      mix.shuffle(block);
      for (std::size_t j = 0; j < block.size() && i + j < requests; ++j) {
        stream_.push_back({block[j], static_cast<std::uint32_t>(i + j), 0});
      }
    }
    digest_ = digest_stream(stream_, queries_, {});
    bytes_per_image_ = double(tree_bytes(path_)) / double(images);
    about_["corpus"] = "BSEG1 flat, " + std::to_string(images) +
                       " scenes, 4-24 icons, 64 symbols";
    about_["requests_generated"] = std::to_string(requests);
    about_["cache_capacity"] = std::to_string(cache_capacity);
  }

  setup_times setup() override {
    setup_times t;
    const std::int64_t t0 = now_ns();
    db_ = sys::load_segment(path_);
    const std::int64_t t1 = now_ns();
    ix_ = sys::build_indexes(*db_);
    const std::int64_t t2 = now_ns();
    t.load_s = 1e-9 * double(t1 - t0);
    t.index_s = 1e-9 * double(t2 - t1);
    t.total_s = 1e-9 * double(t2 - t0);
    return t;
  }

  void begin_pass() override {
    cache_ = sys::make_cache(cache_capacity);
    snap_ = db_->snapshot();
  }

  void teardown() override {
    cache_.reset();
    ix_ = {};
    db_.reset();
  }

  outcome execute(std::size_t i, unsigned threads, tracer& t,
                  ledgers& l) override {
    const request& r = stream_[i];
    const sys::symbolic_image& image = queries_[r.item];
    outcome o;
    o.kind = r.kind;
    span_guard root(t, "request", i);
    sys::encoded_query q;
    {
      span_guard g(t, "core.encode", i);
      q = sys::encode(image);
    }
    sys::query_options options = top10(threads);
    options.transform_invariant = r.kind == op::transform;
    if (r.kind != op::planned) {
      span_guard g(t, "cache.miss", i);
      o.answer = sys::search_cached(snap_, *cache_, q, options, &o.stats);
      g.rename(cache_outcome(o.stats));
    } else if (!t.enabled()) {
      o.answer = sys::search_planned(sys::planner_for(*db_, ix_), image, q,
                                     options, &o.stats);
    } else {
      // Traced: the same three public calls search_planned makes.
      const sys::planner_context ctx = sys::planner_for(*db_, ix_);
      sys::access_plan plan;
      {
        span_guard g(t, "planner.plan", i);
        plan = sys::plan(ctx, image, q, options);
      }
      sys::generated gen;
      {
        span_guard g(t, "access_path.generate", i);
        gen = sys::generate(ctx, plan.path, image, q, plan.pad);
      }
      {
        span_guard g(t, "scan.search", i);
        o.answer =
            sys::search_candidates(*db_, q, gen.ids, options, &o.stats);
      }
      o.stats.candidates_generated = gen.raw;
      o.stats.plans.push_back({plan.path, plan.pad,
                               plan.estimated_candidates, gen.ids.size()});
    }
    for (const auto& p : o.stats.plans) {
      l.request.plans += 1;
      l.request.estimated += p.estimated_candidates;
      l.request.actual += p.actual_candidates;
      l.request.paths[static_cast<std::size_t>(p.path)] += 1;
    }
    l.request.reads += 1;
    l.request.tokens += sys::tokens(q.strings);
    l.request.add_scan(o.stats, r.kind == op::transform);
    return o;
  }

  bool sampled(std::size_t i) const override {
    return stream_[i].kind == op::planned || i % 8 == 0;
  }

  bool verify(std::size_t i, const outcome& o, tracer& t,
              ledgers& l) override {
    const request& r = stream_[i];
    const sys::encoded_query q = sys::encode(queries_[r.item]);
    sys::query_options options = top10(4);
    options.transform_invariant = r.kind == op::transform;
    if (r.kind == op::planned) {
      // Lossy path: every returned score must be the true score, and the
      // answer must be ranked.
      if (!well_ranked(o.answer, options.top_k)) return false;
      for (const auto& res : o.answer) {
        if (res.id >= db_->size() ||
            sys::rescore(*db_, q, res.id, options) != res.score) {
          return false;
        }
      }
      return true;
    }
    sys::search_stats st;
    std::vector<sys::query_result> ref;
    {
      span_guard g(t, "scan.search", i, origin::probe);
      ref = sys::search(snap_, q, options, &st);
    }
    l.probe.add_scan(st, options.transform_invariant);
    return o.answer == ref;
  }

  void close_pass(ledgers& l) override {
    l.request.evictions += sys::cache_counters(*cache_).evictions;
  }

  void probe(tracer& t, ledgers& l) override {
    std::unique_ptr<sys::image_database> flat;
    {
      span_guard g(t, "storage.load", 1ull << 40, origin::probe);
      flat = sys::load_segment(path_);
    }
    probe_suite(std::move(flat), first_reads(stream_, queries_), dir_, t, l);
  }

 private:
  fs::path dir_, path_;
  sys::alphabet names_;
  std::vector<sys::symbolic_image> queries_;
  std::unique_ptr<sys::image_database> db_;
  sys::flat_indexes ix_;
  std::unique_ptr<sys::result_cache> cache_;
  sys::db_snapshot snap_;
};

// ----------------------------------------------------------- zipf_ingest
//
// Reads and writes sharing one database: a 4-shard 16k-scene corpus loaded
// from SCRP1, one client, 4 scan threads. Reads are zipf(s=1.1) over a
// 1024-query pool through the pinned sharded search_cached, with the same
// cache capacity as scan_cold, so the hot head fits and the tail does not.
// 1 request in 32 is an add (sharded add, BSEG1 append, flush without
// fsync); 1 in 256 is a remove (in-memory remove plus a tombstone through
// the group commit, fsync on, default window).
class zipf_ingest final : public workload {
 public:
  const char* name() const override { return "zipf_ingest"; }

  std::string flush_policy() const override {
    return "adds: BSEG1 append + flush, no fsync; deletes: group commit, "
           "fsync on, window " +
           std::to_string(sys::group_commit_window_ms()) + " ms";
  }

  void generate(const fs::path& dir, std::uint64_t seed, bool smoke) override {
    const std::size_t images = smoke ? 1024 : 16384;
    const std::size_t pool = smoke ? 128 : 1024;
    const std::size_t requests = smoke ? 2048 : 65536;
    dir_ = dir;
    corpus_ = dir / "corpus.scrp";
    auto corpus = make_scenes(seed, images, names_, s_corpus);
    sys::write_sharded(corpus_, corpus, names_, shard_count);
    queries_ = make_queries(corpus, pool, seed, names_);
    adds_ = make_scenes(seed, requests / 32 + 1, names_, s_adds);
    images_ = images;

    std::vector<sys::image_id> victims(images);
    for (std::size_t i = 0; i < images; ++i) {
      victims[i] = static_cast<sys::image_id>(i);
    }
    sys::rng pick(sys::derive_seed(seed, s_removes));
    pick.shuffle(victims);
    sys::zipf_sampler zipf(pool, 1.1, sys::derive_seed(seed, s_zipf));
    std::uint32_t added = 0, removed = 0;
    for (std::size_t i = 0; i < requests; ++i) {
      if (i % 256 == 128) {
        stream_.push_back({op::remove, 0, victims[removed++]});
      } else if (i % 32 == 16) {
        stream_.push_back({op::add, added++, 0});
      } else {
        stream_.push_back(
            {op::read, static_cast<std::uint32_t>(zipf.next()), 0});
      }
    }
    adds_.resize(added);
    digest_ = digest_stream(stream_, queries_, adds_);
    bytes_per_image_ = double(tree_bytes(corpus_)) / double(images);
    about_["corpus"] = "SCRP1 4 shards, " + std::to_string(images) +
                       " scenes, 4-24 icons, 64 symbols";
    about_["query_pool"] = std::to_string(pool) + ", zipf s=1.1";
    about_["requests_generated"] = std::to_string(requests);
    about_["cache_capacity"] = std::to_string(cache_capacity);
  }

  setup_times setup() override {
    setup_times t;
    const std::int64_t t0 = now_ns();
    db_ = sys::load_sharded(corpus_);
    t.total_s = t.load_s = 1e-9 * double(now_ns() - t0);
    return t;
  }

  void begin_pass() override {
    // Deletes tombstone the corpus records in a private copy of each shard
    // segment, so every pass starts from the pristine corpus.
    const fs::path work = dir_ / "work";
    fs::remove_all(work);
    fs::create_directories(work);
    commits_.clear();
    writers_.clear();
    for (std::size_t s = 0; s < shard_count; ++s) {
      const fs::path copy = work / ("shard" + std::to_string(s) + ".bseg");
      fs::copy_file(sys::segment_file(corpus_, s), copy);
      writers_.push_back(sys::reopen_segment(copy));
      commits_.push_back(sys::open_group_commit(*writers_.back()));
    }
    log_ = sys::open_ingest_log(work / "ingest.bseg");
    cache_ = sys::make_cache(cache_capacity);
    pins_.assign(stream_.size(), {});
  }

  void teardown() override {
    commits_.clear();
    writers_.clear();
    log_.reset();
    cache_.reset();
    pins_.clear();
    db_.reset();
  }

  outcome execute(std::size_t i, unsigned threads, tracer& t,
                  ledgers& l) override {
    const request& r = stream_[i];
    outcome o;
    o.kind = r.kind;
    span_guard root(t, "request", i);
    if (r.kind == op::add) {
      sys::image_id g;
      {
        span_guard s(t, "ingest.add", i);
        g = sys::add(*db_, "add" + std::to_string(r.item), adds_[r.item]);
      }
      span_guard s(t, "storage.append", i);
      sys::append_durably_unsynced(*log_, db_->record(g), db_->symbols());
      o.failed = g != images_ + r.item;
      return o;
    }
    if (r.kind == op::remove) {
      const std::size_t shard = db_->shard_of(r.target);
      const sys::image_id local = db_->record(r.target).id;
      {
        span_guard s(t, "ingest.remove", i);
        o.failed = !sys::remove(*db_, r.target);
      }
      span_guard s(t, "storage.tombstone", i);
      commits_[shard]->remove(local);
      return o;
    }
    sys::encoded_query q;
    {
      span_guard g(t, "core.encode", i);
      q = sys::encode(queries_[r.item]);
    }
    const sys::sharded_snapshot snap = db_->snapshot();
    {
      span_guard g(t, "cache.miss", i);
      o.answer =
          sys::search_cached(*db_, snap, *cache_, q, top10(threads), &o.stats);
      g.rename(cache_outcome(o.stats));
    }
    if (sampled(i)) pins_[i] = snap;
    l.request.reads += 1;
    l.request.tokens += sys::tokens(q.strings);
    l.request.add_scan(o.stats, false);
    return o;
  }

  bool sampled(std::size_t i) const override {
    return stream_[i].kind == op::read && i % 16 == 0;
  }

  bool verify(std::size_t i, const outcome& o, tracer& t,
              ledgers& l) override {
    const sys::encoded_query q = sys::encode(queries_[stream_[i].item]);
    sys::search_stats st;
    std::vector<sys::query_result> ref;
    {
      span_guard g(t, "scan.search", i, origin::probe);
      ref = sys::search(*db_, pins_[i], q, top10(4), &st);
    }
    l.probe.add_scan(st, false);
    return o.answer == ref;
  }

  void close_pass(ledgers& l) override {
    for (const auto& gc : commits_) {
      gc->flush();
      const sys::group_commit_stats gs = gc->stats();
      l.request.deletes += gs.deletes;
      l.request.records += gs.records;
      l.request.syncs += gs.syncs;
    }
    l.request.evictions += sys::cache_counters(*cache_).evictions;
  }

  void probe(tracer& t, ledgers& l) override {
    std::unique_ptr<sys::image_database> flat;
    {
      span_guard g(t, "storage.load", 1ull << 40, origin::probe);
      flat = sys::load_sharded_flat(corpus_);
    }
    probe_suite(std::move(flat), first_reads(stream_, queries_), dir_, t, l);
  }

 private:
  fs::path dir_, corpus_;
  sys::alphabet names_;
  std::size_t images_ = 0;
  std::vector<sys::symbolic_image> queries_, adds_;
  std::unique_ptr<sys::sharded_database> db_;
  std::vector<std::unique_ptr<sys::segment_writer>> writers_;
  std::vector<std::unique_ptr<sys::tombstone_group_commit>> commits_;
  std::unique_ptr<sys::segment_writer> log_;
  std::unique_ptr<sys::result_cache> cache_;
  std::vector<sys::sharded_snapshot> pins_;
};

// ------------------------------------------------------------ net_fanout
//
// Framing, sockets and scatter/gather: a 4-shard 8k-scene SCRP1 corpus
// served by a loopback cluster (one scan thread per server, coordinator
// cache off, gossip on). Two clients share the coordinator and send
// uniform, never-repeated top-10 pruned queries. The only workload that
// touches net/.
class net_fanout final : public workload {
 public:
  const char* name() const override { return "net_fanout"; }
  unsigned clients() const override { return 2; }

  void generate(const fs::path& dir, std::uint64_t seed, bool smoke) override {
    const std::size_t images = smoke ? 512 : 8192;
    const std::size_t requests = smoke ? 1024 : 16384;
    dir_ = dir;
    corpus_ = dir / "corpus.scrp";
    auto corpus = make_scenes(seed, images, names_, s_corpus);
    sys::write_sharded(corpus_, corpus, names_, shard_count);
    queries_ = make_queries(corpus, requests, seed, names_);
    for (std::size_t i = 0; i < requests; ++i) {
      stream_.push_back({op::read, static_cast<std::uint32_t>(i), 0});
    }
    digest_ = digest_stream(stream_, queries_, {});
    bytes_per_image_ = double(tree_bytes(corpus_)) / double(images);
    about_["corpus"] = "SCRP1 4 shards, " + std::to_string(images) +
                       " scenes, 4-24 icons, 64 symbols";
    about_["requests_generated"] = std::to_string(requests);
    about_["cluster"] =
        "loopback, 4 servers x 1 scan thread, coordinator cache off, gossip on";
  }

  setup_times setup() override {
    setup_times t;
    const std::int64_t t0 = now_ns();
    db_ = sys::load_sharded(corpus_);
    const std::int64_t t1 = now_ns();
    cluster_ = sys::start_cluster(*db_);
    sys::fetch_symbols(*cluster_);
    const std::int64_t t2 = now_ns();
    t.load_s = 1e-9 * double(t1 - t0);
    t.total_s = 1e-9 * double(t2 - t0);
    return t;
  }

  void begin_pass() override { snap_ = db_->snapshot(); }

  void teardown() override {
    if (cluster_) sys::stop_cluster(*cluster_);
    cluster_.reset();
    db_.reset();
  }

  outcome execute(std::size_t i, unsigned threads, tracer& t,
                  ledgers& l) override {
    (void)threads;  // the servers scan with one thread each
    const request& r = stream_[i];
    outcome o;
    span_guard root(t, "request", i);
    sys::encoded_query q;
    {
      span_guard g(t, "core.encode", i);
      q = sys::encode(queries_[r.item]);
    }
    sys::net_result remote;
    {
      span_guard g(t, "net.search", i);
      remote = sys::remote_search(*cluster_, q, top10(1));
    }
    o.answer = std::move(remote.results);
    o.stats = remote.stats;
    o.failed = remote.stats.degraded;
    l.request.reads += 1;
    l.request.tokens += sys::tokens(q.strings);
    l.request.add_scan(o.stats, false);
    l.request.remote_calls += 1;
    l.request.degraded += o.stats.degraded ? 1 : 0;
    return o;
  }

  bool sampled(std::size_t i) const override { return i % 8 == 0; }

  bool verify(std::size_t i, const outcome& o, tracer& t,
              ledgers& l) override {
    const sys::encoded_query q = sys::encode(queries_[stream_[i].item]);
    sys::search_stats st;
    std::vector<sys::query_result> ref;
    {
      span_guard g(t, "scan.search", i, origin::probe);
      // Four scan threads: the shards scan in parallel, as on the servers.
      ref = sys::search(*db_, snap_, q, top10(4), &st);
    }
    l.probe.add_scan(st, false);
    l.request.remote_scored += o.stats.scored;
    l.request.local_scored += st.scored;
    {
      span_guard g(t, "net.codec", i, origin::probe);
      l.request.frame_bytes +=
          sys::codec_round_trip(q, top10(1), o.answer, i);
    }
    l.request.codec_calls += 1;
    return o.answer == ref;
  }

  void probe(tracer& t, ledgers& l) override {
    std::unique_ptr<sys::image_database> flat;
    {
      span_guard g(t, "storage.load", 1ull << 40, origin::probe);
      flat = sys::load_sharded_flat(corpus_);
    }
    probe_suite(std::move(flat), first_reads(stream_, queries_), dir_, t, l);
  }

 private:
  fs::path dir_, corpus_;
  sys::alphabet names_;
  std::vector<sys::symbolic_image> queries_;
  std::unique_ptr<sys::sharded_database> db_;
  std::unique_ptr<sys::cluster> cluster_;
  sys::sharded_snapshot snap_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"scan_cold", "zipf_ingest",
                                                 "net_fanout"};
  return names;
}

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "scan_cold") return std::make_unique<scan_cold>();
  if (name == "zipf_ingest") return std::make_unique<zipf_ingest>();
  if (name == "net_fanout") return std::make_unique<net_fanout>();
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace pb
