#include "net/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "db/scan.hpp"
#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/parallel.hpp"

namespace bes::net {

namespace {

// Admission control: at most `slots` queries in flight at once; the rest
// wait here instead of piling frames onto the links.
class admission_gate {
 public:
  explicit admission_gate(unsigned slots) : free_(slots == 0 ? 1 : slots) {}

  void acquire() {
    std::unique_lock lock(m_);
    cv_.wait(lock, [this] { return free_ > 0; });
    --free_;
  }
  void release() {
    {
      std::lock_guard lock(m_);
      ++free_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  unsigned free_;
};

struct gate_slot {
  admission_gate& gate;
  explicit gate_slot(admission_gate& g) : gate(g) { gate.acquire(); }
  ~gate_slot() { gate.release(); }
};

shard_scan_state to_scan_state(query_status status) noexcept {
  switch (status) {
    case query_status::ok: return shard_scan_state::ok;
    case query_status::expired: return shard_scan_state::expired;
    case query_status::failed: return shard_scan_state::failed;
    case query_status::rejected: return shard_scan_state::rejected;
  }
  return shard_scan_state::failed;
}

unsigned remaining_ms(net_time deadline) noexcept {
  if (deadline == no_deadline()) return 0;  // wire 0 = no server-side budget
  const auto now = net_clock::now();
  if (deadline <= now) return 1;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return static_cast<unsigned>(std::min<long long>(ms, 0xFFFFFFFFll));
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal state

// One query's gather. `outstanding` starts at the shard count and each shard
// resolves EXACTLY once — by result, link death, unreachability, or the
// coordinator's own deadline sweep — so `outstanding == 0` means every
// partition is accounted for, never merely "none scattered yet".
//
// Lock ordering (strict): gather::m may be held while taking a link's write
// mutex (the gossip path). NOTHING holding a link's state mutex ever waits
// on a gather — readers erase the pending entry under the link state mutex,
// RELEASE it, and only then touch the gather.
struct gather_state {
  gather_state(const query_options& opts, std::size_t shards,
               double floor_seed)
      : options(opts),
        outstanding(shards),
        floor(std::max(opts.min_score, floor_seed)),
        resolved(shards, false) {
    statuses.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      statuses.push_back({static_cast<std::uint32_t>(s), shard_scan_state::ok});
    }
  }

  std::mutex m;
  std::condition_variable cv;
  query_options options;
  std::uint64_t query_id = 0;
  std::size_t outstanding;
  // Running merged top-k: sorted by detail::result_better, truncated to
  // top_k. Per-shard answers are each ranked top-k lists, so maintaining
  // the sorted-truncated union IS the exact global answer at every moment.
  std::vector<query_result> merged;
  double floor;  // admissible global pruning floor; only ever rises
  // Union collection for the coordinator cache: when `collect` is set,
  // every per-shard result lands in `all` BEFORE the running merge
  // truncates — the union is what a cached entry stores, since the global
  // top-k of ANY smaller k is a subset of it.
  bool collect = false;
  std::vector<query_result> all;
  std::vector<shard_scan_status> statuses;
  std::vector<bool> resolved;
  search_stats agg;
  bool degraded = false;
};

struct coordinator::impl {
  struct link {
    endpoint ep;
    std::uint32_t shard = 0;
    std::mutex state_m;  // guards connect/reconnect and the pending map
    std::atomic<bool> alive{false};
    tcp_socket sock;
    std::mutex write_m;  // leaf lock: serializes whole frames on sock
    std::thread reader;
    std::unordered_map<std::uint64_t, std::shared_ptr<gather_state>> pending;
  };

  coordinator_options options;
  std::vector<std::unique_ptr<link>> links;
  std::atomic<std::uint64_t> next_query_id{1};
  admission_gate gate;
  std::unique_ptr<result_cache> cache;  // null when cache_entries == 0

  impl(std::vector<endpoint> shards, const coordinator_options& opts)
      : options(opts), gate(opts.max_inflight) {
    links.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      auto l = std::make_unique<link>();
      l->ep = std::move(shards[s]);
      l->shard = static_cast<std::uint32_t>(s);
      links.push_back(std::move(l));
    }
    if (opts.cache_entries > 0) {
      result_cache_options copts;
      copts.capacity = opts.cache_entries;
      cache = std::make_unique<result_cache>(copts);
    }
  }

  ~impl() {
    for (const auto& l : links) {
      std::unique_lock lock(l->state_m);
      l->sock.shutdown_both();
      std::thread reader = std::move(l->reader);
      lock.unlock();
      if (reader.joinable()) reader.join();
    }
  }

  // Connects (or reconnects) a link; returns false when the shard is
  // unreachable. Holds the link's state mutex for the whole handshake so
  // concurrent searches share one connection attempt.
  bool ensure_link(link& l) {
    std::lock_guard lock(l.state_m);
    if (l.alive.load(std::memory_order_relaxed)) return true;
    if (l.reader.joinable()) l.reader.join();  // reap the dead reader
    try {
      tcp_socket sock =
          tcp_socket::connect(l.ep.host, l.ep.port, options.connect_timeout_ms);
      write_frame(sock, encode(hello_msg{}));
      std::optional<frame> reply =
          read_frame(sock, deadline_in(options.connect_timeout_ms));
      if (!reply) throw net_error("net: server closed during handshake");
      const hello_ok_msg ok = decode_hello_ok(*reply);
      if (ok.version != protocol_version) {
        throw net_error("net: protocol version mismatch");
      }
      {
        // write_m too: a stale sender from a previous incarnation must not
        // be mid-send while the socket is swapped under it.
        std::lock_guard wlock(l.write_m);
        l.sock = std::move(sock);
      }
      l.alive.store(true, std::memory_order_relaxed);
      l.reader = std::thread([this, &l] { reader_loop(l); });
      return true;
    } catch (const net_error&) {
      return false;
    }
  }

  void reader_loop(link& l) {
    try {
      while (true) {
        std::optional<frame> f = read_frame(l.sock, no_deadline());
        if (!f) break;
        if (f->type == frame_type::pong) continue;
        if (f->type == frame_type::result) {
          result_msg msg = decode_result(*f);
          if (auto g = take_pending(l, msg.query_id)) {
            on_result(*g, l.shard, std::move(msg));
          }
          continue;
        }
        if (f->type == frame_type::error) {
          const error_msg msg = decode_error(*f);
          if (msg.query_id == 0) break;  // connection-scoped: link poisoned
          if (auto g = take_pending(l, msg.query_id)) {
            resolve_shard(*g, l.shard, shard_scan_state::failed);
          }
          continue;
        }
        break;  // anything else is a protocol violation; drop the link
      }
    } catch (const net_error&) {
      // Includes frame_error: a corrupt or byzantine stream ends the link;
      // the sweep below resolves its pending queries as failed rather than
      // letting them hang until their deadlines.
    }
    fail_link(l);
  }

  // Marks the link dead and fails every query still waiting on it.
  void fail_link(link& l) {
    std::unordered_map<std::uint64_t, std::shared_ptr<gather_state>> orphans;
    {
      std::lock_guard lock(l.state_m);
      l.alive.store(false, std::memory_order_relaxed);
      l.sock.shutdown_both();
      orphans.swap(l.pending);
    }
    for (const auto& [id, g] : orphans) {
      resolve_shard(*g, l.shard, shard_scan_state::failed);
    }
  }

  // Removes and returns the gather waiting on (link, query_id); nullptr if
  // none (already answered, cancelled, or timed out — late frames drop).
  [[nodiscard]] std::shared_ptr<gather_state> take_pending(
      link& l, std::uint64_t query_id) {
    std::lock_guard lock(l.state_m);
    const auto it = l.pending.find(query_id);
    if (it == l.pending.end()) return nullptr;
    std::shared_ptr<gather_state> g = std::move(it->second);
    l.pending.erase(it);
    return g;
  }

  // Best-effort frame send; a dead link is the reader's problem.
  void try_send(link& l, const frame& f) noexcept {
    try {
      std::lock_guard lock(l.write_m);
      write_frame(l.sock, f);
    } catch (const net_error&) {
    }
  }

  void resolve_shard(gather_state& g, std::uint32_t shard,
                     shard_scan_state state) {
    {
      std::lock_guard lock(g.m);
      resolve_locked(g, shard, state);
    }
    g.cv.notify_all();
  }

  // Caller holds g.m. Idempotent per shard.
  void resolve_locked(gather_state& g, std::uint32_t shard,
                      shard_scan_state state) {
    if (g.resolved[shard]) return;
    g.resolved[shard] = true;
    g.statuses[shard].state = state;
    if (state != shard_scan_state::ok) g.degraded = true;
    --g.outstanding;
  }

  void on_result(gather_state& g, std::uint32_t shard, result_msg&& msg) {
    {
      std::lock_guard lock(g.m);
      if (g.resolved[shard]) return;  // deadline sweep got there first
      resolve_locked(g, shard, to_scan_state(msg.status));
      g.agg.scanned += msg.stats.scanned;
      g.agg.scored += msg.stats.scored;
      g.agg.pruned += msg.stats.pruned;
      g.agg.band_rejected += msg.stats.band_rejected;
      g.agg.candidates_generated += msg.stats.candidates_generated;
      // ok and expired both contribute results (expired's are partial —
      // the degraded flag already says so); failed/rejected carry none.
      if (!msg.results.empty()) {
        if (g.collect) {
          g.all.insert(g.all.end(), msg.results.begin(), msg.results.end());
        }
        g.merged.insert(g.merged.end(), msg.results.begin(),
                        msg.results.end());
        std::sort(g.merged.begin(), g.merged.end(), detail::result_better);
        if (g.options.top_k > 0 && g.merged.size() > g.options.top_k) {
          g.merged.resize(g.options.top_k);
        }
      }
      // With k results gathered, their k-th score floors every candidate
      // not yet seen ANYWHERE (it would need to beat k known rivals), so
      // it is admissible for every shard still scanning — gossip it.
      if (g.options.top_k > 0 && g.merged.size() == g.options.top_k &&
          g.merged.back().score > g.floor) {
        g.floor = g.merged.back().score;
        if (options.gossip && !options.sequential_scatter) {
          const frame f = encode(threshold_msg{g.query_id, g.floor});
          for (const auto& l : links) {
            // A shard the query frame has not reached yet just ignores the
            // unknown id — and will see the floor inside its query anyway.
            if (!g.resolved[l->shard] &&
                l->alive.load(std::memory_order_relaxed)) {
              try_send(*l, f);
            }
          }
        }
      }
    }
    g.cv.notify_all();
  }

  remote_result run_search(const be_string2d& query,
                           std::span<const symbol_id> query_symbols,
                           const query_options& qopts, double floor_seed,
                           std::vector<query_result>* union_out) {
    if (links.empty()) {
      throw std::invalid_argument("coordinator: no shard endpoints");
    }
    gate_slot slot(gate);
    auto g = std::make_shared<gather_state>(qopts, links.size(), floor_seed);
    g->collect = union_out != nullptr;
    g->query_id = next_query_id.fetch_add(1, std::memory_order_relaxed);
    const net_time deadline = deadline_in(options.default_deadline_ms);

    if (options.sequential_scatter) {
      run_sequential(g, query, query_symbols, qopts, deadline);
    } else {
      run_scattered(g, query, query_symbols, qopts, deadline);
    }

    remote_result out;
    std::lock_guard lock(g->m);
    out.results = std::move(g->merged);
    out.stats = std::move(g->agg);
    out.stats.degraded = g->degraded;
    out.stats.shard_statuses = std::move(g->statuses);
    if (union_out != nullptr) *union_out = std::move(g->all);
    return out;
  }

  // The cached front door search()/search_batch() go through. A full hit
  // serves from the stored union without touching a socket; a partial hit
  // (request deeper than the stored gather) re-scatters with the gossip
  // floor pre-seeded from the cached k-th score — admissible, because k
  // genuine record scores sit at or above it — and counts as a delta
  // refresh. Only non-degraded gathers are stored.
  remote_result run_cached(const be_string2d& query,
                           std::span<const symbol_id> query_symbols,
                           const query_options& qopts) {
    if (cache == nullptr) {
      return run_search(query, query_symbols, qopts, qopts.min_score, nullptr);
    }
    const cache_key key = make_cache_key(
        query, query_symbols, qopts, cache_scope::remote,
        static_cast<std::uint32_t>(links.size()), /*ring_replicas=*/0,
        /*key_top_k=*/false);
    double floor_seed = qopts.min_score;
    bool partial = false;
    if (std::optional<cache_entry> entry = cache->find(key)) {
      std::vector<query_result> stored = std::move(entry->results);
      from_canonical_frame(stored, key.canon);
      const bool serveable =
          entry->gathered_k == 0 ||
          (qopts.top_k != 0 && qopts.top_k <= entry->gathered_k);
      if (serveable) {
        cache->note_hit();
        remote_result out;
        out.results = detail::rank_results(std::move(stored), qopts);
        out.stats.cache_hits = 1;
        return out;
      }
      partial = true;
      if (options.gossip && qopts.top_k != 0 &&
          stored.size() >= qopts.top_k) {
        std::sort(stored.begin(), stored.end(), detail::result_better);
        floor_seed = std::max(floor_seed, stored[qopts.top_k - 1].score);
      }
    }

    std::vector<query_result> gathered;
    remote_result out =
        run_search(query, query_symbols, qopts, floor_seed, &gathered);
    if (partial) {
      cache->note_delta_refresh(out.stats.scored);
      out.stats.cache_delta_refreshes = 1;
      out.stats.cache_delta_rescored = out.stats.scored;
    } else {
      cache->note_miss();
      out.stats.cache_misses = 1;
    }
    if (!out.stats.degraded) {
      cache_entry fresh;
      fresh.results = std::move(gathered);
      to_canonical_frame(fresh.results, key.canon);
      fresh.gathered_k = qopts.top_k;
      fresh.complete = qopts.top_k == 0;
      cache->put(key, std::move(fresh));
    }
    return out;
  }

  [[nodiscard]] query_msg base_query(const gather_state& g,
                                     const be_string2d& query,
                                     std::span<const symbol_id> query_symbols,
                                     const query_options& qopts) const {
    query_msg qm;
    qm.query_id = g.query_id;
    qm.options = qopts;
    qm.query = query;
    qm.query_symbols.assign(query_symbols.begin(), query_symbols.end());
    qm.floor = qopts.min_score;
    return qm;
  }

  void run_scattered(const std::shared_ptr<gather_state>& g,
                     const be_string2d& query,
                     std::span<const symbol_id> query_symbols,
                     const query_options& qopts, net_time deadline) {
    query_msg qm = base_query(*g, query, query_symbols, qopts);
    qm.deadline_ms = remaining_ms(deadline);

    // Scatter. Shards that cannot even be reached resolve as failed
    // immediately; the rest owe us a result frame.
    for (const auto& l : links) {
      if (!ensure_link(*l)) {
        resolve_shard(*g, l->shard, shard_scan_state::failed);
        continue;
      }
      {
        std::lock_guard lock(l->state_m);
        if (!l->alive.load(std::memory_order_relaxed)) {
          resolve_shard(*g, l->shard, shard_scan_state::failed);
          continue;
        }
        l->pending.emplace(g->query_id, g);
      }
      if (options.gossip) {
        // A shard scattered late starts with whatever floor the early
        // answers already established.
        std::lock_guard lock(g->m);
        qm.floor = g->floor;
      }
      bool sent = true;
      try {
        std::lock_guard lock(l->write_m);
        write_frame(l->sock, encode(qm));
      } catch (const net_error&) {
        sent = false;
      }
      if (!sent && take_pending(*l, g->query_id)) {
        resolve_shard(*g, l->shard, shard_scan_state::failed);
      }
    }

    // Gather until every shard is accounted for or the deadline passes.
    std::unique_lock lock(g->m);
    const auto all_in = [&] { return g->outstanding == 0; };
    if (deadline == no_deadline()) {
      g->cv.wait(lock, all_in);
      return;
    }
    if (g->cv.wait_until(lock, deadline, all_in)) return;

    // Deadline: cancel stragglers (best effort) and strike them from the
    // pending maps so a late answer is dropped, not merged. The gather
    // lock is released first — link mutexes are never taken under it
    // except on the leaf write path.
    lock.unlock();
    const frame cancel = encode(cancel_msg{g->query_id});
    for (const auto& l : links) {
      if (take_pending(*l, g->query_id)) {
        try_send(*l, cancel);
      }
    }
    lock.lock();
    for (const auto& l : links) {
      resolve_locked(*g, l->shard, shard_scan_state::timed_out);
    }
  }

  // Shard-by-shard scatter: each QUERY frame carries the floor the previous
  // shards' answers established, so pruning is deterministic run to run —
  // the mode the gossip-effectiveness test pins down. No THRESHOLD frames:
  // by the time a shard scans, its floor already rode in on the query.
  void run_sequential(const std::shared_ptr<gather_state>& g,
                      const be_string2d& query,
                      std::span<const symbol_id> query_symbols,
                      const query_options& qopts, net_time deadline) {
    query_msg qm = base_query(*g, query, query_symbols, qopts);

    for (const auto& l : links) {
      if (deadline != no_deadline() && net_clock::now() >= deadline) {
        resolve_shard(*g, l->shard, shard_scan_state::timed_out);
        continue;
      }
      if (!ensure_link(*l)) {
        resolve_shard(*g, l->shard, shard_scan_state::failed);
        continue;
      }
      {
        std::lock_guard lock(l->state_m);
        if (!l->alive.load(std::memory_order_relaxed)) {
          resolve_shard(*g, l->shard, shard_scan_state::failed);
          continue;
        }
        l->pending.emplace(g->query_id, g);
      }
      if (options.gossip) {
        std::lock_guard lock(g->m);
        qm.floor = g->floor;
      }
      qm.deadline_ms = remaining_ms(deadline);
      bool sent = true;
      try {
        std::lock_guard lock(l->write_m);
        write_frame(l->sock, encode(qm));
      } catch (const net_error&) {
        sent = false;
      }
      if (!sent) {
        if (take_pending(*l, g->query_id)) {
          resolve_shard(*g, l->shard, shard_scan_state::failed);
        }
        continue;
      }
      std::unique_lock lock(g->m);
      const auto answered = [&] { return g->resolved[l->shard]; };
      bool got;
      if (deadline == no_deadline()) {
        g->cv.wait(lock, answered);
        got = true;
      } else {
        got = g->cv.wait_until(lock, deadline, answered);
      }
      if (!got) {
        lock.unlock();
        if (take_pending(*l, g->query_id)) {
          try_send(*l, encode(cancel_msg{g->query_id}));
        }
        lock.lock();
        resolve_locked(*g, l->shard, shard_scan_state::timed_out);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Public surface

coordinator::coordinator(std::vector<endpoint> shards,
                         const coordinator_options& options)
    : impl_(std::make_unique<impl>(std::move(shards), options)) {}

coordinator::~coordinator() = default;

std::size_t coordinator::shard_count() const noexcept {
  return impl_->links.size();
}

remote_result coordinator::search(const be_string2d& query,
                                  std::span<const symbol_id> query_symbols,
                                  const query_options& options) {
  return impl_->run_cached(query, query_symbols, options);
}

std::vector<remote_result> coordinator::search_batch(
    std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options) {
  if (queries.size() != query_symbols.size()) {
    throw std::invalid_argument("coordinator: spans of unequal length");
  }
  std::vector<remote_result> results(queries.size());
  // One query per claim: each is a whole scatter/gather, so a slow one
  // must not strand a tail behind it. The lowest-index error wins.
  parallel_for(
      queries.size(), impl_->options.max_inflight,
      [&](std::size_t i) {
        results[i] = impl_->run_cached(queries[i], query_symbols[i], options);
      },
      /*chunk=*/1);
  return results;
}

std::vector<std::string> coordinator::fetch_symbols() {
  std::vector<std::string> best;
  bool reached = false;
  for (const auto& l : impl_->links) {
    try {
      tcp_socket sock = tcp_socket::connect(
          l->ep.host, l->ep.port, impl_->options.connect_timeout_ms);
      const net_time deadline = deadline_in(impl_->options.connect_timeout_ms);
      write_frame(sock, encode(hello_msg{}));
      std::optional<frame> reply = read_frame(sock, deadline);
      if (!reply) continue;
      (void)decode_hello_ok(*reply);
      write_frame(sock, frame{frame_type::symbols_req, {}});
      std::optional<frame> symbols = read_frame(sock, deadline);
      if (!symbols) continue;
      symbols_msg msg = decode_symbols(*symbols);
      reached = true;
      // Shard alphabets are prefixes of the master; the longest IS the
      // master (the same invariant shard_storage's open path relies on).
      if (msg.names.size() > best.size()) best = std::move(msg.names);
    } catch (const net_error&) {
    }
  }
  if (!reached) throw net_error("net: no shard server reachable");
  return best;
}

result_cache_stats coordinator::cache_stats() const noexcept {
  if (impl_->cache == nullptr) return {};
  return impl_->cache->stats();
}

void coordinator::invalidate_cache() noexcept {
  if (impl_->cache != nullptr) impl_->cache->clear();
}

void coordinator::shutdown_servers() {
  for (const auto& l : impl_->links) {
    try {
      tcp_socket sock = tcp_socket::connect(
          l->ep.host, l->ep.port, impl_->options.connect_timeout_ms);
      write_frame(sock, encode(hello_msg{}));
      std::optional<frame> reply =
          read_frame(sock, deadline_in(impl_->options.connect_timeout_ms));
      if (!reply) continue;
      (void)decode_hello_ok(*reply);
      write_frame(sock, frame{frame_type::shutdown, {}});
    } catch (const net_error&) {
    }
  }
}

}  // namespace bes::net
