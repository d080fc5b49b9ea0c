#include "net/server.hpp"

#include <chrono>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>

#include "db/scan.hpp"

namespace bes::net {

namespace {

// CAS-max on an atomic double: the floor only ever rises.
void raise_atomic(std::atomic<double>& target, double f) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (f > current && !target.compare_exchange_weak(
                            current, f, std::memory_order_relaxed)) {
  }
}

}  // namespace

// One query sitting in (or past) the admission queue. The reader thread
// updates floor/poisoned from THRESHOLD/CANCEL frames while the executor
// scans; both sides touch only atomics.
struct shard_server::pending_query {
  query_msg msg;
  net_time deadline = no_deadline();
  std::atomic<double> floor{0.0};
  std::atomic<bool> poisoned{false};
};

struct shard_server::connection {
  tcp_socket sock;
  // Serializes whole frames: the reader replies to ping/symbols/rejects
  // while the executor streams results on the same socket.
  std::mutex write_mutex;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<pending_query>> queue;  // admission FIFO
  std::unordered_map<std::uint64_t, std::shared_ptr<pending_query>> pending;
  bool closing = false;

  std::thread reader;    // owns the connection lifecycle; joins executor
  std::thread executor;
};

shard_server::shard_server(const image_database& db,
                           std::vector<image_id> global_ids,
                           std::uint32_t shard_index,
                           const server_options& options)
    : db_(db),
      global_ids_(std::move(global_ids)),
      shard_(shard_index),
      options_(options),
      listener_(options.port) {
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

shard_server::~shard_server() { stop(); }

void shard_server::request_stop() noexcept {
  {
    std::lock_guard lock(stop_mutex_);
    if (stop_.exchange(true)) return;
  }
  stop_cv_.notify_all();
  listener_.close();
  std::lock_guard lock(conns_mutex_);
  for (const auto& conn : conns_) {
    conn->sock.shutdown_both();  // unblocks the reader's read_frame
    {
      std::lock_guard qlock(conn->queue_mutex);
      conn->closing = true;
      // Poison queued + in-flight queries so the executor drains fast.
      for (auto& [id, q] : conn->pending) q->poisoned.store(true);
    }
    conn->queue_cv.notify_all();
  }
}

void shard_server::stop() {
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<connection>> conns;
  {
    std::lock_guard lock(conns_mutex_);
    conns.swap(conns_);
  }
  // The reader joins its executor before exiting, so joining readers here
  // tears the whole connection down.
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void shard_server::wait_stop() {
  std::unique_lock lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_.load(); });
}

void shard_server::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    tcp_socket sock = listener_.accept(200);
    if (!sock.valid()) continue;  // timeout or listener closed
    auto conn = std::make_shared<connection>();
    conn->sock = std::move(sock);
    {
      std::lock_guard lock(conns_mutex_);
      if (stop_.load()) return;  // raced with request_stop: drop it
      conns_.push_back(conn);
    }
    conn->executor = std::thread([this, conn] { executor_loop(conn); });
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void shard_server::reader_loop(const std::shared_ptr<connection>& conn) {
  auto send = [&](const frame& f) {
    std::lock_guard lock(conn->write_mutex);
    try {
      write_frame(conn->sock, f);
    } catch (const net_error&) {
      // Peer gone; the next read notices and ends the connection.
    }
  };

  try {
    // The handshake authenticates intent, not identity: a stray client
    // speaking another protocol fails the magic check before anything else
    // is interpreted.
    std::optional<frame> first =
        read_frame(conn->sock, deadline_in(10000), options_.max_payload);
    if (!first || first->type != frame_type::hello) {
      throw frame_error("protocol: expected hello");
    }
    const hello_msg hello = decode_hello(*first);
    if (hello.version != protocol_version) {
      throw frame_error("protocol: version mismatch");
    }
    send(encode(hello_ok_msg{protocol_version, shard_,
                             static_cast<std::uint64_t>(db_.size()),
                             static_cast<std::uint64_t>(db_.symbols().size())}));

    while (!stop_.load(std::memory_order_relaxed)) {
      std::optional<frame> f =
          read_frame(conn->sock, no_deadline(), options_.max_payload);
      if (!f) break;  // clean EOF
      switch (f->type) {
        case frame_type::query: {
          auto q = std::make_shared<pending_query>();
          q->msg = decode_query(*f);
          q->deadline = deadline_in(q->msg.deadline_ms);
          q->floor.store(q->msg.floor, std::memory_order_relaxed);
          bool admitted = false;
          {
            std::lock_guard lock(conn->queue_mutex);
            if (!conn->closing && conn->queue.size() < options_.max_queue) {
              conn->queue.push_back(q);
              conn->pending.emplace(q->msg.query_id, q);
              admitted = true;
            }
          }
          if (admitted) {
            conn->queue_cv.notify_one();
          } else {
            result_msg rejected;
            rejected.query_id = q->msg.query_id;
            rejected.status = query_status::rejected;
            send(encode(rejected));
          }
          break;
        }
        case frame_type::threshold: {
          const threshold_msg m = decode_threshold(*f);
          std::lock_guard lock(conn->queue_mutex);
          const auto it = conn->pending.find(m.query_id);
          // A threshold for an already-answered query is a benign race.
          if (it != conn->pending.end()) {
            raise_atomic(it->second->floor, m.floor);
          }
          break;
        }
        case frame_type::cancel: {
          const cancel_msg m = decode_cancel(*f);
          std::lock_guard lock(conn->queue_mutex);
          const auto it = conn->pending.find(m.query_id);
          if (it != conn->pending.end()) {
            it->second->poisoned.store(true, std::memory_order_relaxed);
          }
          break;
        }
        case frame_type::ping:
          send(frame{frame_type::pong, {}});
          break;
        case frame_type::symbols_req:
          send(encode(symbols_msg{db_.symbols().names()}));
          break;
        case frame_type::shutdown:
          request_stop();
          break;
        default:
          throw frame_error("protocol: unexpected frame " +
                            std::string(to_string(f->type)));
      }
    }
  } catch (const frame_error& e) {
    // Garbage on the wire: tell the peer why (best effort), then hang up.
    // The connection is poisoned — re-synchronizing a byte stream after a
    // framing error is guesswork, and guesswork is how silently-wrong
    // results happen.
    send(encode(error_msg{0, e.what()}));
  } catch (const net_error&) {
    // Link died; nothing to report to anyone.
  }

  // Wind down this connection: wake the executor, let it finish the query
  // it is on (poisoned, so quickly), and join it.
  {
    std::lock_guard lock(conn->queue_mutex);
    conn->closing = true;
    for (auto& [id, q] : conn->pending) q->poisoned.store(true);
  }
  conn->queue_cv.notify_all();
  if (conn->executor.joinable()) conn->executor.join();
  conn->sock.close();
}

void shard_server::executor_loop(const std::shared_ptr<connection>& conn) {
  while (true) {
    std::shared_ptr<pending_query> q;
    {
      std::unique_lock lock(conn->queue_mutex);
      conn->queue_cv.wait(
          lock, [&] { return conn->closing || !conn->queue.empty(); });
      if (conn->queue.empty()) return;  // closing and drained
      q = std::move(conn->queue.front());
      conn->queue.pop_front();
    }

    result_msg out = run_query(*conn, *q);

    {
      std::lock_guard lock(conn->queue_mutex);
      conn->pending.erase(q->msg.query_id);
      if (conn->closing) continue;  // socket is going away; don't write
    }
    std::lock_guard lock(conn->write_mutex);
    try {
      write_frame(conn->sock, encode(out));
    } catch (const net_error&) {
      // Peer gone mid-answer; reader will notice and close.
    }
  }
}

result_msg shard_server::run_query(connection&, pending_query& q) {
  result_msg out;
  out.query_id = q.msg.query_id;

  query_options opts = q.msg.options;
  // The wire thread count is advisory; the server's own budget rules.
  opts.threads = options_.scan_threads;

  const auto expired = [&] {
    return q.poisoned.load(std::memory_order_relaxed) ||
           (q.deadline != no_deadline() && net_clock::now() >= q.deadline);
  };

  try {
    if (expired()) {
      out.status = query_status::expired;
      return out;
    }

    std::size_t generated = 0;
    const std::vector<image_id> ids =
        detail::scan_ids(db_, q.msg.query_symbols, opts, &generated);
    out.stats.candidates_generated = generated;

    // Server databases are static after load; the flat span mapping holds.
    const detail::id_map globals{.flat = global_ids_};
    const bool pruned = detail::pruning_applies(opts);
    // Prepared once for the whole scan, not once per chunk.
    const prepared_query prepared = detail::prepare_query(q.msg.query, opts);
    // In pruned mode ONE shared top-k spans all chunks, so the k-th score
    // earned in chunk 0 keeps pruning chunk 9 — plus whatever floor the
    // coordinator gossips in between.
    detail::shared_topk shared(opts.top_k, opts.min_score);
    std::vector<query_result> parts;
    bool partial = false;

    const std::size_t chunk =
        options_.scan_chunk == 0 ? 1 : options_.scan_chunk;
    for (std::size_t begin = 0; begin < ids.size(); begin += chunk) {
      if (options_.scan_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.scan_delay_ms));
      }
      if (expired()) {
        partial = true;
        break;
      }
      if (pruned) {
        shared.raise_floor(q.floor.load(std::memory_order_relaxed));
      }
      const std::size_t end = std::min(begin + chunk, ids.size());
      const std::span<const image_id> slice(ids.data() + begin, end - begin);
      search_stats cs;
      std::vector<query_result> part =
          detail::scan_shard(db_, prepared, slice, globals, opts,
                             pruned ? &shared : nullptr, &cs);
      out.stats.scanned += cs.scanned;
      out.stats.scored += cs.scored;
      out.stats.pruned += cs.pruned;
      out.stats.band_rejected += cs.band_rejected;
      if (!pruned) {
        parts.insert(parts.end(), part.begin(), part.end());
      }
    }

    // Per-chunk ranked parts concatenate + re-rank to exactly the whole
    // scan's answer (each chunk keeps its own top-k, and the global top-k
    // is a subset of the union of per-chunk top-ks).
    out.results =
        pruned ? shared.take() : detail::rank_results(std::move(parts), opts);
    out.status = partial ? query_status::expired : query_status::ok;
  } catch (...) {
    out.results.clear();
    out.status = query_status::failed;
  }
  return out;
}

}  // namespace bes::net
