#include "util/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace bes {

unsigned hardware_threads() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(unsigned, std::size_t)>& fn,
                  std::size_t chunk) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  // Never start a worker that could not claim a chunk: ceil(count / chunk)
  // chunks exist, and one worker means running inline on the caller.
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      parallel_workers(count, threads), (count + chunk - 1) / chunk));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::size_t first_error_index = 0;
  std::mutex error_mutex;

  auto worker = [&](unsigned me) {
    // The abort flag stops HEALTHY workers once any worker has thrown:
    // without it they would keep draining the cursor and run fn on every
    // remaining index while the exception waits for the join below.
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        if (abort.load(std::memory_order_relaxed)) return;
        try {
          fn(me, i);
        } catch (...) {
          // Workers that throw AFTER the abort flag is up (their fn was
          // already in flight when a sibling failed) must neither swallow
          // their exception nor race it: every thrown exception is
          // recorded, and the one from the LOWEST index wins — the same
          // exception a serial loop over [0, count) would have surfaced —
          // so which worker reached the error lock first never changes
          // what the caller sees.
          std::lock_guard lock(error_mutex);
          if (!first_error || i < first_error_index) {
            first_error = std::current_exception();
            first_error_index = i;
          }
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk) {
  parallel_for(
      count, threads, [&fn](unsigned, std::size_t i) { fn(i); }, chunk);
}

}  // namespace bes
