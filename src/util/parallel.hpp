// Thread-parallel index loop used by the database scan path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace bes {

// Invokes fn(i) for every i in [0, count), distributing indices over up to
// `threads` worker threads (dynamic chunking over an atomic cursor, so skewed
// per-item costs still balance). Starts no more workers than there are
// chunks (ceil(count / chunk)); when that leaves one worker — threads <= 1,
// or count <= chunk — it runs inline on the caller.
//
// `chunk` is how many consecutive indices a worker claims per fetch of the
// atomic cursor. The default 16 suits scans of thousands of cheap items;
// pass 1 when each item is itself expensive and skewed (a whole query of a
// batch, a whole shard of a fan-out) so one slow item can never strand a
// tail of work behind it. The result of fn is chunk-invariant by contract;
// only scheduling changes.
//
// fn must be safe to invoke concurrently from multiple threads for distinct
// indices. Exceptions thrown by fn are captured and exactly one is rethrown
// on the caller thread after all workers join: when several in-flight
// invocations throw concurrently (including ones that throw after the abort
// flag is already up), the exception from the LOWEST index wins,
// deterministically — none is ever swallowed or allowed to escape a worker
// thread into std::terminate. A throw also trips an abort flag checked
// before every invocation, so remaining work is cancelled best-effort:
// in-flight fn calls finish, at most a bounded handful of further calls
// start, and indices are NOT guaranteed to have been visited once any fn
// has thrown.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk = 16);

// Worker-indexed variant: fn(worker, i) with a worker id that is stable for
// the whole call and dense in [0, w), where w = min(parallel_workers(count,
// threads), ceil(count / chunk)) never exceeds parallel_workers. Lets a
// caller hand each worker its own reusable scratch (an lcs_context, a local
// accumulator) looked up once per item by index — no thread_local access,
// no sharing between concurrent workers. The inline path always reports
// worker 0.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(unsigned, std::size_t)>& fn,
                  std::size_t chunk = 16);

// Upper bound on the distinct worker ids the indexed overload can observe,
// for any chunk: 0 when there is no work, else min(max(threads, 1), count).
// Size per-worker state with this.
[[nodiscard]] constexpr unsigned parallel_workers(std::size_t count,
                                                  unsigned threads) noexcept {
  if (count == 0) return 0;
  const std::size_t cap = threads == 0 ? 1 : threads;
  return static_cast<unsigned>(std::min<std::size_t>(cap, count));
}

// Number of hardware threads, never less than 1.
unsigned hardware_threads() noexcept;

}  // namespace bes
