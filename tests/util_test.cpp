#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace bes {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, UniformIntStaysInRange) {
  rng r(42);
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  rng r(1);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  rng r(1);
  EXPECT_THROW((void)r.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, SameSeedSameStream) {
  rng a(7);
  rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(7);
  rng b(8);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = a.next_u64() != b.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, ChanceEdgeCases) {
  rng r(3);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, Uniform01InRange) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SampleIndicesDistinctSortedBounded) {
  rng r(11);
  const auto sample = r.sample_indices(20, 8);
  ASSERT_EQ(sample.size(), 8u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 8u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  for (std::size_t v : sample) EXPECT_LT(v, 20u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  rng r(1);
  EXPECT_THROW((void)r.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, PickRejectsEmpty) {
  rng r(1);
  std::vector<int> empty;
  EXPECT_THROW((void)r.pick(std::span<const int>(empty)), std::invalid_argument);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, 4, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(Parallel, SingleThreadRunsInline) {
  std::vector<int> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, ConcurrentThrowsResolveToLowestIndexDeterministically) {
  // Regression: with several workers throwing at the same time, "first
  // exception wins" used to mean first-to-grab-the-mutex — a scheduling
  // coin flip, so the same failing scan reported different errors run to
  // run. The contract is now deterministic: the exception from the LOWEST
  // index wins. Both workers rendezvous on a spin barrier so both are
  // genuinely in flight, then throw together; index 0's message must come
  // out every single time.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> arrived{0};
    std::string caught;
    try {
      parallel_for(
          2, 2,
          [&](std::size_t i) {
            arrived.fetch_add(1);
            // Worker 0 is parked here until worker 1 claims index 1 (and
            // vice versa), so neither throw can win by starting early. The
            // barrier always completes: the only thread able to claim the
            // other index is the other worker, which is not blocked.
            while (arrived.load() < 2) std::this_thread::yield();
            throw std::runtime_error(std::to_string(i));
          },
          /*chunk=*/1);
      FAIL() << "round " << round << ": nothing propagated";
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    ASSERT_EQ(caught, "0") << "round " << round
                           << ": a higher index's exception won the race";
  }
}

TEST(Parallel, ExceptionAbortsRemainingWork) {
  // Regression: only the THROWING worker used to stop; its siblings kept
  // draining the cursor and ran fn on every remaining index, so a scan that
  // failed on item 1 still paid for the other 99999. Once the abort is
  // observable, at most a bounded handful of calls may still start
  // (in-flight chunks finish their current item; each worker checks the
  // flag per index).
  //
  // The count starts when the throwing call's frame is unwound — the
  // `unwound` guard's destructor runs on the way to parallel_for's handler,
  // which raises the abort flag next — not when it throws: the search phase
  // of an unwind (finding the handler) can take far longer than the
  // siblings need to claim hundreds of items, above all in a fresh process
  // on a loaded host. A throw/catch before the measured call warms the
  // one-time unwinder setup too.
  try {
    throw std::runtime_error("warm-up");
  } catch (const std::runtime_error&) {
  }
  constexpr std::size_t n = 100000;
  constexpr unsigned threads = 4;
  std::atomic<std::size_t> after_abort{0};
  std::atomic<bool> unwound{false};
  struct set_on_unwind {
    std::atomic<bool>& flag;
    ~set_on_unwind() { flag.store(true); }
  };
  EXPECT_THROW(
      parallel_for(
          n, threads,
          [&](std::size_t i) {
            if (unwound.load()) after_abort.fetch_add(1);
            if (i == 0) {
              const set_on_unwind guard{unwound};
              throw std::runtime_error("boom");
            }
            // Let the siblings hit the cursor a few times while the throw
            // happens, without slowing the suite down.
            std::this_thread::yield();
          },
          /*chunk=*/1),
      std::runtime_error);
  EXPECT_TRUE(unwound.load());
  // Bounded by one in-flight item per worker plus the per-index flag check
  // racing the store; far below the ~n calls the bug allowed. Generous
  // factor to keep the test deterministic on slow machines.
  EXPECT_LT(after_abort.load(), static_cast<std::size_t>(threads) * 64);
}

TEST(Parallel, EveryChunkSizeVisitsEveryIndexExactlyOnce) {
  // The chunk parameter only changes scheduling, never coverage: chunk 1
  // (the batch/fan-out work queues), the default 16, a chunk bigger than
  // the whole range, and a degenerate 0 (coerced to 1) all visit each
  // index once.
  constexpr std::size_t n = 503;  // prime: never divides evenly
  for (std::size_t chunk : {0u, 1u, 3u, 16u, 1000u}) {
    std::vector<std::atomic<int>> visits(n);
    parallel_for(
        n, 4, [&](std::size_t i) { visits[i].fetch_add(1); }, chunk);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(Parallel, OneChunkOfWorkRunsOnTheCallersThread) {
  // A range no larger than one chunk has exactly one chunk to claim, so no
  // worker thread may start: every index runs on the caller, in order.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t count : {1u, 5u, 16u}) {
    std::vector<std::size_t> order;
    bool off_thread = false;
    parallel_for(
        count, 4,
        [&](unsigned worker, std::size_t i) {
          off_thread = off_thread || worker != 0 ||
                       std::this_thread::get_id() != caller;
          order.push_back(i);
        },
        /*chunk=*/16);
    EXPECT_FALSE(off_thread) << "count=" << count;
    ASSERT_EQ(order.size(), count);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Parallel, WorkerIdsStayBelowTheChunkCount) {
  // 3 chunks of 16 over 4 threads: at most 3 workers, so ids stay in [0, 3)
  // — inside parallel_workers(), which callers size scratch with.
  constexpr std::size_t n = 40;
  std::vector<std::atomic<int>> seen(parallel_workers(n, 4));
  parallel_for(
      n, 4, [&](unsigned worker, std::size_t) { seen.at(worker) = 1; }, 16);
  EXPECT_EQ(seen[3].load(), 0) << "a fourth worker started with no chunk";
}

TEST(Parallel, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

// ---------------------------------------------------------------- args

TEST(Args, ParsesAllKinds) {
  arg_parser p("test");
  p.add_string("name", "default", "a string");
  p.add_int("count", 3, "an int");
  p.add_double("ratio", 0.5, "a double");
  p.add_bool("verbose", false, "a bool");
  const char* argv[] = {"prog",    "--name",  "hello", "--count=7",
                        "--ratio", "0.25",    "--verbose"};
  ASSERT_TRUE(p.parse(7, argv));
  EXPECT_EQ(p.get_string("name"), "hello");
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.25);
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(Args, DefaultsSurviveEmptyArgv) {
  arg_parser p("test");
  p.add_int("count", 3, "an int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("count"), 3);
}

TEST(Args, HelpReturnsFalse) {
  arg_parser p("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Args, UnknownFlagThrows) {
  arg_parser p("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW((void)p.parse(3, argv), std::invalid_argument);
}

TEST(Args, MalformedIntThrows) {
  arg_parser p("test");
  p.add_int("count", 3, "an int");
  const char* argv[] = {"prog", "--count", "seven"};
  EXPECT_THROW((void)p.parse(3, argv), std::invalid_argument);
}

TEST(Args, PositionalCollected) {
  arg_parser p("test");
  const char* argv[] = {"prog", "a.pgm", "b.pgm"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"a.pgm", "b.pgm"}));
}

TEST(Args, TypeMismatchThrows) {
  arg_parser p("test");
  p.add_int("count", 3, "an int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_string("count"), std::invalid_argument);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  text_table t({"n", "value"});
  t.add_row({"1", "short"});
  t.add_row({"100", "longer-cell"});
  const std::string out = t.str();
  EXPECT_NE(out.find("n    value"), std::string::npos);
  EXPECT_NE(out.find("100  longer-cell"), std::string::npos);
}

TEST(Table, RejectsRowWidthMismatch) {
  text_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(text_table({}), std::invalid_argument);
}

TEST(Table, FmtDoubleDigits) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

}  // namespace
}  // namespace bes
