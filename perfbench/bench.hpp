// Shared declarations of the benchmark runner (main.cpp) and its workloads
// (workloads.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapter.hpp"
#include "trace.hpp"

namespace pb {

namespace fs = std::filesystem;

enum class op : std::uint8_t { read, transform, planned, add, remove };

// One generated request. `item` indexes the workload's query pool (reads)
// or its pre-generated add scenes (adds); `target` is a remove's image id.
struct request {
  op kind = op::read;
  std::uint32_t item = 0;
  sys::image_id target = 0;
};

// What one executed request returned.
struct outcome {
  op kind = op::read;
  double ms = 0.0;
  bool done = false;      // executed in this pass
  bool failed = false;    // threw, was refused, degraded, or answered wrong
  std::vector<sys::query_result> answer;
  sys::search_stats stats;
};

// Work counts recorded at the same call boundaries as the spans, split by
// where they were recorded (a request's path, or a layer probe).
struct ledger {
  std::size_t reads = 0, tokens = 0;
  // scans (search_stats of every read)
  std::size_t scanned = 0, scored = 0, pruned = 0, band_rejected = 0,
              generated = 0, pairs = 0;
  // planner
  std::size_t plans = 0, estimated = 0, actual = 0;
  std::array<std::size_t, 5> paths{};
  // result cache
  std::size_t hits = 0, deltas = 0, misses = 0, rescored = 0, evictions = 0;
  // shard: sum over queries of max/mean candidates per shard
  double skew_sum = 0.0;
  std::size_t skew_n = 0;
  // net
  std::size_t frame_bytes = 0, codec_calls = 0, remote_calls = 0,
              remote_scored = 0, local_scored = 0, degraded = 0;
  // storage writes
  std::size_t deletes = 0, records = 0, syncs = 0;

  void add_scan(const sys::search_stats& st, bool transform);
  ledger& operator+=(const ledger& o);
};

struct ledgers {
  ledger request, probe;
  ledger& of(origin o) { return o == origin::request ? request : probe; }
};

// Storage figures measured while opening the corpus.
struct setup_times {
  double total_s = 0.0;  // open until the first query can be served
  double load_s = 0.0;   // reading records (and, for SCRP1, the shard trees)
  double index_s = 0.0;  // building the flat spatial + hybrid indexes
};

class workload {
 public:
  virtual ~workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual unsigned clients() const { return 1; }
  [[nodiscard]] virtual std::string flush_policy() const { return "none"; }

  // Writes the corpus into `dir` and generates the seeded request stream.
  virtual void generate(const fs::path& dir, std::uint64_t seed,
                        bool smoke) = 0;
  // Opens the on-disk corpus until the first query can be served.
  virtual setup_times setup() = 0;
  // State a pass needs that is not part of serving (write targets, a fresh
  // result cache); runs before the pass's clock starts.
  virtual void begin_pass() = 0;
  virtual void teardown() = 0;

  // Executes request `i` with `threads` scan threads.
  virtual outcome execute(std::size_t i, unsigned threads, tracer& t,
                          ledgers& l) = 0;
  // Whether the answer of request `i` is checked against a reference.
  [[nodiscard]] virtual bool sampled(std::size_t i) const = 0;
  // Checks one outcome; returns false on a wrong answer. Call after the
  // pass, before teardown.
  virtual bool verify(std::size_t i, const outcome& o, tracer& t,
                      ledgers& l) = 0;
  // Storage-write counters of the pass (group commit records and syncs).
  virtual void close_pass(ledgers& l) { (void)l; }
  // Runs every layer once per probe query on fresh copies of the corpus,
  // outside any request (traced run only).
  virtual void probe(tracer& t, ledgers& l) = 0;

  [[nodiscard]] const std::vector<request>& stream() const { return stream_; }
  [[nodiscard]] std::uint64_t stream_digest() const { return digest_; }
  // Corpus sizes and settings, printed with every result.
  [[nodiscard]] const std::map<std::string, std::string>& about() const {
    return about_;
  }
  [[nodiscard]] double bytes_per_image() const { return bytes_per_image_; }

 protected:
  std::vector<request> stream_;
  std::uint64_t digest_ = 0;
  std::map<std::string, std::string> about_;
  double bytes_per_image_ = 0.0;
};

[[nodiscard]] std::unique_ptr<workload> make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

// FNV-1a, for the request-stream digest.
inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}
inline constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ull;

// The top-10 pruned query every workload issues.
[[nodiscard]] sys::query_options top10(unsigned threads);

}  // namespace pb
