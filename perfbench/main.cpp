// perfbench: the repository benchmark runner.
//
//   perfbench --workload scan_cold|zipf_ingest|net_fanout|all --seed N
//             --seconds S --trace 0|1 [--data DIR] [--inject-wrong-answer]
//
// Untraced (--trace 0): generates the workload's inputs from the seed,
// opens the on-disk corpus several times (setup_s is the median), runs the
// closed-loop request stream for S seconds, checks sampled answers against
// a reference, replays a fixed prefix single-threaded for exact-repeat
// counts, and prints the end-to-end metrics. Traced (--trace 1): runs the
// stream untraced and then traced for S/2 seconds each, requires identical
// answers, runs the layer probe suite, writes the spans, and prints the
// per-layer metrics. The last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"

namespace pb {
namespace {

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path data = ".bench_build/data";
  bool inject_wrong = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME|all --seed N "
               "--seconds S --trace 0|1 [--data DIR] [--inject-wrong-answer]\n",
               why);
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--data") {
      a.data = value();
    } else if (k == "--inject-wrong-answer") {
      a.inject_wrong = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

bool smoke() { return std::getenv("BES_BENCH_SMOKE") != nullptr; }

// One named metric: value, unit and (for percentiles) its sample count.
struct metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using metric_map = std::map<std::string, metric>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  sys::sample_stats s;
  for (double x : v) s.add(x);
  return s.percentile(50);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------------ passes

struct pass {
  std::vector<outcome> out;  // indexed by request
  std::size_t executed = 0;
  double elapsed_s = 0.0;
  std::vector<tracer> tracers;  // one per client
  ledgers counts;
};

// Runs the stream closed loop: each client executes its next request only
// after the previous one returned. Stops at `seconds` once at least
// `min_requests` ran, and never runs more than `max_requests`.
pass run_pass(workload& w, unsigned threads, double seconds,
              std::size_t min_requests, std::size_t max_requests,
              bool traced) {
  pass p;
  const std::size_t limit = std::min(w.stream().size(), max_requests);
  p.out.resize(limit);
  const unsigned clients = w.clients();
  for (unsigned c = 0; c < clients; ++c) p.tracers.emplace_back(traced);
  std::vector<ledgers> per_client(clients);
  std::atomic<std::size_t> next{0};
  std::atomic<int> errors{0};
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);

  auto client = [&](unsigned c) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= limit || (i >= min_requests && now_ns() >= deadline)) break;
      outcome o;
      const std::int64_t t0 = now_ns();
      try {
        o = w.execute(i, threads, p.tracers[c], per_client[c]);
      } catch (const std::exception& e) {
        o.kind = w.stream()[i].kind;
        o.failed = true;
        if (errors.fetch_add(1) < 5) {
          std::fprintf(stderr, "perfbench: request %zu failed: %s\n", i,
                       e.what());
        }
      }
      o.ms = 1e-6 * double(now_ns() - t0);
      o.done = true;
      p.out[i] = std::move(o);
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients; ++c) pool.emplace_back(client, c);
    for (auto& th : pool) th.join();
  }
  p.elapsed_s = 1e-9 * double(now_ns() - start);
  for (const outcome& o : p.out) p.executed += o.done ? 1 : 0;
  for (ledgers& l : per_client) {
    p.counts.request += l.request;
    p.counts.probe += l.probe;
  }
  return p;
}

void corrupt(outcome& o) {
  if (o.answer.empty()) {
    o.answer.push_back({0, 1.0, {}});
  } else {
    o.answer.front().score += 0.25;
  }
}

struct verdict {
  std::size_t checked = 0;
  std::size_t wrong = 0;
  bool control_caught = true;  // the live negative control was rejected
};

// Checks every sampled answer against the workload's reference. The live
// negative control feeds the checker one deliberately corrupted copy of a
// sampled answer; a checker that accepts it fails the run.
verdict check(workload& w, pass& p, bool inject_wrong) {
  verdict v;
  bool control_done = false;
  for (std::size_t i = 0; i < p.out.size(); ++i) {
    outcome& o = p.out[i];
    if (!o.done || o.failed || !w.sampled(i)) continue;
    if (!control_done) {
      outcome bad = o;
      corrupt(bad);
      tracer off(false);
      ledgers scratch;
      v.control_caught = !w.verify(i, bad, off, scratch);
      control_done = true;
      if (inject_wrong) corrupt(o);
    }
    ++v.checked;
    if (!w.verify(i, o, p.tracers.front(), p.counts)) {
      ++v.wrong;
      o.failed = true;
    }
  }
  if (!control_done) v.control_caught = false;  // nothing was checked
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------ metrics

void add_latency(metric_map& m, const std::string& prefix,
                 const std::vector<double>& ms, bool p99) {
  if (ms.empty()) return;
  sys::sample_stats s;
  for (double x : ms) s.add(x);
  m[prefix + "_p50_ms"] = {s.percentile(50), "ms", s.count()};
  if (p99) m[prefix + "_p99_ms"] = {s.percentile(99), "ms", s.count()};
}

metric_map end_to_end(const pass& p, double setup_s) {
  std::vector<double> reads, adds, deletes;
  std::size_t failed = 0;
  for (const outcome& o : p.out) {
    if (!o.done) continue;
    failed += o.failed ? 1 : 0;
    if (o.kind == op::add) {
      adds.push_back(o.ms);
    } else if (o.kind == op::remove) {
      deletes.push_back(o.ms);
    } else {
      reads.push_back(o.ms);
    }
  }
  metric_map m;
  m["setup_s"] = {setup_s, "s", 0};
  add_latency(m, "query", reads, true);
  m["query_qps"] = {double(p.executed) / p.elapsed_s, "1/s", p.executed};
  add_latency(m, "add", adds, true);
  add_latency(m, "delete", deletes, false);
  m["error_rate"] = {ratio(double(failed), double(p.executed)), "share",
                     p.executed};
  m["rss_mb"] = {peak_rss_mb(), "MB", 0};
  return m;
}

// Self time of every span (duration minus its children's durations),
// grouped by (origin, name); request roots are kept separately.
struct span_table {
  std::map<std::pair<origin, std::string>, std::vector<double>> self_us;
  std::map<std::pair<origin, std::string>, std::unordered_map<std::uint64_t,
                                                              double>>
      by_request;  // total us per request id
  double request_total_us = 0.0;
  double request_self_us = 0.0;

  void add(const tracer& t) {
    const auto& spans = t.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const span& s : spans) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.us();
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const span& s = spans[i];
      const double self = s.us() - child[i];
      const auto key = std::make_pair(s.from, std::string(s.name));
      self_us[key].push_back(self);
      by_request[key][s.request] += s.us();
      if (s.parent < 0 && std::strcmp(s.name, "request") == 0) {
        request_total_us += s.us();
        request_self_us += self;
      }
    }
  }

  // Median self time of `name`: request-path spans when the workload's
  // requests reach the layer, else the probe spans.
  double pick(const std::string& name) const {
    for (origin o : {origin::request, origin::probe}) {
      const auto it = self_us.find({o, name});
      if (it != self_us.end() && !it->second.empty()) return median(it->second);
    }
    return 0.0;
  }

  std::vector<double> all(origin o, const std::string& name) const {
    const auto it = self_us.find({o, name});
    return it == self_us.end() ? std::vector<double>{} : it->second;
  }

  const std::unordered_map<std::uint64_t, double>* requests(
      origin o, const std::string& name) const {
    const auto it = by_request.find({o, name});
    return it == by_request.end() ? nullptr : &it->second;
  }
};

// Median over request ids present in both maps of (a - b).
double paired_gap(const std::unordered_map<std::uint64_t, double>* a,
                  const std::unordered_map<std::uint64_t, double>* b) {
  std::vector<double> gaps;
  if (a == nullptr || b == nullptr) return 0.0;
  for (const auto& [id, us] : *a) {
    const auto it = b->find(id);
    if (it != b->end()) gaps.push_back(us - it->second);
  }
  return median(gaps);
}

metric_map per_layer(const workload& w, const span_table& st,
                     const ledgers& l, const std::vector<setup_times>& setups,
                     double overhead_frac) {
  const ledger& rq = l.request;
  const ledger& pr = l.probe;
  auto choose = [&](bool request_has) -> const ledger& {
    return request_has ? rq : pr;
  };
  metric_map m;
  m["core.encode_us"] = {st.pick("core.encode"), "us", 0};
  m["core.tokens_per_query"] = {ratio(double(rq.tokens), double(rq.reads)),
                                "count", rq.reads};

  m["access_path.generate_us"] = {st.pick("access_path.generate"), "us", 0};
  m["access_path.generated"] = {ratio(double(rq.generated), double(rq.reads)),
                                "count", rq.reads};
  m["access_path.kept_ratio"] = {ratio(double(rq.scanned),
                                       double(rq.generated)),
                                 "ratio", 0};
  const ledger& plans = choose(rq.plans > 0);
  m["planner.plan_us"] = {st.pick("planner.plan"), "us", 0};
  m["planner.estimate_ratio"] = {ratio(double(plans.estimated),
                                       double(plans.actual)),
                                 "ratio", plans.plans};
  for (std::size_t k = 0; k < plans.paths.size(); ++k) {
    m[std::string("planner.path_mix.") + sys::path_name(sys::all_paths[k])] = {
        ratio(double(plans.paths[k]), double(plans.plans)), "share",
        plans.plans};
  }

  // Scan time comes from the uncached reference scans of this workload's
  // own queries (probe spans), paired with their own pair counts.
  const std::vector<double> scans = st.all(origin::probe, "scan.search");
  double scan_total = 0.0;
  for (double us : scans) scan_total += us;
  m["scan.us"] = {median(scans), "us", scans.size()};
  m["scan.scanned"] = {ratio(double(rq.scanned), double(rq.reads)), "count",
                       rq.reads};
  m["scan.scored"] = {ratio(double(rq.scored), double(rq.reads)), "count",
                      rq.reads};
  m["scan.pruned_ratio"] = {ratio(double(rq.pruned), double(rq.scanned)),
                            "ratio", 0};
  m["scan.band_rejected_ratio"] = {
      ratio(double(rq.band_rejected), double(rq.scored)), "ratio", 0};
  m["lcs.pairs_per_query"] = {ratio(double(rq.pairs), double(rq.reads)),
                              "count", rq.reads};
  m["lcs.ns_per_pair"] = {ratio(1e3 * scan_total, double(pr.pairs)), "ns",
                          pr.pairs};

  m["shard.fanout_us"] = {
      paired_gap(st.requests(origin::probe, "shard.search"),
                 st.requests(origin::probe, "scan.search")),
      "us", 0};
  m["shard.candidate_skew"] = {ratio(pr.skew_sum, double(pr.skew_n)), "ratio",
                               pr.skew_n};

  const ledger& cache = choose(rq.hits + rq.deltas + rq.misses > 0);
  const double lookups = double(cache.hits + cache.deltas + cache.misses);
  m["cache.hit_ratio"] = {ratio(double(cache.hits), lookups), "share", 0};
  m["cache.delta_ratio"] = {ratio(double(cache.deltas), lookups), "share", 0};
  m["cache.miss_ratio"] = {ratio(double(cache.misses), lookups), "share", 0};
  m["cache.hit_us"] = {st.pick("cache.hit"), "us", 0};
  m["cache.delta_us"] = {st.pick("cache.delta"), "us", 0};
  m["cache.miss_us"] = {st.pick("cache.miss"), "us", 0};
  m["cache.key_us"] = {st.pick("cache.key"), "us", 0};
  const ledger& deltas = choose(rq.deltas > 0);
  m["cache.rescored_per_delta"] = {
      ratio(double(deltas.rescored), double(deltas.deltas)), "count", 0};
  m["cache.evictions_per_1k"] = {1e3 * ratio(double(cache.evictions), lookups),
                                 "count", 0};

  m["ingest.add_us"] = {st.pick("ingest.add"), "us", 0};
  m["ingest.remove_us"] = {st.pick("ingest.remove"), "us", 0};

  std::vector<double> load, index;
  for (const setup_times& s : setups) {
    load.push_back(s.load_s);
    if (s.index_s > 0) index.push_back(s.index_s);
  }
  if (index.empty()) {
    for (double us : st.all(origin::probe, "storage.index_build")) {
      index.push_back(1e-6 * us);
    }
  }
  m["storage.load_s"] = {median(load), "s", load.size()};
  m["storage.index_build_s"] = {median(index), "s", index.size()};
  m["storage.append_us"] = {st.pick("storage.append"), "us", 0};
  m["storage.bytes_per_image"] = {w.bytes_per_image(), "bytes", 0};
  const ledger& deletes = choose(rq.deletes > 0);
  m["storage.records_per_delete"] = {
      ratio(double(deletes.records), double(deletes.deletes)), "count", 0};
  m["storage.syncs_per_delete"] = {
      ratio(double(deletes.syncs), double(deletes.deletes)), "count", 0};

  // net: remote time minus in-process time of the same query. On
  // net_fanout the in-process side is the reference scan of each checked
  // request; elsewhere the probe suite's sharded scan.
  const bool remote_requests = rq.remote_calls > 0;
  m["net.overhead_us"] = {
      remote_requests
          ? paired_gap(st.requests(origin::request, "net.search"),
                       st.requests(origin::probe, "scan.search"))
          : paired_gap(st.requests(origin::probe, "net.search"),
                       st.requests(origin::probe, "shard.search")),
      "us", 0};
  const ledger& net = choose(remote_requests);
  m["net.frame_bytes"] = {ratio(double(net.frame_bytes),
                                double(net.codec_calls)),
                          "bytes", net.codec_calls};
  std::vector<double> codec = st.all(origin::probe, "net.codec");
  m["net.codec_us"] = {median(codec), "us", codec.size()};
  m["net.scored_ratio"] = {ratio(double(net.remote_scored),
                                 double(net.local_scored)),
                           "ratio", 0};
  m["net.degraded_ratio"] = {ratio(double(net.degraded),
                                   double(net.remote_calls)),
                             "share", net.remote_calls};

  m["trace.overhead_frac"] = {overhead_frac, "ratio", 0};
  m["trace.unattributed_frac"] = {
      ratio(st.request_self_us, st.request_total_us),
      "ratio", 0};
  return m;
}

std::vector<double> read_latencies(const pass& p) {
  std::vector<double> v;
  for (const outcome& o : p.out) {
    if (o.done && o.kind != op::add && o.kind != op::remove) v.push_back(o.ms);
  }
  return v;
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::string& prefix, const metric_map& m) {
  for (const auto& [name, x] : m) {
    std::printf("metric %s%s = %s %s", prefix.c_str(), name.c_str(),
                json_number(x.value).c_str(), x.unit.c_str());
    if (x.samples > 0) std::printf("  (n=%zu)", x.samples);
    std::printf("\n");
  }
}

void print_counts(const char* label, const ledger& c, bool exact) {
  std::printf(
      "counts[%s%s]: reads=%zu scanned=%zu scored=%zu pruned=%zu "
      "band_rejected=%zu generated=%zu pairs=%zu plans=%zu cache_hits=%zu "
      "cache_deltas=%zu cache_misses=%zu delta_rescored=%zu evictions=%zu "
      "gc_deletes=%zu gc_records=%zu gc_syncs=%zu frame_bytes=%zu\n",
      label, exact ? "" : ", timing-dependent", c.reads, c.scanned, c.scored,
      c.pruned, c.band_rejected, c.generated, c.pairs, c.plans, c.hits,
      c.deltas, c.misses, c.rescored, c.evictions, c.deletes, c.records,
      c.syncs, c.frame_bytes);
}

struct result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  metric_map json;  // what the last line carries
};

// Requests replayed single-threaded for the exact-repeat counts.
std::size_t count_prefix(const std::string& name) {
  return name == "zipf_ingest" ? 64 : 24;
}

const std::vector<std::string>& e2e_names() {
  static const std::vector<std::string> names = {
      "setup_s", "query_p50_ms", "query_p99_ms", "query_qps", "rss_mb"};
  return names;
}

result run_workload(const args& a, const std::string& name) {
  const std::unique_ptr<workload> w = make_workload(name);
  const fs::path dir = a.data / (name + "-" + std::to_string(a.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Wall time of each phase of the command, printed for budgeting runs.
  std::string phases;
  std::int64_t mark = now_ns();
  auto phase = [&](const char* what) {
    const std::int64_t t = now_ns();
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.2f", what, 1e-9 * double(t - mark));
    phases += buf;
    mark = t;
  };
  w->generate(dir, a.seed, smoke());
  phase("generate");

  std::printf("== workload %s (%s)\n", name.c_str(),
              a.trace ? "traced" : "untraced");
  std::printf("# seed: %llu\n", static_cast<unsigned long long>(a.seed));
  std::printf("# request_stream_digest: %016llx\n",
              static_cast<unsigned long long>(w->stream_digest()));
  for (const auto& [k, v] : w->about()) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  std::printf("# flush_policy: %s\n", w->flush_policy().c_str());
  std::printf("# load: closed loop, %u client(s), 4 scan threads per client "
              "(net_fanout: 1 per shard server)\n",
              w->clients());

  // Open the corpus at least 5 times and until 3 s were spent opening it
  // (at most 25 times); setup_s is the median.
  std::vector<setup_times> setups;
  double opening_s = 0.0;
  while (setups.size() < 5 || (opening_s < 3.0 && setups.size() < 25)) {
    if (!setups.empty()) w->teardown();
    setups.push_back(w->setup());
    opening_s += setups.back().total_s;
  }
  std::vector<double> totals;
  for (const setup_times& s : setups) totals.push_back(s.total_s);
  const double setup_s = median(totals);
  phase("setup");

  result res;
  if (!a.trace) {
    w->begin_pass();
    pass p = run_pass(*w, 4, a.seconds, 0, SIZE_MAX, false);
    phase("run");
    const verdict v = check(*w, p, a.inject_wrong);
    phase("check");
    w->close_pass(p.counts);
    const metric_map m = end_to_end(p, setup_s);
    std::printf("# checked: %zu sampled answers, %zu wrong, negative control "
                "%s\n",
                v.checked, v.wrong, v.control_caught ? "caught" : "MISSED");
    print_counts("timed run", p.counts.request, false);
    w->teardown();

    // Exact-repeat counts: a fixed prefix replayed with one scan thread from
    // a fresh open, so thread timing cannot move a pruning decision.
    if (w->clients() == 1) {
      w->setup();
      w->begin_pass();
      pass c = run_pass(*w, 1, 0.0, count_prefix(name), count_prefix(name),
                        false);
      w->close_pass(c.counts);
      char label[64];
      std::snprintf(label, sizeof label, "first %zu requests, 1 thread",
                    c.executed);
      print_counts(label, c.counts.request, true);
      w->teardown();
    }
    phase("counts");
    std::printf("# phases_s:%s\n", phases.c_str());

    print_metrics("", m);
    fs::remove_all(dir);  // corpus and logs; runs over many seeds add up
    res.attempted = p.executed;
    for (const outcome& o : p.out) res.failed += o.done && o.failed ? 1 : 0;
    res.correct = v.wrong == 0 && v.control_caught;
    for (const std::string& k : e2e_names()) res.json[k] = m.at(k);
    return res;
  }

  // Traced run: the same stream untraced, then traced, from fresh opens.
  w->begin_pass();
  pass plain = run_pass(*w, 4, a.seconds / 2, 0, SIZE_MAX, false);
  w->teardown();
  setups.push_back(w->setup());
  w->begin_pass();
  pass traced = run_pass(*w, 4, a.seconds / 2, 0, SIZE_MAX, true);
  const verdict v = check(*w, traced, a.inject_wrong);
  w->close_pass(traced.counts);
  // Each traced answer must equal the untraced answer to the same request.
  std::size_t differ = 0, compared = 0;
  for (std::size_t i = 0; i < std::min(plain.out.size(), traced.out.size());
       ++i) {
    if (!plain.out[i].done || !traced.out[i].done) continue;
    ++compared;
    if (plain.out[i].answer != traced.out[i].answer) ++differ;
  }
  std::printf("# checked: %zu sampled answers, %zu wrong, negative control "
              "%s; traced vs untraced: %zu compared, %zu differ\n",
              v.checked, v.wrong, v.control_caught ? "caught" : "MISSED",
              compared, differ);
  print_counts("traced run", traced.counts.request, false);
  w->teardown();
  w->probe(traced.tracers.front(), traced.counts);

  const double overhead =
      ratio(median(read_latencies(traced)), median(read_latencies(plain))) -
      1.0;
  span_table st;
  for (const tracer& t : traced.tracers) st.add(t);
  const metric_map m = per_layer(*w, st, traced.counts, setups, overhead);
  phase("passes+probe");
  std::printf("# phases_s:%s\n", phases.c_str());
  print_metrics("", m);

  const fs::path spans = dir / "spans.jsonl";
  if (std::FILE* f = std::fopen(spans.c_str(), "w")) {
    for (std::size_t c = 0; c < traced.tracers.size(); ++c) {
      traced.tracers[c].write(f, "client" + std::to_string(c));
    }
    std::fclose(f);
    std::printf("# spans: %s\n", spans.c_str());
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path() != spans) fs::remove_all(e.path());
  }

  res.attempted = traced.executed;
  for (const outcome& o : traced.out) res.failed += o.done && o.failed ? 1 : 0;
  res.correct = v.wrong == 0 && v.control_caught && differ == 0;
  res.json = m;
  return res;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const args a = parse(argc, argv);
  std::vector<std::string> names;
  if (a.workload == "all") {
    names = workload_names();
  } else {
    names = {a.workload};
  }

  std::printf("# lcs_kernel: %s\n", sys::lcs_kernel_name());
  std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("# compiler: %s\n# build_type: %s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  for (const char* var : {"BES_LCS_KERNEL", "BES_BENCH_SMOKE"}) {
    if (const char* v = std::getenv(var)) {
      std::printf("# OVERRIDE %s=%s\n", var, v);
    }
  }

  result total;
  try {
    for (const std::string& name : names) {
      const result r = run_workload(a, name);
      total.correct = total.correct && r.correct;
      total.attempted += r.attempted;
      total.failed += r.failed;
      for (const auto& [k, v] : r.json) {
        total.json[names.size() == 1 ? k : name + "." + k] = v;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += total.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(total.attempted);
  line += ", \"failed\": " + std::to_string(total.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : total.json) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + k + "\": {\"value\": " + json_number(v.value) +
            ", \"unit\": \"" + v.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 3;
}
