// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call the benchmark makes into the engine (or one whole
// request). It records name, start, end, the enclosing span and the request
// it belongs to. Spans stay in memory while the workload runs and are written
// out as JSON lines when the run ends; per-layer self times are derived from
// them afterwards. With tracing off every guard is a single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Where a span was recorded: on a request's path, or in a layer probe that
// runs outside any request (see README.md, "Traced run").
enum class origin : std::uint8_t { request, probe };

struct span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same buffer, -1 for a root
  std::uint64_t request = 0;
  origin from = origin::request;

  [[nodiscard]] double us() const { return 1e-3 * double(end_ns - start_ns); }
};

// One buffer per client thread; no locking.
class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }

  std::int32_t open(const char* name, std::uint64_t request, origin from) {
    span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.from = from;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  void rename(std::int32_t index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  // Appends every span as one JSON object per line.
  void write(std::FILE* out, const std::string& client) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(out,
                   "{\"client\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                   "\"request\":%llu,\"origin\":\"%s\"}\n",
                   client.c_str(), i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request),
                   s.from == origin::request ? "request" : "probe");
    }
  }

 private:
  bool enabled_;
  std::vector<span> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII guard: opens a span when tracing is on, closes it on scope exit.
class span_guard {
 public:
  span_guard(tracer& t, const char* name, std::uint64_t request,
             origin from = origin::request)
      : t_(t), index_(t.enabled() ? t.open(name, request, from) : -1) {}
  ~span_guard() {
    if (index_ >= 0) t_.close(index_);
  }
  span_guard(const span_guard&) = delete;
  span_guard& operator=(const span_guard&) = delete;

  // Names the span after the fact (a cached call is a hit, delta or miss
  // only once it returns).
  void rename(const char* name) {
    if (index_ >= 0) t_.rename(index_, name);
  }

 private:
  tracer& t_;
  std::int32_t index_;
};

}  // namespace pb
