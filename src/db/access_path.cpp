#include "db/access_path.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "db/hybrid_index.hpp"
#include "db/prefilter.hpp"
#include "db/scan.hpp"
#include "db/spatial_index.hpp"

namespace bes {

std::string_view to_string(access_path_kind kind) noexcept {
  switch (kind) {
    case access_path_kind::full_scan:
      return "full_scan";
    case access_path_kind::inverted_index:
      return "inverted_index";
    case access_path_kind::rtree_window:
      return "rtree_window";
    case access_path_kind::combined:
      return "combined";
    case access_path_kind::hybrid:
      return "hybrid";
  }
  return "unknown";
}

access_path_kind access_path_kind_from(std::string_view name) {
  for (access_path_kind kind :
       {access_path_kind::full_scan, access_path_kind::inverted_index,
        access_path_kind::rtree_window, access_path_kind::combined,
        access_path_kind::hybrid}) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown access path: " + std::string(name));
}

namespace {

// Sum of the query symbols' posting-list lengths: an upper bound on the
// inverted-index union (every candidate appears in >= 1 list).
std::size_t posting_mass(const image_database& db,
                         std::span<const symbol_id> symbols) {
  std::size_t total = 0;
  for (symbol_id s : symbols) total += db.postings(s);
  return total;
}

// Upper-bound estimate for the spatial paths: each query icon can match at
// most its symbol's whole posting list, scaled by how much of the query
// domain its padded window covers (records spread over the same domain, so
// the window/domain area ratio is the cheap stand-in for spatial density).
// All three spatial paths produce the same SET (window hits are
// symbol-filtered, hence a subset of the index union), so they share this
// estimate.
std::size_t window_mass(const image_database& db, const path_probe& probe) {
  const symbolic_image& query = *probe.image;
  const double domain_area =
      std::max(1.0, static_cast<double>(query.width()) *
                        static_cast<double>(query.height()));
  double total = 0.0;
  for (const icon& obj : query.icons()) {
    const double w = static_cast<double>(obj.mbr.x.hi - obj.mbr.x.lo +
                                         2 * probe.pad);
    const double h = static_cast<double>(obj.mbr.y.hi - obj.mbr.y.lo +
                                         2 * probe.pad);
    const double ratio = std::min(1.0, (w * h) / domain_area);
    total += static_cast<double>(db.postings(obj.symbol)) * ratio;
  }
  const auto capped = static_cast<std::size_t>(total);
  return std::min({capped, posting_mass(db, probe.symbols), db.size()});
}

// Drops the ids of a sorted list that fall outside `range` — how the
// spatial paths honor path_probe::range (their structures are not ordered
// by id, so they generate first and clip after).
void clip(std::vector<image_id>& ids, id_range range) {
  ids.erase(std::lower_bound(ids.begin(), ids.end(), range.hi), ids.end());
  ids.erase(ids.begin(), std::lower_bound(ids.begin(), ids.end(), range.lo));
}

void require_image(const path_probe& probe, access_path_kind kind) {
  if (probe.image == nullptr) {
    throw std::invalid_argument(std::string(to_string(kind)) +
                                " access path needs the query image");
  }
}

class full_scan_path final : public access_path {
 public:
  explicit full_scan_path(const image_database& db) : db_(&db) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::full_scan;
  }

  std::size_t estimate(const path_probe&) const override { return db_->size(); }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    const std::size_t hi =
        std::min<std::size_t>(db_->size(), probe.range.hi);
    std::vector<image_id> all;
    if (probe.range.lo < hi) {
      all.resize(hi - probe.range.lo);
      std::iota(all.begin(), all.end(), probe.range.lo);
    }
    if (stats != nullptr) *stats = access_path_stats{all.size(), 0};
    return all;
  }

 private:
  const image_database* db_;
};

class inverted_index_path final : public access_path {
 public:
  explicit inverted_index_path(const image_database& db) : db_(&db) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::inverted_index;
  }

  std::size_t estimate(const path_probe& probe) const override {
    return std::min(db_->size(), posting_mass(*db_, probe.symbols));
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    std::size_t generated = 0;
    std::vector<image_id> out =
        db_->candidates(probe.symbols, probe.range, &generated);
    if (stats != nullptr) *stats = access_path_stats{generated, 0};
    return out;
  }

 private:
  const image_database* db_;
};

class rtree_window_path final : public access_path {
 public:
  rtree_window_path(const image_database& db, const spatial_index& spatial)
      : db_(&db), spatial_(&spatial) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::rtree_window;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    std::size_t generated = 0;
    std::vector<image_id> out =
        window_candidates(*spatial_, *probe.image, probe.pad, &generated);
    clip(out, probe.range);
    if (stats != nullptr) *stats = access_path_stats{generated, 0};
    return out;
  }

 private:
  const image_database* db_;
  const spatial_index* spatial_;
};

class combined_path final : public access_path {
 public:
  combined_path(const image_database& db, const spatial_index& spatial)
      : db_(&db), spatial_(&spatial) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::combined;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    std::size_t generated = 0;
    std::vector<image_id> out =
        combined_candidates(*db_, *spatial_, *probe.image, probe.pad,
                            &generated);
    clip(out, probe.range);
    if (stats != nullptr) *stats = access_path_stats{generated, 0};
    return out;
  }

 private:
  const image_database* db_;
  const spatial_index* spatial_;
};

class hybrid_path final : public access_path {
 public:
  hybrid_path(const image_database& db, const hybrid_index& hybrid)
      : db_(&db), hybrid_(&hybrid) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::hybrid;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    hybrid_index::traversal_stats traversal;
    std::vector<image_id> out = hybrid_->candidates(
        *probe.image, probe.pad, stats != nullptr ? &traversal : nullptr);
    clip(out, probe.range);
    if (stats != nullptr) {
      *stats = access_path_stats{traversal.raw_hits, traversal.nodes_visited};
    }
    return out;
  }

 private:
  const image_database* db_;
  const hybrid_index* hybrid_;
};

}  // namespace

std::unique_ptr<access_path> make_access_path(access_path_kind kind,
                                              const access_path_context& ctx) {
  if (ctx.db == nullptr) {
    throw std::invalid_argument("make_access_path: null database");
  }
  switch (kind) {
    case access_path_kind::full_scan:
      return std::make_unique<full_scan_path>(*ctx.db);
    case access_path_kind::inverted_index:
      return std::make_unique<inverted_index_path>(*ctx.db);
    case access_path_kind::rtree_window:
      if (ctx.spatial == nullptr) break;
      return std::make_unique<rtree_window_path>(*ctx.db, *ctx.spatial);
    case access_path_kind::combined:
      if (ctx.spatial == nullptr) break;
      return std::make_unique<combined_path>(*ctx.db, *ctx.spatial);
    case access_path_kind::hybrid:
      if (ctx.hybrid == nullptr) break;
      return std::make_unique<hybrid_path>(*ctx.db, *ctx.hybrid);
  }
  throw std::invalid_argument("make_access_path: " +
                              std::string(to_string(kind)) +
                              " needs its index structure in the context");
}

namespace detail {

// The index/full-scan decision every legacy scan makes, now answered
// through the access-path interface: query.cpp and shard.cpp call this and
// never touch the inverted index directly.
std::vector<image_id> scan_ids(const image_database& db,
                               std::span<const symbol_id> query_symbols,
                               const query_options& options,
                               std::size_t* generated, id_range range) {
  const access_path_kind kind =
      options.use_index && !query_symbols.empty()
          ? access_path_kind::inverted_index
          : access_path_kind::full_scan;
  const access_path_context ctx{&db, nullptr, nullptr};
  access_path_stats stats;
  std::vector<image_id> ids = make_access_path(kind, ctx)->generate(
      path_probe{nullptr, query_symbols, 0, range}, &stats);
  if (generated != nullptr) *generated = stats.candidates_generated;
  return ids;
}

}  // namespace detail

}  // namespace bes
