#include "db/spatial_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace bes {

namespace {

constexpr rtree::payload_t pack(image_id image, std::size_t icon_index) {
  return (static_cast<rtree::payload_t>(image) << 32) |
         static_cast<rtree::payload_t>(icon_index);
}

constexpr image_id image_of(rtree::payload_t payload) {
  return static_cast<image_id>(payload >> 32);
}

constexpr std::size_t icon_of(rtree::payload_t payload) {
  return static_cast<std::size_t>(payload & 0xffffffffull);
}

rect padded(const rect& mbr, int pad) {
  return rect{interval{mbr.x.lo - pad, mbr.x.hi + pad},
              interval{mbr.y.lo - pad, mbr.y.hi + pad}};
}

void sort_unique(std::vector<image_id>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

spatial_index::spatial_index(const image_database& db) : db_(&db) {
  for (const db_record& rec : db.records()) add_image(rec.id);
}

spatial_index::spatial_index(const image_database& db, deferred_build_t)
    : db_(&db) {}

void spatial_index::add_image(image_id id) {
  const db_record& rec = db_->record(id);
  std::unique_lock lock(mutex_);
  for (std::size_t i = 0; i < rec.image.size(); ++i) {
    const icon& obj = rec.image.icons()[i];
    tree_.insert(obj.mbr, pack(rec.id, i), signature_of(obj.symbol));
  }
}

std::vector<image_id> spatial_index::decode(
    std::vector<rtree::payload_t> hits,
    std::optional<symbol_id> symbol) const {
  std::vector<image_id> out;
  out.reserve(hits.size());
  for (rtree::payload_t payload : hits) {
    const image_id id = image_of(payload);
    if (symbol) {
      const icon& obj = db_->record(id).image.icons()[icon_of(payload)];
      if (obj.symbol != *symbol) continue;
    }
    out.push_back(id);
  }
  sort_unique(out);
  return out;
}

std::vector<image_id> spatial_index::images_overlapping(
    const rect& window, std::optional<symbol_id> symbol) const {
  std::vector<rtree::payload_t> hits;
  {
    std::shared_lock lock(mutex_);
    hits = tree_.search(window);
  }
  // decode() touches only database records (stable storage), not the tree.
  return decode(std::move(hits), symbol);
}

std::vector<image_id> spatial_index::images_contained(
    const rect& window, std::optional<symbol_id> symbol) const {
  std::vector<rtree::payload_t> hits;
  {
    std::shared_lock lock(mutex_);
    hits = tree_.search_contained(window);
  }
  return decode(std::move(hits), symbol);
}

std::vector<image_id> spatial_index::candidates(const symbolic_image& query,
                                                int pad,
                                                traversal_stats* stats) const {
  if (pad < 0) {
    throw std::invalid_argument("spatial_index::candidates: pad must be >= 0");
  }
  std::vector<rtree::fused_probe> probes;
  probes.reserve(query.size());
  for (const icon& obj : query.icons()) {
    probes.push_back(
        rtree::fused_probe{padded(obj.mbr, pad), signature_of(obj.symbol)});
  }

  rtree::fused_stats fused;
  std::vector<rtree::payload_t> hits;
  {
    std::shared_lock lock(mutex_);
    hits = tree_.search_fused(probes, stats != nullptr ? &fused : nullptr);
  }
  if (stats != nullptr) {
    *stats = traversal_stats{fused.nodes_visited, hits.size()};
  }

  // Exact recheck: the signature is a superset filter (bit symbol % 64), so
  // a hit may owe its survival to a colliding symbol. Accept an icon only if
  // some query icon of the SAME symbol has its padded window overlapping it.
  std::vector<image_id> out;
  out.reserve(hits.size());
  for (rtree::payload_t payload : hits) {
    const image_id id = image_of(payload);
    const icon& obj = db_->record(id).image.icons()[icon_of(payload)];
    for (const icon& q : query.icons()) {
      if (q.symbol == obj.symbol && overlaps(padded(q.mbr, pad), obj.mbr)) {
        out.push_back(id);
        break;
      }
    }
  }
  sort_unique(out);
  return out;
}

}  // namespace bes
