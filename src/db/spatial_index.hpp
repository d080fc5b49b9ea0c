// Spatial access path over a whole database: every icon MBR of every image
// in one R-tree. Answers "which images have an icon (of symbol S) touching
// / inside this region" — the size-and-location query family (paper §1,
// category 2) that complements relation-based retrieval.
//
// The same tree is the fused spatial-visual index ("Hybrid Indexes to
// Expedite Spatial-Visual Search", PAPERS.md): each icon is inserted under
// its symbol's signature bit, so its nodes also summarize the symbols
// beneath them and candidates() prunes on window ∩ signature in one
// descent. This is the one spatial structure of a flat database and of each
// shard; the rtree_window, combined and hybrid access paths all generate
// through candidates().
#pragma once

#include <optional>
#include <shared_mutex>

#include "db/database.hpp"
#include "db/rtree.hpp"

namespace bes {

// Live ingest: an internal reader/writer lock lets one add_image() run
// against any number of window queries (the R-tree rebalances on insert, so
// lock-free reads are off the table). Writers are the database's single
// ingest thread; queries only ever take the shared side.
class spatial_index {
 public:
  // Indexes all icons of all current records. The index is a snapshot: add
  // images first, then build.
  explicit spatial_index(const image_database& db);

  // Deferred build for bulk-load paths (the segment loader, the shards):
  // starts empty so the caller can index each image as it lands.
  spatial_index(const image_database& db, deferred_build_t);

  // Indexes the icons of record `id` (which must already be in the
  // database), each under its symbol's signature bit. The snapshot
  // constructor above is this, called per record.
  void add_image(image_id id);

  // Ids of images with at least one icon overlapping `window`, optionally
  // restricted to a symbol (sorted, unique).
  [[nodiscard]] std::vector<image_id> images_overlapping(
      const rect& window, std::optional<symbol_id> symbol = {}) const;

  // Same, icon fully inside `window`.
  [[nodiscard]] std::vector<image_id> images_contained(
      const rect& window, std::optional<symbol_id> symbol = {}) const;

  // Fused-traversal accounting (access_path_stats).
  struct traversal_stats {
    std::size_t nodes_visited = 0;
    // Leaf hits the traversal produced before the exact recheck/dedup —
    // includes signature hash collisions and duplicate icons per image.
    std::size_t raw_hits = 0;
  };

  // Ids of images with at least one icon d and one query icon q such that
  // d.symbol == q.symbol and d.mbr overlaps q.mbr padded by `pad` pixels on
  // every side (sorted, unique), from one fused traversal plus an exact
  // per-hit recheck. Padded windows may extend past the image domain;
  // out-of-domain area matches nothing. pad < 0 throws.
  [[nodiscard]] std::vector<image_id> candidates(
      const symbolic_image& query, int pad,
      traversal_stats* stats = nullptr) const;

  // The signature bit an icon symbol maps to. 64 bits of alphabet are
  // collision-free; beyond that symbols alias (bit symbol % 64), which only
  // weakens pruning — never correctness, thanks to the exact recheck.
  [[nodiscard]] static rtree::signature_t signature_of(
      symbol_id symbol) noexcept {
    return rtree::signature_t{1} << (static_cast<unsigned>(symbol) % 64u);
  }

  [[nodiscard]] std::size_t indexed_icons() const {
    std::shared_lock lock(mutex_);
    return tree_.size();
  }
  // Tree height (0 when empty); safe against a concurrent add_image.
  [[nodiscard]] int height() const {
    std::shared_lock lock(mutex_);
    return tree_.height();
  }

 private:
  [[nodiscard]] std::vector<image_id> decode(
      std::vector<rtree::payload_t> hits, std::optional<symbol_id> symbol) const;

  const image_database* db_;
  rtree tree_;
  mutable std::shared_mutex mutex_;
};

}  // namespace bes
