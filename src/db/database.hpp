// The symbolic image database (paper §3.2: "While building an image database
// of 2D BE-string, we only require to call algorithm Convert_2D_Be_String
// ... and save the results, the 2D BE-string, to database").
//
// Each record keeps the symbolic picture (authoritative), its 2D BE-string
// (the retrieval representation, encoded on insert) and a name. An inverted
// symbol index narrows query scans to images sharing at least one icon
// symbol with the query.
//
// Live ingest (ROADMAP "Live ingest under traffic"): the database is safely
// writable under concurrent reads. Records live in chunked stable storage
// (util/stable_vector.hpp) so no add() ever moves an existing record, adds
// publish through an atomic visible-watermark (the stable_vector size), and
// remove() marks per-record tombstone epochs instead of erasing. snapshot()
// captures (watermark, epoch) — an immutable view scans filter against while
// writers keep going. Writers serialize on an internal mutex; readers never
// block. The alphabet is the one structure scans do NOT touch, so interning
// new symbols during adds is safe against concurrent searches — but callers
// reading symbol NAMES (display paths) must not race a writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/be_string.hpp"
#include "core/encoder.hpp"
#include "db/inverted_index.hpp"
#include "lcs/token_histogram.hpp"
#include "symbolic/symbolic_image.hpp"
#include "util/stable_vector.hpp"

namespace bes {

using image_id = std::uint32_t;

// A half-open range [lo, hi) of record ids. The default spans every id, so
// generation restricted to it is generation over the whole database.
struct id_range {
  image_id lo = 0;
  image_id hi = std::numeric_limits<image_id>::max();
};

// Tag selecting the deferred-build constructors of the db-side indexes
// (spatial_index, hybrid_index): the index starts empty so a bulk-load path
// can index each image in the same pass that materializes it.
struct deferred_build_t {
  explicit deferred_build_t() = default;
};
inline constexpr deferred_build_t deferred_build{};

struct db_record {
  image_id id = 0;
  std::string name;
  symbolic_image image;
  be_string2d strings;
  // Precomputed token histograms backing the top-k scan pruner.
  be_histogram2d histograms;
  // Tombstone epoch: 0 = live, otherwise the removal epoch (accessed through
  // std::atomic_ref so scans may read it while remove() writes it).
  std::uint64_t removed_at = 0;
};

class image_database;

// An immutable view of the database at one instant: records [0, visible)
// exist, and removals with epoch <= `epoch` are applied. Scans filter their
// candidates through alive() so a search pinned to a snapshot returns
// exactly what a quiesced database in that state would — while add()/
// remove() proceed underneath. Valid as long as the database outlives it
// (records are never moved or erased, only appended and tombstoned).
struct db_snapshot {
  const image_database* db = nullptr;
  std::uint64_t visible = 0;
  std::uint64_t epoch = 0;

  [[nodiscard]] bool alive(image_id id) const noexcept;
  // True when nothing needs filtering: every current record is visible and
  // no tombstone exists — the hot-path escape that keeps a static database's
  // scan byte-identical to the pre-ingest engine.
  [[nodiscard]] bool all_live() const noexcept;
};

class image_database {
 public:
  image_database() = default;

  image_database(image_database&&) noexcept = default;
  image_database& operator=(image_database&&) noexcept = default;

  // The alphabet shared by every image in this database.
  [[nodiscard]] alphabet& symbols() noexcept { return alphabet_; }
  [[nodiscard]] const alphabet& symbols() const noexcept { return alphabet_; }

  // Encodes and stores a picture; returns its id (dense, insertion order).
  // Safe to call while scans run; the record becomes visible atomically.
  image_id add(std::string name, symbolic_image image);

  // Bulk-load entry point for persistence paths that already carry the
  // encoded BE-strings (the BSEG1 segment reader): installs the record
  // without re-running Convert_2D_Be_String, rebuilds its histograms, and
  // feeds the inverted index — the same invariants as add(), one encode
  // cheaper. Precondition: `strings == encode(image)`; loaders enforce it
  // via checksums before calling.
  image_id add_encoded(std::string name, symbolic_image image,
                       be_string2d strings);

  // Same, with the pruner histograms also supplied (the segment persists
  // them); precondition: `histograms == make_histograms(strings)`.
  //
  // Strong exception guarantee: the record is staged into stable storage and
  // the inverted index updated BEFORE the visible-watermark publishes, and
  // an icon referencing a symbol the alphabet has not interned throws
  // std::invalid_argument before anything mutates — a throwing add leaves no
  // phantom posting and no half-visible record.
  image_id add_encoded(std::string name, symbolic_image image,
                       be_string2d strings, be_histogram2d histograms);

  // Tombstones record `id`: it stays addressable (record(id) still works;
  // persistence still writes it) but snapshots taken from now on treat it as
  // gone and searches skip it. Returns false when `id` is unknown or already
  // removed. Safe against concurrent scans.
  bool remove(image_id id);

  // The view every new scan uses; capture one explicitly to pin several
  // searches to the same instant while writes continue.
  [[nodiscard]] db_snapshot snapshot() const noexcept;

  // Removal epoch of `id` (0 = live). Safe against a concurrent remove().
  [[nodiscard]] std::uint64_t removed_epoch(image_id id) const noexcept;
  [[nodiscard]] bool removed(image_id id) const noexcept {
    return removed_epoch(id) != 0;
  }
  // Latest removal epoch (monotone; 0 before any remove).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return ingest_->epoch.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t tombstone_count() const noexcept {
    return ingest_->tombstones.load(std::memory_order_acquire);
  }
  // Records not tombstoned (size() counts tombstoned ones too).
  [[nodiscard]] std::size_t live_size() const noexcept {
    return size() - tombstone_count();
  }

  // Pre-sizes the record storage AND the inverted index ahead of a bulk
  // load: `distinct_symbols` (when known) reserves the posting-list hash so
  // the load never rehashes mid-ingest.
  void reserve(std::size_t record_count, std::size_t symbol_count = 0) {
    records_.reserve(record_count);
    if (symbol_count > 0) index_.reserve(symbol_count);
  }

  [[nodiscard]] const db_record& record(image_id id) const;
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const stable_vector<db_record>& records() const noexcept {
    return records_;
  }

  // Ids in `range` of images sharing at least one symbol with
  // `query_symbols` (sorted, unique). May include tombstoned ids — scans
  // filter them against their snapshot (and count them as pruned).
  // `generated` (if non-null) receives the raw posting hits before dedup.
  [[nodiscard]] std::vector<image_id> candidates(
      std::span<const symbol_id> query_symbols, id_range range = {},
      std::size_t* generated = nullptr) const;
  [[nodiscard]] std::vector<image_id> candidates(
      const symbolic_image& query) const;

  // Posting-list length for `symbol` (0 when absent): the cheapest
  // selectivity statistic there is, read per query symbol by the cost-based
  // planner (db/planner.hpp) to estimate candidate counts before generating
  // anything.
  [[nodiscard]] std::size_t postings(symbol_id symbol) const;

 private:
  // Writer serialization + index guard, behind a unique_ptr so the database
  // stays movable (loaders return it by value before any concurrency).
  struct ingest_state {
    std::mutex write_mutex;
    mutable std::shared_mutex index_mutex;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> tombstones{0};
  };

  alphabet alphabet_;
  stable_vector<db_record> records_;
  inverted_index index_;
  std::unique_ptr<ingest_state> ingest_ = std::make_unique<ingest_state>();
};

// The distinct symbols of a picture (sorted).
[[nodiscard]] std::vector<symbol_id> distinct_symbols(
    const symbolic_image& image);

}  // namespace bes
