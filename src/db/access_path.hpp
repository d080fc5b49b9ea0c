// The one candidate-generation interface behind every scan (ISSUE 7
// tentpole, part 1). The repo grew five ways to turn a query into a
// candidate id list — full scan, inverted symbol index, R-tree padded
// windows, symbol ∩ window, and the fused hybrid traversal — each with its
// own entry point that callers (and the eval harness) had to pick by hand.
// An access_path wraps each generator behind one interface yielding a
// sorted, unique candidate list plus a cheap cost estimate, so the scan
// engine (db/query.cpp, db/shard.cpp) and the cost-based planner
// (db/planner.hpp) consume candidate generation without knowing which
// structure produced it.
#pragma once

#include <memory>
#include <string_view>

#include "db/database.hpp"

namespace bes {

class spatial_index;
class hybrid_index;

enum class access_path_kind {
  full_scan,       // every record id; the only admissible-without-index path
  inverted_index,  // >= 1 shared symbol. NOT admissible: the kernel gives
                   // records sharing no query symbol a small nonzero score
                   // (the zero-shared-symbol score tail), and this path
                   // drops them (README "Query planning" caveat)
  rtree_window,    // >= 1 icon of a query symbol inside that icon's padded
                   // window (lossy under displacement > pad)
  combined,        // inverted_index ∩ rtree_window, materialized then
                   // intersected (db/prefilter.hpp)
  hybrid,          // the same set as combined from ONE fused traversal
                   // (db/hybrid_index.hpp)
};

[[nodiscard]] std::string_view to_string(access_path_kind kind) noexcept;
// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] access_path_kind access_path_kind_from(std::string_view name);

// One query, as every generator sees it. `image` may be null for the
// non-spatial paths (full_scan, inverted_index); the spatial paths throw
// std::invalid_argument without it. `pad` widens each query icon's window
// on every side (spatial paths only). Every path yields only ids in
// `range`; the default is the whole database. full_scan and inverted_index
// pay only for the ids in range (a cache delta refresh asks for just the
// appended suffix); the spatial paths clip their output.
struct path_probe {
  const symbolic_image* image = nullptr;
  std::span<const symbol_id> symbols;
  int pad = 0;
  id_range range{};
};

// Generation accounting (the candidates_generated side of search_stats).
struct access_path_stats {
  // Raw ids the generator produced before sorting/dedup/intersection —
  // >= the returned list's size, == it only when generation is exact.
  std::size_t candidates_generated = 0;
  // Tree nodes visited (spatial paths; 0 elsewhere).
  std::size_t nodes_visited = 0;
};

class access_path {
 public:
  virtual ~access_path() = default;

  [[nodiscard]] virtual access_path_kind kind() const noexcept = 0;

  // Cheap upper-bound estimate of generate()'s candidate count, from
  // statistics already on hand (db size, posting-list lengths, window/domain
  // area ratios). Never generates candidates; deterministic for a given
  // (probe, database state).
  [[nodiscard]] virtual std::size_t estimate(const path_probe& probe) const = 0;

  // The candidate ids (sorted, unique), ready for scan_shard /
  // search_candidates. `stats` (if non-null) is overwritten.
  [[nodiscard]] virtual std::vector<image_id> generate(
      const path_probe& probe, access_path_stats* stats = nullptr) const = 0;
};

// Everything a path may need to generate from. `db` is required; `spatial`
// only by rtree_window/combined; `hybrid` only by hybrid. make_access_path
// throws std::invalid_argument when the requested kind's structure is null.
struct access_path_context {
  const image_database* db = nullptr;
  const spatial_index* spatial = nullptr;
  const hybrid_index* hybrid = nullptr;
};

[[nodiscard]] std::unique_ptr<access_path> make_access_path(
    access_path_kind kind, const access_path_context& ctx);

}  // namespace bes
