// The retrieval-quality harness: run every cell of a retrieval
// configuration matrix (access path × similarity kernel × threads × batch)
// over an eval corpus and score each cell with rank metrics plus
// recall-vs-exhaustive.
//
// Every cell funnels through db/query (search / search_batch /
// search_candidates), so the numbers gate the real engine, not a replica.
// The exhaustive reference for recall is computed per kernel (threads=1,
// single-query) whether or not the matrix contains that cell.
#pragma once

#include <string>
#include <vector>

#include "db/query.hpp"
#include "eval/corpus.hpp"

namespace bes {

// How a cell generates its candidate set.
enum class scan_path : std::uint8_t {
  exhaustive,  // every image, no pruning — the recall reference
  pruned,      // every image through the admissible histogram pruner
  index,       // inverted symbol index (>= 1 shared symbol)
  rtree,       // R-tree padded-window prefilter (db/prefilter.hpp)
  combined,    // symbol index ∩ window prefilter — the same set as rtree
  hybrid,      // the fused symbol/R-tree traversal — the same set again;
               // all three score one set from one traversal
  planner,     // the cost-based planner picks the path and pad per query
               // (db/planner.hpp), with the histogram pruner engaged
};

[[nodiscard]] std::string_view to_string(scan_path path) noexcept;
// Inverse of to_string; throws std::invalid_argument on an unknown name.
[[nodiscard]] scan_path scan_path_from(std::string_view name);

struct eval_cell_config {
  scan_path path = scan_path::exhaustive;
  similarity_options sim;
  bool transform_invariant = false;
  unsigned threads = 1;
  bool batch = false;  // run through search_batch; prefilter paths go
                       // through search_batch_candidates (no shards)
  // 0 = the plain image_database; > 0 = fan-out/merge over a
  // sharded_database with this many consistent-hash partitions (results
  // are identical by construction — these cells gate that claim).
  std::size_t shards = 0;
  std::size_t top_k = 10;

  // "path/kernel/tN[/sS][/batch]", e.g. "pruned/signed-query/t4/s3".
  // Unique within default_eval_matrix; the report and baseline key cells
  // by it.
  [[nodiscard]] std::string name() const;

  friend bool operator==(const eval_cell_config&,
                         const eval_cell_config&) = default;
};

struct eval_cell_metrics {
  double p_at_1 = 0.0;
  double p_at_10 = 0.0;
  double mrr = 0.0;
  double ndcg_at_10 = 0.0;
  // Mean over queries of |cell top-k ∩ exhaustive top-k| / |exhaustive
  // top-k| for the same kernel. Provably 1.0 for exhaustive and pruned
  // cells; may dip below for index/rtree/combined (the documented loss).
  double recall_vs_exhaustive = 1.0;
  // Scan accounting summed over queries.
  std::size_t scanned = 0;
  std::size_t scored = 0;
  std::size_t pruned = 0;

  // pruned / scanned (0 when nothing was scanned) — the speedup half of
  // the pruner's contract. The baseline gates it for serial cells (their
  // scan order is deterministic): a regression that keeps results but
  // stops pruning fails by name, not just by wall clock.
  [[nodiscard]] double pruned_fraction() const noexcept {
    return scanned == 0 ? 0.0
                        : static_cast<double>(pruned) /
                              static_cast<double>(scanned);
  }

  friend bool operator==(const eval_cell_metrics&,
                         const eval_cell_metrics&) = default;
};

struct eval_cell_result {
  eval_cell_config config;
  eval_cell_metrics metrics;

  friend bool operator==(const eval_cell_result&,
                         const eval_cell_result&) = default;
};

struct eval_report {
  eval_corpus_params params;
  std::vector<eval_cell_result> cells;
};

// The default configuration matrix: all 7 access paths × 3 similarity
// kernels at t1, a transform-invariant exhaustive cell, thread-scaling
// cells (t`threads`), batch cells (including the combined prefilter through
// search_batch_candidates and the planner through search_batch_planned),
// and sharded fan-out cells (s3) covering the serial, threaded, batch, and
// planned sharded scans.
[[nodiscard]] std::vector<eval_cell_config> default_eval_matrix(
    unsigned threads = 4);

// Window padding used by the rtree/combined prefilter cells; equals the
// corpus generator's worst query jitter so only dropped/relabeled objects
// (not jitter alone) can push a relevant image out of the window.
[[nodiscard]] int eval_prefilter_pad(const eval_corpus_params& params);

// Runs every matrix cell over the corpus.
[[nodiscard]] eval_report run_eval(const eval_corpus& corpus,
                                   std::span<const eval_cell_config> matrix);

}  // namespace bes
