#include "eval/harness.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include <optional>

#include "db/planner.hpp"
#include "db/prefilter.hpp"
#include "db/shard.hpp"

namespace bes {

namespace {

std::string_view norm_name(norm_kind norm) {
  switch (norm) {
    case norm_kind::query: return "query";
    case norm_kind::max_len: return "max-len";
    case norm_kind::dice: return "dice";
    case norm_kind::min_len: return "min-len";
  }
  throw std::invalid_argument("norm_name: unknown norm");
}

// "signed-query", "exact-query", "signed-dice", "signed-query-tinv", ...
std::string kernel_name(const eval_cell_config& cell) {
  std::string out = cell.sim.exact_lcs ? "exact-" : "signed-";
  out += norm_name(cell.sim.norm);
  if (cell.transform_invariant) out += "-tinv";
  return out;
}

std::vector<std::uint32_t> ids_of(const std::vector<query_result>& results) {
  std::vector<std::uint32_t> out;
  out.reserve(results.size());
  for (const query_result& r : results) out.push_back(r.id);
  return out;
}

double overlap_fraction(std::vector<std::uint32_t> got,
                        std::vector<std::uint32_t> want) {
  if (want.empty()) return 1.0;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  std::vector<std::uint32_t> common;
  std::set_intersection(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(want.size());
}

query_options options_for(const eval_cell_config& cell) {
  query_options opts;
  opts.top_k = cell.top_k;
  opts.similarity = cell.sim;
  opts.transform_invariant = cell.transform_invariant;
  opts.threads = cell.threads;
  // The planner reads use_index as "index paths allowed at all" and runs
  // its candidates through the admissible pruner, so its serial cells get
  // a deterministic pruned-fraction floor like the pruned cells do.
  opts.use_index =
      cell.path == scan_path::index || cell.path == scan_path::planner;
  opts.histogram_pruning =
      cell.path == scan_path::pruned || cell.path == scan_path::planner;
  return opts;
}

// Paths that score a precomputed candidate set through search_candidates.
bool uses_prefilter(scan_path path) {
  return path == scan_path::rtree || path == scan_path::combined ||
         path == scan_path::hybrid;
}

}  // namespace

std::string_view to_string(scan_path path) noexcept {
  switch (path) {
    case scan_path::exhaustive: return "exhaustive";
    case scan_path::pruned: return "pruned";
    case scan_path::index: return "index";
    case scan_path::rtree: return "rtree";
    case scan_path::combined: return "combined";
    case scan_path::hybrid: return "hybrid";
    case scan_path::planner: return "planner";
  }
  return "?";
}

scan_path scan_path_from(std::string_view name) {
  for (scan_path p :
       {scan_path::exhaustive, scan_path::pruned, scan_path::index,
        scan_path::rtree, scan_path::combined, scan_path::hybrid,
        scan_path::planner}) {
    if (to_string(p) == name) return p;
  }
  throw std::invalid_argument("scan_path_from: unknown path '" +
                              std::string(name) + "'");
}

std::string eval_cell_config::name() const {
  std::string out(to_string(path));
  out += '/';
  out += kernel_name(*this);
  out += "/t" + std::to_string(threads);
  if (shards > 0) out += "/s" + std::to_string(shards);
  if (batch) out += "/batch";
  return out;
}

std::vector<eval_cell_config> default_eval_matrix(unsigned threads) {
  std::vector<similarity_options> kernels(3);
  kernels[0] = {};                              // signed-query (paper default)
  kernels[1].exact_lcs = true;                  // exact-query
  kernels[2].norm = norm_kind::dice;            // signed-dice

  std::vector<eval_cell_config> matrix;
  for (scan_path path :
       {scan_path::exhaustive, scan_path::pruned, scan_path::index,
        scan_path::rtree, scan_path::combined, scan_path::hybrid,
        scan_path::planner}) {
    for (const similarity_options& sim : kernels) {
      eval_cell_config cell;
      cell.path = path;
      cell.sim = sim;
      matrix.push_back(cell);
    }
  }
  {  // transform-invariant scan (its own kernel; it is its own reference)
    eval_cell_config cell;
    cell.transform_invariant = true;
    matrix.push_back(cell);
  }
  if (threads > 1) {  // thread-scaling cells: results must not change
    eval_cell_config cell;
    cell.threads = threads;
    matrix.push_back(cell);
    cell.path = scan_path::pruned;
    matrix.push_back(cell);
  }
  {  // batch cells: search_batch must agree with per-query search
    eval_cell_config cell;
    cell.batch = true;
    matrix.push_back(cell);
    cell.path = scan_path::pruned;
    cell.threads = std::max(1u, threads);
    matrix.push_back(cell);
  }
  {  // the combined prefilter through the batch path
     // (search_batch_candidates): same recall contract as its single-query
     // cell, batch scheduling covered by the gate
    eval_cell_config cell;
    cell.path = scan_path::combined;
    cell.batch = true;
    cell.threads = std::max(1u, threads);
    matrix.push_back(cell);
  }
  {  // the planner across schedulers: threaded single-query and batch
     // (search_batch_planned) must match the serial planner cells
    eval_cell_config cell;
    cell.path = scan_path::planner;
    cell.threads = std::max(1u, threads);
    matrix.push_back(cell);  // planner/tN
    cell.batch = true;
    matrix.push_back(cell);  // planner/tN/batch
  }
  {  // sharded fan-out cells: serial (deterministic pruned-fraction
     // anchor), threaded, and batch — all provably identical results
    eval_cell_config cell;
    cell.shards = 3;
    cell.path = scan_path::pruned;
    matrix.push_back(cell);  // pruned/t1/s3
    cell.threads = std::max(1u, threads);
    cell.path = scan_path::exhaustive;
    matrix.push_back(cell);  // exhaustive/tN/s3
    cell.path = scan_path::pruned;
    cell.batch = true;
    matrix.push_back(cell);  // pruned/tN/s3/batch
  }
  {  // the sharded planner: one plan per (query, shard), serial so its
     // pruned fraction stays a deterministic gate anchor
    eval_cell_config cell;
    cell.path = scan_path::planner;
    cell.shards = 3;
    matrix.push_back(cell);  // planner/t1/s3
  }
  return matrix;
}

int eval_prefilter_pad(const eval_corpus_params& params) {
  // Worst family jitter (mid/far tier: domain/16) plus the query tier's own
  // jitter (domain/32): a kept, jittered object of any relevant image still
  // overlaps the query icon's padded window.
  return std::max(2, params.domain / 16 + params.domain / 32);
}

eval_report run_eval(const eval_corpus& corpus,
                     std::span<const eval_cell_config> matrix) {
  const image_database& db = corpus.db;
  const std::size_t nq = corpus.queries.size();
  if (nq == 0) throw std::invalid_argument("run_eval: corpus has no queries");

  std::vector<be_string2d> strings;
  std::vector<std::vector<symbol_id>> symbols;
  strings.reserve(nq);
  symbols.reserve(nq);
  for (const eval_query& q : corpus.queries) {
    strings.push_back(encode(q.image));
    symbols.push_back(distinct_symbols(q.image));
  }

  // One spatial candidate set per query, from one fused traversal at the
  // fixed eval pad: the rtree, combined and hybrid cells all score it.
  std::vector<std::vector<image_id>> window_sets;
  const bool any_prefilter =
      std::any_of(matrix.begin(), matrix.end(), [](const eval_cell_config& c) {
        return uses_prefilter(c.path);
      });
  const bool any_planner =
      std::any_of(matrix.begin(), matrix.end(), [](const eval_cell_config& c) {
        return c.path == scan_path::planner;
      });
  // The planner cells plan against the same index.
  std::optional<spatial_index> sindex;
  if (any_prefilter || any_planner) sindex.emplace(db);
  if (any_prefilter) {
    const int pad = eval_prefilter_pad(corpus.params);
    window_sets.reserve(nq);
    for (const eval_query& q : corpus.queries) {
      window_sets.push_back(window_candidates(*sindex, q.image, pad));
    }
  }
  // The planner's batch entry point takes the symbolic queries themselves.
  std::vector<symbolic_image> query_images;
  if (any_planner) {
    query_images.reserve(nq);
    for (const eval_query& q : corpus.queries) query_images.push_back(q.image);
  }

  // Sharded views of the corpus, one per distinct shard count in the
  // matrix (built lazily; record i keeps global id i so rankings compare
  // 1:1 against the flat database).
  std::map<std::size_t, sharded_database> sharded_views;
  auto sharded_view = [&](std::size_t shards) -> const sharded_database& {
    auto it = sharded_views.find(shards);
    if (it == sharded_views.end()) {
      it = sharded_views.emplace(shards, make_sharded(db, shards)).first;
    }
    return it->second;
  };

  // Per-query ranked ids of one cell; accumulates scan stats.
  auto run_cell = [&](const eval_cell_config& cell,
                      eval_cell_metrics& metrics) {
    const query_options opts = options_for(cell);
    std::vector<std::vector<std::uint32_t>> ranked(nq);
    auto absorb = [&metrics](const search_stats& stats) {
      metrics.scanned += stats.scanned;
      metrics.scored += stats.scored;
      metrics.pruned += stats.pruned;
    };
    const spatial_index* index = sindex ? &*sindex : nullptr;
    const planner_context pctx{&db, index, index};
    if (cell.batch) {
      if (cell.shards > 0 && uses_prefilter(cell.path)) {
        throw std::invalid_argument(
            "run_eval: sharded batch cells cannot use a prefilter path");
      }
      std::vector<search_stats> stats;
      std::vector<std::vector<query_result>> results;
      if (uses_prefilter(cell.path)) {
        // The prefiltered candidate sets ride the batch scheduler.
        results = search_batch_candidates(db, strings, window_sets, opts,
                                          &stats);
      } else if (cell.path == scan_path::planner) {
        results = cell.shards > 0
                      ? search_batch_planned(sharded_view(cell.shards),
                                             query_images, opts, &stats)
                      : search_batch_planned(pctx, query_images, opts, &stats);
      } else if (cell.shards > 0) {
        results =
            search_batch(sharded_view(cell.shards), strings, symbols, opts,
                         &stats);
      } else {
        results = search_batch(db, strings, symbols, opts, &stats);
      }
      for (std::size_t i = 0; i < nq; ++i) {
        ranked[i] = ids_of(results[i]);
        absorb(stats[i]);
      }
      return ranked;
    }
    for (std::size_t i = 0; i < nq; ++i) {
      search_stats stats;
      std::vector<query_result> results;
      const std::span<const image_id> candidate_set =
          uses_prefilter(cell.path) ? window_sets[i]
                                    : std::span<const image_id>{};
      if (cell.path == scan_path::planner) {
        results = cell.shards > 0
                      ? search_planned(sharded_view(cell.shards),
                                       corpus.queries[i].image, opts, &stats)
                      : search_planned(pctx, corpus.queries[i].image,
                                       strings[i], symbols[i], opts, &stats);
      } else if (cell.shards > 0) {
        const sharded_database& sharded = sharded_view(cell.shards);
        results = uses_prefilter(cell.path)
                      ? search_candidates(sharded, strings[i], candidate_set,
                                          opts, &stats)
                      : search(sharded, strings[i], symbols[i], opts, &stats);
      } else if (uses_prefilter(cell.path)) {
        results = search_candidates(db, strings[i], candidate_set, opts,
                                    &stats);
      } else {
        results = search(db, strings[i], symbols[i], opts, &stats);
      }
      ranked[i] = ids_of(results);
      absorb(stats);
    }
    return ranked;
  };

  // Exhaustive reference rankings per kernel (computed lazily; a cell whose
  // config IS the reference reuses its own rankings).
  std::map<std::string, std::vector<std::vector<std::uint32_t>>> references;
  auto reference_config = [](const eval_cell_config& cell) {
    eval_cell_config ref = cell;
    ref.path = scan_path::exhaustive;
    ref.threads = 1;
    ref.batch = false;
    ref.shards = 0;
    return ref;
  };
  auto reference_for =
      [&](const eval_cell_config& cell)
      -> const std::vector<std::vector<std::uint32_t>>& {
    const eval_cell_config ref = reference_config(cell);
    const std::string key = ref.name() + "/k" + std::to_string(ref.top_k);
    auto it = references.find(key);
    if (it == references.end()) {
      eval_cell_metrics scratch;
      it = references.emplace(key, run_cell(ref, scratch)).first;
    }
    return it->second;
  };

  eval_report report;
  report.params = corpus.params;
  for (const eval_cell_config& cell : matrix) {
    eval_cell_result result;
    result.config = cell;
    std::vector<std::vector<std::uint32_t>> ranked =
        run_cell(cell, result.metrics);
    if (cell == reference_config(cell)) {
      // This cell IS its kernel's reference; remember its rankings so later
      // cells (and its own recall term) reuse them.
      references.emplace(cell.name() + "/k" + std::to_string(cell.top_k),
                         ranked);
    }
    const auto& reference = reference_for(cell);
    double recall = 0.0;
    for (std::size_t i = 0; i < nq; ++i) {
      const eval_query& q = corpus.queries[i];
      const std::vector<std::uint32_t> relevant = relevant_ids(q.relevance);
      result.metrics.p_at_1 += precision_at_k(ranked[i], relevant, 1);
      result.metrics.p_at_10 += precision_at_k(ranked[i], relevant, 10);
      result.metrics.mrr += reciprocal_rank(ranked[i], q.relevance);
      result.metrics.ndcg_at_10 += ndcg_at_k(ranked[i], q.relevance, 10);
      recall += overlap_fraction(ranked[i], reference[i]);
    }
    const double n = static_cast<double>(nq);
    result.metrics.p_at_1 /= n;
    result.metrics.p_at_10 /= n;
    result.metrics.mrr /= n;
    result.metrics.ndcg_at_10 /= n;
    result.metrics.recall_vs_exhaustive = recall / n;
    report.cells.push_back(std::move(result));
  }
  return report;
}

}  // namespace bes
