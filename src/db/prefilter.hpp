// The lossy spatial candidate prefilter the paper's §1 contrasts with
// relation-based retrieval: R-tree windows over icon MBRs, symbol-matched.
//
// Unlike the histogram pruner in db/query.cpp this filter is NOT
// admissible: an image can be relevant yet share no symbol with the query,
// or have drifted outside every padded window. The eval harness
// (src/eval) therefore measures its recall against the exhaustive scan and
// gates it against a documented budget. `pad` absorbs expected object
// displacement: a query icon jittered by up to J pixels still overlaps its
// padded origin window whenever pad >= J.
#pragma once

#include "db/spatial_index.hpp"

namespace bes {

// Images with at least one icon of the same symbol as some query icon
// overlapping that icon's MBR padded by `pad` pixels on every side (union
// over query icons; sorted, unique): the one fused traversal of
// spatial_index::candidates. Every symbol-matched window hit shares a
// symbol with the query, so this set is already inside the inverted-index
// union — the rtree_window, combined and hybrid access paths all yield it.
// pad < 0 throws.
[[nodiscard]] inline std::vector<image_id> window_candidates(
    const spatial_index& index, const symbolic_image& query, int pad) {
  return index.candidates(query, pad);
}

}  // namespace bes
