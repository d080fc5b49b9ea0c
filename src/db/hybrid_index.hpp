// The fused spatial-visual traversal is spatial_index::candidates over the
// one R-tree of a database or shard. This alias remains only because the
// benchmark adapter (perfbench/adapter.hpp) still names the type; it goes
// with the planner's spatial paths (ROADMAP: "Delete the lossy
// planned/spatial ranked paths").
#pragma once

#include "db/spatial_index.hpp"

namespace bes {

using hybrid_index = spatial_index;

}  // namespace bes
