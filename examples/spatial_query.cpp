// spatial_query: the paper's introduction scenario as an executable query
// language — "find all images which icon A locates at the left side and
// icon B locates at the right" — plus R-tree window filtering (the paper's
// related-work category 2: indexing by size and location).
//
//   ./spatial_query "A left-of B & C above A"
//   ./spatial_query --images 30 "table contains lamp"
#include <cstdio>

#include "db/spatial_index.hpp"
#include "reasoning/query_lang.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/scene_gen.hpp"

int main(int argc, char** argv) {
  using namespace bes;
  arg_parser args(
      "Structured spatial queries over an image database.\n"
      "Positional argument: a query like \"A left-of B & C above A\".\n"
      "Predicates: left-of right-of above below inside contains overlaps\n"
      "            disjoint-from meets-x meets-y same-place");
  args.add_int("images", 25, "database size");
  args.add_int("objects", 6, "icons per scene");
  args.add_int("seed", 9, "seed");
  args.add_bool("full-only", false, "print only fully matching images");
  try {
    if (!args.parse(argc, argv)) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  // Build a corpus over a small vocabulary so queries have hits.
  image_database db;
  rng r(static_cast<std::uint64_t>(args.get_int("seed")));
  scene_params params;
  params.width = 200;
  params.height = 200;
  params.object_count = static_cast<std::size_t>(args.get_int("objects"));
  params.symbol_pool = 4;  // S0..S3
  params.max_extent = 60;
  const auto images = static_cast<std::size_t>(args.get_int("images"));
  for (std::size_t i = 0; i < images; ++i) {
    db.add("scene" + std::to_string(i), random_scene(params, r, db.symbols()));
  }

  const std::string query_text = args.positional().empty()
                                     ? "S0 left-of S1 & S2 above S0"
                                     : args.positional().front();
  spatial_query query;
  try {
    query = parse_query(query_text);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "query error: %s\n", error.what());
    return 1;
  }
  std::printf("query: %s   (%zu clauses over symbols", query_text.c_str(),
              query.clauses.size());
  for (const std::string& v : query.variables()) std::printf(" %s", v.c_str());
  std::printf(")\n\n");

  const auto ranked = search_structured(db, query, args.get_bool("full-only"));
  text_table table({"image", "satisfied", "of"});
  std::size_t shown = 0;
  for (const structured_result& result : ranked) {
    if (shown++ == 10) break;
    table.add_row({db.record(result.id).name, std::to_string(result.satisfied),
                   std::to_string(result.total)});
  }
  std::fputs(table.str().c_str(), stdout);

  // Bonus: the R-tree access path. Which images place ANY icon in the
  // upper-left quadrant?
  const spatial_index index(db);
  const rect quadrant = rect::checked(0, 100, 100, 200);
  const auto in_region = index.images_overlapping(quadrant);
  std::printf(
      "\nR-tree window query (icon in upper-left quadrant): %zu of %zu "
      "images, tree height %d over %zu icons\n",
      in_region.size(), db.size(), index.height(),
      index.indexed_icons());
  return 0;
}
