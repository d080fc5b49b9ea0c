#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "db/prefilter.hpp"
#include "db/query.hpp"
#include "db/scan.hpp"
#include "db/segment.hpp"
#include "db/storage.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

std::filesystem::path temp_file(const char* stem) {
  return std::filesystem::temp_directory_path() /
         (std::string("bestring_db_") + stem + "_" + std::to_string(::getpid()));
}

symbolic_image scene_with(alphabet& names,
                          std::initializer_list<const char*> symbols) {
  symbolic_image img(64, 64);
  int offset = 0;
  for (const char* s : symbols) {
    img.add(names.intern(s),
            rect::checked(offset, offset + 6, offset, offset + 6));
    offset += 8;
  }
  return img;
}

image_database sample_db() {
  image_database db;
  db.add("ab", scene_with(db.symbols(), {"A", "B"}));
  db.add("bc", scene_with(db.symbols(), {"B", "C"}));
  db.add("cd", scene_with(db.symbols(), {"C", "D"}));
  return db;
}

// ---------------------------------------------------------------- basics

TEST(Database, AddAssignsDenseIds) {
  image_database db = sample_db();
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.record(0).name, "ab");
  EXPECT_EQ(db.record(2).name, "cd");
  EXPECT_THROW((void)db.record(3), std::out_of_range);
}

TEST(Database, StringsEncodedOnInsert) {
  image_database db = sample_db();
  EXPECT_EQ(db.record(0).strings, encode(db.record(0).image));
  EXPECT_TRUE(db.record(0).strings.well_formed());
}

TEST(Database, CandidatesViaIndex) {
  image_database db = sample_db();
  alphabet& names = db.symbols();
  const std::vector<symbol_id> query_b = {names.id_of("B")};
  EXPECT_EQ(db.candidates(query_b), (std::vector<image_id>{0, 1}));
  const std::vector<symbol_id> query_ad = {names.id_of("A"), names.id_of("D")};
  EXPECT_EQ(db.candidates(query_ad), (std::vector<image_id>{0, 2}));
}

TEST(Database, CandidatesForUnknownSymbolEmpty) {
  image_database db = sample_db();
  const std::vector<symbol_id> unknown = {999};
  EXPECT_TRUE(db.candidates(unknown).empty());
}

TEST(InvertedIndex, DeduplicatesWithinImage) {
  inverted_index index;
  const std::vector<symbol_id> symbols = {1, 1, 2};
  index.add(0, symbols);
  EXPECT_EQ(index.postings(1), 1u);
  EXPECT_EQ(index.postings(2), 1u);
  EXPECT_EQ(index.postings(3), 0u);
  EXPECT_EQ(index.distinct_symbols(), 2u);
}

TEST(InvertedIndex, RangeLookupIsTheFullLookupFilteredToTheRange) {
  inverted_index index;
  rng r(17);
  constexpr std::uint32_t size = 200;
  std::vector<std::vector<symbol_id>> symbols_of(size);
  for (std::uint32_t id = 0; id < size; ++id) {
    for (symbol_id s = 0; s < 8; ++s) {
      if (r.uniform_int(0, 3) == 0) symbols_of[id].push_back(s);
    }
    index.add(id, symbols_of[id]);
  }
  // Symbol 9 is unknown; repeated symbols must not duplicate ids.
  const std::vector<std::vector<symbol_id>> probes = {
      {0}, {1, 5}, {2, 2, 6}, {9}, {3, 9}, {0, 1, 2, 3, 4, 5, 6, 7}};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {0, size},        {50, 50},          {120, 60},
      {size, size + 5}, {size + 10, size + 20},
      {150, size + 100}, {0, std::numeric_limits<std::uint32_t>::max()}};
  for (std::uint32_t lo = 0; lo < size; lo += 7) ranges.emplace_back(lo, lo + 3);
  for (const auto& symbols : probes) {
    const std::vector<std::uint32_t> full = index.lookup_any(symbols);
    for (const auto& [lo, hi] : ranges) {
      std::vector<std::uint32_t> filtered;
      std::copy_if(full.begin(), full.end(), std::back_inserter(filtered),
                   [&](std::uint32_t id) { return id >= lo && id < hi; });
      std::vector<std::uint32_t> expected;
      for (std::uint32_t id = lo; id < std::min(hi, size); ++id) {
        const auto& has = symbols_of[id];
        if (std::any_of(symbols.begin(), symbols.end(), [&](symbol_id s) {
              return std::find(has.begin(), has.end(), s) != has.end();
            })) {
          expected.push_back(id);
        }
      }
      EXPECT_EQ(filtered, expected) << "[" << lo << ", " << hi << ")";
      std::size_t hits = 0;
      EXPECT_EQ(index.lookup_any(symbols, lo, hi, &hits), expected)
          << "[" << lo << ", " << hi << ")";
      EXPECT_GE(hits, expected.size());
    }
  }
}

TEST(Database, RangedCandidatesAndFullScanStayInsideTheRange) {
  image_database db = sample_db();
  db.add("ad", scene_with(db.symbols(), {"A", "D"}));
  db.add("f", scene_with(db.symbols(), {"F"}));
  const std::vector<symbol_id> query_a = {db.symbols().id_of("A")};
  EXPECT_EQ(db.candidates(query_a), (std::vector<image_id>{0, 3}));
  EXPECT_EQ(db.candidates(query_a, {1, 5}), (std::vector<image_id>{3}));
  EXPECT_TRUE(db.candidates(query_a, {1, 3}).empty());
  query_options full;
  full.use_index = false;
  EXPECT_EQ(detail::scan_ids(db, query_a, full, nullptr, {2, 99}),
            (std::vector<image_id>{2, 3, 4}));
  EXPECT_TRUE(detail::scan_ids(db, query_a, full, nullptr, {4, 2}).empty());
  std::size_t generated = 0;
  EXPECT_EQ(detail::scan_ids(db, query_a, query_options{}, &generated, {1, 5}),
            (std::vector<image_id>{3}));
  EXPECT_EQ(generated, 1u);
}

// ---------------------------------------------------------------- search

TEST(Search, ExactCopyRanksFirstWithScoreOne) {
  image_database db = sample_db();
  const auto results = search(db, db.record(1).image);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_DOUBLE_EQ(results[0].score, 1.0);
}

TEST(Search, TopKTruncates) {
  image_database db = sample_db();
  query_options options;
  options.top_k = 1;
  EXPECT_EQ(search(db, db.record(0).image, options).size(), 1u);
}

TEST(Search, MinScoreFilters) {
  image_database db = sample_db();
  query_options options;
  options.min_score = 1.01;  // nothing can reach this
  EXPECT_TRUE(search(db, db.record(0).image, options).empty());
}

TEST(Search, IndexOffScansEverything) {
  image_database db = sample_db();
  alphabet& names = db.symbols();
  // Query with a symbol absent from the db: index returns nothing, full
  // scan still scores everything (dummy matches only).
  symbolic_image query(64, 64);
  query.add(names.intern("Z"), rect::checked(0, 6, 0, 6));
  query_options with_index;
  query_options without_index;
  without_index.use_index = false;
  without_index.top_k = 0;
  EXPECT_TRUE(search(db, query, with_index).empty());
  EXPECT_EQ(search(db, query, without_index).size(), db.size());
}

TEST(Search, ParallelMatchesSerial) {
  image_database db;
  rng r(3);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 4;
  for (int i = 0; i < 40; ++i) {
    db.add("img" + std::to_string(i),
           random_scene(params, r, db.symbols()));
  }
  const symbolic_image& query = db.record(7).image;
  query_options serial;
  serial.top_k = 0;
  query_options parallel = serial;
  parallel.threads = 4;
  EXPECT_EQ(search(db, query, serial), search(db, query, parallel));
}

TEST(Search, TransformInvariantFindsRotatedImage) {
  image_database db;
  rng r(4);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 6;
  const symbolic_image original = random_scene(params, r, db.symbols());
  db.add("original", original);
  db.add("rotated", apply(dihedral::rot90, original));
  db.add("other", random_scene(params, r, db.symbols()));

  query_options plain;
  plain.top_k = 0;
  const auto without = search(db, original, plain);
  query_options invariant = plain;
  invariant.transform_invariant = true;
  const auto with = search(db, original, invariant);

  auto score_of = [](const std::vector<query_result>& rs, image_id id) {
    for (const auto& r : rs) {
      if (r.id == id) return r.score;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(score_of(with, 1), 1.0);   // rotated copy: perfect match
  EXPECT_LT(score_of(without, 1), 1.0);       // plain search misses it
  // The reported transform maps the query onto the stored image.
  for (const auto& res : with) {
    if (res.id == 1) {
      EXPECT_EQ(apply(res.transform, encode(original)),
                db.record(1).strings);
    }
  }
}

TEST(Search, TiesBrokenByIdAscending) {
  image_database db;
  const symbolic_image img = scene_with(db.symbols(), {"A"});
  db.add("first", img);
  db.add("second", img);  // identical picture
  const auto results = search(db, img);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].score, results[1].score);
  EXPECT_LT(results[0].id, results[1].id);
}

// ----------------------------------------------------- candidate prefilter

TEST(SearchCandidates, ScoresExactlyTheGivenSet) {
  image_database db = sample_db();
  const be_string2d query = db.record(1).strings;
  const std::vector<image_id> subset = {0, 2};  // exclude the true match
  query_options options;
  options.top_k = 0;
  search_stats stats;
  const auto results = search_candidates(db, query, subset, options, &stats);
  EXPECT_EQ(stats.scanned, 2u);
  ASSERT_EQ(results.size(), 2u);
  for (const query_result& r : results) {
    EXPECT_TRUE(r.id == 0 || r.id == 2);
  }
  // The full set reproduces the plain exhaustive scan.
  const std::vector<image_id> all = {0, 1, 2};
  query_options no_index = options;
  no_index.use_index = false;
  EXPECT_EQ(search_candidates(db, query, all, options),
            search(db, db.record(1).image, no_index));
}

TEST(SearchCandidates, RejectsOutOfRangeIds) {
  image_database db = sample_db();
  const std::vector<image_id> bad = {0, 17};
  EXPECT_THROW((void)search_candidates(db, db.record(0).strings, bad),
               std::out_of_range);
}

TEST(SearchCandidates, HonorsPruningAndThreads) {
  image_database db;
  rng r(21);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 5;
  for (int i = 0; i < 60; ++i) {
    db.add("img" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  std::vector<image_id> half;
  for (image_id id = 0; id < 60; id += 2) half.push_back(id);
  const be_string2d& query = db.record(8).strings;
  query_options plain;
  plain.top_k = 5;
  query_options tuned = plain;
  tuned.histogram_pruning = true;
  tuned.threads = 4;
  EXPECT_EQ(search_candidates(db, query, half, plain),
            search_candidates(db, query, half, tuned));
}

TEST(Prefilter, IntersectCandidatesIsSortedIntersection) {
  const std::vector<image_id> a = {1, 3, 5, 9};
  const std::vector<image_id> b = {3, 4, 9, 12};
  EXPECT_EQ(intersect_candidates(a, b), (std::vector<image_id>{3, 9}));
  EXPECT_TRUE(intersect_candidates(a, {}).empty());
}

TEST(Prefilter, WindowCandidatesFindsJitteredIconsWithinPad) {
  image_database db;
  alphabet& names = db.symbols();
  symbolic_image scene(100, 100);
  scene.add(names.intern("A"), rect::checked(10, 20, 10, 20));
  db.add("a", scene);
  const spatial_index index(db);

  // Query icon displaced 12px (a 2px gap past its origin): found once the
  // pad bridges the gap, lost unpadded, and never found under the wrong
  // symbol.
  symbolic_image moved(100, 100);
  moved.add(names.id_of("A"), rect::checked(22, 32, 10, 20));
  EXPECT_EQ(window_candidates(index, moved, 4),
            (std::vector<image_id>{0}));
  EXPECT_TRUE(window_candidates(index, moved, 0).empty());
  symbolic_image wrong_symbol(100, 100);
  wrong_symbol.add(names.intern("B"), rect::checked(10, 20, 10, 20));
  EXPECT_TRUE(window_candidates(index, wrong_symbol, 50).empty());
  EXPECT_THROW((void)window_candidates(index, moved, -1),
               std::invalid_argument);
}

// The ROADMAP "Candidate pruning" item: intersect the inverted-index and
// R-tree candidate sets on a 200-scene corpus and measure recall against
// the exhaustive scan. The eval harness records the same quantity per cell
// in the JSON report and gates it against eval/baseline.json; this test
// pins the mechanism at the API level.
TEST(Prefilter, CombinedRecallVsExhaustiveOn200Scenes) {
  image_database db;
  rng r(22);
  scene_params params;
  params.object_count = 8;
  params.symbol_pool = 10;
  params.max_extent = 64;
  for (int i = 0; i < 200; ++i) {
    db.add("img" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  const spatial_index index(db);
  constexpr int pad = 16;
  constexpr std::size_t top_k = 10;
  query_options options;
  options.top_k = top_k;

  double recall_sum = 0.0;
  std::size_t queries = 0;
  std::size_t combined_total = 0;
  for (image_id target = 0; target < 200; target += 10) {
    distortion_params d;
    d.keep_fraction = 0.75;
    d.jitter = 12;  // within pad
    d.seed = 1000 + target;
    alphabet scratch = db.symbols();
    const symbolic_image query = distort(db.record(target).image, d, scratch);
    const be_string2d strings = encode(query);

    const std::vector<image_id> symbol_set = db.candidates(query);
    const std::vector<image_id> window_set =
        window_candidates(index, query, pad);
    const std::vector<image_id> combined =
        combined_candidates(db, index, query, pad);
    // The intersection is exactly symbol ∩ window and no looser than either.
    EXPECT_EQ(combined, intersect_candidates(symbol_set, window_set));
    EXPECT_LE(combined.size(), std::min(symbol_set.size(), window_set.size()));
    combined_total += combined.size();

    query_options exhaustive = options;
    exhaustive.use_index = false;
    const auto want = search(db, query, exhaustive);
    const auto got = search_candidates(db, strings, combined, options);
    ASSERT_EQ(want.size(), top_k);
    std::vector<image_id> want_ids, got_ids;
    for (const auto& qr : want) want_ids.push_back(qr.id);
    for (const auto& qr : got) got_ids.push_back(qr.id);
    std::sort(want_ids.begin(), want_ids.end());
    std::sort(got_ids.begin(), got_ids.end());
    std::vector<image_id> common;
    std::set_intersection(want_ids.begin(), want_ids.end(), got_ids.begin(),
                          got_ids.end(), std::back_inserter(common));
    recall_sum +=
        static_cast<double>(common.size()) / static_cast<double>(top_k);
    // The jittered source image survives the combined filter and stays the
    // scan's top hit: every kept icon moved at most jitter <= pad.
    EXPECT_TRUE(std::binary_search(got_ids.begin(), got_ids.end(), target));
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0].id, target);
    ++queries;
  }
  const double recall = recall_sum / static_cast<double>(queries);
  // The filter must actually filter, yet keep recall well above a token
  // level; the precise loss for the eval corpus distribution lives in
  // eval/baseline.json ("combined/..." cells), not here.
  EXPECT_LT(combined_total, queries * 200);
  EXPECT_GE(recall, 0.5);
  RecordProperty("combined_recall_vs_exhaustive", std::to_string(recall));
}

// ---------------------------------------------------------------- storage

TEST(Storage, SaveLoadRoundTrip) {
  image_database db;
  rng r(5);
  scene_params params;
  params.object_count = 5;
  params.symbol_pool = 4;
  for (int i = 0; i < 10; ++i) {
    db.add("scene " + std::to_string(i),  // names with spaces must survive
           random_scene(params, r, db.symbols()));
  }
  const auto path = temp_file("roundtrip");
  save_database(db, path);
  const image_database loaded = load_database(path);
  ASSERT_EQ(loaded.size(), db.size());
  EXPECT_EQ(loaded.symbols().names(), db.symbols().names());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto id = static_cast<image_id>(i);
    EXPECT_EQ(loaded.record(id).name, db.record(id).name);
    EXPECT_EQ(loaded.record(id).image, db.record(id).image);
    EXPECT_EQ(loaded.record(id).strings, db.record(id).strings);
  }
  std::filesystem::remove(path);
}

TEST(Storage, LoadedDatabaseAnswersQueriesIdentically) {
  image_database db;
  rng r(6);
  scene_params params;
  params.object_count = 6;
  for (int i = 0; i < 12; ++i) {
    db.add("img", random_scene(params, r, db.symbols()));
  }
  const auto path = temp_file("queries");
  save_database(db, path);
  const image_database loaded = load_database(path);
  const symbolic_image& query = db.record(3).image;
  EXPECT_EQ(search(db, query), search(loaded, query));
  std::filesystem::remove(path);
}

TEST(Storage, RejectsMissingFile) {
  EXPECT_THROW((void)load_database("/nonexistent/x.besdb"),
               std::runtime_error);
}

TEST(Storage, RejectsBadHeader) {
  const auto path = temp_file("badheader");
  {
    std::ofstream out(path);
    out << "NOTADB 1\n";
  }
  EXPECT_THROW((void)load_database(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Storage, RejectsUnknownSymbolReference) {
  const auto path = temp_file("badsymbol");
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 1\nA\nimages 1\nimage 10 10 1 x\n"
        << "icon 7 0 1 0 1\n";  // symbol 7 does not exist
  }
  EXPECT_THROW((void)load_database(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Storage, RejectsTruncatedIconList) {
  const auto path = temp_file("truncated");
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 1\nA\nimages 1\nimage 10 10 2 x\n"
        << "icon 0 0 1 0 1\n";  // promised 2 icons, provided 1
  }
  EXPECT_THROW((void)load_database(path), std::runtime_error);
  std::filesystem::remove(path);
}

// The load-path integrity gap: icon rects that encode to a *different valid*
// BE-string than the recorded metadata implies must fail closed. The `check`
// line carries the CRC of the strings the writer actually encoded; a loader
// that re-encodes something else rejects the file.
TEST(Storage, RejectsIconsThatEncodeToADifferentValidString) {
  // The checksum the writer would have recorded for an icon at [0,1)x[0,1)...
  symbolic_image original(10, 10);
  original.add(0, rect::checked(0, 1, 0, 1));
  char recorded[16];
  std::snprintf(recorded, sizeof(recorded), "%08x",
                strings_checksum(encode(original)));
  // ...stapled to an icon moved to [2,3)x[2,3): still a well-formed encode,
  // just not the one the metadata promises.
  const auto path = temp_file("tampered_icon");
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 1\nA\nimages 1\nimage 10 10 1 x\n"
        << "icon 0 2 3 2 3\ncheck " << recorded << '\n';
  }
  EXPECT_THROW((void)load_database(path), std::runtime_error);
  // Control: the matching checksum loads cleanly.
  symbolic_image moved(10, 10);
  moved.add(0, rect::checked(2, 3, 2, 3));
  std::snprintf(recorded, sizeof(recorded), "%08x",
                strings_checksum(encode(moved)));
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 1\nA\nimages 1\nimage 10 10 1 x\n"
        << "icon 0 2 3 2 3\ncheck " << recorded << '\n';
  }
  EXPECT_EQ(load_database(path).size(), 1u);
  std::filesystem::remove(path);
}

TEST(Storage, RejectsMalformedCheckLine) {
  const auto path = temp_file("badcheck");
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 1\nA\nimages 1\nimage 10 10 1 x\n"
        << "icon 0 2 3 2 3\ncheck nothex!\n";
  }
  EXPECT_THROW((void)load_database(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Storage, LegacyFilesWithoutCheckLinesStillLoad) {
  const auto path = temp_file("legacy");
  {
    std::ofstream out(path);
    out << "BESDB 1\nalphabet 2\nA\nB\nimages 2\nimage 10 10 1 first\n"
        << "icon 0 2 3 2 3\nimage 8 8 1 second\nicon 1 1 4 1 4\n";
  }
  const image_database db = load_database(path);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.record(0).name, "first");
  EXPECT_EQ(db.record(1).name, "second");
  std::filesystem::remove(path);
}

TEST(Storage, TextSaveRecordsVerifiableChecksums) {
  image_database db;
  rng r(9);
  scene_params params;
  params.object_count = 4;
  for (int i = 0; i < 5; ++i) {
    db.add("img", random_scene(params, r, db.symbols()));
  }
  const auto path = temp_file("checked");
  save_database(db, path);
  // The file carries one check line per image and they all verify on load.
  std::ifstream in(path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::size_t checks = 0;
  for (std::size_t at = contents.find("check "); at != std::string::npos;
       at = contents.find("check ", at + 1)) {
    ++checks;
  }
  EXPECT_EQ(checks, db.size());
  EXPECT_EQ(load_database(path).size(), db.size());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bes
