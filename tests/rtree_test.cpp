#include <gtest/gtest.h>

#include <algorithm>

#include "db/rtree.hpp"
#include "db/spatial_index.hpp"
#include "util/rng.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

rect random_box(rng& r, int domain, int max_extent) {
  const int w = r.uniform_int(1, max_extent);
  const int h = r.uniform_int(1, max_extent);
  const int x = r.uniform_int(0, domain - w);
  const int y = r.uniform_int(0, domain - h);
  return rect{interval{x, x + w}, interval{y, y + h}};
}

TEST(Rtree, EmptyTree) {
  rtree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.search(rect::checked(0, 10, 0, 10)).empty());
  EXPECT_TRUE(tree.check_invariants());
}

TEST(Rtree, RejectsInvalidBox) {
  rtree tree;
  EXPECT_THROW(tree.insert(rect{interval{3, 3}, interval{0, 1}}, 1, 1),
               std::invalid_argument);
}

TEST(Rtree, SingleEntry) {
  rtree tree;
  tree.insert(rect::checked(2, 5, 2, 5), 42, 1);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.search(rect::checked(0, 3, 0, 3)),
            (std::vector<rtree::payload_t>{42}));
  EXPECT_TRUE(tree.search(rect::checked(6, 9, 6, 9)).empty());
  // Touching edges only (half-open) does not overlap.
  EXPECT_TRUE(tree.search(rect::checked(5, 9, 2, 5)).empty());
}

TEST(Rtree, GrowsAndKeepsInvariants) {
  rtree tree;
  rng r(1);
  for (int i = 0; i < 500; ++i) {
    tree.insert(random_box(r, 1000, 60), static_cast<rtree::payload_t>(i),
                rtree::signature_t{1} << (i % 64));
    if (i % 50 == 0) {
      EXPECT_TRUE(tree.check_invariants()) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_TRUE(tree.check_invariants());
  EXPECT_GT(tree.height(), 1);
}

TEST(Rtree, DuplicateBoxesAllRetrieved) {
  rtree tree;
  const rect box = rect::checked(10, 20, 10, 20);
  for (rtree::payload_t p = 0; p < 30; ++p) tree.insert(box, p, 1);
  auto hits = tree.search(rect::checked(15, 16, 15, 16));
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(hits.size(), 30u);
  EXPECT_EQ(hits.front(), 0u);
  EXPECT_EQ(hits.back(), 29u);
  EXPECT_TRUE(tree.check_invariants());
}

class RtreeOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtreeOracle, SearchMatchesBruteForce) {
  rng r(GetParam());
  rtree tree;
  std::vector<rect> boxes;
  std::vector<rtree::signature_t> sigs;
  const int count = r.uniform_int(1, 400);
  for (int i = 0; i < count; ++i) {
    boxes.push_back(random_box(r, 512, 80));
    sigs.push_back(rtree::signature_t{1} << r.uniform_int(0, 63));
    tree.insert(boxes.back(), static_cast<rtree::payload_t>(i), sigs.back());
  }
  EXPECT_TRUE(tree.check_invariants());
  for (int probe = 0; probe < 20; ++probe) {
    const rect window = random_box(r, 512, 200);
    auto got = tree.search(window);
    std::sort(got.begin(), got.end());
    std::vector<rtree::payload_t> want;
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      if (overlaps(boxes[i], window)) {
        want.push_back(static_cast<rtree::payload_t>(i));
      }
    }
    EXPECT_EQ(got, want);

    auto got_contained = tree.search_contained(window);
    std::sort(got_contained.begin(), got_contained.end());
    std::vector<rtree::payload_t> want_contained;
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      if (contains(window, boxes[i])) {
        want_contained.push_back(static_cast<rtree::payload_t>(i));
      }
    }
    EXPECT_EQ(got_contained, want_contained);

    // Fused: an entry matches a probe when its box overlaps the probe's
    // window AND its signature shares a bit with the probe's mask.
    const std::vector<rtree::fused_probe> probes = {
        {window, rtree::signature_t{0xf0f0f0f0f0f0f0f0ull}},
        {random_box(r, 512, 120), rtree::signature_t{1} << r.uniform_int(0, 63)}};
    auto got_fused = tree.search_fused(probes);
    std::sort(got_fused.begin(), got_fused.end());
    std::vector<rtree::payload_t> want_fused;
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      for (const rtree::fused_probe& p : probes) {
        if ((sigs[i] & p.mask) != 0 && overlaps(boxes[i], p.window)) {
          want_fused.push_back(static_cast<rtree::payload_t>(i));
          break;
        }
      }
    }
    EXPECT_EQ(got_fused, want_fused);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtreeOracle,
                         ::testing::Range<std::uint64_t>(0, 20));

// ------------------------------------------------------------- index

TEST(SpatialIndex, FindsImagesByRegion) {
  image_database db;
  const symbol_id a = db.symbols().intern("A");
  const symbol_id b = db.symbols().intern("B");
  symbolic_image left(100, 100);
  left.add(a, rect::checked(0, 10, 0, 10));
  symbolic_image right(100, 100);
  right.add(a, rect::checked(80, 95, 80, 95));
  right.add(b, rect::checked(5, 15, 5, 15));
  db.add("left", left);
  db.add("right", right);

  const spatial_index index(db);
  EXPECT_EQ(index.indexed_icons(), 3u);
  EXPECT_EQ(index.images_overlapping(rect::checked(0, 20, 0, 20)),
            (std::vector<image_id>{0, 1}));
  EXPECT_EQ(index.images_overlapping(rect::checked(70, 100, 70, 100)),
            (std::vector<image_id>{1}));
  // Symbol filter: only image 1 has B in the lower-left region.
  EXPECT_EQ(index.images_overlapping(rect::checked(0, 20, 0, 20), b),
            (std::vector<image_id>{1}));
  EXPECT_EQ(index.images_contained(rect::checked(0, 16, 0, 16), b),
            (std::vector<image_id>{1}));
  EXPECT_TRUE(index.images_overlapping(rect::checked(40, 60, 40, 60)).empty());
}

TEST(SpatialIndex, AgreesWithLinearScanOnRandomCorpus) {
  image_database db;
  rng r(7);
  scene_params params;
  params.object_count = 6;
  params.width = 256;
  params.height = 256;
  params.max_extent = 48;
  for (int i = 0; i < 30; ++i) {
    db.add("s" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  const spatial_index index(db);
  for (int probe = 0; probe < 20; ++probe) {
    const rect window = random_box(r, 256, 100);
    std::vector<image_id> want;
    for (const db_record& rec : db.records()) {
      for (const icon& obj : rec.image.icons()) {
        if (overlaps(obj.mbr, window)) {
          want.push_back(rec.id);
          break;
        }
      }
    }
    EXPECT_EQ(index.images_overlapping(window), want);
  }
}

}  // namespace
}  // namespace bes
