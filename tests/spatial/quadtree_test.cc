// Copyright 2026 The pasjoin Authors.
#include "spatial/quadtree.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pasjoin::spatial {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed, const Rect& box) {
  Rng rng(seed);
  std::vector<Point> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Point{rng.NextUniform(box.min_x, box.max_x),
                        rng.NextUniform(box.min_y, box.max_y)});
  }
  return out;
}

TEST(QuadTreeTest, EmptySampleYieldsSingleLeaf) {
  const QuadTreePartitioner qt(Rect{0, 0, 10, 10}, {});
  EXPECT_EQ(qt.num_partitions(), 1);
  EXPECT_EQ(qt.PartitionOf(Point{5, 5}), 0);
}

TEST(QuadTreeTest, SplitsWhenOverCapacity) {
  QuadTreeOptions options;
  options.max_items_per_node = 10;
  const std::vector<Point> sample = RandomPoints(1000, 3, Rect{0, 0, 10, 10});
  const QuadTreePartitioner qt(Rect{0, 0, 10, 10}, sample, options);
  EXPECT_GT(qt.num_partitions(), 16);
}

TEST(QuadTreeTest, PartitionOfIsConsistentWithBounds) {
  QuadTreeOptions options;
  options.max_items_per_node = 25;
  const Rect box{0, 0, 20, 20};
  const std::vector<Point> sample = RandomPoints(2000, 5, box);
  const QuadTreePartitioner qt(box, sample, options);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.NextUniform(0, 20), rng.NextUniform(0, 20)};
    const int part = qt.PartitionOf(p);
    ASSERT_GE(part, 0);
    ASSERT_LT(part, qt.num_partitions());
    EXPECT_TRUE(qt.PartitionBounds(part).Contains(p));
  }
}

TEST(QuadTreeTest, LeavesTileTheSpace) {
  QuadTreeOptions options;
  options.max_items_per_node = 20;
  const Rect box{0, 0, 16, 16};
  const QuadTreePartitioner qt(box, RandomPoints(3000, 11, box), options);
  double total_area = 0;
  for (int i = 0; i < qt.num_partitions(); ++i) {
    total_area += qt.PartitionBounds(i).Area();
  }
  EXPECT_NEAR(total_area, box.Area(), 1e-6);
}

TEST(QuadTreeTest, PartitionsIntersectingFindsAllOverlaps) {
  QuadTreeOptions options;
  options.max_items_per_node = 15;
  const Rect box{0, 0, 32, 32};
  const QuadTreePartitioner qt(box, RandomPoints(4000, 13, box), options);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const Point c{rng.NextUniform(0, 32), rng.NextUniform(0, 32)};
    const double half = rng.NextUniform(0.1, 3.0);
    const Rect query{c.x - half, c.y - half, c.x + half, c.y + half};
    std::set<int32_t> got;
    const auto found = qt.PartitionsIntersecting(query);
    for (size_t k = 0; k < found.size(); ++k) got.insert(found[k]);
    std::set<int32_t> expected;
    for (int part = 0; part < qt.num_partitions(); ++part) {
      if (qt.PartitionBounds(part).Intersects(query)) expected.insert(part);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(QuadTreeTest, MaxDepthBoundsPartitionCount) {
  QuadTreeOptions options;
  options.max_items_per_node = 1;
  options.max_depth = 2;
  const Rect box{0, 0, 8, 8};
  const QuadTreePartitioner qt(box, RandomPoints(1000, 19, box), options);
  EXPECT_LE(qt.num_partitions(), 16);  // 4^2 leaves at depth 2
}

TEST(QuadTreeTest, SkewedSampleProducesSkewedLeaves) {
  // All sample mass in one corner: leaves must be small there, large
  // elsewhere.
  QuadTreeOptions options;
  options.max_items_per_node = 10;
  const Rect box{0, 0, 100, 100};
  std::vector<Point> sample = RandomPoints(2000, 23, Rect{0, 0, 5, 5});
  const QuadTreePartitioner qt(box, sample, options);
  double min_area = 1e18, max_area = 0;
  for (int i = 0; i < qt.num_partitions(); ++i) {
    min_area = std::min(min_area, qt.PartitionBounds(i).Area());
    max_area = std::max(max_area, qt.PartitionBounds(i).Area());
  }
  EXPECT_LT(min_area * 100, max_area);
}

TEST(QuadTreeTest, FactoryRejectsTreesBeyondThirtyTwoBitLeafIds) {
  const Rect box{0, 0, 100, 100};
  const std::vector<Point> sample = RandomPoints(100, 29, box);
  QuadTreeOptions options;
  EXPECT_TRUE(QuadTreePartitioner::Make(box, sample, options).ok());
  options.max_depth = QuadTreePartitioner::kMaxDepth + 1;
  EXPECT_EQ(QuadTreePartitioner::Make(box, sample, options).status().code(),
            StatusCode::kInvalidArgument);
  options.max_depth = -1;
  EXPECT_FALSE(QuadTreePartitioner::Make(box, sample, options).ok());
  options = QuadTreeOptions{};
  options.max_items_per_node = 0;
  EXPECT_EQ(QuadTreePartitioner::Make(box, sample, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pasjoin::spatial
