// Copyright 2026 The pasjoin Authors.
#include "grid/grid.h"

#include <gtest/gtest.h>

namespace pasjoin::grid {
namespace {

Grid MakeGrid(double w, double h, double eps, double factor) {
  Result<Grid> g = Grid::Make(Rect{0, 0, w, h}, eps, factor);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return g.MoveValue();
}

TEST(GridMakeTest, RejectsBadArguments) {
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, 0.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, -1.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 0, 10}, 1.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, 1.0, 1.5).ok());
  // MBR smaller than 2*eps in one axis cannot host a valid grid.
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 1.0, 10}, 1.0).ok());
}

TEST(GridMakeTest, CellSidesStrictlyExceedTwoEps) {
  // 10 / (2*1) = 5 cells would give sides == 2*eps exactly; the builder must
  // shrink to keep l > 2*eps (Section 4.1).
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_GT(g.cell_width(), 2.0);
  EXPECT_GT(g.cell_height(), 2.0);
  EXPECT_EQ(g.nx(), 4);
  EXPECT_EQ(g.ny(), 4);
}

TEST(GridMakeTest, ResolutionFactorScalesCells) {
  const Grid g2 = MakeGrid(30, 30, 1.0, 2.0);
  const Grid g5 = MakeGrid(30, 30, 1.0, 5.0);
  EXPECT_GT(g5.cell_width(), g2.cell_width());
  EXPECT_EQ(g5.nx(), 6);
  // 30 / (2*eps) = 15 cells would make sides exactly 2*eps; the builder
  // shrinks to 14 to keep them strictly larger.
  EXPECT_EQ(g2.nx(), 14);
}

TEST(GridMakeTest, BaselineFactoryAllowsEpsCells) {
  Result<Grid> g = Grid::MakeForBaseline(Rect{0, 0, 10, 10}, 1.0, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().nx(), 10);
  EXPECT_DOUBLE_EQ(g.value().cell_width(), 1.0);
  EXPECT_FALSE(Grid::MakeForBaseline(Rect{0, 0, 10, 10}, 1.0, -1.0).ok());
}

TEST(GridTest, CellIdRoundTrip) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.0);
  for (int cy = 0; cy < g.ny(); ++cy) {
    for (int cx = 0; cx < g.nx(); ++cx) {
      const CellId id = g.CellIdOf(cx, cy);
      EXPECT_EQ(g.CellX(id), cx);
      EXPECT_EQ(g.CellY(id), cy);
    }
  }
  EXPECT_EQ(g.num_cells(), g.nx() * g.ny());
}

TEST(GridTest, LocateMatchesCellRect) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.3);
  for (double x = 0.1; x < 21; x += 0.71) {
    for (double y = 0.1; y < 13; y += 0.53) {
      const Point p{x, y};
      const CellId id = g.Locate(p);
      EXPECT_TRUE(g.CellRect(id).Contains(p))
          << "point (" << x << "," << y << ") cell " << id;
    }
  }
}

TEST(GridTest, LocateClampsOutsidePoints) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_EQ(g.Locate(Point{-5, -5}), g.CellIdOf(0, 0));
  EXPECT_EQ(g.Locate(Point{100, 100}), g.CellIdOf(g.nx() - 1, g.ny() - 1));
  // Points exactly on the max border belong to the last cell.
  EXPECT_EQ(g.Locate(Point{10, 10}), g.CellIdOf(g.nx() - 1, g.ny() - 1));
}

TEST(GridTest, QuartetIdsCoverInteriorCornersOnly) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.0);
  EXPECT_EQ(g.num_quartets(), (g.nx() - 1) * (g.ny() - 1));
  EXPECT_EQ(g.QuartetIdOf(0, 1), kInvalidId);
  EXPECT_EQ(g.QuartetIdOf(1, 0), kInvalidId);
  EXPECT_EQ(g.QuartetIdOf(g.nx(), 1), kInvalidId);
  int seen = 0;
  for (int qx = 1; qx < g.nx(); ++qx) {
    for (int qy = 1; qy < g.ny(); ++qy) {
      const QuartetId q = g.QuartetIdOf(qx, qy);
      ASSERT_NE(q, kInvalidId);
      EXPECT_EQ(g.QuartetX(q), qx);
      EXPECT_EQ(g.QuartetY(q), qy);
      ++seen;
    }
  }
  EXPECT_EQ(seen, g.num_quartets());
}

TEST(GridTest, QuartetGeometry) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);  // 4x4 cells of 2.5
  const QuartetId q = g.QuartetIdOf(2, 3);
  const Point ref = g.QuartetRefPoint(q);
  EXPECT_DOUBLE_EQ(ref.x, 5.0);
  EXPECT_DOUBLE_EQ(ref.y, 7.5);
  EXPECT_EQ(g.QuartetCellId(q, kSW), g.CellIdOf(1, 2));
  EXPECT_EQ(g.QuartetCellId(q, kSE), g.CellIdOf(2, 2));
  EXPECT_EQ(g.QuartetCellId(q, kNW), g.CellIdOf(1, 3));
  EXPECT_EQ(g.QuartetCellId(q, kNE), g.CellIdOf(2, 3));
  // Every member cell touches the reference point.
  for (int which = 0; which < 4; ++which) {
    const Rect rect = g.CellRect(g.QuartetCellId(q, which));
    EXPECT_DOUBLE_EQ(MinDist(ref, rect), 0.0);
    EXPECT_EQ(g.PositionInQuartet(q, g.QuartetCellId(q, which)), which);
  }
  EXPECT_EQ(g.PositionInQuartet(q, g.CellIdOf(0, 0)), -1);
}

TEST(QuartetHelpersTest, DiagonalAndSideAdjacency) {
  EXPECT_EQ(DiagonalOf(kSW), kNE);
  EXPECT_EQ(DiagonalOf(kSE), kNW);
  EXPECT_EQ(DiagonalOf(kNW), kSE);
  EXPECT_EQ(DiagonalOf(kNE), kSW);
  int a, b;
  SideAdjacentOf(kSW, &a, &b);
  EXPECT_EQ(a, kSE);
  EXPECT_EQ(b, kNW);
  SideAdjacentOf(kNE, &a, &b);
  EXPECT_EQ(a, kNW);
  EXPECT_EQ(b, kSE);
}

TEST(ClassifyAreaTest, InteriorPointIsNoReplication) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);  // cells 2.5
  // Center of cell (1,1): more than eps from every border.
  const Point p{3.75, 3.75};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kNone);
}

TEST(ClassifyAreaTest, PlainBandDetectsSingleBorder) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Cell (1,1) spans [2.5,5.0]^2; x near its left border, y central.
  const Point p{2.7, 3.75};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kPlain);
  EXPECT_EQ(info.dx, -1);
  EXPECT_EQ(info.dy, 0);
}

TEST(ClassifyAreaTest, CornerSquareDetectsQuartet) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Cell (1,1); near right and top borders -> quartet at corner (2,2).
  const Point p{4.2, 4.8};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kCorner);
  EXPECT_EQ(info.dx, +1);
  EXPECT_EQ(info.dy, +1);
  EXPECT_EQ(info.quartet, g.QuartetIdOf(2, 2));
}

TEST(ClassifyAreaTest, GridBoundaryNeverTriggersReplication) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Bottom-left cell, near the grid's outer borders only.
  const Point p{0.3, 0.3};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kNone);
  // Near outer bottom border + internal right border -> plain, not corner.
  const Point p2{2.4, 0.3};
  const AreaInfo info2 = g.ClassifyArea(p2, g.Locate(p2));
  EXPECT_EQ(info2.kind, AreaKind::kPlain);
  EXPECT_EQ(info2.dx, +1);
  EXPECT_EQ(info2.dy, 0);
}

TEST(ClassifyAreaTest, BandWidthIsExactlyEps) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Exactly eps from the left border of cell (1,1): inclusive.
  const Point on_band{2.5 + 1.0, 3.75};
  EXPECT_EQ(g.ClassifyArea(on_band, g.Locate(on_band)).kind, AreaKind::kPlain);
  const Point off_band{2.5 + 1.0001, 3.75};
  EXPECT_EQ(g.ClassifyArea(off_band, g.Locate(off_band)).kind, AreaKind::kNone);
}

TEST(GridTest, SingleRowGridHasNoQuartets) {
  Result<Grid> g = Grid::Make(Rect{0, 0, 30, 2.5}, 1.0, 2.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().ny(), 1);
  EXPECT_EQ(g.value().num_quartets(), 0);
}

TEST(GridMakeTest, CellCountsAreSixtyFourBit) {
  // 100 / (2 * 1.1e-3) = 45454 cells per axis: 2.07e9 cells, just inside
  // the 32-bit id limit. The counts are computed without int overflow.
  const Grid g = MakeGrid(100, 100, 1.1e-3, 2.0);
  EXPECT_EQ(g.num_cells(), int64_t{g.nx()} * g.ny());
  EXPECT_EQ(g.num_quartets(), int64_t{g.nx() - 1} * (g.ny() - 1));
  EXPECT_GT(g.num_cells(), 2'000'000'000);
  EXPECT_LE(g.num_cells(), kMaxCells);
}

TEST(GridMakeTest, RejectsGridsBeyondThirtyTwoBitCellIds) {
  // Regression: eps = 1e-3 over a 100 x 100 MBR asks for 49999 x 49999
  // cells; num_cells() used to overflow int and come out negative.
  const Result<Grid> g = Grid::Make(Rect{0, 0, 100, 100}, 1e-3);
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Grid::MakeForBaseline(Rect{0, 0, 100, 100}, 1e-3, 1.0)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(GridMakeTest, RejectsAxisCountsBeyondInt) {
  // Regression: eps = 1e-9 makes W / target = 5e10, whose cast to int was
  // undefined; it used to come out as a silent 1 x 1 grid.
  const Result<Grid> g = Grid::Make(Rect{0, 0, 100, 100}, 1e-9);
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Grid::MakeForBaseline(Rect{0, 0, 100, 100}, 1e-9, 1.0)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(GridTest, ToStringMentionsShape) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_NE(g.ToString().find("grid 4x4"), std::string::npos);
}

}  // namespace
}  // namespace pasjoin::grid
