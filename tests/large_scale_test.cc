// Large-universe sampled tests: the exhaustive property sweeps stop at
// side 27, so these guard against overflow and float-precision bugs that
// only appear at realistic scales (integer sqrt/cbrt layer search at
// side 2^10+, 64-bit key assembly, analytic decomposition arithmetic).

#include <gtest/gtest.h>

#include "analysis/clustering.h"
#include "common/rng.h"
#include "index/decompose.h"
#include "sfc/registry.h"
#include "storage/mem_source.h"

namespace onion {
namespace {

Cell RandomCell(const Universe& universe, Rng* rng) {
  Cell cell = Cell::Filled(universe.dims(), 0);
  for (int axis = 0; axis < universe.dims(); ++axis) {
    cell[axis] = static_cast<Coord>(rng->UniformInclusive(universe.side() - 1));
  }
  return cell;
}

TEST(LargeScaleTest, SampledRoundTrip2D) {
  Rng rng(1);
  for (const std::string& name : KnownCurveNames()) {
    const Coord side = name == "peano" ? 729 : 1024;
    auto result = MakeCurve(name, Universe(2, side));
    ASSERT_TRUE(result.ok()) << name;
    auto curve = std::move(result).value();
    for (int i = 0; i < 5000; ++i) {
      const Cell cell = RandomCell(curve->universe(), &rng);
      const Key key = curve->IndexOf(cell);
      ASSERT_LT(key, curve->num_cells()) << name;
      ASSERT_EQ(curve->CellAt(key), cell) << name << " " << cell.ToString();
      const Key probe = rng.UniformInclusive(curve->num_cells() - 1);
      ASSERT_EQ(curve->IndexOf(curve->CellAt(probe)), probe) << name;
    }
  }
}

TEST(LargeScaleTest, SampledRoundTrip3D) {
  Rng rng(2);
  for (const std::string name :
       {"onion", "onion_nd", "hilbert", "zorder", "graycode", "snake"}) {
    auto curve = MakeCurve(name, Universe(3, 256)).value();
    for (int i = 0; i < 5000; ++i) {
      const Cell cell = RandomCell(curve->universe(), &rng);
      ASSERT_EQ(curve->CellAt(curve->IndexOf(cell)), cell)
          << name << " " << cell.ToString();
      const Key probe = rng.UniformInclusive(curve->num_cells() - 1);
      ASSERT_EQ(curve->IndexOf(curve->CellAt(probe)), probe) << name;
    }
  }
}

TEST(LargeScaleTest, OnionOddAndNonPowerSides) {
  Rng rng(3);
  for (const Coord side : {999u, 1023u, 2048u, 4096u}) {
    auto curve = MakeCurve("onion", Universe(2, side)).value();
    for (int i = 0; i < 2000; ++i) {
      const Cell cell = RandomCell(curve->universe(), &rng);
      ASSERT_EQ(curve->CellAt(curve->IndexOf(cell)), cell)
          << "side " << side << " " << cell.ToString();
    }
    // Layer-boundary keys are the hardest cases for the integer sqrt.
    for (Coord t = 0; t < curve->universe().NumLayers(); t += 97) {
      const Key w = side - 2 * t;
      const Key begin = static_cast<Key>(side) * side - w * w;
      ASSERT_EQ(curve->IndexOf(curve->CellAt(begin)), begin) << side;
      if (begin > 0) {
        ASSERT_EQ(curve->IndexOf(curve->CellAt(begin - 1)), begin - 1) << side;
      }
    }
  }
}

TEST(LargeScaleTest, Onion3DLayerBoundaries) {
  const Coord side = 512;
  auto curve = MakeCurve("onion", Universe(3, side)).value();
  for (Coord t = 0; t < side / 2; t += 31) {
    const Key w = side - 2 * t;
    const Key begin = static_cast<Key>(side) * side * side - w * w * w;
    ASSERT_EQ(curve->IndexOf(curve->CellAt(begin)), begin) << "t " << t;
    ASSERT_EQ(curve->CellAt(begin), Cell(t, t, t)) << "t " << t;
    if (begin > 0) {
      ASSERT_EQ(curve->IndexOf(curve->CellAt(begin - 1)), begin - 1)
          << "t " << t;
    }
  }
}

TEST(LargeScaleTest, Onion2DAnalyticDecompositionAtScale) {
  Rng rng(4);
  const Coord side = 1024;
  auto result = Onion2D::Make(Universe(2, side));
  ASSERT_TRUE(result.ok());
  const auto& onion = *result.value();
  for (int trial = 0; trial < 15; ++trial) {
    auto a = static_cast<Coord>(rng.UniformInclusive(side - 1));
    auto b = static_cast<Coord>(rng.UniformInclusive(side - 1));
    auto c = static_cast<Coord>(rng.UniformInclusive(side - 1));
    auto d = static_cast<Coord>(rng.UniformInclusive(side - 1));
    const Box box(Cell(std::min(a, b), std::min(c, d)),
                  Cell(std::max(a, b), std::max(c, d)));
    const auto analytic = DecomposeOnion2DAnalytic(onion, box);
    const auto scanned = DecomposeByClusterScan(onion, box);
    ASSERT_EQ(analytic, scanned) << box.ToString();
  }
}

TEST(LargeScaleTest, HierarchicalDecompositionAtScale) {
  Rng rng(5);
  const Coord side = 1024;
  for (const std::string name : {"hilbert", "zorder"}) {
    auto curve = MakeCurve(name, Universe(2, side)).value();
    for (int trial = 0; trial < 10; ++trial) {
      auto a = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto b = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto c = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto d = static_cast<Coord>(rng.UniformInclusive(side - 1));
      const Box box(Cell(std::min(a, b), std::min(c, d)),
                    Cell(std::max(a, b), std::max(c, d)));
      const auto ranges = DecomposeHierarchical(*curve, box);
      // Range count equals the clustering number; total size equals the
      // volume; ranges sorted and disjoint.
      uint64_t covered = 0;
      for (size_t i = 0; i < ranges.size(); ++i) {
        ASSERT_LE(ranges[i].lo, ranges[i].hi);
        if (i > 0) {
          ASSERT_GT(ranges[i].lo, ranges[i - 1].hi + 1);
        }
        covered += ranges[i].hi - ranges[i].lo + 1;
      }
      ASSERT_EQ(covered, box.Volume()) << name << " " << box.ToString();
      ASSERT_EQ(ranges.size(), ClusteringNumber(*curve, box)) << name;
    }
  }
}

TEST(LargeScaleTest, SixtyFourBitKeySpace) {
  // 8D side 16 = 2^32 cells would be too slow to enumerate, but key
  // arithmetic must be exact; spot-check the extremes on 4D side 256
  // (2^32 cells) for the curves supporting it.
  const Universe universe(4, 256);
  for (const std::string name : {"onion_nd", "hilbert_nd", "zorder",
                                  "graycode", "snake", "row_major"}) {
    auto curve = MakeCurve(name, universe).value();
    EXPECT_EQ(curve->num_cells(), uint64_t{1} << 32);
    // First, last, and a few random keys round-trip.
    Rng rng(6);
    const std::vector<Key> probes = {
        0, curve->num_cells() - 1, rng.Next() & 0xffffffffull,
        rng.Next() & 0xffffffffull};
    for (const Key key : probes) {
      ASSERT_EQ(curve->IndexOf(curve->CellAt(key)), key) << name;
    }
  }
}

TEST(ContractDeathTest, UniverseOverflowAborts) {
  EXPECT_DEATH(Universe(8, 1024), "overflows");
}

TEST(ContractDeathTest, BoxCornersOutOfOrderAbort) {
  EXPECT_DEATH(Box(Cell(5, 5), Cell(4, 6)), "out of order");
}

void BuildUnsortedRun() {
  std::vector<storage::Entry> entries = {{5, 0}, {3, 1}};
  storage::MemPageSource run(std::move(entries), 4);
}

TEST(ContractDeathTest, MemPageSourceRequiresSortedInput) {
  EXPECT_DEATH(BuildUnsortedRun(), "sorted");
}

}  // namespace
}  // namespace onion
