// Launch-order machinery and reuse-distance L2 cross-validation (l2_xval).
//
// Three layers, cheapest first:
//
//  1. Property: sim::CtaOrderMap is the only implementation of every
//     LaunchOrder (TimedDevice dispatch and the model's sampler both walk
//     it). Oracles that need no second implementation pin it: hand-written
//     sequences on small grids, a bijection sweep over arbitrary grids
//     (degenerate 1-row/1-col, non-pow2, skinny), and unit-step adjacency
//     of the Hilbert walk on 2^k squares.
//  2. Dispatch: sim::CtaSource dispenses the map's sequence, re-walks it per
//     z plane, and dispatches kSwizzled exactly row-major (its analytic patch
//     is a model assumption, not a schedule change).
//  3. Band: the stack-distance sampler's predicted L2 hit rate must land
//     within 15 % of the TimedDevice's *emergent* sector-cache rate
//     (pin_l2_hit_rate = false) for row-major and supertile orders on three
//     whole-wave shapes per device spec. This is the end-to-end check that
//     the trace replay models the same locality the device simulates.
//
// docs/l2_model.md documents the sampler and the band; scripts/check.sh and
// CI run this file under the l2_xval ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/profile.hpp"
#include "device/spec.hpp"
#include "model/stack_distance.hpp"
#include "model/validate.hpp"
#include "sim/cta_order.hpp"
#include "sim/launch.hpp"

namespace tc {
namespace {

using model::LaunchOrder;
using Cells = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

const LaunchOrder kAllOrders[] = {LaunchOrder::kRowMajor, LaunchOrder::kSwizzled,
                                  LaunchOrder::kSupertile, LaunchOrder::kSerpentine,
                                  LaunchOrder::kHilbert};

Cells drain_map(LaunchOrder order, std::uint32_t gx, std::uint32_t gy, int width) {
  sim::CtaOrderMap map(order, gx, gy, width);
  Cells seq;
  for (std::uint64_t i = 0; i < map.total(); ++i) seq.push_back(map.next());
  return seq;
}

sim::Launch grid_launch(LaunchOrder order, std::uint32_t gx, std::uint32_t gy, int width,
                        std::uint32_t gz = 1) {
  sim::Launch launch;
  launch.grid_x = gx;
  launch.grid_y = gy;
  launch.grid_z = gz;
  launch.launch_order = order;
  launch.supertile_width = width;
  return launch;
}

TEST(LaunchOrderProperty, HandWrittenSequencesOnSmallGrids) {
  // Full 4x4 Hilbert curve: the 2x2 quadrants in U order (low x/low y,
  // low x/high y, high x/high y, high x/low y), the first and last sub-curve
  // reflected so consecutive cells stay adjacent. It ends at (3, 0).
  const Cells hilbert = {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 2}, {0, 3}, {1, 3}, {1, 2},
                         {2, 2}, {2, 3}, {3, 3}, {3, 2}, {3, 1}, {2, 1}, {2, 0}, {3, 0}};
  EXPECT_EQ(drain_map(LaunchOrder::kHilbert, 4, 4, 8), hilbert);
  // 5x3 in width-2 panels: two full panels, then the 1-column remainder.
  const Cells supertile = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 0},
                           {2, 1}, {3, 1}, {2, 2}, {3, 2}, {4, 0}, {4, 1}, {4, 2}};
  EXPECT_EQ(drain_map(LaunchOrder::kSupertile, 5, 3, 2), supertile);
  const Cells serpentine = {{0, 0}, {1, 0}, {2, 0}, {2, 1}, {1, 1},
                            {0, 1}, {0, 2}, {1, 2}, {2, 2}};
  EXPECT_EQ(drain_map(LaunchOrder::kSerpentine, 3, 3, 8), serpentine);
  // Hilbert on a non-square grid skips the out-of-grid half (y >= 2) of the
  // 4x4 curve above and keeps the in-grid cells in curve order.
  const Cells hilbert_4x2 = {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {3, 1}, {2, 1}, {2, 0}, {3, 0}};
  EXPECT_EQ(drain_map(LaunchOrder::kHilbert, 4, 2, 8), hilbert_4x2);
}

TEST(LaunchOrderProperty, EveryOrderIsABijection) {
  const std::pair<std::uint32_t, std::uint32_t> grids[] = {
      {1, 1}, {1, 7}, {7, 1},  {5, 3},    {16, 16},  {13, 29},
      {47, 2}, {3, 32}, {1024, 4}, {4, 1024}, {1000, 3}, {33, 17}};
  const int widths[] = {1, 3, 8, 64};
  for (const auto [gx, gy] : grids) {
    for (const LaunchOrder order : kAllOrders) {
      for (const int w : widths) {
        const auto seq = drain_map(order, gx, gy, w);
        const std::string where = std::string(sim::launch_order_name(order)) + " " +
                                  std::to_string(gx) + "x" + std::to_string(gy) + " w" +
                                  std::to_string(w);
        ASSERT_EQ(seq.size(), static_cast<std::size_t>(gx) * gy) << where;
        const std::set<std::pair<std::uint32_t, std::uint32_t>> seen(seq.begin(), seq.end());
        EXPECT_EQ(seen.size(), seq.size()) << where << " repeats a CTA";
        for (const auto [x, y] : seq) {
          ASSERT_LT(x, gx) << where;
          ASSERT_LT(y, gy) << where;
        }
        if (order != LaunchOrder::kSupertile) break;  // width only matters here
      }
    }
  }
}

TEST(LaunchOrderProperty, HilbertStepsAreUnitAdjacentOnPowerOfTwoSquares) {
  for (std::uint32_t side = 1; side <= 64; side *= 2) {
    const auto seq = drain_map(LaunchOrder::kHilbert, side, side, 8);
    ASSERT_EQ(seq.front(), std::make_pair(0u, 0u)) << side;
    for (std::size_t i = 1; i < seq.size(); ++i) {
      const int dx = std::abs(static_cast<int>(seq[i].first) - static_cast<int>(seq[i - 1].first));
      const int dy =
          std::abs(static_cast<int>(seq[i].second) - static_cast<int>(seq[i - 1].second));
      ASSERT_EQ(dx + dy, 1) << "side " << side << " step " << i;
    }
  }
}

TEST(LaunchOrderProperty, SwizzledDispatchesExactlyRowMajor) {
  // kSwizzled's L2-friendly patch is an analytic model assumption; its
  // *dispatch* must stay the row-major baseline so recorded tuning results
  // and surrogate calibration are untouched by the launch-order machinery.
  Cells row_major;
  for (std::uint32_t y = 0; y < 5; ++y) {
    for (std::uint32_t x = 0; x < 13; ++x) row_major.emplace_back(x, y);
  }
  EXPECT_EQ(drain_map(LaunchOrder::kSwizzled, 13, 5, 8), row_major);
  EXPECT_EQ(drain_map(LaunchOrder::kRowMajor, 13, 5, 8), row_major);
}

TEST(LaunchOrderProperty, NameRoundTrips) {
  for (const LaunchOrder order : kAllOrders) {
    EXPECT_EQ(sim::launch_order_from_name(sim::launch_order_name(order)), order);
  }
  EXPECT_THROW((void)sim::launch_order_from_name("zorder"), Error);
}

TEST(LaunchOrderDispatch, OrderedSourceDispensesMapSequenceThenStops) {
  sim::CtaSource src(grid_launch(LaunchOrder::kSupertile, 6, 4, 2));
  const auto expect = drain_map(LaunchOrder::kSupertile, 6, 4, 2);
  for (const auto& [x, y] : expect) {
    const auto got = src.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->x, x);
    EXPECT_EQ(got->y, y);
    EXPECT_EQ(got->z, 0u);
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.issued(), expect.size());
}

TEST(LaunchOrderDispatch, GridSourceIsXFastestOnArbitraryGrids) {
  // timed_device reasons about co-residency from the row-major dispatch's
  // "hardware launch order (x fastest)"; pin both row-major-dispatched
  // orders to it on a non-power-of-two grid.
  for (const LaunchOrder order : {LaunchOrder::kRowMajor, LaunchOrder::kSwizzled}) {
    sim::CtaSource src(grid_launch(order, 13, 7, 8));
    for (std::uint32_t i = 0; i < 13 * 7; ++i) {
      const auto got = src.next();
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->x, i % 13);
      ASSERT_EQ(got->y, i / 13);
    }
    EXPECT_FALSE(src.next().has_value());
  }
}

TEST(LaunchOrderDispatch, SourceRewalksTheOrderForEveryZPlane) {
  // z-outer dispatch: each z plane starts the 2D walk again from its first
  // cell (the Hilbert cursor included), so every plane sees the same order.
  sim::CtaSource src(grid_launch(LaunchOrder::kHilbert, 5, 3, 8, 2));
  const auto plane = drain_map(LaunchOrder::kHilbert, 5, 3, 8);
  for (std::uint32_t z = 0; z < 2; ++z) {
    for (const auto& [x, y] : plane) {
      const auto got = src.next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->x, x);
      EXPECT_EQ(got->y, y);
      EXPECT_EQ(got->z, z);
    }
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.issued(), 2 * plane.size());
}

// --- sampler vs. emergent L2: the 15 % band --------------------------------

constexpr double kSamplerBand = 0.15;

model::ValidateKernelInput band_input(const device::DeviceSpec& spec,
                                      const core::HgemmConfig& cfg) {
  model::ValidateKernelInput kin;
  kin.make_kernel = [cfg](const GemmShape& s) { return core::hgemm_kernel(cfg, s); };
  kin.name = cfg.name();
  kin.bm = cfg.bm;
  kin.bn = cfg.bn;
  kin.bk = cfg.bk;
  kin.ctas_per_sm = core::surrogate_ctas_per_sm(spec, cfg);
  kin.order = cfg.launch_order;
  kin.swizzle_max_grid_x = cfg.swizzle_max_grid_x;
  kin.supertile_width = cfg.supertile_width;
  kin.pin_l2_hit_rate = false;  // the emergent sector-cache rate is the point
  return kin;
}

void expect_sampler_band(const device::DeviceSpec& spec, LaunchOrder order, int width,
                         std::uint32_t grid_x, std::uint32_t grid_y) {
  core::HgemmConfig cfg = core::HgemmConfig::optimized();
  cfg.launch_order = order;
  cfg.supertile_width = width;
  const auto kin = band_input(spec, cfg);
  const GemmShape shape{static_cast<std::size_t>(grid_y) * cfg.bm,
                        static_cast<std::size_t>(grid_x) * cfg.bn, 256};
  const auto v = model::validate_wave(spec, kin, shape);
  ASSERT_GT(v.device_l2_hit_rate, 0.0)
      << cfg.name() << " on " << spec.name << ": no emergent hits at all";
  EXPECT_LE(std::abs(v.sampler_l2_hit_rate - v.device_l2_hit_rate) / v.device_l2_hit_rate,
            kSamplerBand)
      << cfg.name() << " on " << spec.name << " grid " << grid_x << "x" << grid_y << ":\n"
      << v.report();
}

TEST(L2SamplerBand, RowMajorRtx2070) {
  const auto spec = device::rtx2070();
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 6, 6);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 12, 3);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 36, 2);
}

TEST(L2SamplerBand, SupertileRtx2070) {
  const auto spec = device::rtx2070();
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 6, 6);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 12, 3);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 36, 2);
}

TEST(L2SamplerBand, RowMajorT4) {
  const auto spec = device::t4();
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 5, 8);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 10, 4);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 40, 2);
}

TEST(L2SamplerBand, SupertileT4) {
  const auto spec = device::t4();
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 5, 8);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 10, 4);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 40, 2);
}

TEST(L2SamplerBand, SupertileBeatsRowMajorAtTheCliff) {
  // The Fig. 8 cliff width on RTX 2070, at bench/fig8_swizzle's operating
  // point: a DRAM-hungry 64x64x64 blocking and a shallow k = 192, so one
  // wave's L2 window crosses the 4 MiB capacity right at W = 12032 under
  // row-major dispatch while a supertile panel stays resident. The tuned
  // supertile dispatch must be strictly faster — the model-side half of
  // the bench — and the row-major hit rate must visibly collapse.
  const auto spec = device::rtx2070();
  const GemmShape shape{12032, 12032, 192};
  core::HgemmConfig base;
  base.bm = 64;
  base.bn = 64;
  base.bk = 64;
  base.wm = 32;
  base.wn = 64;
  base.layout = core::SmemLayout::kTileMajor;
  core::HgemmConfig row = base;
  row.launch_order = LaunchOrder::kRowMajor;
  core::HgemmConfig super = base;
  super.launch_order = LaunchOrder::kSupertile;
  super.supertile_width = 16;
  core::PerfEstimator er(spec, row);
  core::PerfEstimator es(spec, super);
  const auto row_est = er.estimate(shape);
  const auto super_est = es.estimate(shape);
  EXPECT_GT(super_est.tflops, row_est.tflops * 1.02);
  EXPECT_GT(super_est.l2_hit_rate, row_est.l2_hit_rate + 0.1);
}

}  // namespace
}  // namespace tc
