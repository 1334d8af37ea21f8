// Unit tests for the analytical models: roofline (Fig. 3), blocking analysis
// (Table VI, Eqs. 3-6), L2 reuse, DRAM row efficiency and wave composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "device/spec.hpp"
#include "model/blocking.hpp"
#include "model/l2_reuse.hpp"
#include "model/roofline.hpp"
#include "model/stack_distance.hpp"
#include "model/wave_perf.hpp"

namespace tc::model {
namespace {

TEST(Roofline, BlockIntensities) {
  // Computation intensity bm*bn/(bm+bn) FLOP/byte (Section VI-A).
  EXPECT_DOUBLE_EQ(block_intensity(128, 128), 64.0);
  EXPECT_DOUBLE_EQ(block_intensity(256, 256), 128.0);
  EXPECT_NEAR(block_intensity(256, 128), 85.33, 0.01);
  EXPECT_DOUBLE_EQ(block_intensity(64, 64), 32.0);
}

TEST(Roofline, AttainableClampsAtPeak) {
  EXPECT_DOUBLE_EQ(attainable_flops(10.0, 100e9, 50e12), 1e12);
  EXPECT_DOUBLE_EQ(attainable_flops(1000.0, 100e9, 50e12), 50e12);
}

TEST(Roofline, PaperFig3Claims) {
  // With FP16 units, 128x128 blocking keeps the pipe busy; with Tensor Cores
  // even 256x256 stays below the DRAM roofline on RTX2070.
  const auto spec = device::rtx2070();
  const double bw = spec.dram_bw_gbps * 1e9;
  EXPECT_GE(attainable_flops(block_intensity(128, 128), bw, spec.fp16_peak_flops()),
            spec.fp16_peak_flops());
  EXPECT_LT(attainable_flops(block_intensity(128, 128), bw, spec.tensor_peak_flops()),
            spec.tensor_peak_flops());
  EXPECT_LT(attainable_flops(block_intensity(256, 256), bw, spec.tensor_peak_flops()),
            spec.tensor_peak_flops());
}

TEST(Roofline, RidgeOrdering) {
  const auto spec = device::t4();
  EXPECT_GT(ridge_intensity(spec.dram_bw_gbps * 1e9, spec.tensor_peak_flops()),
            ridge_intensity(spec.dram_bw_gbps * 1e9, spec.fp16_peak_flops()));
}

TEST(Blocking, TableVIReproducesPaperNumbers) {
  // Paper Table VI values with the paper's measured CPIs, within rounding.
  const auto rows = table_vi(CpiSet{});
  ASSERT_EQ(rows.size(), 6u);
  const double expect_hmma[] = {1031, 1031, 2063, 2063, 4126, 4126};
  const double expect_memio[] = {1370, 1235, 2325, 2055, 3821, 3281};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR(rows[i].hmma, expect_hmma[i], 2.0) << "row " << i;
    EXPECT_NEAR(rows[i].memio, expect_memio[i], 2.0) << "row " << i;
  }
  // Only (256x128)/(128x64) and the two 256x256 rows are Tensor-bound.
  EXPECT_FALSE(tensor_bound(rows[0].config, CpiSet{}));
  EXPECT_FALSE(tensor_bound(rows[1].config, CpiSet{}));
  EXPECT_FALSE(tensor_bound(rows[2].config, CpiSet{}));
  EXPECT_TRUE(tensor_bound(rows[3].config, CpiSet{}));
  EXPECT_TRUE(tensor_bound(rows[4].config, CpiSet{}));
  EXPECT_TRUE(tensor_bound(rows[5].config, CpiSet{}));
}

TEST(Blocking, Eq6InterleaveRule) {
  EXPECT_EQ(min_hmma_between_sts128(CpiSet{}), 5);  // paper Section VI-C
  CpiSet fast;
  fast.sts128 = 4.0;
  fast.hmma = 8.0;
  EXPECT_EQ(min_hmma_between_sts128(fast), 2);
}

TEST(Blocking, LargerWarpTileLowersLdsCycles) {
  CpiSet cpi;
  BlockConfig small{256, 256, 32, 64, 64, 8};
  BlockConfig large{256, 256, 32, 128, 64, 8};
  EXPECT_GT(lds_cycles(small, cpi), lds_cycles(large, cpi));
  // LDG/STS cycles are warp-tile independent.
  EXPECT_DOUBLE_EQ(ldg_sts_cycles(small, cpi), ldg_sts_cycles(large, cpi));
}

TEST(L2Reuse, SwizzledWaveSharesMoreThanRowMajor) {
  L2ReuseInput in;
  in.grid_x = 64;
  in.grid_y = 64;
  in.wave_ctas = 36;
  in.order = LaunchOrder::kSwizzled;
  const auto swizzled = l2_reuse(in);
  in.order = LaunchOrder::kRowMajor;
  const auto row_major = l2_reuse(in);
  EXPECT_GT(swizzled.ldg_l2_hit_rate, row_major.ldg_l2_hit_rate);
}

TEST(L2Reuse, FailedSwizzleIsWorseThanRowMajor) {
  // The cuBLAS-cliff model: past swizzle_max_grid_x a swizzled schedule
  // scatters and shares less than even a plain row-major launch.
  L2ReuseInput in;
  in.bm = 128;
  in.bn = 128;
  in.grid_x = 100;
  in.grid_y = 100;
  in.wave_ctas = 72;
  in.order = LaunchOrder::kSwizzled;
  in.swizzle_max_grid_x = 94;
  const auto failed = l2_reuse(in);
  in.order = LaunchOrder::kRowMajor;
  const auto row_major = l2_reuse(in);
  EXPECT_LT(failed.ldg_l2_hit_rate, row_major.ldg_l2_hit_rate);

  in.order = LaunchOrder::kSwizzled;
  in.grid_x = 90;  // below the limit the swizzle still works
  const auto ok = l2_reuse(in);
  EXPECT_GT(ok.ldg_l2_hit_rate, failed.ldg_l2_hit_rate + 0.1);
}

TEST(L2Reuse, HitRateBounds) {
  L2ReuseInput in;
  in.grid_x = 8;
  in.grid_y = 8;
  in.wave_ctas = 36;
  const auto r = l2_reuse(in);
  EXPECT_GE(r.ldg_l2_hit_rate, 0.0);
  EXPECT_LT(r.ldg_l2_hit_rate, 1.0);
  EXPECT_LE(r.dram_bytes_per_wave_iter, r.total_bytes_per_wave_iter);
}

TEST(L2Reuse, SingleCtaHasNoSharing) {
  L2ReuseInput in;
  in.grid_x = 1;
  in.grid_y = 1;
  in.wave_ctas = 36;
  const auto r = l2_reuse(in);
  EXPECT_DOUBLE_EQ(r.ldg_l2_hit_rate, 0.0);
}

TEST(L2Reuse, CapacityOverflowDegradesSharing) {
  L2ReuseInput big;
  big.grid_x = 256;
  big.grid_y = 256;
  big.wave_ctas = 72;
  big.bk = 64;
  big.bm = big.bn = 256;
  big.l2_capacity = 256 * 1024;  // tiny L2
  const auto constrained = l2_reuse(big);
  big.l2_capacity = 64ull << 20;  // huge L2
  const auto roomy = l2_reuse(big);
  EXPECT_LT(constrained.effective_sharing, roomy.effective_sharing);
}

TEST(L2Reuse, PartialWaveSharersClampRegression) {
  // A supertile panel wider than the wave (S = 40 > 36 resident CTAs) makes
  // the naive per-column sharer count wave/cols = 0.9 < 1. Without the
  // sharers >= 1 clamp, (sharers-1)*(1-eta) goes negative and the model
  // predicts 38 B slabs from DRAM against a compulsory minimum of 40,
  // inflating the hit rate to ~0.215. The clamped model charges exactly the
  // compulsory slabs: hit = 1 - (18.5*bm + 40*bn)/(36*(bm+bn)) = 0.1875.
  L2ReuseInput in;
  in.bm = in.bn = 256;
  in.bk = 32;
  in.grid_x = 64;
  in.grid_y = 4;
  in.wave_ctas = 36;
  in.order = LaunchOrder::kSupertile;
  in.supertile_width = 40;
  const auto r = l2_reuse(in);
  EXPECT_DOUBLE_EQ(r.wave_cols, 40.0);
  EXPECT_DOUBLE_EQ(r.wave_rows, 1.0);
  EXPECT_NEAR(r.ldg_l2_hit_rate, 0.1875, 1e-12);
  // The B-side traffic must never drop below one DRAM load per distinct
  // column slab in the patch.
  EXPECT_GE(r.dram_bytes_per_wave_iter,
            (r.wave_rows * in.bm + r.wave_cols * in.bn) * in.bk * 2.0 - 1e-9);
}

TEST(L2Reuse, ZeroDriftWindowLeavesSharingIntact) {
  // With no drift window and no C working set the footprint is zero: there
  // is nothing to thrash, so eta must survive untouched (and the capacity
  // ratio must not divide by zero) even on a tiny L2.
  L2ReuseInput in;
  in.grid_x = 64;
  in.grid_y = 64;
  in.wave_ctas = 36;
  in.drift_window_iters = 0.0;
  in.l2_capacity = 1024;
  const auto r = l2_reuse(in);
  EXPECT_TRUE(std::isfinite(r.ldg_l2_hit_rate));
  EXPECT_DOUBLE_EQ(r.effective_sharing, in.sharing_efficiency);
}

TEST(L2Reuse, CTileWorkingSetCompetesForCapacity) {
  // The epilogue's resident C tiles charge against the same drift-window
  // footprint as the A/B slabs: a large c_tile_bytes must degrade sharing
  // exactly like an oversized slab footprint would.
  L2ReuseInput in;
  in.bm = in.bn = 256;
  in.bk = 32;
  in.grid_x = 64;
  in.grid_y = 64;
  in.wave_ctas = 36;
  in.order = LaunchOrder::kRowMajor;
  const auto steady = l2_reuse(in);  // c_tile_bytes = 0: steady state
  in.c_tile_bytes = 32.0 * 1024 * 1024;
  const auto epilogue = l2_reuse(in);
  EXPECT_LT(epilogue.effective_sharing, steady.effective_sharing);
  EXPECT_LT(epilogue.ldg_l2_hit_rate, steady.ldg_l2_hit_rate);
}

// --- reuse-distance sampler ------------------------------------------------

TEST(StackDistance, ClassifiesKnownSequence) {
  StackDistance sd({100.0});
  EXPECT_EQ(sd.access(1, 60.0), StackDistance::kCold);
  EXPECT_EQ(sd.access(2, 60.0), StackDistance::kCold);
  EXPECT_EQ(sd.access(1, 60.0), 0);  // 60 bytes above: under the threshold
  EXPECT_EQ(sd.access(2, 60.0), 0);
  EXPECT_EQ(sd.access(3, 60.0), StackDistance::kCold);
  EXPECT_EQ(sd.access(1, 60.0), 1);  // blocks 3 and 2 above: 120 >= 100
  const auto& h = sd.histogram();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 2u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 3u);  // cold misses
  EXPECT_EQ(sd.accesses(), 6u);
}

TEST(StackDistance, MatchesBruteForceOnRandomTrace) {
  // The marker-list stack must agree exactly with the O(N^2) definition:
  // the distance of a re-access is the sum of bytes strictly above the
  // block, classified by the number of thresholds <= that distance.
  const std::vector<double> thresholds{64.0, 256.0, 1024.0};
  StackDistance sd(thresholds);
  std::vector<std::uint64_t> recency;  // front = most recent
  const auto bytes_of = [](std::uint64_t id) {
    return 16.0 + static_cast<double>(id % 7) * 8.0;
  };
  std::uint64_t state = 0x5EED;
  for (int i = 0; i < 800; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t id = (state >> 33) % 60;
    int expect = StackDistance::kCold;
    const auto it = std::find(recency.begin(), recency.end(), id);
    if (it != recency.end()) {
      double above = 0.0;
      for (auto p = recency.begin(); p != it; ++p) above += bytes_of(*p);
      expect = 0;
      for (const double t : thresholds) {
        if (t <= above) ++expect;
      }
      recency.erase(it);
    }
    recency.insert(recency.begin(), id);
    ASSERT_EQ(sd.access(id, bytes_of(id)), expect) << "access " << i << " id " << id;
  }
}

TEST(Sampler, MatchesClosedFormLikeForLike) {
  // One whole wave covering the full grid, perfect sharing (eta = 1), all
  // footprints far under capacity: the closed form and the trace both reduce
  // to "each distinct slab is loaded once", so they must agree tightly.
  // rows = 4, cols = 8 of 64-wide tiles: hit = 1 - 12/64 = 0.8125.
  L2ReuseInput in;
  in.bm = in.bn = 64;
  in.bk = 32;
  in.grid_x = 8;
  in.grid_y = 4;
  in.wave_ctas = 36;  // > 32 total CTAs: a single wave
  in.order = LaunchOrder::kRowMajor;
  in.sharing_efficiency = 1.0;
  in.k_iters = 4.0;
  const auto closed = l2_reuse(in);
  const auto sampled = sample_l2_reuse(in);
  EXPECT_NEAR(closed.ldg_l2_hit_rate, 0.8125, 1e-12);
  EXPECT_NEAR(sampled.ldg_l2_hit_rate, closed.ldg_l2_hit_rate, 0.02);
  EXPECT_EQ(sampled.wave_rows, 4);
  EXPECT_EQ(sampled.wave_cols, 8);
}

TEST(Sampler, SupertileHoldsReuseWhereRowMajorLosesIt) {
  // The Fig. 8 cliff mechanism: on a wide grid a row-major wave spans every
  // column, so B slabs stop fitting; a narrow supertile panel keeps the
  // wave's working set inside L2.
  L2ReuseInput in;
  in.bm = in.bn = 256;
  in.bk = 32;
  in.grid_x = 47;  // W = 12032 / bn
  in.grid_y = 47;
  in.wave_ctas = 36;
  in.k_iters = 8.0;
  in.order = LaunchOrder::kRowMajor;
  const auto row_major = sample_l2_reuse(in);
  in.order = LaunchOrder::kSupertile;
  in.supertile_width = 6;
  const auto supertile = sample_l2_reuse(in);
  EXPECT_GT(supertile.ldg_l2_hit_rate, row_major.ldg_l2_hit_rate + 0.1);
}

TEST(Sampler, PredictDispatchesByOrder) {
  L2ReuseInput in;
  in.grid_x = 64;
  in.grid_y = 64;
  in.wave_ctas = 36;
  in.order = LaunchOrder::kSwizzled;
  // kSwizzled has no concrete dispatch realization: predict must return the
  // closed form bit for bit.
  EXPECT_DOUBLE_EQ(l2_reuse_predict(in).ldg_l2_hit_rate, l2_reuse(in).ldg_l2_hit_rate);
  in.order = LaunchOrder::kSupertile;
  in.supertile_width = 6;
  EXPECT_DOUBLE_EQ(l2_reuse_predict(in).ldg_l2_hit_rate,
                   sample_l2_reuse(in).ldg_l2_hit_rate);
}

// Exact sampler output for every order over a grid sweep: non-power-of-two,
// 1-row, 1-column, skinny (Hilbert walks a 1024-wide bounding square for a
// 4-row grid) and one Fig. 8-sized grid, under two input configurations.
// Config 0: 4 MiB L2, 36-CTA waves, k_iters 8, panel width 3. Config 1:
// 256 KiB L2, 16-CTA waves, k_iters 40 (wave-tagged blocks), width 8.
// Any change to how the sampler walks a launch order shows up here.
struct SamplerPin {
  int config;
  LaunchOrder order;
  std::uint64_t grid_x, grid_y;
  double ldg_l2_hit_rate, a_hit_rate, b_hit_rate;
  int wave_rows, wave_cols;
  std::uint64_t accesses, cold_misses;
  std::vector<std::uint64_t> histogram;
};

TEST(Sampler, PinnedOutputAcrossOrdersAndGrids) {
  const std::vector<SamplerPin> pins = {
    {0, LaunchOrder::kRowMajor, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 16, 16, {0, 0, 0, 0, 0, 0, 16}},
    {0, LaunchOrder::kSwizzled, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 16, 16, {0, 0, 0, 0, 0, 0, 16}},
    {0, LaunchOrder::kSupertile, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 16, 16, {0, 0, 0, 0, 0, 0, 16}},
    {0, LaunchOrder::kSerpentine, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 16, 16, {0, 0, 0, 0, 0, 0, 16}},
    {0, LaunchOrder::kHilbert, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 16, 16, {0, 0, 0, 0, 0, 0, 16}},
    {0, LaunchOrder::kRowMajor, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSwizzled, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSupertile, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSerpentine, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kHilbert, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kRowMajor, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSwizzled, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSupertile, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSerpentine, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kHilbert, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 112, 64, {48, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kRowMajor, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 240, 64, {176, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSwizzled, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 240, 64, {176, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSupertile, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 240, 64, {176, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kSerpentine, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 240, 64, {176, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kHilbert, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 240, 64, {176, 0, 0, 0, 0, 0, 64}},
    {0, LaunchOrder::kRowMajor, 16, 16, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 3, 16, 4032, 256, {2968, 0, 808, 0, 0, 0, 256}},
    {0, LaunchOrder::kSwizzled, 16, 16, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 3, 16, 4032, 256, {2968, 0, 808, 0, 0, 0, 256}},
    {0, LaunchOrder::kSupertile, 16, 16, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 12, 3, 4032, 256, {3080, 154, 542, 0, 0, 0, 256}},
    {0, LaunchOrder::kSerpentine, 16, 16, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 3, 16, 4032, 256, {2968, 0, 808, 0, 0, 0, 256}},
    {0, LaunchOrder::kHilbert, 16, 16, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 0x1.df7df7df7df7ep-1, 6, 8, 4032, 256, {3232, 426, 118, 0, 0, 0, 256}},
    {0, LaunchOrder::kRowMajor, 13, 29, 0x1.e2d82d82d82d8p-1, 0x1.d82d82d82d82ep-1, 0x1.ed82d82d82d83p-1, 3, 13, 5760, 328, {4424, 207, 801, 0, 0, 0, 328}},
    {0, LaunchOrder::kSwizzled, 13, 29, 0x1.e2d82d82d82d8p-1, 0x1.d82d82d82d82ep-1, 0x1.ed82d82d82d83p-1, 3, 13, 5760, 328, {4424, 207, 801, 0, 0, 0, 328}},
    {0, LaunchOrder::kSupertile, 13, 29, 0x1.e222222222222p-1, 0x1.d6c16c16c16c1p-1, 0x1.ed82d82d82d83p-1, 12, 3, 5760, 336, {4416, 183, 507, 318, 0, 0, 336}},
    {0, LaunchOrder::kSerpentine, 13, 29, 0x1.e2d82d82d82d8p-1, 0x1.d82d82d82d82ep-1, 0x1.ed82d82d82d83p-1, 3, 13, 5760, 328, {4424, 502, 506, 0, 0, 0, 328}},
    {0, LaunchOrder::kHilbert, 13, 29, 0x1.e222222222222p-1, 0x1.d6c16c16c16c1p-1, 0x1.ed82d82d82d83p-1, 8, 6, 5760, 336, {4584, 610, 188, 42, 0, 0, 336}},
    {0, LaunchOrder::kRowMajor, 47, 2, 0x1.51c71c71c71c7p-1, 0x1.f1c71c71c71c7p-1, 0x1.638e38e38e38ep-2, 1, 36, 1152, 392, {552, 0, 0, 208, 0, 0, 392}},
    {0, LaunchOrder::kSwizzled, 47, 2, 0x1.51c71c71c71c7p-1, 0x1.f1c71c71c71c7p-1, 0x1.638e38e38e38ep-2, 1, 36, 1152, 392, {552, 0, 0, 208, 0, 0, 392}},
    {0, LaunchOrder::kSupertile, 47, 2, 0x1.78e38e38e38e4p-1, 0x1.f1c71c71c71c7p-1, 0x1p-1, 2, 18, 1152, 304, {832, 0, 16, 0, 0, 0, 304}},
    {0, LaunchOrder::kSerpentine, 47, 2, 0x1.51c71c71c71c7p-1, 0x1.f1c71c71c71c7p-1, 0x1.638e38e38e38ep-2, 1, 36, 1152, 392, {640, 0, 81, 39, 0, 0, 392}},
    {0, LaunchOrder::kHilbert, 47, 2, 0x1.78e38e38e38e4p-1, 0x1.f1c71c71c71c7p-1, 0x1p-1, 2, 18, 1152, 304, {832, 0, 16, 0, 0, 0, 304}},
    {0, LaunchOrder::kRowMajor, 1024, 4, 0x1.ff7df7df7df7ep-2, 0x1.ff7df7df7df7ep-1, 0x0p+0, 1, 36, 32256, 8208, {15672, 0, 0, 440, 0, 7936, 8208}},
    {0, LaunchOrder::kSwizzled, 1024, 4, 0x1.ff7df7df7df7ep-2, 0x1.ff7df7df7df7ep-1, 0x0p+0, 1, 36, 32256, 8208, {15672, 0, 0, 440, 0, 7936, 8208}},
    {0, LaunchOrder::kSupertile, 1024, 4, 0x1.bf7df7df7df7ep-1, 0x1.fefbefbefbefcp-1, 0x1.8p-1, 4, 9, 32256, 4064, {26432, 1760, 0, 0, 0, 0, 4064}},
    {0, LaunchOrder::kSerpentine, 1024, 4, 0x1.0679e79e79e7ap-1, 0x1.ff7df7df7df7ep-1, 0x1.aebaebaebaebbp-6, 1, 36, 32256, 8208, {15800, 0, 38, 698, 544, 6968, 8208}},
    {0, LaunchOrder::kHilbert, 1024, 4, 0x1.bf7df7df7df7ep-1, 0x1.fefbefbefbefcp-1, 0x1.8p-1, 4, 10, 32256, 4064, {25536, 2656, 0, 0, 0, 0, 4064}},
    {0, LaunchOrder::kRowMajor, 188, 188, 0x1.fd34d34d34d35p-2, 0x1.fd34d34d34d35p-1, 0x0p+0, 1, 36, 32256, 1592, {15608, 0, 0, 432, 0, 14624, 1592}},
    {0, LaunchOrder::kSwizzled, 188, 188, 0x1.fd34d34d34d35p-2, 0x1.fd34d34d34d35p-1, 0x0p+0, 1, 36, 32256, 1592, {15608, 0, 0, 432, 0, 14624, 1592}},
    {0, LaunchOrder::kSupertile, 188, 188, 0x1.a924924924925p-1, 0x1.5555555555555p-1, 0x1.fcf3cf3cf3cf4p-1, 12, 3, 32256, 1600, {25488, 1284, 12, 0, 0, 3872, 1600}},
    {0, LaunchOrder::kSerpentine, 188, 188, 0x1.3830c30c30c31p-1, 0x1.fd34d34d34d35p-1, 0x1.ccb2cb2cb2cb3p-3, 1, 36, 32256, 1592, {16312, 0, 612, 2744, 5356, 5640, 1592}},
    {0, LaunchOrder::kHilbert, 188, 188, 0x1.f1c71c71c71c7p-1, 0x1.efbefbefbefbfp-1, 0x1.f3cf3cf3cf3cfp-1, 6, 8, 32256, 768, {25808, 3594, 1300, 658, 128, 0, 768}},
    {1, LaunchOrder::kRowMajor, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 24, 24, {0, 0, 0, 0, 0, 0, 24}},
    {1, LaunchOrder::kSwizzled, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 24, 24, {0, 0, 0, 0, 0, 0, 24}},
    {1, LaunchOrder::kSupertile, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 24, 24, {0, 0, 0, 0, 0, 0, 24}},
    {1, LaunchOrder::kSerpentine, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 24, 24, {0, 0, 0, 0, 0, 0, 24}},
    {1, LaunchOrder::kHilbert, 1, 1, 0x0p+0, 0x0p+0, 0x0p+0, 1, 1, 24, 24, {0, 0, 0, 0, 0, 0, 24}},
    {1, LaunchOrder::kRowMajor, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSwizzled, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSupertile, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSerpentine, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kHilbert, 1, 7, 0x1.b6db6db6db6dbp-2, 0x0p+0, 0x1.b6db6db6db6dbp-1, 7, 1, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kRowMajor, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSwizzled, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSupertile, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSerpentine, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kHilbert, 7, 1, 0x1.b6db6db6db6dbp-2, 0x1.b6db6db6db6dbp-1, 0x0p+0, 1, 7, 168, 96, {72, 0, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kRowMajor, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 360, 96, {144, 120, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSwizzled, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 360, 96, {144, 120, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSupertile, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 360, 96, {144, 120, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kSerpentine, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 360, 96, {192, 72, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kHilbert, 5, 3, 0x1.7777777777777p-1, 0x1.999999999999ap-1, 0x1.5555555555555p-1, 3, 5, 360, 96, {204, 60, 0, 0, 0, 0, 96}},
    {1, LaunchOrder::kRowMajor, 16, 16, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 6144, 3264, {2880, 0, 0, 0, 0, 0, 3264}},
    {1, LaunchOrder::kSwizzled, 16, 16, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 6144, 3264, {2880, 0, 0, 0, 0, 0, 3264}},
    {1, LaunchOrder::kSupertile, 16, 16, 0x1.6p-1, 0x1.cp-1, 0x1p-1, 2, 8, 6144, 1920, {2688, 0, 1536, 0, 0, 0, 1920}},
    {1, LaunchOrder::kSerpentine, 16, 16, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 6144, 3264, {2880, 0, 0, 0, 0, 0, 3264}},
    {1, LaunchOrder::kHilbert, 16, 16, 0x1.8p-1, 0x1.8p-1, 0x1.8p-1, 4, 4, 6144, 1536, {3840, 768, 0, 0, 0, 0, 1536}},
    {1, LaunchOrder::kRowMajor, 13, 29, 0x1.0d37a6f4de9bdp-1, 0x1.ba6f4de9bd37ap-1, 0x1.8p-3, 2, 13, 8832, 4188, {3816, 0, 828, 0, 0, 0, 4188}},
    {1, LaunchOrder::kSwizzled, 13, 29, 0x1.0d37a6f4de9bdp-1, 0x1.ba6f4de9bd37ap-1, 0x1.8p-3, 2, 13, 8832, 4188, {3816, 0, 828, 0, 0, 0, 4188}},
    {1, LaunchOrder::kSupertile, 13, 29, 0x1.61642c8590b21p-1, 0x1.a8590b21642c8p-1, 0x1.1a6f4de9bd37ap-1, 2, 8, 8832, 2736, {3660, 1092, 1344, 0, 0, 0, 2736}},
    {1, LaunchOrder::kSerpentine, 13, 29, 0x1.2b21642c8590bp-1, 0x1.ba6f4de9bd37ap-1, 0x1.37a6f4de9bd38p-2, 2, 13, 8832, 3672, {4416, 660, 84, 0, 0, 0, 3672}},
    {1, LaunchOrder::kHilbert, 13, 29, 0x1.737a6f4de9bd3p-1, 0x1.6f4de9bd37a6fp-1, 0x1.77a6f4de9bd38p-1, 4, 4, 8832, 2424, {5352, 1044, 12, 0, 0, 0, 2424}},
    {1, LaunchOrder::kRowMajor, 47, 2, 0x1.d99999999999ap-2, 0x1.d99999999999ap-1, 0x0p+0, 1, 16, 1920, 1032, {888, 0, 0, 0, 0, 0, 1032}},
    {1, LaunchOrder::kSwizzled, 47, 2, 0x1.d99999999999ap-2, 0x1.d99999999999ap-1, 0x0p+0, 1, 16, 1920, 1032, {888, 0, 0, 0, 0, 0, 1032}},
    {1, LaunchOrder::kSupertile, 47, 2, 0x1.6p-1, 0x1.cp-1, 0x1p-1, 2, 8, 1920, 600, {840, 0, 480, 0, 0, 0, 600}},
    {1, LaunchOrder::kSerpentine, 47, 2, 0x1.ep-2, 0x1.d99999999999ap-1, 0x1.999999999999ap-7, 1, 16, 1920, 1020, {900, 0, 0, 0, 0, 0, 1020}},
    {1, LaunchOrder::kHilbert, 47, 2, 0x1.6p-1, 0x1.cp-1, 0x1p-1, 2, 8, 1920, 600, {1140, 180, 0, 0, 0, 0, 600}},
    {1, LaunchOrder::kRowMajor, 1024, 4, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 49152, 26112, {23040, 0, 0, 0, 0, 0, 26112}},
    {1, LaunchOrder::kSwizzled, 1024, 4, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 49152, 26112, {23040, 0, 0, 0, 0, 0, 26112}},
    {1, LaunchOrder::kSupertile, 1024, 4, 0x1.6p-1, 0x1.cp-1, 0x1p-1, 2, 8, 49152, 15360, {21504, 0, 12288, 0, 0, 0, 15360}},
    {1, LaunchOrder::kSerpentine, 1024, 4, 0x1.ep-2, 0x1.ep-1, 0x0p+0, 1, 16, 49152, 26112, {23040, 0, 0, 0, 0, 0, 26112}},
    {1, LaunchOrder::kHilbert, 1024, 4, 0x1.8p-1, 0x1.8p-1, 0x1.8p-1, 4, 4, 49152, 12288, {30720, 6144, 0, 0, 0, 0, 12288}},
    {1, LaunchOrder::kRowMajor, 188, 188, 0x1.dep-2, 0x1.dep-1, 0x0p+0, 1, 16, 49152, 26208, {22944, 0, 0, 0, 0, 0, 26208}},
    {1, LaunchOrder::kSwizzled, 188, 188, 0x1.dep-2, 0x1.dep-1, 0x0p+0, 1, 16, 49152, 26208, {22944, 0, 0, 0, 0, 0, 26208}},
    {1, LaunchOrder::kSupertile, 188, 188, 0x1.6p-1, 0x1.cp-1, 0x1p-1, 2, 8, 49152, 15360, {21504, 0, 12288, 0, 0, 0, 15360}},
    {1, LaunchOrder::kSerpentine, 188, 188, 0x1.e9p-2, 0x1.dep-1, 0x1.6p-6, 1, 16, 49152, 25680, {23136, 264, 72, 0, 0, 0, 25680}},
    {1, LaunchOrder::kHilbert, 188, 188, 0x1.8p-1, 0x1.8p-1, 0x1.8p-1, 4, 4, 49152, 12288, {30720, 6144, 0, 0, 0, 0, 12288}},
  };
  for (const SamplerPin& p : pins) {
    L2ReuseInput in;
    in.bm = in.bn = 128;
    in.bk = 32;
    in.grid_x = p.grid_x;
    in.grid_y = p.grid_y;
    in.order = p.order;
    in.wave_ctas = p.config == 0 ? 36 : 16;
    in.supertile_width = p.config == 0 ? 3 : 8;
    in.k_iters = p.config == 0 ? 8.0 : 40.0;
    in.l2_capacity = p.config == 0 ? 4ull << 20 : 256ull << 10;
    const SampledL2 s = sample_l2_reuse(in);
    const std::string where = std::string(sim::launch_order_name(p.order)) + " " +
                              std::to_string(p.grid_x) + "x" + std::to_string(p.grid_y) +
                              " config " + std::to_string(p.config);
    EXPECT_EQ(s.ldg_l2_hit_rate, p.ldg_l2_hit_rate) << where;
    EXPECT_EQ(s.a_hit_rate, p.a_hit_rate) << where;
    EXPECT_EQ(s.b_hit_rate, p.b_hit_rate) << where;
    EXPECT_EQ(s.wave_rows, p.wave_rows) << where;
    EXPECT_EQ(s.wave_cols, p.wave_cols) << where;
    EXPECT_EQ(s.accesses, p.accesses) << where;
    EXPECT_EQ(s.cold_misses, p.cold_misses) << where;
    EXPECT_EQ(s.histogram, p.histogram) << where;
  }
}

TEST(DramRowEfficiency, DroopsWithStride) {
  EXPECT_DOUBLE_EQ(dram_row_efficiency(8 * 1024), 1.0);
  EXPECT_DOUBLE_EQ(dram_row_efficiency(16 * 1024), 1.0);
  EXPECT_LT(dram_row_efficiency(32 * 1024), 1.0);
  EXPECT_GE(dram_row_efficiency(1e9), 0.80);  // floored
  EXPECT_GT(dram_row_efficiency(24 * 1024), dram_row_efficiency(32 * 1024));
}

TEST(WavePerf, ComposesWaves) {
  WaveInput in;
  in.spec = device::rtx2070();
  in.shape = {2048, 2048, 2048};
  in.steady = {4126.0, 10000.0};
  const auto r = compose(in);
  EXPECT_EQ(r.grid_x, 8u);
  EXPECT_EQ(r.grid_y, 8u);
  EXPECT_DOUBLE_EQ(r.waves, 2.0);  // 64 CTAs / 36 per wave
  const double expect_cycles = 2.0 * (10000.0 + 64.0 * 4126.0);
  EXPECT_DOUBLE_EQ(r.kernel_cycles, expect_cycles);
  EXPECT_GT(r.tflops, 0.0);
}

TEST(WavePerf, WaveQuantizationSawtooth) {
  // 37 CTA columns need 2 waves where 36 need 1: throughput dips.
  WaveInput in;
  in.spec = device::rtx2070();
  in.steady = {4126.0, 10000.0};
  in.shape = {256, 256 * 36, 4096};
  const auto full = compose(in);
  in.shape = {256, 256 * 37, 4096};
  const auto spill = compose(in);
  EXPECT_GT(full.tflops, spill.tflops);
}

TEST(WavePerf, LaunchOverheadDominatesTinyGemms) {
  WaveInput in;
  in.spec = device::rtx2070();
  in.steady = {4126.0, 10000.0};
  in.shape = {256, 256, 64};
  in.launch_overhead_us = 3.0;
  const auto r = compose(in);
  EXPECT_LT(r.tflops, 1.0);  // tiny problem cannot amortize 3us
}

}  // namespace
}  // namespace tc::model
