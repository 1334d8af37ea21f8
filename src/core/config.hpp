// HGEMM kernel configuration (Section VI): two-level blocking sizes, shared
// memory layout, instruction interleaving and prefetch policy.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "model/l2_reuse.hpp"
#include "numerics/numerics.hpp"
#include "sim/engine.hpp"

namespace tc::core {

/// Shared-memory layout for the A/B slabs.
enum class SmemLayout {
  /// 8x8 tiles stored contiguously in fragment-register order (one LDS.32
  /// per tile, banks 0..31 exactly once) plus 64 dead bytes per tile row to
  /// keep the paper's 36 KB footprint ("padding", Section VI-D). See
  /// DESIGN.md for the adaptation of the paper's literal pad formula to this
  /// simulator's bank model.
  kPaddedTile,
  /// Tile-major without padding — the "economical" 32 KB layout the paper
  /// attributes to cuBLAS 10.1 (conflict-free, no spare bytes).
  kTileMajor,
  /// Row-major A[bm][bk] / B[bn][bk] exactly as Algorithm 1 declares them —
  /// the naive layout of Fig. 5, heavily bank-conflicted.
  kNaiveRowMajor,
};

/// Rejects a kernel shape the generated code cannot address. Kernels take
/// byte strides and operand extents as signed 32-bit immediates (k * 2,
/// m * n * 2, ...), so every dimension's row and every operand — A (m x k),
/// B (n x k), C (m x n) — must stay within INT32_MAX bytes. Throws
/// tc::Error naming the dimension(s) otherwise.
inline void check_kernel_shape(const GemmShape& s) {
  constexpr std::size_t kMaxBytes = std::numeric_limits<std::int32_t>::max();
  for (const auto& [dim, v] : {std::pair{"m", s.m}, std::pair{"n", s.n}, std::pair{"k", s.k}}) {
    TC_CHECK(v <= kMaxBytes / 2, std::string("GEMM ") + dim + " = " + std::to_string(v) +
                                     " exceeds the kernel's 32-bit parameters (at most " +
                                     std::to_string(kMaxBytes / 2) + ")");
  }
  // Each dimension is < 2^30 now, so the products below cannot wrap.
  const auto check_operand = [&](const char* dims, std::size_t rows, std::size_t cols) {
    TC_CHECK(rows * cols * 2 <= kMaxBytes,
             std::string("GEMM ") + dims + " = " + std::to_string(rows) + " x " +
                 std::to_string(cols) + " is " + std::to_string(rows * cols * 2) +
                 " bytes, beyond the kernel's 32-bit offsets (at most " +
                 std::to_string(kMaxBytes) + ")");
  };
  check_operand("m x k", s.m, s.k);
  check_operand("n x k", s.n, s.k);
  check_operand("m x n", s.m, s.n);
}

struct HgemmConfig {
  // Thread-block tile (shared memory blocking).
  int bm = 256, bn = 256, bk = 32;
  // Warp tile (register blocking).
  int wm = 128, wn = 64, wk = 8;

  SmemLayout layout = SmemLayout::kPaddedTile;
  /// HMMAs between consecutive STS.128 in the store phase (Section VI-C):
  /// the paper's Eq. (6) demands >= 5; cuBLAS 10.1 uses 2.
  int sts_interleave = 5;
  /// Double-buffer global loads into registers (Section VI-B). Disabling
  /// serializes LDG -> STS each iteration (ablation only).
  bool prefetch = true;

  /// CTA scheduling order: modeled by the L2 reuse machinery and, for the
  /// concrete orders (rowmajor/supertile/serpentine/hilbert), dispatched by
  /// TimedDevice. kSwizzled is the legacy analytic patch, dispatched
  /// row-major.
  model::LaunchOrder launch_order = model::LaunchOrder::kSwizzled;
  /// Grid width beyond which the swizzle degrades to row-major (models the
  /// cuBLAS 10.1 L2-blocking failure at W = 12032, i.e. grid_x = 94).
  int swizzle_max_grid_x = 1 << 30;
  /// Column-panel width when launch_order == kSupertile; ignored otherwise.
  int supertile_width = 8;

  /// Split-K factor (tc::op): the contract K range is cut into `split_k`
  /// equal slices, one per CTA z plane, each writing a partial C plane into
  /// a workspace that the reduction kernel folds in slice order. Power of
  /// two so the kernel decomposes CTAID.Z into (batch, slice) with
  /// LOP3.AND/SHF instead of a divide. 1 = the plain single-pass GEMM.
  /// Part of name(): the SASS changes (z-offset prologue, shortened main
  /// loop), unlike the numerics mode below.
  int split_k = 1;

  /// HMMA math semantics the launched kernel executes with: the historic
  /// idealized single-rounding model every recorded golden was produced
  /// with, or the bit-accurate SMT-formalization step model
  /// (numerics/numerics.hpp). Deliberately NOT part of name(): the mode
  /// changes the math, not the generated SASS, so tuning-cache keys and
  /// recorded kernel names stay stable.
  numerics::NumericsMode numerics = numerics::NumericsMode::kIdealized;

  /// Functional execution engine (sim/engine.hpp): the reference interpreter
  /// or the threaded-code JIT held bitwise to it. Like `numerics`,
  /// deliberately NOT part of name(): the engine changes how the SASS is
  /// executed, never the SASS or the results, so tuning-cache keys and
  /// recorded kernel names stay stable. The timed SM ignores it.
  sim::ExecEngine engine = sim::ExecEngine::kInterpret;

  /// The paper's optimized kernel (Table VII left column).
  static HgemmConfig optimized() { return {}; }

  /// cuBLAS 10.1's HGEMM configuration (Table VII right column).
  static HgemmConfig cublas_like() {
    HgemmConfig c;
    c.bm = 128;
    c.bn = 128;
    c.bk = 64;
    c.wm = 64;
    c.wn = 64;
    c.wk = 8;
    c.layout = SmemLayout::kTileMajor;
    c.sts_interleave = 2;
    c.swizzle_max_grid_x = 94;  // 94 * 128 = 12032, the observed cliff
    return c;
  }

  [[nodiscard]] int warps() const { return (bm / wm) * (bn / wn); }
  [[nodiscard]] int threads() const { return warps() * 32; }

  /// Shared memory bytes for one slab of `rows` x bk halves.
  [[nodiscard]] std::uint32_t slab_bytes(int rows) const {
    const auto data = static_cast<std::uint32_t>(rows) * static_cast<std::uint32_t>(bk) * 2;
    if (layout == SmemLayout::kPaddedTile) {
      return data + static_cast<std::uint32_t>(rows / 8) * 64;  // 64 dead B / tile row
    }
    return data;
  }
  [[nodiscard]] std::uint32_t smem_bytes() const { return slab_bytes(bm) + slab_bytes(bn); }

  /// The padded shape the generated kernel actually computes for a user
  /// shape: m/n round up to whole block tiles, k to whole bk slabs with at
  /// least two slabs (the double-buffered main loop needs >= 2 iterations).
  /// With split_k > 1 each K slice independently needs whole slabs and the
  /// two-iteration floor, so the padded k is split_k * padded-slice.
  /// Throws tc::Error, naming the dimension, if the padding would overflow.
  [[nodiscard]] GemmShape contract_shape(const GemmShape& s) const {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const auto round_up = [](std::size_t v, std::size_t to, const char* dim) {
      TC_CHECK(v <= kMax - (to - 1), std::string("GEMM ") + dim + " = " + std::to_string(v) +
                                         " overflows when padded to a multiple of " +
                                         std::to_string(to));
      return (v + to - 1) / to * to;
    };
    const auto slices = static_cast<std::size_t>(split_k);
    const std::size_t slice_k = s.k / slices + (s.k % slices != 0 ? 1 : 0);
    const std::size_t per_slice = std::max(
        round_up(slice_k, static_cast<std::size_t>(bk), "k"), static_cast<std::size_t>(2 * bk));
    TC_CHECK(per_slice <= kMax / slices,
             "GEMM k = " + std::to_string(s.k) + " overflows when padded to " +
                 std::to_string(slices) + " K slices");
    return {round_up(s.m, static_cast<std::size_t>(bm), "m"),
            round_up(s.n, static_cast<std::size_t>(bn), "n"), per_slice * slices};
  }

  /// K elements one z slice of the contract shape loops over.
  [[nodiscard]] std::size_t slice_k(const GemmShape& contract) const {
    return contract.k / static_cast<std::size_t>(split_k);
  }

  /// Validates divisibility constraints the generator relies on.
  void check() const {
    TC_CHECK(wk == 8, "wk must be 8 (HMMA.1688 depth)");
    TC_CHECK(bm % wm == 0 && bn % wn == 0 && bk % wk == 0, "tile divisibility");
    TC_CHECK(wm % 16 == 0 && wn % 8 == 0, "warp tile must be HMMA-shaped");
    TC_CHECK(bm % 8 == 0 && bn % 8 == 0 && bk % 32 == 0, "block tile granularity");
    TC_CHECK(threads() >= 32 && threads() <= 1024, "1..32 warps per CTA");
    const int ldg_instrs = (bm / 8) * (bk / 8) / 4;
    TC_CHECK(ldg_instrs % warps() == 0, "global loads must divide evenly among warps");
    TC_CHECK((bn / 8) * (bk / 8) / 4 % warps() == 0, "B loads must divide evenly");
    // The staging-store address pattern assigns each warp a whole number of
    // slab tile-rows; fewer tile-rows than warps would make the generator's
    // per-warp row quotient zero.
    TC_CHECK((bm / 8) % warps() == 0 && (bn / 8) % warps() == 0,
             "each warp must cover a whole number of slab tile rows");
    TC_CHECK(sts_interleave >= 1, "sts_interleave must be >= 1");
    TC_CHECK(supertile_width >= 1, "supertile_width must be >= 1");
    TC_CHECK(split_k >= 1 && split_k <= 64 &&
                 std::has_single_bit(static_cast<unsigned>(split_k)),
             "split_k must be a power of two in [1, 64]");
  }

  [[nodiscard]] std::string name() const {
    std::string n =
        "hgemm_" + std::to_string(bm) + "x" + std::to_string(bn) + "x" + std::to_string(bk) +
        "_w" + std::to_string(wm) + "x" + std::to_string(wn) + "_i" +
        std::to_string(sts_interleave) +
        (layout == SmemLayout::kNaiveRowMajor
             ? "_naive"
             : (layout == SmemLayout::kPaddedTile ? "_pad" : "_tile"));
    if (split_k > 1) n += "_sk" + std::to_string(split_k);
    // Only non-default orders mark the name, so every legacy kernel name —
    // recorded tuning baselines included — is unchanged.
    if (launch_order != model::LaunchOrder::kSwizzled) {
      n += std::string("_") + sim::launch_order_name(launch_order);
      if (launch_order == model::LaunchOrder::kSupertile) {
        n += std::to_string(supertile_width);
      }
    }
    return n;
  }
};

}  // namespace tc::core
