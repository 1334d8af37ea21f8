// Tests of the Tensor Core register layouts (paper Fig. 1/2) and the
// functional MMA semantics (Section IV).
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "sim/exec_core.hpp"
#include "sim/mma_exec.hpp"

namespace tc::sim {
namespace {

// Fig. 1 left: the lane that owns element (row, col) in row-major order.
TEST(Layout, RowMajorMatchesFigure1) {
  // First row of the figure: lanes 0..3 hold columns 0..7 of row 0.
  EXPECT_EQ(row_major_pos(0, 0).lane, 0);
  EXPECT_EQ(row_major_pos(0, 1).lane, 0);
  EXPECT_EQ(row_major_pos(0, 2).lane, 1);
  EXPECT_EQ(row_major_pos(0, 7).lane, 3);
  EXPECT_EQ(row_major_pos(1, 0).lane, 4);
  EXPECT_EQ(row_major_pos(7, 6).lane, 31);
  EXPECT_EQ(row_major_pos(0, 0).part, 0);
  EXPECT_EQ(row_major_pos(0, 1).part, 1);
}

// Fig. 1 right: column-major order.
TEST(Layout, ColMajorMatchesFigure1) {
  EXPECT_EQ(col_major_pos(0, 0).lane, 0);
  EXPECT_EQ(col_major_pos(1, 0).lane, 0);
  EXPECT_EQ(col_major_pos(2, 0).lane, 1);
  EXPECT_EQ(col_major_pos(7, 0).lane, 3);
  EXPECT_EQ(col_major_pos(0, 1).lane, 4);
  EXPECT_EQ(col_major_pos(6, 7).lane, 31);
  EXPECT_EQ(col_major_pos(1, 0).part, 1);
}

TEST(Layout, InverseMapsAreConsistent) {
  for (int lane = 0; lane < 32; ++lane) {
    for (int part = 0; part < 2; ++part) {
      const Coord rm = row_major_coord(lane, part);
      EXPECT_EQ(row_major_pos(rm.row, rm.col).lane, lane);
      EXPECT_EQ(row_major_pos(rm.row, rm.col).part, part);
      const Coord cm = col_major_coord(lane, part);
      EXPECT_EQ(col_major_pos(cm.row, cm.col).lane, lane);
      EXPECT_EQ(col_major_pos(cm.row, cm.col).part, part);
    }
  }
}

TEST(Layout, OneWarpRegisterHoldsWholeTile) {
  // 32 lanes x 2 parts cover all 64 elements exactly once in both orders.
  bool seen[8][8] = {};
  for (int lane = 0; lane < 32; ++lane) {
    for (int part = 0; part < 2; ++part) {
      const Coord c = row_major_coord(lane, part);
      EXPECT_FALSE(seen[c.row][c.col]);
      seen[c.row][c.col] = true;
    }
  }
  for (auto& row : seen) {
    for (bool s : row) EXPECT_TRUE(s);
  }
}

TEST(Layout, GatherScatterRoundTrip) {
  Rng rng(1);
  Tile8x8 t;
  for (auto& row : t.m) {
    for (auto& v : row) v = rng.next_half();
  }
  WarpRegs regs;
  scatter_row_major(regs, sass::Reg{4}, t);
  const Tile8x8 back = gather_row_major(regs, sass::Reg{4});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) EXPECT_EQ(back.m[i][j].bits(), t.m[i][j].bits());
  }
  scatter_col_major(regs, sass::Reg{5}, t);
  const Tile8x8 back2 = gather_col_major(regs, sass::Reg{5});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) EXPECT_EQ(back2.m[i][j].bits(), t.m[i][j].bits());
  }
}

TEST(Layout, RowAndColMajorDifferInRegisters) {
  Tile8x8 t;
  t.m[0][1] = half(1.0f);
  WarpRegs r1, r2;
  scatter_row_major(r1, sass::Reg{0}, t);
  scatter_col_major(r2, sass::Reg{0}, t);
  // (0,1) row-major: lane 0 part 1. col-major: lane 4 part 0.
  EXPECT_EQ(half2::unpack(r1.read(sass::Reg{0}, 0)).hi.to_float(), 1.0f);
  EXPECT_EQ(half2::unpack(r2.read(sass::Reg{0}, 4)).lo.to_float(), 1.0f);
}

// --- HMMA semantics ---------------------------------------------------------

struct MmaFixture : ::testing::Test {
  WarpRegs regs;
  Rng rng{7};

  half a[16][8];
  half bmat[8][8];
  half c[16][8];

  void load_operands(bool zero_c = false) {
    Tile8x8 a_lo, a_hi, bt, c_lo, c_hi;
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 8; ++j) {
        a[i][j] = rng.next_half();
        c[i][j] = zero_c ? half(0.0f) : rng.next_half();
        (i < 8 ? a_lo : a_hi).m[i % 8][j] = a[i][j];
        (i < 8 ? c_lo : c_hi).m[i % 8][j] = c[i][j];
      }
    }
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        bmat[i][j] = rng.next_half();
        bt.m[i][j] = bmat[i][j];
      }
    }
    scatter_row_major(regs, sass::Reg{2}, a_lo);
    scatter_row_major(regs, sass::Reg{3}, a_hi);
    scatter_col_major(regs, sass::Reg{6}, bt);
    scatter_row_major(regs, sass::Reg{4}, c_lo);
    scatter_row_major(regs, sass::Reg{5}, c_hi);
  }

  half expected(int i, int j) const {
    float acc = c[i][j].to_float();
    for (int kk = 0; kk < 8; ++kk) acc += a[i][kk].to_float() * bmat[kk][j].to_float();
    return half(acc);
  }
};

TEST_F(MmaFixture, Hmma1688F16MatchesScalarModel) {
  load_operands();
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6},
           sass::Reg{4}, sink);
  const Tile8x8 d_lo = gather_row_major(regs, sass::Reg{8});
  const Tile8x8 d_hi = gather_row_major(regs, sass::Reg{9});
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 8; ++j) {
      const half got = (i < 8 ? d_lo : d_hi).m[i % 8][j];
      EXPECT_EQ(got.bits(), expected(i, j).bits()) << "D(" << i << "," << j << ")";
    }
  }
}

TEST_F(MmaFixture, Hmma1688F16AccumulatesInPlace) {
  load_operands(true);
  ImmediateSink sink(regs);
  // D = A*B (C = RZ), then D += A*B again: result must be 2x with fp16
  // rounding applied per instruction.
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6},
           sass::Reg{8}, sink);
  const Tile8x8 d_lo = gather_row_major(regs, sass::Reg{8});
  for (int j = 0; j < 8; ++j) {
    float once = 0.0f;
    for (int kk = 0; kk < 8; ++kk) once += a[0][kk].to_float() * bmat[kk][j].to_float();
    const half first(once);
    const half second(first.to_float() + once);
    EXPECT_EQ(d_lo.m[0][j].bits(), second.bits());
  }
}

TEST_F(MmaFixture, Hmma1688F32KeepsFullPrecision) {
  load_operands(true);
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma1688F32, regs, sass::Reg{12}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  // FP32 accumulators: element (0,0) lives in reg 12 lane 0 as raw float.
  float got;
  const std::uint32_t bits = regs.read(sass::Reg{12}, 0);
  std::memcpy(&got, &bits, 4);
  float want = 0.0f;
  for (int kk = 0; kk < 8; ++kk) want += a[0][kk].to_float() * bmat[kk][0].to_float();
  EXPECT_FLOAT_EQ(got, want);
}

TEST_F(MmaFixture, Hmma884ComputesSingleTile) {
  load_operands(true);
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma884F16, regs, sass::Reg{10}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  const Tile8x8 d = gather_row_major(regs, sass::Reg{10});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < 8; ++kk) acc += a[i][kk].to_float() * bmat[kk][j].to_float();
      EXPECT_EQ(d.m[i][j].bits(), half(acc).bits());
    }
  }
}

TEST(Imma, Int8MatrixMultiply) {
  WarpRegs regs;
  // A[i][kk] = i + kk (mod 7) - 3, B[kk][j] = kk - j (mod 5) - 2.
  std::int8_t A[8][16], B[16][8];
  for (int i = 0; i < 8; ++i) {
    for (int kk = 0; kk < 16; ++kk) A[i][kk] = static_cast<std::int8_t>((i + kk) % 7 - 3);
  }
  for (int kk = 0; kk < 16; ++kk) {
    for (int j = 0; j < 8; ++j) B[kk][j] = static_cast<std::int8_t>((kk - j) % 5 - 2);
  }
  for (int lane = 0; lane < 32; ++lane) {
    std::uint32_t aw = 0, bw = 0;
    for (int byte = 0; byte < 4; ++byte) {
      aw |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(A[lane / 4][(lane % 4) * 4 + byte]))
            << (8 * byte);
      bw |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(B[(lane % 4) * 4 + byte][lane / 4]))
            << (8 * byte);
    }
    regs.write_now(sass::Reg{0}, lane, aw);
    regs.write_now(sass::Reg{1}, lane, bw);
  }
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kImma8816S8, regs, sass::Reg{4}, sass::Reg{0}, sass::Reg{1}, sass::RZ,
           sink);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      std::int32_t want = 0;
      for (int kk = 0; kk < 16; ++kk) want += A[i][kk] * B[kk][j];
      const int lane = i * 4 + j / 2;
      const auto got = static_cast<std::int32_t>(
          regs.read(sass::Reg{static_cast<std::uint8_t>(4 + j % 2)}, lane));
      EXPECT_EQ(got, want) << i << "," << j;
    }
  }
}

// A pending row holding `value` in lane `lane` only.
LaneRow lane_value(int lane, std::uint32_t value) {
  LaneRow row{};
  row[static_cast<std::size_t>(lane)] = value;
  return row;
}

TEST(RegFile, DelayedWritebackIsInvisibleUntilDue) {
  WarpRegs regs;
  regs.write_now(sass::Reg{0}, 0, 111);
  regs.write_row_at(sass::Reg{0}, 1u << 0, lane_value(0, 222), /*due=*/10);
  regs.settle(9);
  EXPECT_EQ(regs.read(sass::Reg{0}, 0), 111u);  // stale value: the hazard
  EXPECT_TRUE(regs.has_pending(sass::Reg{0}));
  EXPECT_EQ(regs.next_due(), 10u);
  regs.settle(10);
  EXPECT_EQ(regs.read(sass::Reg{0}, 0), 222u);
  EXPECT_FALSE(regs.has_pending(sass::Reg{0}));
  EXPECT_EQ(regs.next_due(), WarpRegs::kNever);
}

// Two writes to one (reg, lane), the later-queued one due earlier. All due
// writes commit in queue order at each settle, so the outcome depends on
// which settles run: one settle past both dues lets the later-queued write
// land last; settling between the dues lets the earlier-queued one land last.
TEST(RegFile, WriteAfterWriteWithOutOfOrderDuesCommitsInQueueOrder) {
  const auto queue_pair = [](WarpRegs& regs) {
    regs.write_row_at(sass::Reg{3}, 1u << 5, lane_value(5, 111), /*due=*/20);
    regs.write_row_at(sass::Reg{3}, 1u << 5, lane_value(5, 222), /*due=*/10);
  };
  WarpRegs once;
  queue_pair(once);
  EXPECT_EQ(once.next_due(), 10u);
  once.settle(25);
  EXPECT_EQ(once.read(sass::Reg{3}, 5), 222u);

  WarpRegs twice;
  queue_pair(twice);
  twice.settle(10);
  EXPECT_EQ(twice.read(sass::Reg{3}, 5), 222u);
  EXPECT_EQ(twice.next_due(), 20u);
  twice.settle(20);
  EXPECT_EQ(twice.read(sass::Reg{3}, 5), 111u);
}

TEST(RegFile, PartialLaneMaskLeavesOtherLanesAlone) {
  WarpRegs regs;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    regs.write_now(sass::Reg{7}, lane, 1000u + static_cast<std::uint32_t>(lane));
  }
  LaneRow values{};
  values.fill(5);
  regs.write_row_at(sass::Reg{7}, 0x80000005u, values, /*due=*/3);
  regs.settle(3);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const bool written = lane == 0 || lane == 2 || lane == 31;
    EXPECT_EQ(regs.read(sass::Reg{7}, lane),
              written ? 5u : 1000u + static_cast<std::uint32_t>(lane))
        << lane;
  }
}

// An LDS.128-style writeback: four consecutive registers, each a full row,
// plus a predicate row; settle_all commits every one regardless of due.
TEST(RegFile, MultiRegisterRowWriteCommitsUnderSettleAll) {
  WarpRegs regs;
  for (std::uint8_t r = 0; r < 4; ++r) {
    LaneRow values{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      values[static_cast<std::size_t>(lane)] = 100u * r + static_cast<std::uint32_t>(lane);
    }
    regs.write_row_at(sass::Reg{static_cast<std::uint8_t>(8 + r)}, 0xFFFFFFFFu, values,
                      /*due=*/1000 + r);
  }
  regs.write_pred_at(sass::Pred{1}, 0x0000FFFFu, 0x00000F0Fu, /*due=*/2000);
  regs.write_row_at(sass::RZ, 0xFFFFFFFFu, LaneRow{}, /*due=*/1);  // dropped
  regs.settle(999);
  EXPECT_EQ(regs.read(sass::Reg{8}, 0), 0u);
  EXPECT_EQ(regs.next_due(), 1000u);
  regs.settle_all();
  for (std::uint8_t r = 0; r < 4; ++r) {
    for (int lane = 0; lane < kWarpSize; ++lane) {
      EXPECT_EQ(regs.read(sass::Reg{static_cast<std::uint8_t>(8 + r)}, lane),
                100u * r + static_cast<std::uint32_t>(lane));
    }
  }
  EXPECT_EQ(regs.pred_mask(sass::Pred{1}), 0x00000F0Fu);
  EXPECT_EQ(regs.next_due(), WarpRegs::kNever);
}

TEST(RegFile, RzReadsZeroAndDropsWrites) {
  WarpRegs regs;
  regs.write_now(sass::RZ, 3, 999);
  EXPECT_EQ(regs.read(sass::RZ, 3), 0u);
}

TEST(RegFile, PredicatesPerLane) {
  WarpRegs regs;
  EXPECT_TRUE(regs.read_pred(sass::PT, 5));
  regs.write_pred(sass::Pred{2}, 5, true);
  EXPECT_TRUE(regs.read_pred(sass::Pred{2}, 5));
  EXPECT_FALSE(regs.read_pred(sass::Pred{2}, 6));
  regs.write_pred(sass::PT, 5, false);  // PT immutable
  EXPECT_TRUE(regs.read_pred(sass::PT, 5));
}

}  // namespace
}  // namespace tc::sim
