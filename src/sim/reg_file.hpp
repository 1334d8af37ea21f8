// Per-warp register state with hazard-accurate delayed writeback.
//
// Fixed-latency pipes on Volta/Turing do not interlock: if a consumer issues
// before the producer's latency has elapsed (and no stall count or scoreboard
// wait protects it), it reads the *old* register value. WarpRegs models this
// by buffering writes with a due-cycle; `settle(now)` commits everything due.
// The functional executor simply settles immediately after each instruction.
//
// Pending writes are whole register rows (a lane mask plus 32 values), the
// unit an instruction writes back. At settle(now) every pending row and
// predicate write with due <= now commits in insertion order, so of two
// writes to one (register, lane) that are both due, the later-queued one
// wins even when it was due earlier.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sass/isa.hpp"

namespace tc::sim {

inline constexpr int kWarpSize = 32;

/// One register's value in each of the 32 lanes.
using LaneRow = std::array<std::uint32_t, kWarpSize>;

/// One warp's 255 GPRs x 32 lanes, 7 predicates x 32 lanes, and the pending
/// writeback queue.
class WarpRegs {
 public:
  /// next_due() when nothing is pending.
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  WarpRegs();

  /// Reads lane `lane` of register r (RZ reads as 0).
  [[nodiscard]] std::uint32_t read(sass::Reg r, int lane) const;

  /// Immediate write (functional mode / settled timing write).
  void write_now(sass::Reg r, int lane, std::uint32_t value);

  /// Schedules the lanes of register r set in `mask` (bit l = lane l) to
  /// take values[l] at `due_cycle`. Writes to RZ are dropped.
  void write_row_at(sass::Reg r, std::uint32_t mask, const LaneRow& values,
                    std::uint64_t due_cycle);

  /// Schedules the lanes of predicate p set in `mask` to take the matching
  /// bits of `bits` at `due_cycle`. Writes to PT are dropped.
  void write_pred_at(sass::Pred p, std::uint32_t mask, std::uint32_t bits,
                     std::uint64_t due_cycle);

  /// Commits all pending writes with due_cycle <= now. Returns at once while
  /// now < next_due().
  void settle(std::uint64_t now) {
    if (now >= min_due_) commit_due(now);
  }

  /// Commits everything regardless of due time (end of functional step).
  void settle_all();

  /// Earliest due cycle of any pending write; kNever when none is pending.
  [[nodiscard]] std::uint64_t next_due() const { return min_due_; }

  [[nodiscard]] bool read_pred(sass::Pred p, int lane) const;
  void write_pred(sass::Pred p, int lane, bool value);

  /// True when a pending (not yet visible) write to r exists. Only tests use
  /// it; the timing engine asks next_due() instead.
  [[nodiscard]] bool has_pending(sass::Reg r) const;

  /// Direct lane-row access for the JIT backend. Valid only while no write
  /// is pending (functional execution settles immediately, so always there);
  /// rows()[r] is register r's 32 lane values, r in [0, 255) — RZ has no row.
  [[nodiscard]] LaneRow* rows() { return gpr_.data(); }
  [[nodiscard]] const LaneRow* rows() const { return gpr_.data(); }

  /// Lane mask of predicate p (bit l = lane l). PT reads all-ones.
  [[nodiscard]] std::uint32_t pred_mask(sass::Pred p) const {
    return pred_[static_cast<std::size_t>(p.idx)];
  }
  /// Replaces the whole lane mask of p; PT stays read-only (write dropped).
  void set_pred_mask(sass::Pred p, std::uint32_t mask) {
    if (!p.is_pt()) pred_[static_cast<std::size_t>(p.idx)] = mask;
  }

 private:
  struct PendingRow {
    std::uint64_t due;
    std::uint32_t mask;
    std::uint8_t reg;
    LaneRow values;
  };
  struct PendingPred {
    std::uint64_t due;
    std::uint32_t mask;
    std::uint32_t bits;
    std::uint8_t pred;
  };

  void commit_due(std::uint64_t now);
  void commit(const PendingRow& row);
  void commit(const PendingPred& p);

  std::array<LaneRow, 255> gpr_{};
  std::array<std::uint32_t, 8> pred_{};  // bitmask per predicate; P7 forced to all-ones
  std::vector<PendingRow> pending_;
  std::vector<PendingPred> pending_preds_;
  std::uint64_t min_due_ = kNever;  // exact minimum due over both queues
};

}  // namespace tc::sim
