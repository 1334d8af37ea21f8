#include "sim/reg_file.hpp"

#include <algorithm>
#include <bit>

namespace tc::sim {

namespace {

/// Commits the entries of `queue` due at `now` in insertion order, keeps the
/// rest in order, and returns the earliest due cycle among those kept.
template <typename Entry, typename Commit>
std::uint64_t drain_due(std::vector<Entry>& queue, std::uint64_t now, Commit commit) {
  std::uint64_t next = WarpRegs::kNever;
  auto keep = queue.begin();
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->due <= now) {
      commit(*it);
    } else {
      next = std::min(next, it->due);
      if (keep != it) *keep = *it;
      ++keep;
    }
  }
  queue.erase(keep, queue.end());
  return next;
}

}  // namespace

WarpRegs::WarpRegs() {
  pred_[7] = 0xFFFFFFFFu;  // PT
}

std::uint32_t WarpRegs::read(sass::Reg r, int lane) const {
  if (r.is_rz()) return 0;
  return gpr_[r.idx][static_cast<std::size_t>(lane)];
}

void WarpRegs::write_now(sass::Reg r, int lane, std::uint32_t value) {
  if (r.is_rz()) return;
  gpr_[r.idx][static_cast<std::size_t>(lane)] = value;
}

void WarpRegs::write_row_at(sass::Reg r, std::uint32_t mask, const LaneRow& values,
                            std::uint64_t due_cycle) {
  if (r.is_rz()) return;
  pending_.push_back({due_cycle, mask, r.idx, values});
  min_due_ = std::min(min_due_, due_cycle);
}

void WarpRegs::write_pred_at(sass::Pred p, std::uint32_t mask, std::uint32_t bits,
                             std::uint64_t due_cycle) {
  if (p.is_pt()) return;
  pending_preds_.push_back({due_cycle, mask, bits, p.idx});
  min_due_ = std::min(min_due_, due_cycle);
}

void WarpRegs::commit(const PendingRow& row) {
  LaneRow& dst = gpr_[row.reg];
  if (row.mask == 0xFFFFFFFFu) {
    dst = row.values;
    return;
  }
  for (std::uint32_t m = row.mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::size_t>(std::countr_zero(m));
    dst[lane] = row.values[lane];
  }
}

void WarpRegs::commit(const PendingPred& p) {
  pred_[p.pred] = (pred_[p.pred] & ~p.mask) | (p.bits & p.mask);
}

void WarpRegs::commit_due(std::uint64_t now) {
  const std::uint64_t next_row =
      drain_due(pending_, now, [this](const PendingRow& row) { commit(row); });
  const std::uint64_t next_pred =
      drain_due(pending_preds_, now, [this](const PendingPred& p) { commit(p); });
  min_due_ = std::min(next_row, next_pred);
}

void WarpRegs::settle_all() {
  for (const auto& row : pending_) commit(row);
  for (const auto& p : pending_preds_) commit(p);
  pending_.clear();
  pending_preds_.clear();
  min_due_ = kNever;
}

bool WarpRegs::read_pred(sass::Pred p, int lane) const {
  return (pred_[p.idx] >> lane) & 1u;
}

void WarpRegs::write_pred(sass::Pred p, int lane, bool value) {
  if (p.is_pt()) return;  // PT is read-only
  if (value) {
    pred_[p.idx] |= (1u << lane);
  } else {
    pred_[p.idx] &= ~(1u << lane);
  }
}

bool WarpRegs::has_pending(sass::Reg r) const {
  if (r.is_rz()) return false;
  return std::any_of(pending_.begin(), pending_.end(),
                     [&](const PendingRow& row) { return row.reg == r.idx; });
}

}  // namespace tc::sim
