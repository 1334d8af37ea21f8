#include "core/kernel_gen.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sass/builder.hpp"
#include "sched/schedule.hpp"

namespace tc::core {

using sass::CacheOp;
using sass::CmpOp;
using sass::KernelBuilder;
using sass::MemWidth;
using sass::Pred;
using sass::Reg;
using sass::RZ;
using sass::SpecialReg;

namespace {

constexpr int align4(int r) { return (r + 3) & ~3; }

Reg R(int i) {
  TC_ASSERT(i >= 0 && i < 255, "register index out of range");
  return Reg{static_cast<std::uint8_t>(i)};
}

/// Everything the generator needs to know about one slab (A or B).
struct SlabPlan {
  int rows = 0;            // bm for A, bn for B
  std::uint32_t smem_base = 0;
  int ldg_slots = 0;       // LDG.128 per thread per slab
  int row_quotient = 0;    // (rows/8) / warps
  int stage_base = 0;      // first staging register
  int addr_reg = 0;        // global address register
  int sts_reg = 0;         // smem store-address register
  int frag_reg = 0;        // smem fragment-load-address register
};

/// Generates the blocked HGEMM per the plan in the header. Layout math
/// mirrors src/sim/mma_exec.cpp: 8x8 tiles are stored in shared memory in
/// their fragment-register word order, so LDS.32 with lane-linear addresses
/// (lane*4) yields row-major A fragments and column-major B fragments
/// directly (Fig. 1/2) — and covers banks 0..31 exactly once.
///
/// The generator emits the *virtual* program: semantic instruction order —
/// including the paper's compute/memory interleave, which the scheduler
/// preserves (memory ops are anchored) — but no stall counts, scoreboard
/// barriers, or wait masks. tc::sched::schedule() derives all of those from
/// the shared latency table; hgemm_kernel() is schedule(hgemm_kernel_virtual()).
class HgemmGenerator {
 public:
  HgemmGenerator(const HgemmConfig& cfg, const GemmShape& shape, const Epilogue& ep,
                 const KernelVariant& variant)
      : cfg_(cfg),
        shape_(shape),
        ep_(ep),
        z_indexed_(variant.batched || cfg.split_k > 1),
        b_(kernel_name(cfg, ep, variant), /*unscheduled=*/true) {
    cfg_.check();
    check_kernel_shape(shape);
    const auto slice = static_cast<std::size_t>(cfg_.slice_k(shape));
    TC_CHECK(shape.m % static_cast<std::size_t>(cfg.bm) == 0 &&
                 shape.n % static_cast<std::size_t>(cfg.bn) == 0 &&
                 slice % static_cast<std::size_t>(cfg.bk) == 0,
             "shape must be tile-aligned (the hgemm API pads)");
    TC_CHECK(slice >= 2 * static_cast<std::size_t>(cfg.bk), "slice k must be >= 2*bk");
    TC_CHECK(std::has_single_bit(static_cast<unsigned>(cfg.bn / cfg.wn)),
             "bn/wn must be a power of two");
    TC_CHECK(cfg.split_k == 1 || ep.is_default(),
             "split-K partials must store raw accumulators; the epilogue "
             "belongs to the reduction kernel");

    warps_ = cfg_.warps();
    ksteps_ = cfg_.bk / cfg_.wk;
    hmma_per_kstep_ = (cfg_.wm / 16) * (cfg_.wn / 8);
    a_frags_ = cfg_.wm / 8;
    b_frags_ = cfg_.wn / 8;
    iters_ = static_cast<int>(slice) / cfg_.bk;

    // Register file layout.
    rA_[0] = 0;
    rA_[1] = a_frags_;
    rB_[0] = 2 * a_frags_;
    rB_[1] = 2 * a_frags_ + b_frags_;
    rC_ = align4(2 * a_frags_ + 2 * b_frags_);
    nC_ = (cfg_.wm / 16) * (cfg_.wn / 8) * 2;

    a_.rows = cfg_.bm;
    bb_.rows = cfg_.bn;
    a_.smem_base = 0;
    bb_.smem_base = cfg_.slab_bytes(cfg_.bm);
    for (SlabPlan* s : {&a_, &bb_}) {
      s->ldg_slots = (s->rows / 8) * (cfg_.bk / 8) / 4 / warps_;
      s->row_quotient = (s->rows / 8) / warps_;
    }
    a_.stage_base = align4(rC_ + nC_);
    bb_.stage_base = a_.stage_base + a_.ldg_slots * 4;
    const int misc = bb_.stage_base + bb_.ldg_slots * 4;
    a_.addr_reg = misc + 0;
    bb_.addr_reg = misc + 1;
    a_.sts_reg = misc + 2;
    bb_.sts_reg = misc + 3;
    a_.frag_reg = misc + 4;
    bb_.frag_reg = misc + 5;
    rCAddr_ = misc + 6;
    rIter_ = misc + 7;
    t0_ = misc + 8;
    t1_ = misc + 9;
    t2_ = misc + 10;
    t3_ = misc + 11;
    TC_CHECK(misc + 12 <= 254, "register budget exceeded for config " + cfg_.name());
    TC_CHECK(!half(ep_.beta).is_nan() && !half(ep_.alpha).is_nan(), "NaN GEMM scalars");
  }

  sass::Program generate() {
    b_.threads(static_cast<std::uint32_t>(cfg_.threads()));
    b_.smem(cfg_.smem_bytes());

    emit_prologue();
    emit_body();
    emit_epilogue();
    return b_.finalize();
  }

 private:
  /// Program name: cfg.name() (which already carries _sk<N>), plus _bz for
  /// the z-indexed batched prologue when split_k alone would not imply it,
  /// plus the activation tail. Alpha/beta stay out of the name (immediates
  /// only), matching the existing axpby convention.
  static std::string kernel_name(const HgemmConfig& cfg, const Epilogue& ep,
                                 const KernelVariant& variant) {
    std::string n = cfg.name();
    if (variant.batched && cfg.split_k == 1) n += "_bz";
    if (ep.act != Activation::kNone) n += std::string("_") + activation_name(ep.act);
    return n;
  }

  // --- layout helpers -------------------------------------------------------

  [[nodiscard]] bool tile_layout() const { return cfg_.layout != SmemLayout::kNaiveRowMajor; }
  [[nodiscard]] int pad_bytes() const {
    return cfg_.layout == SmemLayout::kPaddedTile ? 64 : 0;
  }
  /// Smem byte stride between consecutive tile rows (8 matrix rows).
  [[nodiscard]] int tile_row_stride() const { return (cfg_.bk / 8) * 128 + pad_bytes(); }

  /// LDG slot deltas relative to slot 0. These are independent of the warp
  /// index because (rows/8) % warps == 0 (enforced by HgemmConfig::check).
  [[nodiscard]] int slot_drg(const SlabPlan& s, int t) const {
    return warps_ * (t % s.row_quotient);
  }
  [[nodiscard]] int slot_dcq(const SlabPlan& s, int t) const { return t / s.row_quotient; }

  [[nodiscard]] std::int32_t ldg_offset(const SlabPlan& s, int t) const {
    return slot_drg(s, t) * 8 * static_cast<std::int32_t>(shape_.k) * 2 +
           slot_dcq(s, t) * 64;
  }

  [[nodiscard]] std::int32_t sts_offset(const SlabPlan& s, int t) const {
    const int drg = slot_drg(s, t);
    const int dcq = slot_dcq(s, t);
    if (tile_layout()) {
      return drg * tile_row_stride() + dcq * 4 * 128;
    }
    return (drg * 8 * cfg_.bk + dcq * 32) * 2;  // naive: +rows*bk halves, +4 colblocks
  }

  /// Smem byte offset of fragment tile i at k-step `ks`, relative to the
  /// warp's fragment base register.
  [[nodiscard]] std::int32_t frag_offset(int i, int ks) const {
    if (tile_layout()) {
      return i * tile_row_stride() + ks * 128;
    }
    return (i * 8 * cfg_.bk + ks * 8) * 2;
  }

  // --- prologue --------------------------------------------------------------

  // Byte offsets for this CTA's z plane, stashed in the first three staging
  // registers — free until the first LDG group, which is emitted only after
  // every base address below has consumed them.
  [[nodiscard]] int zA() const { return a_.stage_base + 0; }
  [[nodiscard]] int zB() const { return a_.stage_base + 1; }
  [[nodiscard]] int zOut() const { return a_.stage_base + 2; }

  /// CTAID.Z-indexed base offsets (batched and/or split-K): the raw z is the
  /// output plane index (workspace planes are [batch][slice]-major), and for
  /// split_k > 1 it decomposes into slice = z & (split_k-1) — a k-offset of
  /// slice*slice_k elements into every A row and B^T row — and batch =
  /// z >> log2(split_k), a whole-plane offset into A and B^T.
  void emit_z_offsets() {
    const auto m = static_cast<std::int32_t>(shape_.m);
    const auto n = static_cast<std::int32_t>(shape_.n);
    const auto k = static_cast<std::int32_t>(shape_.k);
    b_.s2r(R(t0_), SpecialReg::kCtaIdZ);
    b_.imad_imm(R(zOut()), R(t0_), m * n * 2, RZ);
    if (cfg_.split_k > 1) {
      const auto slice2 = static_cast<std::int32_t>(cfg_.slice_k(shape_)) * 2;
      b_.land_imm(R(t1_), R(t0_), cfg_.split_k - 1);
      b_.imad_imm(R(zA()), R(t1_), slice2, RZ);
      b_.mov(R(zB()), R(zA()));
      b_.shr(R(t0_), R(t0_), std::countr_zero(static_cast<unsigned>(cfg_.split_k)));
      b_.imad_imm(R(zA()), R(t0_), m * k * 2, R(zA()));
      b_.imad_imm(R(zB()), R(t0_), n * k * 2, R(zB()));
    } else {
      b_.imad_imm(R(zA()), R(t0_), m * k * 2, RZ);
      b_.imad_imm(R(zB()), R(t0_), n * k * 2, RZ);
    }
  }

  void emit_prologue() {
    const auto k2 = static_cast<std::int32_t>(shape_.k) * 2;
    const auto n2 = static_cast<std::int32_t>(shape_.n) * 2;

    if (z_indexed_) emit_z_offsets();

    // lane7 = tid & 7 lives in t3_ for the whole slab-address section.
    b_.s2r(R(t0_), SpecialReg::kTidX);
    b_.land_imm(R(t3_), R(t0_), 7);

    // --- global-load and shared-store addresses per slab ----------------------
    for (SlabPlan* sp : {&a_, &bb_}) {
      SlabPlan& s = *sp;
      const bool is_a = sp == &a_;
      // addr = P [+ z offset] + (blk*dim + w*8 + lane7)*k*2 + cbq*16
      b_.mov_param(R(s.addr_reg), is_a ? 0 : 1);
      if (z_indexed_) b_.iadd3(R(s.addr_reg), R(s.addr_reg), R(is_a ? zA() : zB()));
      b_.s2r(R(s.sts_reg), SpecialReg::kTidX);  // tid scratch
      b_.s2r(R(t1_), is_a ? SpecialReg::kCtaIdY : SpecialReg::kCtaIdX);
      b_.imad_imm(R(t0_), R(t1_), (is_a ? cfg_.bm : cfg_.bn) * k2, R(s.addr_reg));
      b_.shr(R(s.frag_reg), R(s.sts_reg), 5);   // w
      b_.shl(R(t2_), R(s.frag_reg), 3);         // w8
      b_.iadd3(R(t2_), R(t2_), R(t3_));         // w8 + lane7
      b_.imad_imm(R(t0_), R(t2_), k2, R(t0_));
      b_.land_imm(R(t1_), R(s.sts_reg), 31);
      b_.shr(R(t1_), R(t1_), 3);                // cbq = (tid&31)>>3
      b_.imad_imm(R(s.addr_reg), R(t1_), 16, R(t0_));

      // STS base. Tile layouts: smem + w*tile_row_stride + cbq*128 + lane7*16.
      // Naive: smem + ((w8+lane7)*bk + cbq*8)*2.
      if (tile_layout()) {
        b_.imad_imm(R(s.sts_reg), R(s.frag_reg), tile_row_stride(), RZ);
        b_.imad_imm(R(s.sts_reg), R(t1_), 128, R(s.sts_reg));
        b_.imad_imm(R(s.sts_reg), R(t3_), 16, R(s.sts_reg));
      } else {
        b_.imad_imm(R(s.sts_reg), R(t2_), cfg_.bk * 2, RZ);
        b_.imad_imm(R(s.sts_reg), R(t1_), 16, R(s.sts_reg));
      }
      if (s.smem_base != 0) {
        b_.iadd_imm(R(s.sts_reg), R(s.sts_reg), static_cast<std::int32_t>(s.smem_base));
      }
    }

    // --- fragment (LDS) bases --------------------------------------------------
    // lane = tid&31, w = tid>>5, wy = w >> log2(bn/wn), wx = w & (bn/wn - 1).
    const int wn_cols = cfg_.bn / cfg_.wn;
    const int wx_shift = std::countr_zero(static_cast<unsigned>(wn_cols));
    b_.s2r(R(t0_), SpecialReg::kTidX);
    b_.land_imm(R(t3_), R(t0_), 31);  // lane
    b_.shr(R(t0_), R(t0_), 5);        // w
    b_.shr(R(t2_), R(t0_), wx_shift); // wy
    b_.land_imm(R(t1_), R(t0_), wn_cols - 1);  // wx

    if (tile_layout()) {
      b_.imad_imm(R(a_.frag_reg), R(t2_), (cfg_.wm / 8) * tile_row_stride(), RZ);
      b_.imad_imm(R(a_.frag_reg), R(t3_), 4, R(a_.frag_reg));
      b_.imad_imm(R(bb_.frag_reg), R(t1_), (cfg_.wn / 8) * tile_row_stride(), RZ);
      b_.imad_imm(R(bb_.frag_reg), R(t3_), 4, R(bb_.frag_reg));
    } else {
      // lane part of a naive 8x8-tile access: (l/4)*bk*2 + (l%4)*4.
      b_.shr(R(t0_), R(t3_), 2);
      b_.imad_imm(R(t0_), R(t0_), cfg_.bk * 2, RZ);
      b_.land_imm(R(rCAddr_), R(t3_), 3);
      b_.imad_imm(R(t0_), R(rCAddr_), 4, R(t0_));
      b_.imad_imm(R(a_.frag_reg), R(t2_), cfg_.wm * cfg_.bk * 2, R(t0_));
      b_.imad_imm(R(bb_.frag_reg), R(t1_), cfg_.wn * cfg_.bk * 2, R(t0_));
    }
    if (bb_.smem_base != 0) {
      b_.iadd_imm(R(bb_.frag_reg), R(bb_.frag_reg), static_cast<std::int32_t>(bb_.smem_base));
    }

    // --- C epilogue base ----------------------------------------------------
    // cAddr = C [+ z plane] + ((by*bm + wy*wm + l/4)*n + bx*bn + wx*wn + 2*(l%4))*2.
    // t2 = wy, t1 = wx, t3 = lane at this point.
    b_.mov_param(R(rCAddr_), 2);
    if (z_indexed_) b_.iadd3(R(rCAddr_), R(rCAddr_), R(zOut()));
    b_.s2r(R(t0_), SpecialReg::kCtaIdY);
    b_.imad_imm(R(t0_), R(t0_), cfg_.bm, RZ);
    b_.imad_imm(R(t0_), R(t2_), cfg_.wm, R(t0_));
    b_.shr(R(t2_), R(t3_), 2);  // l/4 (wy no longer needed)
    b_.iadd3(R(t0_), R(t0_), R(t2_));
    b_.imad_imm(R(t0_), R(t0_), n2, R(rCAddr_));
    b_.s2r(R(t2_), SpecialReg::kCtaIdX);
    b_.imad_imm(R(t0_), R(t2_), cfg_.bn * 2, R(t0_));
    b_.imad_imm(R(t0_), R(t1_), cfg_.wn * 2, R(t0_));
    b_.land_imm(R(t1_), R(t3_), 3);  // l%4
    b_.imad_imm(R(rCAddr_), R(t1_), 4, R(t0_));

    // --- zero the accumulators ------------------------------------------------
    for (int r = 0; r < nC_; ++r) b_.mov_imm(R(rC_ + r), 0);

    // --- slab 0: load, store, sync ---------------------------------------------
    emit_ldg_group(a_, /*guard=*/-1);
    emit_ldg_group(bb_, -1);
    emit_addr_advance();
    emit_sts_group(a_);
    emit_sts_group(bb_);
    b_.bar_sync();

    if (cfg_.prefetch) {
      emit_ldg_group(a_, -1);  // slab 1 into staging
      emit_ldg_group(bb_, -1);
      emit_addr_advance();
    }

    emit_lds_group(/*kstep=*/0, /*buf=*/0);  // fragments for k-step 0

    b_.mov_imm(R(rIter_), iters_);
  }

  // --- groups -----------------------------------------------------------------

  /// One prefetch LDG.128. `guard` < 0 means unguarded; otherwise the
  /// predicate index gating it (P1 = "two more iterations exist" on the
  /// prefetch path, P0 = "one more iteration exists" without prefetch). The
  /// WAR protection against the STS group still reading the staging
  /// registers is the scheduler's job (read-barrier demand on the STS,
  /// waited at its first overwriter — exactly this LDG).
  void emit_ldg(const SlabPlan& s, int t, int guard) {
    b_.ldg(MemWidth::k128, R(s.stage_base + 4 * t), R(s.addr_reg), ldg_offset(s, t),
           CacheOp::kCa);
    if (guard >= 0) b_.pred(Pred{static_cast<std::uint8_t>(guard)});
  }

  void emit_ldg_group(const SlabPlan& s, int guard) {
    for (int t = 0; t < s.ldg_slots; ++t) emit_ldg(s, t, guard);
  }

  void emit_addr_advance() {
    b_.iadd_imm(R(a_.addr_reg), R(a_.addr_reg), cfg_.bk * 2);
    b_.iadd_imm(R(bb_.addr_reg), R(bb_.addr_reg), cfg_.bk * 2);
  }

  void emit_sts(const SlabPlan& s, int t) {
    b_.sts(MemWidth::k128, R(s.sts_reg), R(s.stage_base + 4 * t), sts_offset(s, t));
  }

  void emit_sts_group(const SlabPlan& s) {
    for (int t = 0; t < s.ldg_slots; ++t) emit_sts(s, t);
  }

  void emit_lds(const SlabPlan& s, int frag_index, int kstep, int buf) {
    const int base = (&s == &a_) ? rA_[buf] : rB_[buf];
    b_.lds(MemWidth::k32, R(base + frag_index), R(s.frag_reg), frag_offset(frag_index, kstep));
  }

  void emit_lds_group(int kstep, int buf) {
    for (int i = 0; i < a_frags_; ++i) emit_lds(a_, i, kstep, buf);
    for (int i = 0; i < b_frags_; ++i) emit_lds(bb_, i, kstep, buf);
  }

  /// One k-step's HMMAs with interleaved memory work:
  ///  * interleave_lds: the next k-step's fragment loads, front-loaded to
  ///    finish by the k-step's midpoint so their latency is fully hidden;
  ///  * interleave_sts: the STS group at cfg_.sts_interleave spacing
  ///    (Section VI-C), and — once the stores are out — a mid-stream
  ///    BAR.SYNC followed by the *new* slab's k-step-0 fragment loads, one
  ///    per HMMA, so the iteration boundary has no bulk load phase.
  void emit_kstep(int kstep, bool interleave_lds, bool interleave_sts) {
    const int buf = kstep % 2;
    const int nextbuf = 1 - buf;
    const int H = hmma_per_kstep_;

    struct PendingLds {
      const SlabPlan* slab;
      int index;
      int kstep;
      int buf;
    };
    struct PendingSts {
      const SlabPlan* slab;
      int index;
    };
    std::vector<PendingLds> lds_ops;
    std::vector<PendingSts> sts_ops;
    std::vector<PendingLds> lds0_ops;  // after the mid-kstep barrier
    if (interleave_lds) {
      for (int i = 0; i < a_frags_; ++i) lds_ops.push_back({&a_, i, kstep + 1, nextbuf});
      for (int i = 0; i < b_frags_; ++i) lds_ops.push_back({&bb_, i, kstep + 1, nextbuf});
    }
    int sts_a_count = 0;
    if (interleave_sts) {
      for (int t = 0; t < a_.ldg_slots; ++t) sts_ops.push_back({&a_, t});
      sts_a_count = a_.ldg_slots;
      for (int t = 0; t < bb_.ldg_slots; ++t) sts_ops.push_back({&bb_, t});
      for (int i = 0; i < a_frags_; ++i) lds0_ops.push_back({&a_, i, 0, 0});
      for (int i = 0; i < b_frags_; ++i) lds0_ops.push_back({&bb_, i, 0, 0});
    }
    const int lds_total = static_cast<int>(lds_ops.size());

    std::size_t next_lds = 0;
    std::size_t next_sts = 0;
    std::size_t next_lds0 = 0;
    int next_ldg_a = interleave_sts ? 0 : a_.ldg_slots;  // slab i+2 prefetch
    int next_ldg_b = interleave_sts ? 0 : bb_.ldg_slots;
    bool bar_emitted = false;
    int hmma_since_sts = cfg_.sts_interleave;  // allow an STS at the first slot
    int hmma_since_ldg = 2;
    auto emit_pending = [&](int h) {
      // Fragment loads front-loaded: quota 2h*L/H, complete by the midpoint.
      const int lds_due =
          h >= H ? lds_total : std::min(lds_total, (2 * h * lds_total) / H + 1);
      while (static_cast<int>(next_lds) < lds_due) {
        const auto& op = lds_ops[next_lds++];
        emit_lds(*op.slab, op.index, op.kstep, op.buf);
      }
      // Stores at the configured spacing (bunched only in the final flush).
      bool emitted_mem = false;
      if (next_sts < sts_ops.size() &&
          (h >= H || hmma_since_sts >= cfg_.sts_interleave)) {
        const auto& op = sts_ops[next_sts++];
        emit_sts(*op.slab, op.index);
        hmma_since_sts = 0;
        emitted_mem = true;
      }
      // Prefetch LDGs for slab i+2, each slab's group as soon as its STS
      // group has consumed the staging registers (the scheduler's read
      // barriers enforce the WAR), one LDG every other HMMA.
      if (interleave_sts && !emitted_mem && (h >= H || hmma_since_ldg >= 2)) {
        if (next_ldg_a < a_.ldg_slots && static_cast<int>(next_sts) >= sts_a_count) {
          emit_ldg(a_, next_ldg_a, /*guard=*/1);
          ++next_ldg_a;
          hmma_since_ldg = 0;
          emitted_mem = true;
        } else if (next_ldg_b < bb_.ldg_slots && next_sts == sts_ops.size()) {
          emit_ldg(bb_, next_ldg_b, 1);
          ++next_ldg_b;
          hmma_since_ldg = 0;
          emitted_mem = true;
        }
      }
      // After the last store: barrier (the new slab is complete in smem),
      // then the new slab's first fragment group, one load per HMMA slot.
      if (interleave_sts && next_sts == sts_ops.size()) {
        if (!bar_emitted) {
          b_.bar_sync();
          bar_emitted = true;
        }
        while (next_lds0 < lds0_ops.size()) {
          const auto& op = lds0_ops[next_lds0++];
          emit_lds(*op.slab, op.index, op.kstep, op.buf);
          if (h < H && emitted_mem) break;
          if (h < H) {
            emitted_mem = true;
            break;
          }
        }
      }
      // Final flush must also drain the prefetch LDGs.
      if (h >= H) {
        while (next_ldg_a < a_.ldg_slots) {
          emit_ldg(a_, next_ldg_a, 1);
          ++next_ldg_a;
        }
        while (next_ldg_b < bb_.ldg_slots) {
          emit_ldg(bb_, next_ldg_b, 1);
          ++next_ldg_b;
        }
      }
    };

    for (int mi = 0; mi < cfg_.wm / 16; ++mi) {
      for (int nj = 0; nj < cfg_.wn / 8; ++nj) {
        const int h = mi * (cfg_.wn / 8) + nj;
        const int cpair = rC_ + h * 2;
        b_.hmma_1688_f16(R(cpair), R(rA_[buf] + 2 * mi), R(rB_[buf] + nj), R(cpair));
        ++hmma_since_sts;
        emit_pending(h + 1);
      }
    }
    emit_pending(H);  // flush whatever did not fit between HMMAs
  }

  // --- main loop ---------------------------------------------------------------

  void emit_body() {
    b_.label("body");
    // The ISETPs read the decremented counter — on silicon the ALU latency
    // must elapse first or the loop runs one extra iteration. The scheduler
    // derives that spacing (and the predicate-to-BRA gap) from the table.
    b_.iadd_imm(R(rIter_), R(rIter_), -1);
    b_.isetp_imm(Pred{0}, CmpOp::kGt, R(rIter_), 0);
    b_.isetp_imm(Pred{1}, CmpOp::kGt, R(rIter_), 1);

    if (!cfg_.prefetch) {
      // Ablation path: compute first, then load the next slab with the DRAM
      // latency fully exposed.
      for (int s = 0; s < ksteps_; ++s) {
        emit_kstep(s, /*interleave_lds=*/s + 1 < ksteps_, /*interleave_sts=*/false);
      }
      emit_ldg_group(a_, /*guard=*/0);   // P0: one more iteration
      emit_ldg_group(bb_, 0);
      emit_addr_advance();
      b_.bar_sync();  // every warp done reading the old slab
      emit_sts_group(a_);
      emit_sts_group(bb_);
      b_.bar_sync();
      emit_lds_group(0, 0);
      b_.bra("body").pred(Pred{0});
      return;
    }

    // k-steps 0 .. S-2: compute + load next k-step's fragments.
    for (int s = 0; s + 1 < ksteps_; ++s) {
      emit_kstep(s, /*interleave_lds=*/true, /*interleave_sts=*/false);
    }

    // Store k-step. Arriving at the barrier means the old slab can be
    // overwritten; the scheduler drains this warp's in-flight fragment reads
    // at the BAR.SYNC and holds the STS group on the staging registers'
    // write barriers. The k-step itself interleaves STS, a mid-stream
    // barrier and the new slab's k-step-0 fragment loads (see emit_kstep).
    b_.bar_sync();
    emit_kstep(ksteps_ - 1, /*interleave_lds=*/false, /*interleave_sts=*/true);
    emit_addr_advance();
    b_.bra("body").pred(Pred{0});
  }

  // --- epilogue -----------------------------------------------------------------

  void emit_epilogue() {
    const auto n2 = static_cast<std::int32_t>(shape_.n) * 2;
    const bool scaled = !ep_.is_default();
    const bool reload = half(ep_.beta).to_float() != 0.0f;
    if (scaled) {
      // alpha/beta as packed half2 immediates (each lane scales two halves).
      const half ah(ep_.alpha);
      const half bh(ep_.beta);
      b_.mov_imm(R(t1_), static_cast<std::int32_t>(half2{ah, ah}.pack()));
      b_.mov_imm(R(t2_), static_cast<std::int32_t>(half2{bh, bh}.pack()));
    }
    for (int mi = 0; mi < cfg_.wm / 16; ++mi) {
      for (int nj = 0; nj < cfg_.wn / 8; ++nj) {
        const int cpair = rC_ + (mi * (cfg_.wn / 8) + nj) * 2;
        for (int part = 0; part < 2; ++part) {
          const std::int32_t off = mi * 16 * n2 + nj * 8 * 2 + part * 8 * n2;
          if (!scaled) {
            b_.stg(MemWidth::k32, R(rCAddr_), R(cpair + part), off);
            continue;
          }
          // val = round(beta*Cold) then round(alpha*acc + val), per element,
          // then the activation tail. The reduction kernel mirrors this
          // exact rounding sequence for the non-fused path.
          if (reload) {
            b_.ldg(MemWidth::k32, R(t0_), R(rCAddr_), off);
            b_.hmul2(R(t3_), R(t2_), R(t0_));
          } else {
            b_.mov_imm(R(t3_), 0);
          }
          b_.hfma2(R(t3_), R(t1_), R(cpair + part), R(t3_));
          if (ep_.act == Activation::kRelu) b_.hmax2(R(t3_), R(t3_), RZ);
          if (ep_.act == Activation::kGelu) b_.hgelu2(R(t3_), R(t3_));
          b_.stg(MemWidth::k32, R(rCAddr_), R(t3_), off);
        }
      }
    }
    b_.exit();
  }

  HgemmConfig cfg_;
  GemmShape shape_;
  Epilogue ep_;
  bool z_indexed_ = false;
  KernelBuilder b_;

  int warps_ = 0;
  int ksteps_ = 0;
  int hmma_per_kstep_ = 0;
  int a_frags_ = 0;
  int b_frags_ = 0;
  int iters_ = 0;

  int rA_[2] = {0, 0};
  int rB_[2] = {0, 0};
  int rC_ = 0;
  int nC_ = 0;
  SlabPlan a_;
  SlabPlan bb_;
  int rCAddr_ = 0;
  int rIter_ = 0;
  int t0_ = 0, t1_ = 0, t2_ = 0, t3_ = 0;
};

}  // namespace

const char* activation_name(Activation act) {
  switch (act) {
    case Activation::kNone: return "none";
    case Activation::kRelu: return "relu";
    case Activation::kGelu: return "gelu";
  }
  return "unknown";
}

sass::Program hgemm_kernel_virtual(const HgemmConfig& cfg, const GemmShape& shape,
                                   const Epilogue& epilogue, const KernelVariant& variant) {
  return HgemmGenerator(cfg, shape, epilogue, variant).generate();
}

sass::Program hgemm_kernel(const HgemmConfig& cfg, const GemmShape& shape,
                           const Epilogue& epilogue, const KernelVariant& variant) {
  return sched::schedule(hgemm_kernel_virtual(cfg, shape, epilogue, variant));
}

sass::Program reduce_epilogue_kernel_virtual(const ReducePlan& plan) {
  TC_CHECK(plan.m >= 1 && plan.n >= 2 && plan.n % 2 == 0,
           "reduce_epilogue_kernel needs an even column count");
  check_kernel_shape({plan.m, plan.n, 1});
  TC_CHECK(plan.parts >= 1 && plan.parts <= 64, "parts must be in [1, 64]");
  TC_CHECK(plan.parts > 1 || plan.bias || !plan.epilogue.is_default(),
           "a 1-part reduction with a default epilogue is the identity");

  std::string name = "gemm_reduce_" + std::to_string(plan.m) + "x" + std::to_string(plan.n) +
                     "_p" + std::to_string(plan.parts);
  if (plan.bias) name += "_bias";
  if (plan.epilogue.act != Activation::kNone) {
    name += std::string("_") + activation_name(plan.epilogue.act);
  }
  KernelBuilder b(name, /*unscheduled=*/true);
  b.threads(128);

  const auto n2 = static_cast<std::int32_t>(plan.n) * 2;       // row stride, bytes
  const auto plane = static_cast<std::int32_t>(plan.m) * n2;   // one m x n plane, bytes
  const half ah(plan.epilogue.alpha);
  const half bh(plan.epilogue.beta);
  TC_CHECK(!ah.is_nan() && !bh.is_nan(), "NaN GEMM scalars");
  const bool reload = bh.to_float() != 0.0f;

  // Register map (straight-line kernel, no loop): r0..r3 scratch/address,
  // r4 accumulator, r5 alpha2 / r6 beta2 immediates, r7 bias address,
  // r8.. the partial-load staging window.
  constexpr int rIn = 0, rOut = 1, rT = 2, rAcc = 4, rAl = 5, rBe = 6, rBias = 7, rStage = 8;
  constexpr int kStage = 8;  // partial loads in flight per chunk

  // col2 = cta_x*128 + tid (one half2 per thread); P0 = col2 < n/2.
  b.s2r(R(rT), SpecialReg::kTidX);
  b.s2r(R(3), SpecialReg::kCtaIdX);
  b.imad_imm(R(rT), R(3), 128, R(rT));
  b.isetp_imm(Pred{0}, CmpOp::kLt, R(rT), static_cast<std::int32_t>(plan.n / 2));

  // In base:  W + (z*parts + 0)*plane + row*n2 + col2*4.
  // Out base: C + z*plane + row*n2 + col2*4.
  b.s2r(R(3), SpecialReg::kCtaIdZ);
  b.mov_param(R(rIn), 0);
  b.imad_imm(R(rIn), R(3), plane * plan.parts, R(rIn));
  b.mov_param(R(rOut), 1);
  b.imad_imm(R(rOut), R(3), plane, R(rOut));
  b.s2r(R(3), SpecialReg::kCtaIdY);
  b.imad_imm(R(3), R(3), n2, RZ);
  b.iadd3(R(rIn), R(rIn), R(3));
  b.iadd3(R(rOut), R(rOut), R(3));
  b.imad_imm(R(3), R(rT), 4, RZ);
  b.iadd3(R(rIn), R(rIn), R(3));
  b.iadd3(R(rOut), R(rOut), R(3));
  if (plan.bias) {
    b.mov_param(R(rBias), 2);
    b.iadd3(R(rBias), R(rBias), R(3));
  }

  const auto guarded = [&](auto&& emit) {
    emit();
    b.pred(Pred{0});
  };

  // Fold the partials in slice order: acc = p0, then acc = HADD2(acc, ps).
  guarded([&] { b.ldg(MemWidth::k32, R(rAcc), R(rIn), 0); });
  for (int s = 1; s < plan.parts;) {
    const int chunk = std::min(kStage, plan.parts - s);
    for (int j = 0; j < chunk; ++j) {
      guarded([&] { b.ldg(MemWidth::k32, R(rStage + j), R(rIn), (s + j) * plane); });
    }
    for (int j = 0; j < chunk; ++j) b.hadd2(R(rAcc), R(rAcc), R(rStage + j));
    s += chunk;
  }

  // Epilogue with the fused tail's exact rounding sequence.
  if (!plan.epilogue.is_default() || plan.bias) {
    b.mov_imm(R(rAl), static_cast<std::int32_t>(half2{ah, ah}.pack()));
    if (reload) {
      guarded([&] { b.ldg(MemWidth::k32, R(rT), R(rOut), 0); });
      b.mov_imm(R(rBe), static_cast<std::int32_t>(half2{bh, bh}.pack()));
      b.hmul2(R(3), R(rBe), R(rT));
    } else {
      b.mov_imm(R(3), 0);
    }
    b.hfma2(R(rAcc), R(rAl), R(rAcc), R(3));
    if (plan.bias) {
      guarded([&] { b.ldg(MemWidth::k32, R(rT), R(rBias), 0); });
      b.hadd2(R(rAcc), R(rAcc), R(rT));
    }
    if (plan.epilogue.act == Activation::kRelu) b.hmax2(R(rAcc), R(rAcc), RZ);
    if (plan.epilogue.act == Activation::kGelu) b.hgelu2(R(rAcc), R(rAcc));
  }
  guarded([&] { b.stg(MemWidth::k32, R(rOut), R(rAcc), 0); });
  b.exit();
  return b.finalize();
}

sass::Program reduce_epilogue_kernel(const ReducePlan& plan) {
  return sched::schedule(reduce_epilogue_kernel_virtual(plan));
}

sass::Program wmma_naive_kernel_virtual(const GemmShape& shape) {
  check_kernel_shape(shape);
  TC_CHECK(shape.m % 16 == 0 && shape.n % 128 == 0 && shape.k % 16 == 0,
           "wmma_naive needs m%16 == 0, n%128 == 0, k%16 == 0 (the hgemm API pads)");
  KernelBuilder b("hgemm_wmma_naive", /*unscheduled=*/true);
  b.threads(256);

  // Each warp computes one 16x16 C tile at (by*16, bx*128 + w*16), loading
  // fragments straight from global memory each 16-deep k-chunk.
  const auto k2 = static_cast<std::int32_t>(shape.k) * 2;
  const auto n2 = static_cast<std::int32_t>(shape.n) * 2;

  b.s2r(R(40), SpecialReg::kTidX);
  b.s2r(R(41), SpecialReg::kCtaIdX);
  b.s2r(R(42), SpecialReg::kCtaIdY);

  b.land_imm(R(43), R(40), 31);  // lane
  b.shr(R(44), R(43), 2);        // l/4
  b.land_imm(R(45), R(43), 3);   // l%4
  b.shr(R(46), R(40), 5);        // warp

  // A fragment address: A + ((by*16 + l/4)*k + 2*(l%4))*2; hi tile +8 rows.
  b.mov_param(R(32), 0);
  b.imad_imm(R(47), R(42), 16, RZ);
  b.iadd3(R(47), R(47), R(44));
  b.imad_imm(R(47), R(47), k2, R(32));
  b.imad_imm(R(32), R(45), 4, R(47));

  // B fragment address: Bt + ((bx*128 + w*16 + l/4)*k + 2*(l%4))*2.
  b.mov_param(R(33), 1);
  b.imad_imm(R(48), R(41), 128, RZ);
  b.imad_imm(R(48), R(46), 16, R(48));
  b.iadd3(R(48), R(48), R(44));
  b.imad_imm(R(48), R(48), k2, R(33));
  b.imad_imm(R(33), R(45), 4, R(48));

  // C address: C + ((by*16 + l/4)*n + bx*128 + w*16 + 2*(l%4))*2.
  b.mov_param(R(34), 2);
  b.imad_imm(R(49), R(42), 16, RZ);
  b.iadd3(R(49), R(49), R(44));
  b.imad_imm(R(49), R(49), n2, R(34));
  b.imad_imm(R(49), R(41), 256, R(49));
  b.imad_imm(R(49), R(46), 32, R(49));
  b.imad_imm(R(34), R(45), 4, R(49));

  for (int r = 12; r <= 15; ++r) b.mov_imm(R(r), 0);
  b.mov_imm(R(35), static_cast<std::int32_t>(shape.k / 16));

  b.label("loop");
  b.iadd_imm(R(35), R(35), -1);
  b.isetp_imm(Pred{0}, CmpOp::kGt, R(35), 0);
  // A 16x16 = {lo,hi} x {k0,k1} tiles; B 16x16 likewise by column group.
  b.ldg(MemWidth::k32, R(2), R(32), 0);             // A lo k0
  b.ldg(MemWidth::k32, R(4), R(32), 16);            // A lo k1
  b.ldg(MemWidth::k32, R(3), R(32), 8 * k2);        // A hi k0
  b.ldg(MemWidth::k32, R(5), R(32), 8 * k2 + 16);   // A hi k1
  b.ldg(MemWidth::k32, R(8), R(33), 0);             // B c0-7 k0
  b.ldg(MemWidth::k32, R(9), R(33), 16);            // B c0-7 k1
  b.ldg(MemWidth::k32, R(10), R(33), 8 * k2);       // B c8-15 k0
  b.ldg(MemWidth::k32, R(11), R(33), 8 * k2 + 16);  // B c8-15 k1
  b.iadd_imm(R(32), R(32), 32);
  b.iadd_imm(R(33), R(33), 32);
  // Interleave the two accumulator pairs so the in-place accumulation
  // latency overlaps the other pair's issue (the scheduler spaces them).
  b.hmma_1688_f16(R(12), R(2), R(8), R(12));
  b.hmma_1688_f16(R(14), R(2), R(10), R(14));
  b.hmma_1688_f16(R(12), R(4), R(9), R(12));
  b.hmma_1688_f16(R(14), R(4), R(11), R(14));
  b.bra("loop").pred(Pred{0});

  b.stg(MemWidth::k32, R(34), R(12), 0);
  b.stg(MemWidth::k32, R(34), R(13), 8 * n2);
  b.stg(MemWidth::k32, R(34), R(14), 16);
  b.stg(MemWidth::k32, R(34), R(15), 8 * n2 + 16);
  b.exit();
  return b.finalize();
}

sass::Program wmma_naive_kernel(const GemmShape& shape) {
  return sched::schedule(wmma_naive_kernel_virtual(shape));
}

}  // namespace tc::core
