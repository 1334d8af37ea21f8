// Instruction-scheduling behaviour at the SM level: the mechanisms behind
// the paper's Figs. 4/5 measured directly in cycles, plus negative tests
// proving that the hazard machinery actually bites.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "driver/device.hpp"
#include "prof/profiler.hpp"
#include "sass/builder.hpp"
#include "sim/probe.hpp"
#include "sim/timed_sm.hpp"

namespace tc {
namespace {

/// Steady-state cycles for one CTA of `cfg` (timing only; MMA math skipped).
double steady_cycles(const core::HgemmConfig& cfg, int iters, double l2_hit = 0.5) {
  const GemmShape s{static_cast<std::size_t>(cfg.bm), static_cast<std::size_t>(cfg.bn),
                    static_cast<std::size_t>(cfg.bk) * static_cast<std::size_t>(iters)};
  const auto prog = core::hgemm_kernel(cfg, s);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                   gmem.alloc(s.m * s.n * 2)};
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.dram_bytes_per_cycle = tc.spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = tc.spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = l2_hit;
  tc.skip_mma_math = true;
  sim::TimedSm sm(tc, gmem);
  const sim::CtaCoord cta{0, 0};
  return static_cast<double>(sm.run(launch, std::span(&cta, 1)).cycles);
}

/// TimedStats plus the global words a one-CTA TimedSm run left at `out`.
struct SmRun {
  sim::TimedStats stats;
  std::vector<std::uint32_t> out;
};

/// Runs one CTA of `prog` with params (in, out) over `words` 32-bit words
/// each; `in` holds 1, 2, 3, ... .
SmRun run_one_cta(const sass::Program& prog, std::size_t words, prof::Profiler* profiler,
                  std::uint64_t max_cycles = 4'000'000'000ull) {
  mem::GlobalMemory gmem;
  const auto in = gmem.alloc(words * 4);
  const auto out = gmem.alloc(words * 4);
  std::vector<std::uint32_t> host(words);
  for (std::size_t i = 0; i < words; ++i) host[i] = static_cast<std::uint32_t>(i + 1);
  gmem.write(in, std::span(reinterpret_cast<const std::uint8_t*>(host.data()), words * 4));
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {in, out};
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.profiler = profiler;
  tc.max_cycles = max_cycles;
  sim::TimedSm sm(tc, gmem);
  const sim::CtaCoord cta{0, 0};
  SmRun run;
  run.stats = sm.run(launch, std::span(&cta, 1));
  run.out.resize(words);
  gmem.read(out, std::span(reinterpret_cast<std::uint8_t*>(run.out.data()), words * 4));
  return run;
}

void expect_same_stats(const sim::TimedStats& a, const sim::TimedStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.hmma_count, b.hmma_count);
  EXPECT_EQ(a.tensor_busy, b.tensor_busy);
  EXPECT_EQ(a.fma_busy, b.fma_busy);
  EXPECT_EQ(a.alu_busy, b.alu_busy);
  EXPECT_EQ(a.mio_busy, b.mio_busy);
  EXPECT_EQ(a.mio_bw_stall, b.mio_bw_stall);
  EXPECT_EQ(a.l1_bytes, b.l1_bytes);
  EXPECT_EQ(a.l2_bytes, b.l2_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.smem_beats, b.smem_beats);
  EXPECT_EQ(a.smem_phases, b.smem_phases);
}

double slope(const core::HgemmConfig& cfg) {
  return (steady_cycles(cfg, 14) - steady_cycles(cfg, 6)) / 8.0;
}

TEST(Scheduling, Sts5FasterThanSts2InCycles) {
  // Fig. 4's mechanism at SM level: interleave 2 bunches STS into the MIO
  // queue and stalls the issuing warps' HMMAs.
  auto sts5 = core::HgemmConfig::optimized();
  auto sts2 = core::HgemmConfig::optimized();
  sts2.sts_interleave = 2;
  EXPECT_LT(slope(sts5), slope(sts2));
}

TEST(Scheduling, WiderWarpTileBeatsNarrow) {
  // Section VI-A: (64x64) warp tiles need 1.5x the LDS traffic per HMMA.
  auto wide = core::HgemmConfig::optimized();  // 128x64
  auto narrow = core::HgemmConfig::optimized();
  narrow.wm = 64;
  narrow.wn = 64;  // 16 warps -> 512 threads; still valid
  EXPECT_LT(slope(wide), slope(narrow));
}

TEST(Scheduling, TensorUtilizationIsHigh) {
  // The optimized kernel should keep the tensor pipe > 85% busy in steady
  // state (ideal iteration = 4126 cycles per Table VI).
  const double per_iter = slope(core::HgemmConfig::optimized());
  EXPECT_LT(per_iter, 4126.0 / 0.85);
  EXPECT_GE(per_iter, 4126.0 * 0.99);
}

TEST(Scheduling, UnderStalledHmmaProducesStaleResult) {
  // Negative control for the whole hazard model: read D one cycle too early
  // and the value must be the poison, not the product.
  sass::KernelBuilder b("understalled");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(13);
  b.s2r(sass::Reg{11}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{12}, sass::Reg{11}, 2).stall(6);
  b.iadd3(sass::Reg{12}, sass::Reg{12}, sass::Reg{10}).stall(6);
  b.mov_imm(sass::Reg{2}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{3}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{6}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{8}, 0xDEADDEADu).stall(6);  // poison
  b.hmma_1688_f16(sass::Reg{8}, sass::Reg{2}, sass::Reg{6}, sass::RZ).stall(9);  // 1 short
  b.stg(sass::MemWidth::k32, sass::Reg{12}, sass::Reg{8}).stall(1);
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(32);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 0xDEADDEADu);  // stale poison: latency not covered

  // The same program runs correctly in the functional engine.
  dev.launch(launch);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_NE(host[0], 0xDEADDEADu);
}

TEST(Scheduling, MissingScoreboardWaitReadsStaleLoad) {
  sass::KernelBuilder b("nowait");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(1);
  b.mov_param(sass::Reg{11}, 1).stall(13);
  b.s2r(sass::Reg{12}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{13}, sass::Reg{12}, 2).stall(6);
  b.iadd3(sass::Reg{14}, sass::Reg{13}, sass::Reg{10}).stall(6);  // in + lane*4
  b.iadd3(sass::Reg{15}, sass::Reg{13}, sass::Reg{11}).stall(6);  // out + lane*4
  b.mov_imm(sass::Reg{4}, 0xCAFEBABEu).stall(6);
  b.ldg(sass::MemWidth::k32, sass::Reg{4}, sass::Reg{14}).write_bar(0).stall(2);
  b.stg(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{4}).stall(1);  // no wait!
  b.nop().wait_on(0).stall(1);  // barrier consumed later (keeps lint clean)
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto in = dev.alloc<std::uint32_t>(32);
  auto out = dev.alloc<std::uint32_t>(32);
  std::vector<std::uint32_t> ones(32, 111u);
  dev.upload(in, std::span<const std::uint32_t>(ones));
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {in.addr, out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(32);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 0xCAFEBABEu);  // the load had not returned yet
}

/// Cycles to run `grid_ctas` CTAs through `resident` slots of one SM with
/// dynamic refill (the GigaThread path TimedDevice uses).
double refill_cycles(int grid_ctas, int resident) {
  const auto cfg = core::HgemmConfig::optimized();
  const GemmShape s{256ull * static_cast<std::size_t>(grid_ctas), 256, 64};
  const auto prog = core::hgemm_kernel(cfg, s);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 1;
  launch.grid_y = static_cast<std::uint32_t>(grid_ctas);
  launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                   gmem.alloc(s.m * s.n * 2)};
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.dram_bytes_per_cycle = tc.spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = tc.spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = 0.5;
  tc.skip_mma_math = true;
  sim::TimedSm sm(tc, gmem);
  sim::CtaSource source(launch);
  sm.begin(launch, source, resident);
  while (sm.step()) {
  }
  EXPECT_EQ(source.issued(), static_cast<std::uint64_t>(grid_ctas));
  return static_cast<double>(sm.finish().cycles);
}

TEST(Scheduling, UnevenTailWaveCostsAFullRound) {
  // 5 CTAs through 2 resident slots: the 5th CTA runs alone in round 3, but
  // still costs nearly the full round — the wave-quantization effect the
  // model's ceil() asserts, here emerging from dynamic refill on one SM.
  const double c4 = refill_cycles(4, 2);  // 2 even rounds
  const double c5 = refill_cycles(5, 2);  // tail round with 1 CTA
  const double c6 = refill_cycles(6, 2);  // 3 even rounds
  EXPECT_GT(c5, c4 * 1.2);
  EXPECT_LE(c5, c6 * 1.02);
}

TEST(Scheduling, RespawnProbeCapturesRetiringCtaCoords) {
  // Regression: respawn_slot used to relabel the slot with the incoming
  // CTA's coordinates before the divergence-probe capture, so a retiring
  // CTA's final registers were recorded under the wrong (x, y) — colliding
  // with the finish()-time capture of the CTA that ends up owning them.
  // A kernel that writes its own ctaid into registers makes any mis-keying
  // visible: every snapshot's R4/R5 must equal its recorded coordinates.
  sass::KernelBuilder b("ctaid_probe");
  b.threads(32);
  b.s2r(sass::Reg{4}, sass::SpecialReg::kCtaIdX).stall(13);
  b.s2r(sass::Reg{5}, sass::SpecialReg::kCtaIdY).stall(13);
  b.exit();
  const auto prog = b.finalize();

  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 2;
  launch.grid_y = 2;

  sim::StateProbe probe;
  probe.set_num_regs(prog.num_regs);
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.probe = &probe;
  sim::TimedSm sm(tc, gmem);
  sim::CtaSource source(launch);
  sm.begin(launch, source, 2);  // 4 CTAs through 2 slots -> 2 respawn captures
  while (sm.step()) {
  }
  sm.finish();

  const auto snaps = probe.sorted();
  ASSERT_EQ(snaps.size(), 4u);  // one per CTA, no coordinate collisions
  for (const auto& s : snaps) {
    ASSERT_GE(prog.num_regs, 6);
    for (std::size_t lane = 0; lane < 32; ++lane) {
      EXPECT_EQ(s.gprs[4 * 32 + lane], s.cta_x)
          << "CTA (" << s.cta_x << "," << s.cta_y << ") lane " << lane;
      EXPECT_EQ(s.gprs[5 * 32 + lane], s.cta_y)
          << "CTA (" << s.cta_x << "," << s.cta_y << ") lane " << lane;
    }
  }
}

TEST(Scheduling, CtaSourceDispensesInLaunchOrder) {
  sim::Launch launch;
  launch.grid_x = 3;
  launch.grid_y = 2;
  sim::CtaSource src(launch);
  const std::pair<std::uint32_t, std::uint32_t> want[] = {{0, 0}, {1, 0}, {2, 0},
                                                          {0, 1}, {1, 1}, {2, 1}};
  for (const auto& [x, y] : want) {
    const auto c = src.next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->x, x);
    EXPECT_EQ(c->y, y);
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.issued(), 6u);
}

TEST(Scheduling, CtaRefillMatchesFunctionalResult) {
  // Retirement + slot respawn must be functionally invisible: a 2x2 grid
  // pulled through 2 resident slots (so two CTAs run in respawned slots)
  // produces bit-identical C to the functional executor.
  const auto cfg = core::HgemmConfig::optimized();
  const GemmShape s{512, 512, 64};
  const auto prog = core::hgemm_kernel(cfg, s);
  Rng rng(7);
  HalfMatrix a(s.m, s.k), bt(s.n, s.k);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);

  auto setup = [&](driver::Device& dev, sim::Launch& launch) {
    auto da = dev.alloc<half>(a.size());
    auto db = dev.alloc<half>(bt.size());
    auto dc = dev.alloc<half>(s.m * s.n);
    dev.upload(da, std::span<const half>(a.data(), a.size()));
    dev.upload(db, std::span<const half>(bt.data(), bt.size()));
    launch.program = &prog;
    launch.grid_x = 2;
    launch.grid_y = 2;
    launch.params = {da.addr, db.addr, dc.addr};
    return dc;
  };

  driver::Device fdev(device::rtx2070());
  sim::Launch flaunch;
  const auto fc = setup(fdev, flaunch);
  fdev.launch(flaunch);
  std::vector<half> fhost(s.m * s.n);
  fdev.download(std::span<half>(fhost), fc);

  driver::Device tdev(device::rtx2070());
  sim::Launch tlaunch;
  const auto tc_ptr = setup(tdev, tlaunch);
  sim::TimedConfig tc;
  tc.spec = tdev.spec();
  sim::TimedSm sm(tc, tdev.gmem());  // full math: results must be real
  sim::CtaSource source(tlaunch);
  sm.begin(tlaunch, source, 2);
  while (sm.step()) {
  }
  sm.finish();
  std::vector<half> thost(s.m * s.n);
  tdev.download(std::span<half>(thost), tc_ptr);

  EXPECT_EQ(source.issued(), 4u);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < fhost.size(); ++i) {
    if (fhost[i].bits() != thost[i].bits()) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Scheduling, BarSyncSpansProcessingBlocks) {
  // 8 warps land on all 4 processing blocks (warp % 4). Each warp publishes
  // its id to shared memory, BAR.SYNCs, then reads its neighbour's slot —
  // correct results require the SM-wide barrier to gate warps in *different*
  // partitions, not just co-scheduled ones.
  sass::KernelBuilder b("xpartition_bar");
  b.threads(256);
  b.smem(32);
  b.s2r(sass::Reg{10}, sass::SpecialReg::kTidX).stall(13);
  b.shr(sass::Reg{11}, sass::Reg{10}, 5).stall(6);   // warp id
  b.shl(sass::Reg{12}, sass::Reg{11}, 2).stall(6);   // smem addr: warp*4
  b.sts(sass::MemWidth::k32, sass::Reg{12}, sass::Reg{11}).read_bar(0).stall(2);
  b.nop().wait_on(0).stall(1);
  b.bar_sync().stall(1);
  b.iadd_imm(sass::Reg{13}, sass::Reg{11}, 1).stall(6);
  b.land_imm(sass::Reg{13}, sass::Reg{13}, 7).stall(6);  // (warp+1) % 8
  b.shl(sass::Reg{14}, sass::Reg{13}, 2).stall(6);
  b.lds(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{14}).write_bar(0).stall(2);
  b.mov_param(sass::Reg{16}, 0).stall(6);
  b.shl(sass::Reg{17}, sass::Reg{10}, 2).stall(6);
  b.iadd3(sass::Reg{18}, sass::Reg{17}, sass::Reg{16}).stall(6);
  b.nop().wait_on(0).stall(1);
  b.stg(sass::MemWidth::k32, sass::Reg{18}, sass::Reg{15}).stall(1);
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(256);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(256);
  dev.download(std::span<std::uint32_t>(host), out);
  for (std::uint32_t tid = 0; tid < 256; ++tid) {
    EXPECT_EQ(host[tid], ((tid >> 5) + 1) & 7u) << "tid " << tid;
  }
}

TEST(Scheduling, ReuseFlagsHaveNoTimingEffect) {
  // Paper Section IV-C: "the register reuse flag has no impact".
  auto base = core::HgemmConfig::optimized();
  const GemmShape s{256, 256, 256};
  auto prog_plain = core::hgemm_kernel(base, s);
  auto prog_reuse = core::hgemm_kernel(base, s);
  for (auto& inst : prog_reuse.code) {
    if (sass::is_mma(inst.op)) inst.ctrl.reuse = 0xF;
  }

  auto run = [&](const sass::Program& prog) {
    mem::GlobalMemory gmem;
    sim::Launch launch;
    launch.program = &prog;
    launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                     gmem.alloc(s.m * s.n * 2)};
    sim::TimedConfig tc;
    tc.spec = device::rtx2070();
    tc.skip_mma_math = true;
    sim::TimedSm sm(tc, gmem);
    const sim::CtaCoord cta{0, 0};
    return sm.run(launch, std::span(&cta, 1)).cycles;
  };
  EXPECT_EQ(run(prog_plain), run(prog_reuse));
}

TEST(Scheduling, ProfilerDoesNotMoveTimedStats) {
  // A warp blocked on a long LDG scoreboard wait while two writes to R9 are
  // pending out of order: the HMMA's high half, queued first and due at
  // +14, and a MOV's, queued second and due earlier. A ready warp is settled
  // every cycle, so the MOV commits first and the HMMA's value lands last.
  // The engine skips quiet cycles only without a profiler; both runs must
  // agree on every statistic and on the stored value.
  sass::KernelBuilder b("waw_behind_scoreboard");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(1);
  b.mov_param(sass::Reg{11}, 1).stall(13);
  b.s2r(sass::Reg{12}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{13}, sass::Reg{12}, 2).stall(6);
  b.iadd3(sass::Reg{14}, sass::Reg{13}, sass::Reg{10}).stall(1);  // in + lane*4
  b.iadd3(sass::Reg{15}, sass::Reg{13}, sass::Reg{11}).stall(1);  // out + lane*4
  b.mov_imm(sass::Reg{2}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{3}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{6}, half2{half(1.0f), half(1.0f)}.pack()).stall(6);
  b.ldg(sass::MemWidth::k32, sass::Reg{20}, sass::Reg{14}).write_bar(0).stall(1);
  b.hmma_1688_f16(sass::Reg{8}, sass::Reg{2}, sass::Reg{6}, sass::RZ).stall(3);
  b.mov_imm(sass::Reg{9}, 0x12345678).stall(1);  // due at +9 relative to the HMMA
  b.nop().wait_on(0).stall(1);
  b.iadd3(sass::Reg{9}, sass::Reg{9}, sass::Reg{20}).stall(6);  // + in[lane]
  b.stg(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{9}).stall(1);
  b.exit();
  const auto waw = b.finalize();

  prof::Profiler profiler;
  const SmRun plain = run_one_cta(waw, 32, nullptr);
  const SmRun profiled = run_one_cta(waw, 32, &profiler);
  expect_same_stats(plain.stats, profiled.stats);
  EXPECT_EQ(plain.out, profiled.out);
  const std::uint32_t eight = half2{half(8.0f), half(8.0f)}.pack();  // 8 ones summed
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(plain.out[lane], eight + lane + 1) << "lane " << lane;
  }

  // The same agreement on one CTA of the optimized HGEMM, math included.
  const auto cfg = core::HgemmConfig::optimized();
  const GemmShape s{static_cast<std::size_t>(cfg.bm), static_cast<std::size_t>(cfg.bn),
                    static_cast<std::size_t>(cfg.bk) * 2};
  const auto hgemm = core::hgemm_kernel(cfg, s);
  const auto run_hgemm = [&](prof::Profiler* p) {
    mem::GlobalMemory gmem;
    sim::Launch launch;
    launch.program = &hgemm;
    launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                     gmem.alloc(s.m * s.n * 2)};
    sim::TimedConfig tc;
    tc.spec = device::rtx2070();
    tc.profiler = p;
    sim::TimedSm sm(tc, gmem);
    const sim::CtaCoord cta{0, 0};
    return sm.run(launch, std::span(&cta, 1));
  };
  prof::Profiler hgemm_profiler;
  expect_same_stats(run_hgemm(nullptr), run_hgemm(&hgemm_profiler));
}

TEST(Scheduling, DeadlockStillExceedsMaxCycles) {
  // Warp 1 spins on a branch and never reaches the barrier warp 0 waits at;
  // between its branches the SM is quiet. The cycle cap must still fire.
  sass::KernelBuilder b("spin_vs_barrier");
  b.threads(64);
  b.s2r(sass::Reg{10}, sass::SpecialReg::kTidX).stall(13);
  b.shr(sass::Reg{11}, sass::Reg{10}, 5).stall(6);  // warp id
  b.isetp_imm(sass::Pred{0}, sass::CmpOp::kNe, sass::Reg{11}, 0).stall(6);
  b.label("spin");
  b.bra("spin").pred(sass::Pred{0});
  b.bar_sync().stall(1);
  b.exit();
  const auto prog = b.finalize();
  for (prof::Profiler* p : {static_cast<prof::Profiler*>(nullptr), new prof::Profiler}) {
    const std::unique_ptr<prof::Profiler> owned(p);
    try {
      run_one_cta(prog, 64, p, /*max_cycles=*/20'000);
      ADD_FAILURE() << "deadlocked kernel ran to completion";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("exceeded max_cycles"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace tc
