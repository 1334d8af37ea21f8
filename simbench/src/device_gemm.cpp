// device_gemm: the timed engine's per-cycle cost, nearly alone.
//
// One unit = one whole-grid TimedDevice run of HgemmConfig::optimized() at
// 1024 x 1024 x 256 on rtx2070: the `perf --engine device` harness
// (skip_mma_math, model-pinned L2 hit rate, lockstep on one host thread) at a
// quarter of its k, so a unit takes ~2 s and a run holds over a dozen. The
// host-time mix matches the full k: in gprof, WarpRegs::settle takes 70%
// here and 75% at k = 1024, TimedSm step_cycle 18% and 14%.
// Tune, op and serve do not run here.
#include <sstream>

#include "check/hazard.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "device/occupancy.hpp"
#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "pins.hpp"
#include "sim/timed_device.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace simbench {
namespace {

const tc::GemmShape kShape{1024, 1024, 256};
constexpr double kNominalUnitS = 2.0;

/// Every simulated number of a device run, in a fixed text form.
std::string describe(const tc::sim::DeviceResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "device_cycles=" << r.device_cycles << " ctas_run=" << r.ctas_run
     << " sms_used=" << r.sms_used << " l2_hit_rate=" << r.l2_hit_rate << "\n";
  for (const tc::sim::TimedStats& s : r.per_sm) {
    os << s.cycles << ' ' << s.instructions << ' ' << s.hmma_count << ' ' << s.tensor_busy << ' '
       << s.fma_busy << ' ' << s.alu_busy << ' ' << s.mio_busy << ' ' << s.mio_bw_stall << ' '
       << s.l1_bytes << ' ' << s.l2_bytes << ' ' << s.dram_bytes << ' ' << s.smem_beats << ' '
       << s.smem_phases << "\n";
  }
  return os.str();
}

struct Setup {
  tc::sass::Program prog;
  tc::mem::GlobalMemory gmem;
  tc::sim::Launch launch;
  tc::sim::TimedDeviceConfig dc;
};

void set_up(Setup& st, const RunOptions& opt, Tracer& tr) {
  const tc::device::DeviceSpec spec = tc::device::rtx2070();
  const tc::core::HgemmConfig cfg = tc::core::HgemmConfig::optimized();
  const tc::GemmShape shape = kShape;
  st.prog = tr.call("core.kernel_gen", [&] { return tc::core::hgemm_kernel(cfg, shape); });
  const auto diags = tr.call("check.find_hazards", [&] { return tc::check::find_hazards(st.prog); });
  TC_CHECK(!tc::sass::has_errors(diags), "device_gemm kernel failed the hazard gate");
  const tc::device::Occupancy occ = tc::device::occupancy(spec, st.prog);
  const double l2 = tr.call("model.l2_predict", [&] {
    return tc::tune::predicted_l2_hit_rate(spec, cfg, occ, shape);
  });

  // Operand values come from the seed; with skip_mma_math they cannot move
  // a simulated number, which is what lets the digest be pinned.
  tc::Rng rng(opt.seed);
  st.gmem.reset();
  const auto upload = [&](std::size_t elems) {
    std::vector<tc::half> v(elems);
    for (auto& x : v) x = rng.next_half();
    const std::uint32_t addr = st.gmem.alloc(elems * 2);
    st.gmem.write(addr, std::span(reinterpret_cast<const std::uint8_t*>(v.data()), elems * 2));
    return addr;
  };
  const std::uint32_t a = upload(shape.m * shape.k);
  const std::uint32_t b = upload(shape.n * shape.k);
  const std::uint32_t c = st.gmem.alloc(shape.m * shape.n * 2);

  st.launch = {};
  st.launch.program = &st.prog;
  st.launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(cfg.bn));
  st.launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(cfg.bm));
  st.launch.launch_order = cfg.launch_order;
  st.launch.supertile_width = cfg.supertile_width;
  st.launch.params = {a, b, c};

  st.dc = {};
  st.dc.spec = spec;
  st.dc.ctas_per_sm = occ.ctas_per_sm;
  st.dc.threads = 1;
  st.dc.skip_mma_math = true;
  st.dc.forced_l2_hit_rate = l2;
}

}  // namespace

Report run_device_gemm(const RunOptions& opt, Tracer& tr) {
  Report rep;
  Setup st;
  SetupTimer setup;
  const int units = units_for(opt.seconds, kNominalUnitS);
  tc::sim::DeviceResult last;
  for (int u = 0; u < units; ++u) {
    setup.batch(tr, [&] { set_up(st, opt, tr); });
    const auto t0 = Clock::now();
    tc::sim::DeviceResult r = tr.call("unit", [&] {
      tc::sim::TimedDevice dev = tr.call("sim.timed_device.construct", [&] {
        return tc::sim::TimedDevice(st.dc, st.gmem);
      });
      return tr.call("sim.timed_device.run", [&] { return dev.run(st.launch); });
    });
    const double s = seconds_since(t0);

    std::uint64_t sm_cycles = 0;
    for (const auto& p : r.per_sm) sm_cycles += p.cycles;
    rep.add_sample("unit_s", s);
    rep.add_sample("sm_cycles_per_s", static_cast<double>(sm_cycles) / s);
    rep.add_sample("warp_insts_per_s", static_cast<double>(r.total.instructions) / s);

    const std::uint64_t digest = fnv1a(describe(r));
    rep.gate(digest == kDeviceGemmDigest, 1,
             "device_gemm DeviceResult digest " + hex(digest) + " != pinned " +
                 hex(kDeviceGemmDigest));
    rep.metrics["sim.timed_device.sm_cycles"] = static_cast<double>(sm_cycles);
    rep.metrics["sim.timed_device.warp_insts"] = static_cast<double>(r.total.instructions);
    last = std::move(r);
  }
  rep.samples["setup_s"] = setup.samples();
  rep.metrics["setup_s"] = median(setup.samples());
  rep.metrics["headline_per_s"] = median(rep.samples["sm_cycles_per_s"]);
  rep.metrics["secondary_per_s"] = median(rep.samples["warp_insts_per_s"]);
  rep.notes.push_back("sm_cycles_per_s = " + std::to_string(rep.metrics["headline_per_s"]) +
                      " 1/s (headline_per_s)");
  rep.notes.push_back("warp_insts_per_s = " + std::to_string(rep.metrics["secondary_per_s"]) +
                      " 1/s (secondary_per_s)");
  rep.notes.push_back("device_gemm digest " + hex(fnv1a(describe(last))));

  // Layer metrics. Span-derived ones are 0 in an untraced run.
  const double sm_cycles = rep.metrics["sim.timed_device.sm_cycles"];
  const int runs = tr.count("sim.timed_device.run");
  rep.metrics["sim.timed_device.runs"] = units;
  if (runs > 0) {
    rep.metrics["sim.timed_device.host_ns_per_sm_cycle"] =
        tr.self_s("sim.timed_device.run") * 1e9 / (sm_cycles * runs);
  }
  rep.metrics["sim.timed_device.construct_ms"] = tr.mean_s("sim.timed_device.construct") * 1e3;
  rep.metrics["core.kernel_gen.calls"] = tr.count("core.kernel_gen");
  rep.metrics["core.kernel_gen.host_ms_per_call"] = tr.mean_s("core.kernel_gen") * 1e3;
  rep.metrics["check.find_hazards.host_ms_per_call"] = tr.mean_s("check.find_hazards") * 1e3;
  rep.metrics["model.l2_predict.host_ms_per_call"] = tr.mean_s("model.l2_predict") * 1e3;
  rep.metrics["mem.l2_hit_rate"] = last.l2_hit_rate;
  rep.metrics["mem.dram_bytes"] = last.total.dram_bytes;
  rep.metrics["mem.smem_conflict_factor"] = last.total.smem_conflict_factor();
  rep.metrics["mem.mio_bw_stall"] = static_cast<double>(last.total.mio_bw_stall);
  return rep;
}

}  // namespace simbench
