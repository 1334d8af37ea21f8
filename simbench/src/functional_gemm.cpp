// functional_gemm: the functional layer alone; no timed engine runs here.
//
// One round = the optimized HGEMM at 256 x 256 x 256 run by
// sim::FunctionalExecutor(gmem, 1) under kInterpret and kJit in both
// NumericsModes (a long, MMA-bound program), then a check::run_fuzz corpus
// of kFuzzCases tiny programs under kJitVsInterpreter, where jit::compile
// is a large share. A JIT change that trades compile time for execution
// speed therefore shows on one side. Operand values follow --seed.
#include "check/fuzz.hpp"
#include "check/hazard.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "jit/jit.hpp"
#include "mem/global_mem.hpp"
#include "numerics/curves.hpp"
#include "sim/functional.hpp"
#include "workloads.hpp"

namespace simbench {
namespace {

const tc::GemmShape kShape{256, 256, 256};
// The corpus is the same in every run: the cost of a case varies several
// fold with its loops and warps, so corpora drawn per seed would differ in
// cost by more than the bound the comparison of runs allows.
constexpr std::uint64_t kFuzzBaseSeed = 1;
constexpr int kFuzzCases = 1000;
constexpr double kNominalRoundS = 2.4;

using tc::numerics::NumericsMode;
using tc::sim::ExecEngine;

/// True before round `r` of `rounds` when a set-up is due: before the first
/// and four more spread evenly through the run (one set-up takes ~0.8 s).
bool setup_due(int r, int rounds) {
  const int stride = std::max(1, rounds / 4);
  return r % stride == 0 && r / stride <= 4;
}

struct Setup {
  tc::sass::Program prog;
  tc::HalfMatrix a;
  tc::HalfMatrix bt;
  tc::HalfMatrix ref_idealized;
  tc::HalfMatrix ref_bitacc;
};

void set_up(Setup& st, const RunOptions& opt, Tracer& tr) {
  const tc::core::HgemmConfig cfg = tc::core::HgemmConfig::optimized();
  st.prog = tr.call("core.kernel_gen", [&] { return tc::core::hgemm_kernel(cfg, kShape); });
  const auto diags = tr.call("check.find_hazards", [&] { return tc::check::find_hazards(st.prog); });
  TC_CHECK(!tc::sass::has_errors(diags), "functional_gemm kernel failed the hazard gate");
  tc::Rng rng(opt.seed);
  st.a = tc::HalfMatrix(kShape.m, kShape.k);
  st.bt = tc::HalfMatrix(kShape.n, kShape.k);
  st.a.randomize(rng);
  st.bt.randomize(rng);
  st.ref_idealized = tr.call("core.gemm_ref_tc", [&] { return tc::core::gemm_ref_tc(st.a, st.bt); });
  st.ref_bitacc = tr.call("numerics.gemm_bitacc_f16",
                          [&] { return tc::numerics::gemm_bitacc_f16(st.a, st.bt); });
}

const char* span_name(ExecEngine e, NumericsMode m) {
  if (e == ExecEngine::kJit) return m == NumericsMode::kIdealized ? "jit.exec.idealized" : "jit.exec.bitacc";
  return m == NumericsMode::kIdealized ? "sim.interpret.idealized" : "sim.interpret.bitacc";
}

struct GemmRun {
  std::uint64_t instructions = 0;
  double seconds = 0.0;
  bool bitwise_ok = false;
};

GemmRun run_gemm(const Setup& st, ExecEngine engine, NumericsMode mode, Tracer& tr) {
  tc::mem::GlobalMemory gmem;
  const auto upload = [&](const tc::HalfMatrix& m) {
    const std::uint32_t addr = gmem.alloc(m.size_bytes());
    gmem.write(addr, std::span(reinterpret_cast<const std::uint8_t*>(m.data()), m.size_bytes()));
    return addr;
  };
  tc::sim::Launch launch;
  launch.program = &st.prog;
  launch.params = {upload(st.a), upload(st.bt),
                   gmem.alloc(kShape.m * kShape.n * sizeof(tc::half))};
  launch.numerics = mode;
  launch.engine = engine;
  tc::sim::FunctionalExecutor fx(gmem, /*host_threads=*/1);

  GemmRun r;
  const auto t0 = Clock::now();
  r.instructions = tr.call(span_name(engine, mode), [&] { return fx.run(launch); }).instructions;
  r.seconds = seconds_since(t0);

  tc::HalfMatrix c(kShape.m, kShape.n);
  gmem.read(launch.params[2], std::span(reinterpret_cast<std::uint8_t*>(c.data()), c.size_bytes()));
  const tc::HalfMatrix& ref = mode == NumericsMode::kIdealized ? st.ref_idealized : st.ref_bitacc;
  r.bitwise_ok = true;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.data()[i].bits() != ref.data()[i].bits()) r.bitwise_ok = false;
  }
  return r;
}

}  // namespace

Report run_functional_gemm(const RunOptions& opt, Tracer& tr) {
  Report rep;
  Setup st;
  SetupTimer setup;

  tc::check::FuzzOptions fo;
  fo.compare = tc::check::FuzzCompare::kJitVsInterpreter;
  const int rounds = units_for(opt.seconds, kNominalRoundS);
  std::uint64_t fuzz_cases = 0;
  std::uint64_t divergences = 0;
  std::uint64_t insts_per_gemm = 0;
  for (int r = 0; r < rounds; ++r) {
    if (setup_due(r, rounds)) setup.batch(tr, [&] { set_up(st, opt, tr); });
    const auto t_round = Clock::now();
    for (const NumericsMode mode : {NumericsMode::kIdealized, NumericsMode::kBitAccurate}) {
      for (const ExecEngine engine : {ExecEngine::kInterpret, ExecEngine::kJit}) {
        const GemmRun g = tr.call("unit.gemm", [&] { return run_gemm(st, engine, mode, tr); });
        rep.gate(g.bitwise_ok, 1,
                 std::string("functional C != reference under ") + span_name(engine, mode));
        insts_per_gemm = g.instructions;
        rep.add_sample(std::string(span_name(engine, mode)) + "_s", g.seconds);
      }
    }
    const auto t_fuzz = Clock::now();
    const tc::check::FuzzReport fr = tr.call(
        "check.fuzz", [&] { return tc::check::run_fuzz(kFuzzBaseSeed, kFuzzCases, fo); });
    const double fuzz_s = seconds_since(t_fuzz);
    rep.add_sample("fuzz_cases_per_s", static_cast<double>(fr.programs) / fuzz_s);
    rep.gate(fr.ok() && fr.programs == kFuzzCases, kFuzzCases,
             "JIT-vs-interpreter fuzz: " + std::to_string(fr.failures.size()) + " failures");
    fuzz_cases += static_cast<std::uint64_t>(fr.programs);
    divergences += static_cast<std::uint64_t>(fr.divergences);
    rep.add_sample("unit_s", seconds_since(t_round));
  }
  // Rates over the median time of each (engine, mode) run; every run
  // executes the same instruction count.
  const auto rate_of = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* name : names) s += median(rep.samples[std::string(name) + "_s"]);
    return static_cast<double>(insts_per_gemm * names.size()) / s;
  };
  rep.samples["setup_s"] = setup.samples();
  rep.metrics["setup_s"] = median(setup.samples());
  rep.metrics["headline_per_s"] = rate_of({"sim.interpret.idealized", "jit.exec.idealized",
                                           "sim.interpret.bitacc", "jit.exec.bitacc"});
  rep.metrics["secondary_per_s"] = median(rep.samples["fuzz_cases_per_s"]);
  rep.notes.push_back("gemm_warp_insts_per_s = " + std::to_string(rep.metrics["headline_per_s"]) +
                      " 1/s (headline_per_s)");
  rep.notes.push_back("interpret_warp_insts_per_s = " +
                      std::to_string(rate_of({"sim.interpret.idealized", "sim.interpret.bitacc"})) +
                      " 1/s");
  rep.notes.push_back("jit_warp_insts_per_s = " +
                      std::to_string(rate_of({"jit.exec.idealized", "jit.exec.bitacc"})) + " 1/s");
  rep.notes.push_back("fuzz_cases_per_s = " + std::to_string(rep.metrics["secondary_per_s"]) +
                      " 1/s (secondary_per_s)");
  rep.metrics["check.fuzz.cases"] = static_cast<double>(fuzz_cases);
  rep.metrics["check.fuzz.divergences"] = static_cast<double>(divergences);

  if (opt.trace) {
    // Exec rates from the traced spans; jit.exec spans include the one
    // jit::compile FunctionalExecutor makes per launch.
    const auto rate = [&](std::initializer_list<const char*> names) {
      double s = 0.0;
      int n = 0;
      for (const char* name : names) {
        s += tr.total_s(name);
        n += tr.count(name);
      }
      return s > 0.0 ? static_cast<double>(insts_per_gemm) * n / s : 0.0;
    };
    rep.metrics["sim.interpret.warp_insts_per_s"] =
        rate({"sim.interpret.idealized", "sim.interpret.bitacc"});
    rep.metrics["jit.exec.warp_insts_per_s"] = rate({"jit.exec.idealized", "jit.exec.bitacc"});
    rep.metrics["numerics.bitacc.warp_insts_per_s"] =
        rate({"sim.interpret.bitacc", "jit.exec.bitacc"});

    // jit::compile, replayed on the fuzz corpus and on the HGEMM.
    tr.call("replay", [&] {
      for (int i = 0; i < kFuzzCases; ++i) {
        const tc::check::FuzzCase c =
            tc::check::generate_case(kFuzzBaseSeed + static_cast<std::uint64_t>(i), fo);
        (void)tr.call("jit.compile", [&] { return tc::jit::compile(c.prog); });
      }
      (void)tr.call("jit.compile", [&] { return tc::jit::compile(st.prog); });
    });
    rep.metrics["jit.compile.calls"] = tr.count("jit.compile");
    rep.metrics["jit.compile.host_us_per_call"] = tr.mean_s("jit.compile") * 1e6;
    rep.metrics["core.kernel_gen.calls"] = tr.count("core.kernel_gen");
    rep.metrics["core.kernel_gen.host_ms_per_call"] = tr.mean_s("core.kernel_gen") * 1e3;
    rep.metrics["check.find_hazards.host_ms_per_call"] = tr.mean_s("check.find_hazards") * 1e3;
  }
  return rep;
}

}  // namespace simbench
