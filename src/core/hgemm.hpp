// Public HGEMM API — the library's front door.
//
// Functional path (correctness): `run` pads the inputs to the kernel's tile
// contract, uploads them to the simulated device, executes the full grid
// functionally and returns C. Results are bit-identical to
// `gemm_ref_tc` (see reference.hpp).
//
// Performance path (the paper's Figs. 4-9): `PerfEstimator` measures the
// kernel's steady-state cycles per main-loop iteration on the cycle-level SM
// model — with that SM's fair bandwidth share, the L2 reuse model's hit rate
// and the DRAM row-locality factor — and composes full-device time via the
// wave model. See DESIGN.md "Scale handling".
#pragma once

#include <map>
#include <optional>

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "device/occupancy.hpp"
#include "driver/device.hpp"
#include "model/l2_reuse.hpp"
#include "model/wave_perf.hpp"

namespace tc::core {

/// C = A * B (A: m x k row-major; bt: B^T as n x k row-major; C: m x n
/// row-major), computed by the blocked Tensor-Core kernel on `dev`.
/// Arbitrary sizes are padded internally to the tile contract.
[[nodiscard]] HalfMatrix run_hgemm(driver::Device& dev, const HalfMatrix& a,
                                   const HalfMatrix& bt,
                                   const HgemmConfig& cfg = HgemmConfig::optimized());

/// General form C = alpha*A*B + beta*C_in (Section II-A). `c_in` must be
/// m x n row-major; it is only read when beta != 0.
[[nodiscard]] HalfMatrix run_hgemm_axpby(driver::Device& dev, const HalfMatrix& a,
                                         const HalfMatrix& bt, const HalfMatrix& c_in,
                                         float alpha, float beta,
                                         const HgemmConfig& cfg = HgemmConfig::optimized());

/// Same contract, executed by the naive WMMA-style kernel. `engine` picks the
/// functional execution engine (interpreter or JIT; results are bitwise
/// identical either way).
[[nodiscard]] HalfMatrix run_wmma_naive(driver::Device& dev, const HalfMatrix& a,
                                        const HalfMatrix& bt,
                                        sim::ExecEngine engine = sim::ExecEngine::kInterpret);

/// One point of a performance sweep.
struct PerfPoint {
  GemmShape shape;
  double seconds = 0.0;
  double tflops = 0.0;
  double cycles_per_iter = 0.0;
  double overhead_cycles = 0.0;
  double l2_hit_rate = 0.0;
  double dram_efficiency = 1.0;
  double waves = 0.0;
  int ctas_per_sm = 0;
};

/// The L2-model input for `cfg` on `shape` with `ctas_per_sm` resident CTAs
/// per SM — the one place an HgemmConfig becomes a model::L2ReuseInput.
/// PerfEstimator, profile_hgemm and tune::predicted_l2_hit_rate all build
/// their reuse inputs here, so their hit rates agree by construction.
[[nodiscard]] model::L2ReuseInput l2_reuse_input(const device::DeviceSpec& spec,
                                                 const HgemmConfig& cfg, const GemmShape& shape,
                                                 int ctas_per_sm);

/// Estimates full-device HGEMM time for a kernel configuration on a device.
/// Steady-state measurements are cached by (hit-rate, efficiency) bucket so
/// sweeps over many sizes stay fast.
class PerfEstimator {
 public:
  PerfEstimator(device::DeviceSpec spec, HgemmConfig cfg);

  [[nodiscard]] PerfPoint estimate(const GemmShape& shape);

  [[nodiscard]] const device::DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] const HgemmConfig& config() const { return cfg_; }
  [[nodiscard]] int ctas_per_sm() const { return ctas_per_sm_; }

 private:
  model::SteadyState measure_steady(double l2_hit_rate, double dram_efficiency);

  device::DeviceSpec spec_;
  HgemmConfig cfg_;
  int ctas_per_sm_ = 1;
  std::map<std::pair<int, int>, model::SteadyState> steady_cache_;
};

}  // namespace tc::core
