// The three workloads. Each runs on one host thread, sizes its work from
// RunOptions::seconds, gates every unit against pinned or independently
// computed outputs, and fills the Report with the metrics it measures.
#pragma once

#include "harness.hpp"

namespace simbench {

/// One whole-grid sim::TimedDevice run of the optimized HGEMM per unit.
Report run_device_gemm(const RunOptions& opt, Tracer& tr);

/// A cold serve::Server on one seeded stream, then the same (warm) server
/// on a second stream, per round.
Report run_serve_stream(const RunOptions& opt, Tracer& tr);

/// The optimized HGEMM run functionally by both engines in both numerics
/// modes, plus a JIT-vs-interpreter fuzz corpus, per round.
Report run_functional_gemm(const RunOptions& opt, Tracer& tr);

}  // namespace simbench
