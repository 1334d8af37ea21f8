// simbench: host throughput of the simulator stack.
//
//   simbench --workload device_gemm|serve_stream|functional_gemm
//            --seed N --seconds S --trace 0|1 [--trace-out trace.json]
//            [--rotate-ms P]
//
// Runs one workload on one host thread and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics (from in-memory spans) with --trace 1.
// A traced run does the workload's units twice, untraced and then traced.
// Earlier lines carry every unit's sample, the digests and the named rates.
// The thread visits every allowed CPU in turn, one every P ms (default 100;
// 0 leaves placement to the kernel).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace simbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The metric list BENCHMARK.json declares, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"peak_rss_mb", "MB"},    {"headline_per_s", "1/s"},
    {"secondary_per_s", "1/s"},
};
constexpr Metric kPerLayer[] = {
    {"sim.timed_device.host_ns_per_sm_cycle", "ns"},
    {"sim.timed_device.sm_cycles", "count"},
    {"sim.timed_device.warp_insts", "count"},
    {"sim.timed_device.runs", "count"},
    {"sim.timed_device.construct_ms", "ms"},
    {"core.kernel_gen.calls", "count"},
    {"core.kernel_gen.host_ms_per_call", "ms"},
    {"op.lower.calls", "count"},
    {"op.lower.host_ms_per_call", "ms"},
    {"op.lower.warm_share", "ratio"},
    {"op.time_gemm_op.host_ms_per_call", "ms"},
    {"model.l2_predict.host_ms_per_call", "ms"},
    {"check.find_hazards.host_ms_per_call", "ms"},
    {"tune.evals", "count"},
    {"tune.host_s_per_bucket", "s"},
    {"tune.host_s_per_eval", "s"},
    {"serve.batches", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.sim_passes", "count"},
    {"serve.unattributed_s", "s"},
    {"jit.compile.calls", "count"},
    {"jit.compile.host_us_per_call", "us"},
    {"jit.exec.warp_insts_per_s", "1/s"},
    {"sim.interpret.warp_insts_per_s", "1/s"},
    {"numerics.bitacc.warp_insts_per_s", "1/s"},
    {"check.fuzz.cases", "count"},
    {"check.fuzz.divergences", "count"},
    {"mem.l2_hit_rate", "ratio"},
    {"mem.dram_bytes", "bytes"},
    {"mem.smem_conflict_factor", "ratio"},
    {"mem.mio_bw_stall", "cycles"},
    {"host.canary_per_s", "1/s"},
    {"host.trace_overhead_s", "s"},
};

/// A fixed integer loop whose rate shows when a neighbour disturbs the host.
double canary_per_s() {
  constexpr std::uint64_t kIters = 50'000'000;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = seconds_since(t0);
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(kIters) / s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_samples(const Report& rep) {
  std::string line = "samples {";
  bool first = true;
  for (const auto& [name, values] : rep.samples) {
    line += std::string(first ? "" : ", ") + "\"" + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) line += (i ? ", " : "") + number(values[i]);
    line += "]";
    first = false;
  }
  std::cout << line << "}\n";
}

int usage() {
  std::cerr << "usage: simbench --workload device_gemm|serve_stream|functional_gemm "
               "--seed N --seconds S --trace 0|1 [--trace-out path] [--rotate-ms P]\n";
  return 2;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  using namespace simbench;
  std::string workload;
  std::string trace_out;
  RunOptions opt;
  int rotate_ms = 100;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--rotate-ms") {
      rotate_ms = std::atoi(v.c_str());
    } else {
      return usage();
    }
  }
  Report (*run)(const RunOptions&, Tracer&) = nullptr;
  if (workload == "device_gemm") run = run_device_gemm;
  if (workload == "serve_stream") run = run_serve_stream;
  if (workload == "functional_gemm") run = run_functional_gemm;
  if (run == nullptr || !(opt.seconds > 0.0)) return usage();

  rotate_cpus(rotate_ms);
  try {
    const auto t0 = Clock::now();
    const double canary_before = canary_per_s();
    Tracer tr;
    Report rep;
    if (opt.trace) {
      // The same units untraced, then traced: the per-layer metrics come
      // from the traced pass, the tracing overhead from the difference.
      RunOptions plain = opt;
      plain.trace = false;
      Report untraced = run(plain, tr);
      tr.set_enabled(true);
      rep = run(opt, tr);
      const auto sum = [](const std::vector<double>& v) {
        double s = 0.0;
        for (const double x : v) s += x;
        return s;
      };
      rep.metrics["host.trace_overhead_s"] =
          sum(rep.samples["unit_s"]) - sum(untraced.samples["unit_s"]);
      rep.samples["untraced_unit_s"] = untraced.samples["unit_s"];
      rep.attempted += untraced.attempted;
      rep.failed += untraced.failed;
      rep.notes.insert(rep.notes.begin(), untraced.notes.begin(), untraced.notes.end());
    } else {
      rep = run(opt, tr);
    }
    const double canary_after = canary_per_s();
    rep.metrics["wall_s"] = seconds_since(t0);
    rep.metrics["peak_rss_mb"] = peak_rss_mb();
    rep.samples["host.canary_per_s"] = {canary_before, canary_after};
    rep.metrics["host.canary_per_s"] = median({canary_before, canary_after});
    if (opt.trace && !trace_out.empty()) tr.write_chrome(trace_out);

    for (const std::string& n : rep.notes) std::cout << n << "\n";
    print_samples(rep);

    std::string out = "{\"correct\": " + std::string(rep.failed == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(rep.attempted) +
                      ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const Metric& m) {
      const auto it = rep.metrics.find(m.name);
      const double v = it == rep.metrics.end() ? 0.0 : it->second;
      out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + number(v) +
             ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    };
    if (opt.trace) {
      for (const Metric& m : kPerLayer) emit(m);
    } else {
      for (const Metric& m : kEndToEnd) {
        TC_CHECK(rep.metrics.count(m.name) == 1, std::string("workload did not measure ") + m.name);
        emit(m);
      }
    }
    std::cout << out << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "simbench: " << e.what() << "\n";
    return 1;
  }
}
