// Shared pieces of the simulator-stack benchmark: host clocks, in-memory
// spans, the per-run report and the digests the correctness gate compares.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the calling thread round-robin over every CPU it may run on, one
/// step every `period_ms`, from a SIGALRM handler (no second thread). On a
/// shared host each CPU slows and recovers on its own, for seconds at a
/// time; a thread the scheduler leaves on one CPU measures that CPU's
/// state, one that visits all of them measures their average. Does nothing
/// for a period of 0 or a single allowed CPU.
void rotate_cpus(int period_ms);

/// Median of the samples (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> v);

/// FNV-1a over bytes; the gate pins simulated outputs by this digest.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);
/// 0x-prefixed 16-digit hex, the form pins.hpp holds digests in.
[[nodiscard]] std::string hex(std::uint64_t v);

/// Units of work per run: as many as fill `seconds` at the unit's nominal
/// cost on the reference host (4 vCPUs), at least one. Fixing the count,
/// rather than stopping on the clock, keeps wall_s a measure of work.
[[nodiscard]] int units_for(double seconds, double nominal_unit_s);

/// Spans around the benchmark's calls into each module: name, start, end
/// and the enclosing span. Kept in memory; written once at exit through
/// prof::TraceWriter. While disabled, a Scope records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  /// Runs `f` inside a span named `name` and returns its result.
  template <typename F>
  decltype(auto) call(std::string_view name, F&& f) {
    Scope s(*this, name);
    return f();
  }

  void set_enabled(bool on) { enabled_ = on; }

  /// Number of spans named `name`.
  [[nodiscard]] int count(std::string_view name) const;
  /// Summed duration of the spans named `name`, seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Summed self time (duration minus the time covered by child spans).
  [[nodiscard]] double self_s(std::string_view name) const;
  /// Mean duration per span named `name`, seconds (0 without spans).
  [[nodiscard]] double mean_s(std::string_view name) const;

  /// Chrome trace of every span (1 us in the viewer = 1 us of host time).
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// What one run measured. Every unit's sample stays in `samples`.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  /// Human-readable lines printed before the result (named rates, digests).
  std::vector<std::string> notes;

  void add_sample(const std::string& name, double v) { samples[name].push_back(v); }
  /// One gated operation: counts it attempted, and failed when !ok.
  void gate(bool ok, std::uint64_t units, const std::string& what);
};

/// Run parameters shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
};

/// Times the workload's set-up, which must rebuild the same state every
/// time. Each batch repeats the set-up until it has taken at least 10 ms and
/// records one sample, the batch's time over its calls, so a set-up of a few
/// microseconds is timed over thousands of calls. Workloads take batches at
/// fixed points spread through the run, so that the median of the samples,
/// like the medians of the rates, covers the whole run.
class SetupTimer {
 public:
  template <typename F>
  void batch(Tracer& tr, F&& set_up) {
    const auto t0 = Clock::now();
    int calls = 0;
    double spent = 0.0;
    while (spent < 0.01) {
      tr.call("setup", set_up);
      ++calls;
      spent = seconds_since(t0);
    }
    samples_.push_back(spent / calls);
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace simbench
