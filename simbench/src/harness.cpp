#include "harness.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "prof/trace.hpp"

namespace simbench {
namespace {

std::vector<int> g_cpus;
std::size_t g_next_cpu = 0;

void move_to_next_cpu(int) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(g_cpus[g_next_cpu], &set);
  g_next_cpu = (g_next_cpu + 1) % g_cpus.size();
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

void rotate_cpus(int period_ms) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (period_ms <= 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) g_cpus.push_back(c);
  }
  if (g_cpus.size() < 2) return;
  struct sigaction sa {};
  sa.sa_handler = move_to_next_cpu;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGALRM, &sa, nullptr);
  itimerval it{};
  it.it_interval.tv_sec = period_ms / 1000;
  it.it_interval.tv_usec = (period_ms % 1000) * 1000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_REAL, &it, nullptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

int units_for(double seconds, double nominal_unit_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_unit_s)));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Tracer::Scope::Scope(Tracer& t, std::string_view name) {
  if (!t.enabled_) return;
  tracer_ = &t;
  index_ = static_cast<int>(t.spans_.size());
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t.origin_);
  t.spans_.push_back({std::string(name), now.count(), now.count(), t.open_});
  t.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - tracer_->origin_)
                 .count();
  tracer_->open_ = s.parent;
}

int Tracer::count(std::string_view name) const {
  return static_cast<int>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name) {
      ns -= s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::mean_s(std::string_view name) const {
  const int n = count(name);
  return n == 0 ? 0.0 : total_s(name) / n;
}

void Tracer::write_chrome(const std::string& path) const {
  tc::prof::TraceWriter w;
  w.track(1, "simbench (host time)");
  for (const Span& s : spans_) {
    const auto ts_us = static_cast<std::uint64_t>(s.start_ns / 1000);
    const auto end_us = static_cast<std::uint64_t>(s.end_ns / 1000);
    w.event(1, s.name, ts_us, std::max<std::uint64_t>(end_us - ts_us, 1));
  }
  w.write_file(path);
}

void Report::gate(bool ok, std::uint64_t units, const std::string& what) {
  attempted += units;
  if (!ok) {
    failed += units;
    notes.push_back("GATE FAILED: " + what);
  }
}

}  // namespace simbench
