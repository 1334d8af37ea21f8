// Structured diagnostics for the static checking layers.
//
// validate() throws on hard ISA violations and lint() returns loose strings,
// but the hazard detector (src/check) needs machine-readable findings: a
// severity, a stable kind tag, and the producer/consumer program counters so
// tools (tcgemm_cli --json, tests) can filter and anchor them. This header is
// the shared vocabulary; it deliberately lives in sass so check-level code
// can emit diagnostics about programs without a dependency cycle.
#pragma once

#include <string>
#include <vector>

namespace tc::sass {

enum class DiagSeverity {
  kWarning,  // legal and functionally safe, but wasteful or suspicious
  kError,    // a true race: some schedule-visible read observes a stale value
};

struct Diag {
  DiagSeverity severity = DiagSeverity::kWarning;
  std::string kind;      // stable tag, e.g. "raw-fixed", "raw-load", "redundant-wait"
  int producer_pc = -1;  // instruction that created the hazard (-1 = not applicable)
  int consumer_pc = -1;  // instruction that trips or carries it
  std::string message;   // self-contained human-readable description
};

inline std::string format(const Diag& d) {
  std::string s = d.severity == DiagSeverity::kError ? "error" : "warning";
  s += " [" + d.kind + "]";
  if (d.consumer_pc >= 0) s += " pc " + std::to_string(d.consumer_pc);
  s += ": " + d.message;
  return s;
}

inline bool has_errors(const std::vector<Diag>& diags) {
  for (const auto& d : diags) {
    if (d.severity == DiagSeverity::kError) return true;
  }
  return false;
}

inline int count_errors(const std::vector<Diag>& diags) {
  int n = 0;
  for (const auto& d : diags) n += d.severity == DiagSeverity::kError ? 1 : 0;
  return n;
}

/// The error-severity findings only, formatted one per line.
inline std::string format_errors(const std::vector<Diag>& diags) {
  std::string s;
  for (const auto& d : diags) {
    if (d.severity == DiagSeverity::kError) s += format(d) + "\n";
  }
  return s;
}

}  // namespace tc::sass
