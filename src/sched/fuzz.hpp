// Scheduler-mode differential fuzzer.
//
// There is one random program generator, check::generate_case, whose
// programs are hazard-free by construction (manual stalls + barriers). The
// scheduler fuzzer takes each of those programs with its schedule stripped
// (check::strip_schedule: default control words, no control-only NOPs) — the
// same instruction mix, register map, loop shapes, and multi-warp/BAR.SYNC
// structure, now virtual. Each virtual program is run through
// tc::sched::schedule() twice (reorder off and on) and each result must
//
//   1. schedule at all (no exception from the pipeline or its verify gate),
//   2. be clean under check::find_hazards (belt and braces — verify already
//      gates this inside schedule()),
//   3. agree bit-for-bit between the two executors of check::run_case
//      (functional vs timed by default), since a correctly scheduled
//      race-free program can only diverge if the scheduler
//      under-synchronized it. The hazard detector is segment-local, so for
//      waits that span blocks (loop preheader hoists) this run is the only
//      oracle.
//
// This lives in tc::sched rather than tc::check because it depends on the
// scheduler; check/ must stay below sched/ in the link order so the
// scheduler can use find_hazards as its verification oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"

namespace tc::sched {

struct SchedFuzzFailure {
  std::uint64_t seed = 0;
  bool reordered = false;  // which scheduling mode failed
  std::string phase;       // "schedule" | "hazard" | "divergence" | "exception"
  std::string detail;      // exception text, diagnostics, or probe diff
  std::string program;     // disassembly (virtual if scheduling threw)
};

struct SchedFuzzReport {
  int programs = 0;   // virtual programs generated
  int schedules = 0;  // successful schedule() runs (2 per program when clean)
  std::vector<SchedFuzzFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Fuzzes `count` seeds starting at `base_seed` through the full
/// generate -> strip -> schedule -> hazard-scan -> differential-run pipeline.
/// `opts` drives both check::generate_case and check::run_case.
SchedFuzzReport run_sched_fuzz(std::uint64_t base_seed, int count,
                               const check::FuzzOptions& opts = {});

}  // namespace tc::sched
