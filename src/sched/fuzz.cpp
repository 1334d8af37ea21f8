#include "sched/fuzz.hpp"

#include <cstdint>
#include <exception>
#include <string>

#include "check/hazard.hpp"
#include "sass/diag.hpp"
#include "sched/schedule.hpp"

namespace tc::sched {

SchedFuzzReport run_sched_fuzz(std::uint64_t base_seed, int count,
                               const check::FuzzOptions& opts) {
  SchedFuzzReport rep;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    check::FuzzCase virt;
    try {
      virt = check::strip_schedule(check::generate_case(seed, opts));
    } catch (const std::exception& e) {
      rep.failures.push_back(
          {seed, false, "schedule", std::string("generator: ") + e.what(), ""});
      continue;
    }
    ++rep.programs;

    for (const bool reorder : {false, true}) {
      ScheduleOptions sopts;
      sopts.reorder = reorder;
      check::FuzzCase scheduled = virt;
      try {
        scheduled.prog = schedule(virt.prog, sopts);
      } catch (const std::exception& e) {
        rep.failures.push_back(
            {seed, reorder, "schedule", e.what(), virt.prog.disassemble()});
        continue;
      }
      ++rep.schedules;

      // Belt and braces: schedule() already verified, but re-running the
      // detector here keeps the fuzzer meaningful with verify disabled.
      const auto diags = check::find_hazards(scheduled.prog);
      if (sass::has_errors(diags)) {
        rep.failures.push_back({seed, reorder, "hazard", sass::format_errors(diags),
                                scheduled.prog.disassemble()});
        continue;
      }

      const auto div = check::run_case(scheduled, opts);
      if (!div.has_value()) continue;
      const bool is_exception = div->rfind("exception:", 0) == 0;
      rep.failures.push_back({seed, reorder,
                              is_exception ? "exception" : "divergence", *div,
                              scheduled.prog.disassemble()});
    }
  }
  return rep;
}

}  // namespace tc::sched
