// serve_stream: the timed engine used the serving way, plus tune, op and
// serve themselves.
//
// One round = a freshly built serve::Server (empty tune cache) replaying a
// seeded llm_traffic stream, then the same, now warm, server replaying a
// second, shorter stream kWarmReplays times. The cold phase tunes each of the
// palette's six buckets (tune_budget 1: one timed evaluation each) and
// simulates each distinct pass shape: twelve small-grid L2-pinned
// TimedDevice launches, plus kernel generation and scheduling on every pass.
// The warm phase simulates nothing; op::lower is most of its time.
//
// The traffic is pinned (pins.hpp) and does not follow --seed: the gate
// compares the write_metrics_json bytes of both phases with pinned digests,
// and the cold cost of different streams differs by up to 20%, which would
// swamp the comparison of runs made with different seeds.
#include <map>
#include <memory>
#include <sstream>

#include "check/hazard.hpp"
#include "common/json.hpp"
#include "core/kernel_gen.hpp"
#include "device/occupancy.hpp"
#include "device/spec.hpp"
#include "op/op.hpp"
#include "pins.hpp"
#include "serve/serve.hpp"
#include "serve/traffic.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace simbench {
namespace {

constexpr double kNominalRoundS = 7.5;
constexpr int kWarmReplays = 4;

std::uint64_t metrics_digest(const tc::serve::Metrics& m) {
  std::ostringstream os;
  tc::JsonWriter j(os);
  tc::serve::write_metrics_json(j, m);
  return fnv1a(os.str());
}

tc::serve::ServerOptions server_options() {
  tc::serve::ServerOptions so;
  so.spec = tc::device::rtx2070();
  so.threads = 1;
  so.tune_budget = kServeTuneBudget;
  return so;
}

struct Setup {
  std::vector<tc::serve::Request> cold;
  std::vector<tc::serve::Request> warm;
};

void set_up(Setup& st, Tracer& tr) {
  tc::serve::TrafficOptions to;
  to.requests = kServeColdRequests;
  to.seed = kServeColdSeed;
  st.cold = tr.call("serve.llm_traffic", [&] { return tc::serve::llm_traffic(to); });
  to.requests = kServeWarmRequests;
  to.seed = kServeWarmSeed;
  st.warm = tr.call("serve.llm_traffic", [&] { return tc::serve::llm_traffic(to); });
}

void add_counters(Report& rep, const tc::serve::Counters& c) {
  rep.metrics["serve.batches"] += static_cast<double>(c.batches);
  rep.metrics["serve.cache_hits"] += static_cast<double>(c.cache_hits);
  rep.metrics["serve.cache_misses"] += static_cast<double>(c.cache_misses);
  rep.metrics["serve.sim_passes"] += static_cast<double>(c.sim_passes);
}

/// Host seconds of the server's cold-miss calls for one bucket, replayed
/// once per round of a traced run.
struct BucketCost {
  std::vector<double> tune_s;     // tune::tune
  std::vector<double> time_op_s;  // op::time_gemm_op of the bucket's pass
  std::string simulated;          // the simulated size of that pass
};

/// Replays, on each bucket the server tuned, the calls a cold miss makes:
/// tune::tune, then the lowered pass's kernel generation, hazard scan, L2
/// prediction and op::time_gemm_op. Every pass of the pinned streams carries
/// one request, so the bucket-shaped pass replayed here is the one the
/// server simulated. Adds the tuner's evaluations to `evals`; returns the
/// seconds of tune::tune and op::time_gemm_op summed over the buckets.
double replay_cold_misses(const tc::serve::Server& srv, Tracer& tr,
                          std::map<std::string, BucketCost>& costs, std::uint64_t& evals) {
  const tc::serve::ServerOptions& so = srv.options();
  double spent = 0.0;
  for (const tc::tune::CacheEntry& e : srv.cache().entries()) {
    BucketCost& cost = costs[e.key.str()];
    tc::tune::TuneOptions topt;
    topt.shape = tc::tune::bucket_shape(e.key);
    topt.budget = so.tune_budget;
    topt.seed = so.tune_seed;
    topt.threads = 1;
    topt.engine = tc::tune::Engine::kTimedDevice;
    topt.space = so.space;
    auto t0 = Clock::now();
    const tc::tune::TuneResult tuned =
        tr.call("tune.tune", [&] { return tc::tune::tune(so.spec, topt); });
    cost.tune_s.push_back(seconds_since(t0));
    evals += static_cast<std::uint64_t>(tuned.prune.evaluated);

    tc::op::GemmOp gemm;
    gemm.shape = topt.shape;
    gemm.split_k = e.cfg.split_k;
    const tc::op::OpPlan plan = tc::op::lower(gemm, e.cfg);
    (void)tr.call("core.kernel_gen",
                  [&] { return tc::core::hgemm_kernel(plan.cfg, plan.contract); });
    (void)tr.call("check.find_hazards",
                  [&] { return tc::check::find_hazards(plan.launches.front().program); });
    const tc::device::Occupancy occ =
        tc::device::occupancy(so.spec, plan.launches.front().program);
    tc::op::TimedOpOptions oo;
    oo.threads = 1;
    oo.skip_mma_math = true;
    oo.forced_l2_hit_rate = tr.call("model.l2_predict", [&] {
      return tc::tune::predicted_l2_hit_rate(so.spec, plan.cfg, occ, plan.contract);
    });
    t0 = Clock::now();
    const tc::op::OpTiming timing =
        tr.call("op.time_gemm_op", [&] { return tc::op::time_gemm_op(so.spec, plan, oo); });
    cost.time_op_s.push_back(seconds_since(t0));
    spent += cost.tune_s.back() + cost.time_op_s.back();
    cost.simulated = std::to_string(timing.device_cycles) + " device cycles on " +
                     std::to_string(timing.main_sms_used) + " SMs";
  }
  return spent;
}

/// Host seconds op::lower takes over every pass of `stream`: each request
/// lowered on its own (no pass fuses two) with the server's cached winner,
/// as Server::pass_cost does before its memo lookup.
double replay_lowering(const tc::serve::Server& srv,
                       const std::vector<tc::serve::Request>& stream, Tracer& tr) {
  const tc::device::DeviceSpec& spec = srv.options().spec;
  const auto t0 = Clock::now();
  for (const tc::serve::Request& r : stream) {
    const tc::tune::CacheKey key = tc::tune::cache_key(spec, r.shape, r.dtype);
    const tc::core::HgemmConfig& cfg = srv.cache().find(key)->cfg;
    tc::op::GemmOp gemm;
    gemm.shape = {key.m, key.n, key.k};
    gemm.batch.count = r.batch;
    gemm.split_k = cfg.split_k;
    (void)tr.call("op.lower", [&] { return tc::op::lower(gemm, cfg); });
  }
  return seconds_since(t0);
}

}  // namespace

Report run_serve_stream(const RunOptions& opt, Tracer& tr) {
  Report rep;
  Setup st;
  SetupTimer setup;
  const auto do_setup = [&] { set_up(st, tr); };

  const int rounds = units_for(opt.seconds, kNominalRoundS);
  tc::serve::Metrics cold_m;
  tc::serve::Metrics warm_m;
  std::unique_ptr<tc::serve::Server> srv;
  std::map<std::string, BucketCost> costs;
  std::uint64_t evals = 0;
  for (int r = 0; r < rounds; ++r) {
    setup.batch(tr, do_setup);
    const auto t0 = Clock::now();
    srv = std::make_unique<tc::serve::Server>(server_options());
    const tc::serve::Metrics cold =
        tr.call("serve.Server.run.cold", [&] { return srv->run(st.cold); });
    const double cold_s = seconds_since(t0);
    rep.add_sample("cold_s", cold_s);
    rep.add_sample("cold_req_per_s", static_cast<double>(cold.counters.completed) / cold_s);
    const std::uint64_t cd = metrics_digest(cold);
    rep.gate(cd == kServeColdDigest && cold.counters.hazard_diags == 0, st.cold.size(),
             "serve cold metrics digest " + hex(cd) + " != pinned " + hex(kServeColdDigest));
    cold_m = cold;
    // A traced pass replays each phase's calls right after the phase, so
    // that the two sample the same host state and their difference is the
    // server's own time, not the host's drift.
    if (opt.trace) {
      tr.call("replay", [&] {
        const double explained = replay_cold_misses(*srv, tr, costs, evals) +
                                 replay_lowering(*srv, st.cold, tr);
        rep.add_sample("replay.cold_explained_s", explained);
        rep.add_sample("replay.cold_unexplained_s", cold_s - explained);
      });
    }

    double round_s = cold_s;
    for (int w = 0; w < kWarmReplays; ++w) {
      setup.batch(tr, do_setup);
      const auto tw = Clock::now();
      const tc::serve::Metrics warm =
          tr.call("serve.Server.run.warm", [&] { return srv->run(st.warm); });
      const double warm_s = seconds_since(tw);
      round_s += warm_s;
      rep.add_sample("warm_s", warm_s);
      rep.add_sample("warm_req_per_s", static_cast<double>(warm.counters.completed) / warm_s);
      const std::uint64_t wd = metrics_digest(warm);
      rep.gate(wd == kServeWarmDigest && warm.counters.tune_evals == 0 &&
                   warm.counters.sim_passes == 0 && warm.counters.hazard_diags == 0,
               st.warm.size(),
               "serve warm metrics digest " + hex(wd) + " != pinned " + hex(kServeWarmDigest) +
                   " or the warm phase simulated");
      warm_m = warm;
      if (opt.trace) {
        tr.call("replay", [&] {
          const double lower_s = replay_lowering(*srv, st.warm, tr);
          rep.add_sample("replay.warm_lower_s", lower_s);
          rep.add_sample("replay.warm_lower_share", lower_s / warm_s);
          rep.add_sample("replay.warm_unexplained_s", warm_s - lower_s);
        });
      }
    }
    rep.add_sample("unit_s", round_s);
  }
  rep.samples["setup_s"] = setup.samples();
  rep.metrics["setup_s"] = median(setup.samples());
  rep.metrics["headline_per_s"] = median(rep.samples["cold_req_per_s"]);
  rep.metrics["secondary_per_s"] = median(rep.samples["warm_req_per_s"]);
  rep.notes.push_back("cold_req_per_s = " + std::to_string(rep.metrics["headline_per_s"]) +
                      " 1/s (headline_per_s)");
  rep.notes.push_back("warm_req_per_s = " + std::to_string(rep.metrics["secondary_per_s"]) +
                      " 1/s (secondary_per_s)");

  // Counters of one round: the cold run plus its warm replays.
  const tc::serve::Counters& cold_c = cold_m.counters;
  const tc::serve::Counters& warm_c = warm_m.counters;
  add_counters(rep, cold_c);
  for (int w = 0; w < kWarmReplays; ++w) add_counters(rep, warm_c);
  rep.metrics["tune.evals"] = static_cast<double>(cold_c.tune_evals);
  rep.metrics["op.lower.calls"] =
      static_cast<double>(cold_c.batches + kWarmReplays * warm_c.batches);

  if (opt.trace) {
    TC_CHECK(cold_c.batches == cold_c.completed && warm_c.batches == warm_c.completed &&
                 cold_c.sim_passes == cold_c.cache_misses,
             "serve_stream attribution assumes one request per pass");
    const double cold_s = median(rep.samples["cold_s"]);
    const double warm_s = median(rep.samples["warm_s"]);
    // Replayed calls: every pass lowered, plus each cold miss's tuning and
    // pass simulation; the rest is the server's own (event loop, metrics).
    // Each is the median over the phase/replay pairs.
    const double cold_explained = median(rep.samples["replay.cold_explained_s"]);
    double time_op_s = 0.0;
    double tune_s = 0.0;
    for (const auto& [key, c] : costs) {
      time_op_s += median(c.time_op_s);
      tune_s += median(c.tune_s);
      rep.notes.push_back("serve bucket " + key + ": tune::tune " +
                          std::to_string(median(c.tune_s)) + " s, op::time_gemm_op " +
                          std::to_string(median(c.time_op_s)) + " s for " + c.simulated);
    }
    const double warm_explained = median(rep.samples["replay.warm_lower_s"]);
    const double warm_share = median(rep.samples["replay.warm_lower_share"]);
    rep.metrics["serve.unattributed_s"] =
        median(rep.samples["replay.cold_unexplained_s"]) +
        kWarmReplays * median(rep.samples["replay.warm_unexplained_s"]);
    rep.metrics["op.lower.warm_share"] = warm_share;
    const auto buckets = static_cast<double>(costs.size());
    rep.metrics["op.lower.host_ms_per_call"] = tr.mean_s("op.lower") * 1e3;
    rep.metrics["op.time_gemm_op.host_ms_per_call"] = time_op_s / buckets * 1e3;
    rep.metrics["tune.host_s_per_bucket"] = tune_s / buckets;
    rep.metrics["tune.host_s_per_eval"] =
        evals > 0 ? tr.total_s("tune.tune") / static_cast<double>(evals) : 0.0;
    rep.metrics["core.kernel_gen.calls"] = tr.count("core.kernel_gen");
    rep.metrics["core.kernel_gen.host_ms_per_call"] = tr.mean_s("core.kernel_gen") * 1e3;
    rep.metrics["check.find_hazards.host_ms_per_call"] = tr.mean_s("check.find_hazards") * 1e3;
    rep.metrics["model.l2_predict.host_ms_per_call"] = tr.mean_s("model.l2_predict") * 1e3;
    rep.notes.push_back("serve cold breakdown: " + std::to_string(cold_s) + " s per " +
                        std::to_string(cold_c.completed) + "-request cold run, replayed calls " +
                        std::to_string(cold_explained) + " s");
    rep.notes.push_back("serve warm breakdown: " + std::to_string(warm_s * 1e3) + " ms per " +
                        std::to_string(warm_c.completed) + "-request replay, op.lower " +
                        std::to_string(warm_explained * 1e3) + " ms (" +
                        std::to_string(100.0 * warm_share) + "%) over " +
                        std::to_string(warm_c.batches) + " passes");
  }
  return rep;
}

}  // namespace simbench
