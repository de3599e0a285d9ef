// Per-layer instruments shared by the workloads: the metric list, the
// timing policy wrapper and the obs-registry counter reads.
#include "obs/obs.hpp"
#include "perfbench.hpp"

namespace perfbench {

void set_layer_defaults(Report& r) {
  static const char* const kLayers[][2] = {
      {"workload.generate_s", "s"},
      {"core.sdem_replan_us_p50", "us"},
      {"core.sdem_replan_us_p99", "us"},
      {"core.sdem_replan_calls", "count"},
      {"core.sdem_replan_share", "ratio"},
      {"core.sdem_pending_mean", "tasks"},
      {"core.sdem_pending_p50", "tasks"},
      {"core.sdem_pending_p90", "tasks"},
      {"core.sdem_pending_max", "tasks"},
      {"core.transition_probes_per_solve", "count"},
      {"core.transition_pieces_pruned_frac", "ratio"},
      {"core.transition_cache_hit_frac", "ratio"},
      {"core.agreeable_solve_ms_p50", "ms"},
      {"core.agreeable_share", "ratio"},
      {"core.common_release_solve_ms_p50", "ms"},
      {"core.block_probes_per_solve", "count"},
      {"core.block_boxes_pruned_frac", "ratio"},
      {"baseline.mbkp_replan_us_p50", "us"},
      {"sim.simulate_self_s", "s"},
      {"sched.evaluate_policy_us_p50", "us"},
      {"sim.commit_us_p50", "us"},
      {"sim.commit_us_p99", "us"},
      {"service.peek_us_p50", "us"},
      {"service.parse_us_p50", "us"},
      {"support.json_dump_us_p50", "us"},
      {"service.server_e2e_p50_ms", "ms"},
      {"service.server_e2e_p99_ms", "ms"},
      {"service.server_replan_p99_ms", "ms"},
      {"service.backpressure_stalls", "count"},
      {"service.ring_occupancy_max", "count"},
      {"service.cpu_us_per_request", "us"},
      {"service.daemon_peak_rss_mb", "MB"},
      {"service.daemon_start_s", "s"},
      {"service.tcp_submit_p50_ms", "ms"},
      {"service.tcp_submit_p99_ms", "ms"},
      {"service.tcp_max_rate_rps", "1/s"},
      {"service.query_p50_ms", "ms"},
      {"service.query_p99_ms", "ms"},
      {"service.scrape_p50_ms", "ms"},
      {"service.scrape_p90_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.lag_max_ms", "ms"},
      {"loadgen.query_per_submit", "ratio"},
      {"loadgen.scrapes", "count"},
      {"bench.trace_overhead_x", "ratio"},
  };
  for (const auto& [name, unit] : kLayers) r.set(name, 0.0, unit);
}

std::vector<sdem::Segment> TimedPolicy::replan(
    double now, const std::vector<sdem::PendingTask>& pending,
    const sdem::SystemConfig& cfg) {
  const std::uint64_t t0 = now_ns();
  std::vector<sdem::Segment> plan = inner_.replan(now, pending, cfg);
  const double dt = static_cast<double>(now_ns() - t0);
  replan_us.push_back(dt * 1e-3);
  this->pending.push_back(static_cast<double>(pending.size()));
  total_s += dt * 1e-9;
  return plan;
}

std::vector<sdem::Segment> TimedPolicy::replan_completion(
    double now, const std::vector<sdem::PendingTask>& pending,
    const sdem::SystemConfig& cfg) {
  const std::uint64_t t0 = now_ns();
  std::vector<sdem::Segment> plan =
      inner_.replan_completion(now, pending, cfg);
  const double dt = static_cast<double>(now_ns() - t0);
  replan_us.push_back(dt * 1e-3);
  this->pending.push_back(static_cast<double>(pending.size()));
  total_s += dt * 1e-9;
  return plan;
}

void report_sdem_replans(Report& r, const std::vector<double>& replan_us,
                         const std::vector<double>& pending) {
  r.set("core.sdem_replan_us_p50", quantile(replan_us, 0.5), "us");
  r.set("core.sdem_replan_us_p99", quantile(replan_us, 0.99), "us");
  r.set("core.sdem_replan_calls", static_cast<double>(replan_us.size()),
        "count");
  r.set("core.sdem_pending_mean", mean(pending), "tasks");
  r.set("core.sdem_pending_p50", quantile(pending, 0.5), "tasks");
  r.set("core.sdem_pending_p90", quantile(pending, 0.9), "tasks");
  r.set("core.sdem_pending_max", quantile(pending, 1.0), "tasks");
  // The traffic property an incremental replan would exploit: how many
  // replans see each pending depth.
  sdem::Json hist = sdem::Json::object();
  std::vector<std::uint64_t> counts;
  for (double d : pending) {
    const std::size_t k = static_cast<std::size_t>(d);
    if (counts.size() <= k) counts.resize(k + 1, 0);
    ++counts[k];
  }
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) hist.set(std::to_string(k), counts[k]);
  }
  r.extra.set("sdem_pending_histogram", std::move(hist));
}

TransitionCounters TransitionCounters::read() {
  const sdem::obs::Snapshot snap = sdem::obs::Registry::instance().snapshot();
  const auto get = [&snap](const char* name) -> std::uint64_t {
    const std::uint64_t* v = snap.counter(name);
    return v != nullptr ? *v : 0;
  };
  TransitionCounters c;
  c.solves = get("transition/solves");
  c.probes = get("transition/probes");
  c.pieces = get("transition/pieces");
  c.pieces_pruned = get("transition/pieces_pruned");
  c.evals_live = get("transition/task_evals_live");
  c.evals_cached = get("transition/task_evals_cached");
  return c;
}

TransitionCounters TransitionCounters::since(
    const TransitionCounters& b) const {
  TransitionCounters d;
  d.solves = solves - b.solves;
  d.probes = probes - b.probes;
  d.pieces = pieces - b.pieces;
  d.pieces_pruned = pieces_pruned - b.pieces_pruned;
  d.evals_live = evals_live - b.evals_live;
  d.evals_cached = evals_cached - b.evals_cached;
  return d;
}

void TransitionCounters::report(Report& r) const {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  r.set("core.transition_probes_per_solve", ratio(probes, solves), "count");
  r.set("core.transition_pieces_pruned_frac", ratio(pieces_pruned, pieces),
        "ratio");
  r.set("core.transition_cache_hit_frac",
        ratio(evals_cached, evals_live + evals_cached), "ratio");
}

}  // namespace perfbench
