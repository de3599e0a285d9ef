// The benchmark program's workloads (perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/policy.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;  ///< recorded sweep energies (perfbench/golden.txt)
  int port = -1;       ///< serve: the running daemon's TCP port
  int daemon_pid = 0;  ///< serve: the daemon, for /proc CPU time and VmHWM
};

/// sweep_online / sweep_offline: serial sweeps checked against golden.txt.
Report run_sweep(const Args& a);
/// Recompute every pooled sweep energy and print golden.txt to stdout.
int record_golden();

/// serve_race / serve_sdem: open-loop TCP load against a running daemon,
/// checked against an in-process replay of the same stream.
Report run_serve(const Args& a);

/// Every per-layer metric at zero with its unit: a traced run overwrites
/// the layers its workload exercises, and the rest stay zero (the layer
/// was not called).
void set_layer_defaults(Report& r);

/// Forwarding policy that times each replan and records the pending depth.
class TimedPolicy : public sdem::OnlinePolicy {
 public:
  explicit TimedPolicy(sdem::OnlinePolicy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  std::vector<sdem::Segment> replan(
      double now, const std::vector<sdem::PendingTask>& pending,
      const sdem::SystemConfig& cfg) override;
  std::vector<sdem::Segment> replan_completion(
      double now, const std::vector<sdem::PendingTask>& pending,
      const sdem::SystemConfig& cfg) override;

  std::vector<double> replan_us;  ///< one entry per replan
  std::vector<double> pending;    ///< pending tasks seen by each replan
  double total_s = 0.0;

 private:
  sdem::OnlinePolicy& inner_;
};

/// SDEM-ON replan times and the pending depth each replan saw, into the
/// core.sdem_* metrics (shared by sweep_online and serve_sdem).
void report_sdem_replans(Report& r, const std::vector<double>& replan_us,
                         const std::vector<double>& pending);

/// Transition-solver counters accumulated since `before` (obs registry).
struct TransitionCounters {
  std::uint64_t solves = 0, probes = 0, pieces = 0, pieces_pruned = 0,
                evals_live = 0, evals_cached = 0;
  static TransitionCounters read();
  TransitionCounters since(const TransitionCounters& before) const;
  void report(Report& r) const;
};

}  // namespace perfbench
