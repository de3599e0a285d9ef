// Shared helpers for the sdem test suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/power.hpp"
#include "model/task.hpp"
#include "support/rng.hpp"

namespace sdem::test {

/// Config with the paper's dynamic-power shape and configurable statics.
/// s_up defaults to 1900 MHz; pass 0 for unconstrained speeds.
inline SystemConfig make_cfg(double alpha, double alpha_m,
                             double s_up = 1900.0, double lambda = 3.0) {
  SystemConfig cfg;
  cfg.core.alpha = alpha;
  cfg.core.beta = 2.53e-10;
  cfg.core.lambda = lambda;
  cfg.core.s_min = 0.0;
  cfg.core.s_up = s_up;
  cfg.memory.alpha_m = alpha_m;
  cfg.num_cores = 0;  // unbounded
  return cfg;
}

inline Task task(int id, double release, double deadline, double work) {
  Task t;
  t.id = id;
  t.release = release;
  t.deadline = deadline;
  t.work = work;
  return t;
}

/// Relative-tolerance comparison for energies.
inline void expect_near_rel(double expected, double actual, double rel,
                            const char* what = "") {
  const double scale = std::max({1e-12, std::abs(expected), std::abs(actual)});
  EXPECT_NEAR(expected, actual, rel * scale) << what;
}

/// A paper-default variant that steers the Section 7 transition solver
/// down one of its branches, with the task-window range to draw with it.
struct TransitionFamily {
  std::string name;
  SystemConfig cfg;
  double region_lo = 0.010;  ///< s
  double region_hi = 0.120;
};

/// One config per family, free parameters drawn from `rng`: the paper
/// default (free core tail, race certificate on); core xi > 0 (tail not
/// free); alpha = 0 with xi_m > 0 (no race candidate); s_m > s_up
/// (alpha 5-20 W); s_m ~ s_up (s_up 800-900 MHz, s_m ~ 849 MHz); xi_m = 0
/// with core xi > 0; and windows under 30 ms against xi_m = 40 ms, where
/// H < xi_m leaves the memory term flat and ties decide the sleep time.
inline std::vector<TransitionFamily> transition_families(Xoshiro256& rng) {
  std::vector<TransitionFamily> out;
  const auto add = [&](const char* name, SystemConfig cfg) {
    cfg.memory.alpha_m = rng.uniform(0.5, 8.0);
    out.push_back({name, cfg});
    return &out.back();
  };
  const SystemConfig paper = SystemConfig::paper_default();
  add("paper", paper);
  SystemConfig c = paper;
  c.core.xi = rng.uniform(0.001, 0.030);
  add("core-xi", c);
  c = SystemConfig::paper_default_alpha0();
  c.memory.xi_m = rng.uniform(0.005, 0.060);
  add("alpha0", c);
  c = paper;
  c.core.alpha = rng.uniform(5.0, 20.0);
  add("sm-above-sup", c);
  c = paper;
  c.core.s_up = rng.uniform(800.0, 900.0);
  add("sm-near-sup", c);
  c = paper;
  c.memory.xi_m = 0.0;
  c.core.xi = rng.uniform(0.001, 0.030);
  add("xim0", c);
  TransitionFamily* short_h = add("short-h", paper);
  short_h->region_lo = 0.005;
  short_h->region_hi = 0.030;
  return out;
}

}  // namespace sdem::test
