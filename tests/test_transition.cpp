// Tests for the Section 7 transition-overhead scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/reference.hpp"
#include "core/transition.hpp"
#include "obs/obs.hpp"
#include "sched/validate.hpp"
#include "sim/sim_reference.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::make_cfg;
using test::task;

SystemConfig with_overheads(double alpha, double alpha_m, double xi,
                            double xi_m, double s_up = 1900.0) {
  auto cfg = make_cfg(alpha, alpha_m, s_up);
  cfg.core.xi = xi;
  cfg.memory.xi_m = xi_m;
  return cfg;
}

TEST(Transition, ZeroOverheadReducesToSection4) {
  // With xi == xi_m == 0 the Section 7 scheme must match Section 4 energies.
  for (double alpha : {0.0, 0.31}) {
    const auto cfg = with_overheads(alpha, 4.0, 0.0, 0.0);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const TaskSet ts = make_common_release(1 + seed % 6, 0.0, seed * 3);
      const auto t7 = solve_common_release_transition(ts, cfg);
      const auto s4 = alpha > 0.0 ? solve_common_release_alpha(ts, cfg)
                                  : solve_common_release_alpha0(ts, cfg);
      ASSERT_TRUE(t7.feasible && s4.feasible) << "seed " << seed;
      expect_near_rel(s4.energy, t7.energy, 1e-6, "Section 7 vs 4");
    }
  }
}

TEST(Transition, MatchesDenseReference) {
  for (double xi_m : {0.005, 0.040}) {
    for (double xi : {0.0, 0.002, 0.020}) {
      const auto cfg = with_overheads(0.31, 4.0, xi, xi_m);
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const TaskSet ts = make_common_release(1 + seed % 5, 0.0, seed * 7);
        const auto t7 = solve_common_release_transition(ts, cfg);
        ASSERT_TRUE(t7.feasible);
        const double ref = reference_common_release_transition(ts, cfg);
        expect_near_rel(ref, t7.energy, 1e-5, "vs dense reference");
      }
    }
  }
}

TEST(Transition, LargeBreakEvenSuppressesMemorySleep) {
  // Table 3, last row: when the achievable sleep is below both break-even
  // times, the memory stays awake (Delta = 0) and tasks run at s_c.
  TaskSet ts;
  ts.add(task(0, 0.0, 0.100, 60.0));  // fills most of the interval at s_m
  // At s_m ~ 849 MHz the task runs ~70 ms of the 100 ms region: the
  // potential sleep (~30 ms) is below xi_m = 80 ms.
  const auto cfg = with_overheads(0.31, 4.0, 0.0, 0.080, 0.0);
  const auto res = solve_common_release_transition(ts, cfg);
  ASSERT_TRUE(res.feasible);
  // Either no sleep at all, or the memory idles: sleep_time counts the gap,
  // but the energy must equal the idle-through alternative.
  const double idle_energy = [&] {
    // Stretch to minimize with an always-on memory: min over run of
    // alpha_m * H + core terms. Evaluate both task candidates.
    const double H = 0.100;
    double run = 0.0, speed = 0.0;
    auto cfg_idle = cfg;
    cfg_idle.memory.xi_m = 1e9;  // sleeping can never pay
    const double c =
        transition_task_cost(ts[0], cfg_idle, H, H, run, speed);
    return c + cfg.memory.alpha_m * H;
  }();
  EXPECT_LE(res.energy, idle_energy + 1e-9);
}

TEST(Transition, SmallBreakEvenRecoversRaceToIdle) {
  // xi_m -> 0: sleeping is free, so the optimum approaches the Section 4
  // result from above.
  TaskSet ts = make_common_release(5, 0.0, 21);
  const auto cfg0 = with_overheads(0.31, 4.0, 0.0, 0.0);
  const auto base = solve_common_release_alpha(ts, cfg0);
  ASSERT_TRUE(base.feasible);
  double prev = 1e18;
  double last_xi_m = 0.0;
  for (double xi_m : {0.050, 0.010, 0.001, 0.0001}) {
    const auto cfg = with_overheads(0.31, 4.0, 0.0, xi_m);
    const auto res = solve_common_release_transition(ts, cfg);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.energy, prev + 1e-12) << "monotone in xi_m";
    prev = res.energy;
    last_xi_m = xi_m;
  }
  // The residual gap is at most the one remaining transition pair
  // alpha_m * xi_m (plus numerical slack), which vanishes with xi_m.
  EXPECT_GE(prev, base.energy - 1e-9);
  EXPECT_LE(prev, base.energy + 4.0 * last_xi_m + 1e-6 * base.energy);
}

TEST(Transition, CoreBreakEvenSwitchesRaceToStretch) {
  // One task, huge core break-even: racing to s_m then idling beats nothing
  // — the core should stretch instead (s_c = s_f). With tiny break-even it
  // races at s_m.
  const Task t = task(0, 0.0, 0.100, 8.0);
  const double H = 0.100;
  auto race_cfg = with_overheads(0.31, 0.0, 0.001, 0.0, 0.0);
  double run = 0.0, speed = 0.0;
  transition_task_cost(t, race_cfg, H, H, run, speed);
  const double s_m = race_cfg.core.critical_speed_raw();
  expect_near_rel(s_m, speed, 1e-9, "races at s_m with cheap transitions");

  auto stretch_cfg = with_overheads(0.31, 0.0, 10.0, 0.0, 0.0);
  transition_task_cost(t, stretch_cfg, H, H, run, speed);
  expect_near_rel(8.0 / 0.100, speed, 1e-9,
                  "stretches at filled speed with huge break-even");
}

TEST(Transition, ConstrainedCriticalSpeedDefinition) {
  // SystemConfig::constrained_critical_speed follows the paper's rule.
  auto cfg = with_overheads(0.31, 0.0, 0.010, 0.0, 0.0);
  const Task roomy = task(0, 0.0, 1.0, 8.0);   // runs 9.4 ms at s_m, slack ok
  const Task tight = task(1, 0.0, 0.012, 8.0); // region too tight for xi
  const double s_m = cfg.core.critical_speed_raw();
  expect_near_rel(s_m, cfg.constrained_critical_speed(roomy, 1.0), 1e-9,
                  "roomy task keeps s_m");
  expect_near_rel(tight.filled_speed(),
                  cfg.constrained_critical_speed(tight, 0.012), 1e-9,
                  "tight task stretches");
}

TEST(Transition, SchedulesAreFeasible) {
  const auto cfg = with_overheads(0.31, 4.0, 0.002, 0.040);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const TaskSet ts = make_common_release(1 + seed % 8, 0.0, seed * 31);
    const auto res = solve_common_release_transition(ts, cfg);
    ASSERT_TRUE(res.feasible) << "seed " << seed;
    const auto v = validate_schedule(res.schedule, ts, cfg);
    EXPECT_TRUE(v.ok) << v.error << " seed " << seed;
  }
}

// Probe accounting: every probe splits its n task terms into live
// evaluations and cached replays, by the live set of the piece it searches
// (not by how far the left-to-right cap ratchet got). xi > 0 keeps every
// task off the race-certified cache, so a task is cached on a piece iff its
// window is deadline-capped there: window_cap <= the piece's lower edge.
TEST(Transition, ProbeCountersFollowEachSearchedPiece) {
  if (!obs::compiled()) GTEST_SKIP() << "built with SDEM_OBS=0";
  TaskSet ts;
  const double deadlines[] = {0.040, 0.060, 0.090, 0.120, 0.160, 0.200};
  for (int i = 0; i < 6; ++i) ts.add(task(i, 0.0, deadlines[i], 6.0 + i));
  const std::uint64_t n = ts.size();

  struct Counts {
    std::uint64_t probes, live, cached, live_min, live_max;
  };
  const auto solve = [&](double alpha, double alpha_m) {
    obs::Registry::instance().reset();
    TransitionWorkspace ws;
    const auto cfg = with_overheads(alpha, alpha_m, 0.002, 0.040);
    EXPECT_TRUE(solve_common_release_transition(ts, cfg, ws, false).feasible);
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    const auto get = [&snap](const char* name) -> std::uint64_t {
      const std::uint64_t* c = snap.counter(name);
      return c ? *c : 0;
    };
    Counts c{get("transition/probes"), get("transition/task_evals_live"),
             get("transition/task_evals_cached"), n, 0};
    for (const auto& pc : ws.searched) {
      std::uint64_t piece_live = 0;
      for (std::size_t k = 0; k < n; ++k) {
        piece_live += ws.window_cap[k] > ws.edges[pc.idx];
      }
      c.live_min = std::min(c.live_min, piece_live);
      c.live_max = std::max(c.live_max, piece_live);
    }
    return c;
  };

  // Expensive memory: every searched piece lies left of the first
  // deadline, while the ratchet caps five tasks on later pieces. Every
  // task is live in every probe.
  const Counts left = solve(0.31, 4.0);
  ASSERT_GT(left.probes, 1u);
  EXPECT_EQ(left.live_min, n);
  EXPECT_EQ(left.live, n * left.probes);
  EXPECT_EQ(left.cached, 0u);

  // Cheap memory, costly cores: the search reaches pieces past most caps.
  // The full-objective probe at H counts n live; each piece probe counts
  // its own live set, which lies between the smallest and largest.
  const Counts right = solve(3.0, 0.01);
  const std::uint64_t piece_probes = right.probes - 1;
  EXPECT_LT(right.live_min, right.live_max);
  EXPECT_EQ(right.live + right.cached, n * right.probes);
  EXPECT_GE(right.live - n, right.live_min * piece_probes);
  EXPECT_LE(right.live - n, right.live_max * piece_probes);
  EXPECT_GT(right.cached, 0u);
}

/// The solver and its frozen original (sim/sim_reference.cpp) agree bit for
/// bit: feasibility, energy, sleep time and every segment field.
void expect_matches_frozen(const OfflineResult& got,
                           const OfflineResult& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.energy, want.energy);
  EXPECT_EQ(got.sleep_time, want.sleep_time);
  const auto& gs = got.schedule.segments();
  const auto& rs = want.schedule.segments();
  ASSERT_EQ(gs.size(), rs.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_EQ(gs[i].task_id, rs[i].task_id) << "seg " << i;
    EXPECT_EQ(gs[i].core, rs[i].core) << "seg " << i;
    EXPECT_EQ(gs[i].start, rs[i].start) << "seg " << i;
    EXPECT_EQ(gs[i].end, rs[i].end) << "seg " << i;
    EXPECT_EQ(gs[i].speed, rs[i].speed) << "seg " << i;
  }
}

// A deadline that asks for a hair above s_up (inside the 1e-12 admission
// slack), with a free core tail. Under s_m > s_up faster is cheaper, so
// the stretch to the deadline beats the race at s_up: the race certificate
// must not claim this task. Under s_m < s_up slower is cheaper, so the race
// at s_up wins and runs past the deadline by that hair: its candidate is
// not the stretch, and must be evaluated.
TEST(Transition, TightDeadlineAboveSupMatchesFrozenSolver) {
  for (const double alpha : {10.0, 0.31}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    const auto cfg = with_overheads(alpha, 4.0, 0.0, 0.040);
    TaskSet ts;
    ts.add(task(0, 0.0, 3.8 / (1900.0 * (1.0 + 5e-13)), 3.8));
    ts.add(task(1, 0.0, 0.050, 2.0));
    const auto want = ref_transition::solve(ts, cfg);
    ASSERT_TRUE(want.feasible);
    const double end0 = want.schedule.segments().at(0).end;
    if (alpha > 1.0) {
      EXPECT_EQ(end0, ts[0].deadline);
    } else {
      EXPECT_GT(end0, ts[0].deadline);
    }
    expect_matches_frozen(solve_common_release_transition(ts, cfg), want);
  }
}

// Random common-release sets in every config family, through one workspace
// reused across solves as the online policy reuses it.
TEST(Transition, MatchesFrozenSolverBitForBit) {
  Xoshiro256 rng(14);
  TransitionWorkspace ws;
  for (int round = 0; round < 40; ++round) {
    for (const auto& fam : test::transition_families(rng)) {
      const int n = static_cast<int>(rng.uniform_int(1, 24));
      const TaskSet ts = make_common_release(n, 0.0, rng(), 2.0, 5.0,
                                             fam.region_lo, fam.region_hi);
      SCOPED_TRACE(fam.name + " round " + std::to_string(round));
      expect_matches_frozen(solve_common_release_transition(ts, fam.cfg, ws),
                            ref_transition::solve(ts, fam.cfg));
    }
  }
}

}  // namespace
}  // namespace sdem
