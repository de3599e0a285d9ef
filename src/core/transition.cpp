#include "core/transition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "support/numeric.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double tail_cost(double static_power, double gap, double break_even) {
  if (gap <= 0.0 || static_power <= 0.0) return 0.0;
  if (break_even <= 0.0) return 0.0;
  return std::min(static_power * gap, static_power * break_even);
}

/// Per-solve constants of the transition scheme: everything
/// transition_task_cost re-reads from the config on every probe, hoisted.
struct SolveConsts {
  double H = 0.0;
  double alpha = 0.0;
  double beta = 0.0;
  double lambda = 0.0;
  double xi = 0.0;
  double s_m = 0.0;       ///< critical_speed_raw(): one pow per solve
  double s_up = 0.0;      ///< max_speed()
  double fill_cap = 0.0;  ///< max_speed() * (1 + 1e-12)
  /// Race certificate: a window fill at or below it makes the race
  /// candidate the certain winner, so a probe returns race_cost without a
  /// pow. min(s_m, s_up) * (1 - 1e-5) when the core tail is free and
  /// s_m > 0, -1 (never) otherwise; see solve_common_release_transition.
  double cert_speed = -1.0;
};

/// Probe-path tallies of task_cost_ctx, kept only for probes of E(T).
struct ProbeTally {
  std::uint64_t certified = 0;     ///< answered by the race certificate
  std::uint64_t race_skipped = 0;  ///< race candidate bit-equal to stretch
};

/// CorePower::exec_energy with the config reads hoisted; identical
/// operation order (power(s) * (work / s)).
inline double exec_energy_c(const SolveConsts& sc, double work, double s) {
  if (work <= 0.0) return 0.0;
  if (s <= 0.0) return kInf;
  return (sc.alpha + sc.beta * std::pow(s, sc.lambda)) * (work / s);
}

/// transition_task_cost over precomputed per-task constants (one SoA lane).
/// While the window fill stays at or below the critical speed the race
/// candidate's speed clamp resolves to min(s_m, s_up) independently of the
/// window, so its cost is the per-solve constant race_cost; only windows
/// tighter than w/s_m ("overloaded") still pay a pow here, and a fill under
/// the race certificate pays none. Bit-identical to the Task-based function
/// above.
inline double task_cost_ctx(const SolveConsts& sc, double work,
                            double race_run, double race_cost, double window,
                            double& run, double& speed,
                            ProbeTally* tally = nullptr) {
  run = 0.0;
  speed = 0.0;
  if (work <= 0.0) return 0.0;
  if (window <= 0.0) return kInf;
  const double fill = work / window;
  if (fill > sc.fill_cap) return kInf;
  if (fill <= sc.cert_speed) {
    if (tally) ++tally->certified;
    run = race_run;
    speed = work / race_run;
    return race_cost;
  }

  // Candidate 1: stretch to the window (the execution speed is the fill).
  double best_run = window;
  double best = exec_energy_c(sc, work, fill) +
                tail_cost(sc.alpha, sc.H - window, sc.xi);
  // Candidate 2: race at the (clamped) critical speed and sleep.
  if (sc.s_m > 0.0) {
    double r, c;
    if (fill <= sc.s_m) {
      r = race_run;
      c = race_cost;
    } else {
      r = work / std::min(fill, sc.s_up);
      if (r == window) {
        // Racing at the fill is stretching: the operands are the stretch
        // candidate's bit for bit, so c == best cannot win the strict `<`.
        if (tally) ++tally->race_skipped;
        c = best;
      } else {
        c = exec_energy_c(sc, work, work / r) +
            tail_cost(sc.alpha, sc.H - r, sc.xi);
      }
    }
    if (c < best) {
      best = c;
      best_run = r;
    }
  }
  run = best_run;
  speed = work / best_run;
  return best;
}

}  // namespace

double transition_task_cost(const Task& t, const SystemConfig& cfg, double H,
                            double window, double& run, double& speed) {
  run = 0.0;
  speed = 0.0;
  if (t.work <= 0.0) return 0.0;
  if (window <= 0.0) return kInf;
  const double fill = t.work / window;
  if (fill > cfg.core.max_speed() * (1.0 + 1e-12)) return kInf;

  auto cost_at = [&](double r) {
    const double s = t.work / r;
    return cfg.core.exec_energy(t.work, s) +
           tail_cost(cfg.core.alpha, H - r, cfg.core.xi);
  };

  // Candidate 1: stretch to the window.
  double best_run = window;
  double best = cost_at(window);
  // Candidate 2: race at the (clamped) critical speed and sleep.
  const double s_m = cfg.core.critical_speed_raw();
  if (s_m > 0.0) {
    const double s_race = std::min(std::max(s_m, fill), cfg.core.max_speed());
    const double r = t.work / s_race;
    const double c = cost_at(r);
    if (c < best) {
      best = c;
      best_run = r;
    }
  } else if (cfg.core.alpha <= 0.0) {
    // No static power: the tail is free; stretching is optimal (candidate 1).
  }
  run = best_run;
  speed = t.work / best_run;
  return best;
}

OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg,
                                              TransitionWorkspace& ws,
                                              bool validated) {
  SDEM_OBS_TIMER("transition/solve");
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release()) return res;
  if (!validated && !tasks.validate().empty()) return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const double release = tasks[0].release;
  double H = 0.0;
  for (const auto& t : tasks.tasks()) H = std::max(H, t.deadline - release);
  if (H <= 0.0) return res;

  SolveConsts sc;
  sc.H = H;
  sc.alpha = cfg.core.alpha;
  sc.beta = cfg.core.beta;
  sc.lambda = cfg.core.lambda;
  sc.xi = cfg.core.xi;
  sc.s_m = cfg.core.critical_speed_raw();
  sc.s_up = cfg.core.max_speed();
  sc.fill_cap = cfg.core.max_speed() * (1.0 + 1e-12);
  // Race certificate. With free core tails (no static power or zero
  // break-even) both candidates cost their exec energy alone, and that is
  // convex in the speed with its minimum at s_m. The race candidate runs
  // at s* = min(s_m, s_up); once the window fill sits below s* by a
  // relative margin, the stretch candidate's excess over it is at least
  // second order in the margin (~1e-10 relative), dwarfing the few-ulp
  // rounding of either side, so `c < best` picks the race with certainty
  // and the probe can return the cached race_cost without its pow. The
  // bound must sit under s_up too: with s_m > s_up, a fill a hair above
  // s_up (inside the fill_cap slack) is cheaper than the race at s_up.
  const bool tail_free = sc.alpha <= 0.0 || sc.xi <= 0.0;
  if (tail_free && sc.s_m > 0.0) {
    sc.cert_speed = std::min(sc.s_m, sc.s_up) * (1.0 - 1e-5);
  }
  const double alpha = sc.alpha;
  const double alpha_m = cfg.memory.alpha_m;
  const double xi_m = cfg.memory.xi_m;
  const double beta = sc.beta;
  const double lambda = sc.lambda;
  const double s_race = std::min(sc.s_m > 0.0 ? sc.s_m : sc.s_up, sc.s_up);

  // Per-task constants: the pow-bearing race candidate and the cost floor
  // are paid once here instead of once per golden-section probe. Stored as
  // SoA columns so the per-probe loops stream contiguously.
  const std::size_t n = tasks.size();
  ws.work.resize(n);
  ws.window_cap.resize(n);
  ws.race_run.resize(n);
  ws.race_cost.resize(n);
  ws.cost_floor.resize(n);
  double total_work = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks[i];
    ws.work[i] = t.work;
    ws.window_cap[i] = t.deadline - release;
    ws.race_run[i] = 0.0;
    ws.race_cost[i] = 0.0;
    total_work += t.work;
    if (sc.s_m > 0.0 && t.work > 0.0) {
      const double r = t.work / s_race;
      ws.race_run[i] = r;
      ws.race_cost[i] = exec_energy_c(sc, t.work, t.work / r) +
                        tail_cost(alpha, H - r, sc.xi);
    }
    // Execution energy is convex in the speed with its minimum at the
    // unclamped critical speed, and every tail term is nonnegative, so this
    // bounds the task's cost from below for every window. Only consulted by
    // the piece-skip test; never enters an energy value.
    ws.cost_floor[i] = (t.work > 0.0 && sc.s_m > 0.0)
                           ? exec_energy_c(sc, t.work, sc.s_m)
                           : 0.0;
  }
  const bool has_work = total_work > 0.0;

  // Probe accounting, flushed to the registry once per solve. A "probe" is
  // one evaluation of the total-energy objective E(T); live/replayed task
  // evals split each probe's inner loop by whether the per-task cost was
  // recomputed or served from the capped-cost cache. Counted at call entry
  // so the tallies are a pure function of the probe sequence.
  SDEM_OBS_ONLY(std::uint64_t obs_probes = 0; std::uint64_t obs_live = 0;
                std::uint64_t obs_replay = 0; std::uint64_t obs_pieces = 0;
                std::uint64_t obs_pruned = 0; std::uint64_t obs_cap_dl = 0;
                std::uint64_t obs_cap_race = 0;)
  ProbeTally tally;  // probe-path certificate hits and skipped candidates

  // Total energy as a function of the memory busy end T.
  auto energy = [&](double T) {
    SDEM_OBS_ONLY(++obs_probes; obs_live += n;)
    if (T <= 0.0) return has_work ? kInf : 0.0;
    double e = alpha_m * T + tail_cost(alpha_m, H - T, xi_m);
    for (std::size_t k = 0; k < n; ++k) {
      double run = 0.0, speed = 0.0;
      e += task_cost_ctx(sc, ws.work[k], ws.race_run[k], ws.race_cost[k],
                         std::min(T, ws.window_cap[k]), run, speed, &tally);
      if (!std::isfinite(e)) return kInf;
    }
    return e;
  };

  // E(T) is piecewise convex between breakpoints where some term changes
  // branch:
  //   * T = d_k            (task k's window stops growing),
  //   * T = knee_k = w_k / min(s_m, s_up)
  //                        (window-fill speed crosses the race speed),
  //   * T = H - xi_m, H - xi (tail gaps cross their break-even times),
  //   * T = tau_k          (stretch-and-idle crosses race-and-sleep: on the
  //     idle branch the stretch cost is beta w^l T^(1-l) + alpha H, so the
  //     crossing with the constant race cost is closed-form).
  // Within a piece every per-task term keeps one smooth convex branch and
  // the memory term is linear, so golden section per piece is exact.
  // Feasible domain: every task needs window min(T, d_k) >= w_k / s_up, so
  // T >= T_min = max_k w_k / s_up (deadlines already satisfy it). Searching
  // below T_min would walk golden sections into the +inf region.
  double t_min = 0.0;
  if (std::isfinite(sc.s_up)) {
    for (std::size_t k = 0; k < n; ++k) {
      t_min = std::max(t_min, ws.work[k] / sc.s_up);
    }
  }

  auto& edges = ws.edges;
  edges.clear();
  auto add = [&](double T) {
    if (T > t_min && T < H) edges.push_back(T);
  };
  add(H - sc.xi);
  add(H - xi_m);
  for (std::size_t k = 0; k < n; ++k) {
    const double w = ws.work[k];
    if (w <= 0.0) continue;
    add(ws.window_cap[k]);
    if (sc.s_m > 0.0) {
      add(w / s_race);  // knee
      // Idle-branch crossing tau_k (only meaningful when alpha > 0).
      if (alpha > 0.0 && std::isfinite(s_race)) {
        const double run = w / s_race;
        const double race_cost = exec_energy_c(sc, w, s_race) +
                                 std::min(alpha * (H - run), alpha * sc.xi);
        const double rhs = race_cost - alpha * H;
        if (rhs > 0.0) {
          add(std::pow(beta * std::pow(w, lambda) / rhs,
                       1.0 / (lambda - 1.0)));
        }
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges.insert(edges.begin(), t_min);
  edges.push_back(H);

  // The skip test below needs E(T) >= lb on each piece, which holds when the
  // memory term grows with T and the exec floor really is a floor
  // (lambda > 1).
  const bool can_prune = alpha_m >= 0.0 && lambda > 1.0;

  // Per-piece, per-task probe mode. 0 = evaluate live; nonzero = the cost is
  // T-independent on this and every later piece and capped_cost replays it:
  //   1 = window capped by the deadline (cap <= lo),
  //   2 = certified race winner (fill <= sc.cert_speed across the piece).
  // Both conditions are monotone in lo, so modes only ever ratchet up.
  ws.capped.assign(n, 0);
  ws.capped_cost.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (ws.work[k] <= 0.0) ws.capped[k] = 1;
  }

  // Batched-probe tables, rebuilt once per piece. The ratcheted capped
  // state is a left-to-right artifact, but each cached value is
  // T-independent and tied only to the piece's own lower edge: a task is
  // deadline-capped on a piece iff window_cap <= lo (cost = the mode-1
  // capped_cost), race-certified iff its fill at lo clears the margin
  // (cost = race_cost; when both hold the two caches agree bit-for-bit,
  // since below the margin task_cost_ctx returns the race candidate). So a
  // piece's probe table can be rebuilt for ANY piece after the ratchet has
  // run, which is what lets the scan below visit pieces in bound order
  // instead of left to right.
  ws.live.clear();
  ws.live.reserve(n);
  ws.probe_cost.assign(n, 0.0);
  const auto rebuild_piece_tables = [&](double lo) {
    ws.live.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (ws.work[k] <= 0.0) {
        ws.probe_cost[k] = 0.0;
      } else if (ws.window_cap[k] <= lo) {
        ws.probe_cost[k] = ws.capped_cost[k];
      } else if (lo > 0.0 && ws.work[k] / lo <= sc.cert_speed) {
        ws.probe_cost[k] = ws.race_cost[k];
      } else {
        ws.live.push_back(static_cast<std::uint32_t>(k));
      }
    }
  };

  // Same value sequence as `energy`: the cached costs replay bit-for-bit
  // what task_cost_ctx would return. A probe recomputes only the live
  // lanes' entries of probe_cost, then accumulates every task in index
  // order with the finiteness check after each add — exactly the pre-SoA
  // interleaved loop's values and order.
  auto energy_piece = [&](double T) {
    SDEM_OBS_ONLY(++obs_probes; obs_replay += n - ws.live.size();
                  obs_live += ws.live.size();)
    if (T <= 0.0) return has_work ? kInf : 0.0;
    double e = alpha_m * T + tail_cost(alpha_m, H - T, xi_m);
    for (const std::uint32_t k : ws.live) {
      double run = 0.0, speed = 0.0;
      ws.probe_cost[k] =
          task_cost_ctx(sc, ws.work[k], ws.race_run[k], ws.race_cost[k],
                        std::min(T, ws.window_cap[k]), run, speed, &tally);
    }
    for (std::size_t k = 0; k < n; ++k) {
      e += ws.probe_cost[k];
      if (!std::isfinite(e)) return kInf;
    }
    return e;
  };

  double best_T = H;
  double best = energy(H);
  // Pass 1, left to right: ratchet the capped caches exactly as the line
  // searches would have seen them and record each piece's lower bound, term
  // by term, each a floor of that term over the piece up to a few ulp:
  //   * memory: alpha_m T + min(alpha_m (H-T), alpha_m xi_m) =
  //     min(alpha_m H, alpha_m (T + xi_m)) is nondecreasing in T, so its
  //     value at lo;
  //   * cached tasks: their exact T-independent cost;
  //   * live tasks whose cost is nonincreasing in the window over the
  //     piece: the cost at the piece's widest window min(hi, cap). Below
  //     the critical speed faster is cheaper, so this holds wherever the
  //     fill stays at or above s_m (w >= s_m min(hi, cap): both candidates
  //     are the stretch, whose exec and tail both fall as the window
  //     grows); with s_m <= 0 (no race: exec rises with the speed, no
  //     static tail); and with s_m >= s_up (the race at s_up is the
  //     stretch to w/s_up, and stretching further only costs more, so the
  //     cost is the constant race_cost);
  //   * other live tasks: the convexity floor cost_floor.
  ws.piece_lb.assign(edges.size(), 0.0);  // indexed by lower-edge position
  ws.piece_order.clear();
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const double lo = edges[i], hi = edges[i + 1];
    if (hi <= lo) continue;
    for (std::size_t k = 0; k < n; ++k) {
      if (ws.capped[k] != 1 && ws.window_cap[k] <= lo) {
        double run = 0.0, speed = 0.0;
        ws.capped_cost[k] =
            task_cost_ctx(sc, ws.work[k], ws.race_run[k], ws.race_cost[k],
                          ws.window_cap[k], run, speed);
        SDEM_OBS_ONLY(++obs_cap_dl;)
        ws.capped[k] = 1;
      } else if (ws.capped[k] == 0 && lo > 0.0 &&
                 ws.work[k] / lo <= sc.cert_speed) {
        ws.capped_cost[k] = ws.race_cost[k];
        ws.capped[k] = 2;
        SDEM_OBS_ONLY(++obs_cap_race;)
      }
    }
    SDEM_OBS_ONLY(++obs_pieces;)
    double lb = -kInf;
    if (can_prune) {
      lb = alpha_m * lo + tail_cost(alpha_m, H - lo, xi_m);
      for (std::size_t k = 0; k < n; ++k) {
        if (ws.capped[k]) {
          lb += ws.capped_cost[k];
          continue;
        }
        const double widest = std::min(hi, ws.window_cap[k]);
        if (sc.s_m <= 0.0 || sc.s_m >= sc.s_up ||
            ws.work[k] >= sc.s_m * widest) {
          double run = 0.0, speed = 0.0;
          lb += task_cost_ctx(sc, ws.work[k], ws.race_run[k],
                              ws.race_cost[k], widest, run, speed);
        } else {
          lb += ws.cost_floor[k];
        }
      }
    }
    ws.piece_order.push_back(static_cast<std::uint32_t>(i));
    ws.piece_lb[i] = lb;
  }
  // Pass 2: best-first branch and bound over the pieces. Bounds sorted
  // ascending, and the first piece whose bound — minus a 1e-12 relative
  // shave for the few-ulp slack the floors and the differently-shaped base
  // expression may carry — fails to strictly beat the best value found so
  // far ends the scan: every later piece is bounded even higher. The
  // evaluation ORDER must not leak into the result, though: distinct T can
  // tie in energy bit-for-bit (flat pieces under degenerate powers), and
  // the left-to-right scan resolves such ties by first arrival. So this
  // pass only records each searched piece's three candidates, and the
  // incumbent fold below replays them in left-to-right order with the
  // original strict `<`. Skipped pieces cannot affect that fold: each term
  // of lb floors its term over the piece up to a few ulp (pass 1), so
  // their probes sit above lb minus a few ulp, and the 1e-12 shave is orders of
  // magnitude wider, so every skipped candidate is strictly above the
  // final best — bit-identical results, piece count independent. Exotic
  // parameter sets (can_prune false: the floors don't hold) keep every
  // bound at -inf, which keeps the left-to-right order and searches every
  // piece. The order is a stable insertion sort by bound: a solve has few
  // pieces, and std::stable_sort would allocate its buffer every solve.
  if (can_prune) {
    auto& order = ws.piece_order;
    for (std::size_t a = 1; a < order.size(); ++a) {
      const std::uint32_t x = order[a];
      std::size_t b = a;
      for (; b > 0 && ws.piece_lb[x] < ws.piece_lb[order[b - 1]]; --b) {
        order[b] = order[b - 1];
      }
      order[b] = x;
    }
  }
  ws.searched.clear();
  double best_seen = best;  // value-only incumbent for the stop test
  for (std::size_t j = 0; j < ws.piece_order.size(); ++j) {
    const std::uint32_t i = ws.piece_order[j];
    const double lb = ws.piece_lb[i];
    if (can_prune && lb - 1e-12 * std::abs(lb) >= best_seen) {
      SDEM_OBS_ONLY(obs_pruned += ws.piece_order.size() - j;)
      break;
    }
    const double lo = edges[i], hi = edges[i + 1];
    rebuild_piece_tables(lo);
    const double t = golden_min_t(energy_piece, lo, hi, 1e-13);
    TransitionWorkspace::SearchedPiece pc;
    pc.idx = i;
    pc.t[0] = t;
    pc.t[1] = lo;
    pc.t[2] = hi;
    for (int m = 0; m < 3; ++m) {
      pc.e[m] = energy_piece(pc.t[m]);
      best_seen = std::min(best_seen, pc.e[m]);
    }
    ws.searched.push_back(pc);
  }
  std::sort(ws.searched.begin(), ws.searched.end(),
            [](const TransitionWorkspace::SearchedPiece& x,
               const TransitionWorkspace::SearchedPiece& y) {
              return x.idx < y.idx;
            });
  for (const TransitionWorkspace::SearchedPiece& pc : ws.searched) {
    for (int m = 0; m < 3; ++m) {
      if (pc.e[m] < best) {
        best = pc.e[m];
        best_T = pc.t[m];
      }
    }
  }
  SDEM_OBS_INC("transition/solves");
  SDEM_OBS_COUNT("transition/tasks", n);
  SDEM_OBS_COUNT("transition/probes", obs_probes);
  SDEM_OBS_COUNT("transition/task_evals_live", obs_live);
  SDEM_OBS_COUNT("transition/task_evals_cached", obs_replay);
  SDEM_OBS_COUNT("transition/task_evals_certified", tally.certified);
  SDEM_OBS_COUNT("transition/race_candidates_skipped", tally.race_skipped);
  SDEM_OBS_COUNT("transition/pieces", obs_pieces);
  SDEM_OBS_COUNT("transition/pieces_pruned", obs_pruned);
  SDEM_OBS_COUNT("transition/tasks_capped_deadline", obs_cap_dl);
  SDEM_OBS_COUNT("transition/tasks_capped_race", obs_cap_race);
  if (!std::isfinite(best)) return res;

  res.feasible = true;
  res.energy = best;
  res.sleep_time = H - best_T;
  SDEM_OBS_DIST("transition/sleep_time_s", res.sleep_time);
  int core = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks[i];
    double run = 0.0, speed = 0.0;
    task_cost_ctx(sc, ws.work[i], ws.race_run[i], ws.race_cost[i],
                  std::min(best_T, ws.window_cap[i]), run, speed);
    if (t.work > 0.0) {
      res.schedule.add(Segment{t.id, core, release, release + run, speed});
    }
    ++core;
  }
  return res;
}

OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg) {
  TransitionWorkspace ws;
  return solve_common_release_transition(tasks, cfg, ws, /*validated=*/false);
}

}  // namespace sdem
