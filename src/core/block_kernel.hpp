// Per-task window-energy kernel of the block solver.
//
// BlockContext classifies a box's tasks into window classes and evaluates
// the few "dynamic" (window-varying) lanes with this kernel once per probe,
// inline, reducing the lane values serially in task order. It is the single
// source of truth for one lane's value: setup_box's feasibility and bound
// probes, the line-search primes and every probe call the same function,
// so a lane's value cannot depend on which path computed it.
#pragma once

#include <cmath>
#include <limits>

namespace sdem {

/// Same relative slack block_energy_at grants optima sitting exactly on
/// the s_up boundary; shared so feasibility decisions cannot flip between
/// the fast and the exact path.
inline constexpr double kBlockUpSlack = 1.0 + 1e-9;

/// Per-block constants of the kernel (hoisted once per BlockContext).
struct BlockKernelConsts {
  double alpha = 0.0;    ///< core static power
  double lambda = 3.0;   ///< dynamic-power exponent
  double s_m_raw = 0.0;  ///< unclamped critical speed
  double s_up = 0.0;     ///< max speed (+inf when unbounded)
};

/// W^(1-lambda), pow-free for λ ∈ {2, 3}.
inline double block_window_power(double w_pos, double lambda) {
  if (lambda == 3.0) return 1.0 / (w_pos * w_pos);
  if (lambda == 2.0) return 1.0 / w_pos;
  return std::pow(w_pos, 1.0 - lambda);
}

/// One task's energy over one window: task_window_energy's regimes with the
/// per-task constants hoisted (sigma = min(max(s_m, w/W), s_up)).
inline double block_piece_scalar(const BlockKernelConsts& c, double w,
                                 double q, double wpow, double e_race,
                                 double e_up, double window) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(window > 0.0)) return kInf;
  // Regime tests in multiplied form (w ⋚ s·W rather than w/W ⋚ s): the race
  // regime — where golden-section probes spend most of their iterations —
  // then needs no division at all. The two forms can only disagree when
  // w/W rounds onto the regime boundary, where the energy curve is
  // continuous (race and fill values meet at the knee), so a flip would be
  // ulp-sized; the golden-file and fast-vs-reference tests pin that none
  // occurs.
  if (w < c.s_m_raw * window) {  // race regime: sigma pins at min(s_m, s_up)
    if (q > window * kBlockUpSlack) return kInf;
    return e_race;
  }
  if (w > c.s_up * window) {  // clamped at s_up (feasible in the slack sliver)
    if (q > window * kBlockUpSlack) return kInf;
    return e_up;
  }
  // Fill regime: exec_energy(w, w/W) = alpha*W + beta*w^lambda*W^(1-lambda).
  return c.alpha * window + wpow * block_window_power(window, c.lambda);
}

}  // namespace sdem
