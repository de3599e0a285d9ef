// sweep_online and sweep_offline: the evaluation sweeps run serially, each
// result checked bit-exact against golden.txt.
//
// Inputs come from a fixed pool so that golden.txt can hold every answer:
// each cell (or solver family and size) owns kPool instance seeds, and the
// run seed picks some of them per cell. The same run seed always picks the
// same instances; different seeds give different sweeps of equal shape.
//
// The untraced run repeats the sweep, rotating its passes over the CPUs,
// and keeps each operation's fastest pass: the host runs each CPU at its own
// speed, which changes by up to 2x for seconds at a time, and the fastest
// of many passes is the figure that repeats (README.md, "Steadiness").
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "core/agreeable.hpp"
#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "sim/metrics.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using sdem::SystemConfig;
using sdem::TaskSet;

constexpr int kPool = 24;  ///< instance seeds per cell in golden.txt
/// Instances a run picks per cell. Online: 1024 operations, so op_p99_ms
/// keeps ten beyond it. Offline: enough solves per size that the seed's
/// pick moves op_p50_ms and op_p99_ms by a few percent only.
constexpr int kPick = 16;

// ------------------------------------------------------------ bit hashing

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t hash_comparison(const sdem::Comparison& c) {
  Fnv f;
  for (const sdem::PolicyEval* e : {&c.mbkp, &c.mbkps, &c.sdem}) {
    f.add(e->energy.system_total());
    f.add(e->energy.memory_total());
    f.add(e->memory_sleep_time);
    f.add(static_cast<std::uint64_t>(e->deadline_misses));
    f.add(static_cast<std::uint64_t>(e->unfinished));
  }
  return f.h;
}

std::uint64_t hash_offline(const sdem::OfflineResult& r) {
  Fnv f;
  f.add(r.energy);
  f.add(r.sleep_time);
  f.add(static_cast<std::uint64_t>(r.case_index));
  f.add(static_cast<std::uint64_t>(r.feasible));
  f.add(static_cast<std::uint64_t>(r.schedule.segments().size()));
  return f.h;
}

// ------------------------------------------------------------ the grids

/// One unit of sweep work: an instance, its solver, and its golden key.
struct Op {
  std::string key;  ///< "<family> <param> <param> <pool seed>"
  int family = 0;   ///< index into the workload's solver list
  TaskSet tasks;
  const SystemConfig* cfg = nullptr;
};

/// Which k of the kPool seeds a run uses for one cell.
std::vector<int> pick(std::uint64_t run_seed, std::uint64_t cell, int pool,
                      int k) {
  std::vector<int> idx(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) idx[static_cast<std::size_t>(i)] = i;
  std::uint64_t s = mix64(run_seed * 0x100000001b3ULL + cell);
  for (int i = pool - 1; i > 0; --i) {
    s = mix64(s);
    std::swap(idx[static_cast<std::size_t>(i)],
              idx[static_cast<std::size_t>(s % static_cast<std::uint64_t>(i + 1))]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

/// Fig. 7a: alpha_m in 1..8 W x x in 100..800 ms, 120 synthetic tasks.
/// (The paper averages 10 instances per cell; more instances give the
/// percentiles enough operations.)
struct OnlineGrid {
  std::vector<SystemConfig> cfgs;  ///< per alpha_m level
  OnlineGrid() {
    for (int level = 1; level <= 8; ++level) {
      SystemConfig cfg = SystemConfig::paper_default();
      cfg.memory.alpha_m = level;
      cfgs.push_back(cfg);
    }
  }
  /// All cells; `pool_seeds(cell)` says which instances to build.
  std::vector<Op> ops(const std::function<std::vector<int>(int)>& seeds) const {
    std::vector<Op> out;
    for (int level = 1; level <= 8; ++level) {
      for (int x = 100; x <= 800; x += 100) {
        const int cell = (level - 1) * 8 + x / 100 - 1;
        for (int ps : seeds(cell)) {
          sdem::SyntheticParams p;
          p.num_tasks = 120;
          p.max_interarrival = x / 1000.0;
          Op op;
          op.key = "online " + std::to_string(level) + " " +
                   std::to_string(x) + " " + std::to_string(ps);
          op.tasks = sdem::make_synthetic(
              p, static_cast<std::uint64_t>(ps) * 10007 + level * 31 + x);
          op.cfg = &cfgs[static_cast<std::size_t>(level - 1)];
          out.push_back(std::move(op));
        }
      }
    }
    return out;
  }
};

/// The offline schemes: the agreeable DP (section 5) at alpha = 0 and
/// alpha != 0 across n, plus the common-release schemes (section 4) at
/// large n. (The section 7 transition solve is exercised by every SDEM-ON
/// replan in sweep_online.) Sizes step evenly so that solve times spread
/// smoothly and op_p50_ms does not sit on a jump between two sizes.
enum OfflineFamily {
  kAgreeableAlpha0,
  kAgreeableAlpha,
  kCommonAlpha0,
  kCommonAlpha,
  kOfflineFamilies
};
const char* const kOfflineNames[] = {"agree0", "agreeA", "common0",
                                     "commonA"};
const int kAgreeableN[] = {8, 12, 16, 20, 24, 28, 32, 36, 40};
constexpr int kCommonN = 4000;

struct OfflineGrid {
  SystemConfig cfg0, cfga;
  OfflineGrid() {
    cfg0 = SystemConfig::paper_default_alpha0();
    cfg0.memory.xi_m = 0.0;
    cfga = SystemConfig::paper_default();
    cfga.memory.xi_m = 0.0;
  }
  std::vector<Op> ops(const std::function<std::vector<int>(int)>& seeds) const {
    std::vector<Op> out;
    int cell = 0;
    for (int fam = kAgreeableAlpha0; fam <= kAgreeableAlpha; ++fam) {
      for (int n : kAgreeableN) {
        for (int ps : seeds(cell)) {
          Op op;
          op.key = std::string(kOfflineNames[fam]) + " " + std::to_string(n) +
                   " " + std::to_string(ps);
          op.family = fam;
          op.tasks = sdem::make_agreeable(
              n, static_cast<std::uint64_t>(ps) * 7919 + n, 0.060);
          op.cfg = fam == kAgreeableAlpha0 ? &cfg0 : &cfga;
          out.push_back(std::move(op));
        }
        ++cell;
      }
    }
    for (int fam = kCommonAlpha0; fam < kOfflineFamilies; ++fam) {
      for (int ps : seeds(cell)) {
        Op op;
        op.key = std::string(kOfflineNames[fam]) + " " +
                 std::to_string(kCommonN) + " " + std::to_string(ps);
        op.family = fam;
        op.tasks = sdem::make_common_release(
            kCommonN, 0.0, static_cast<std::uint64_t>(ps) * 104729 + fam);
        op.cfg = fam == kCommonAlpha0 ? &cfg0 : &cfga;
        out.push_back(std::move(op));
      }
      ++cell;
    }
    return out;
  }
};

sdem::OfflineResult solve_offline(const Op& op) {
  switch (op.family) {
    case kAgreeableAlpha0:
    case kAgreeableAlpha:
      return sdem::solve_agreeable(op.tasks, *op.cfg);
    case kCommonAlpha0:
      return sdem::solve_common_release_alpha0(op.tasks, *op.cfg);
    default:
      return sdem::solve_common_release_alpha(op.tasks, *op.cfg);
  }
}

// ------------------------------------------------------------ golden file

std::map<std::string, std::uint64_t> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden file " + path);
  std::map<std::string, std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = std::stoull(line.substr(sp + 1), nullptr, 16);
  }
  return out;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// ------------------------------------------------------------ traced passes

/// run_comparison rebuilt from simulate() + evaluate_policy() with timed
/// policies, so the layers below the comparison show.
struct OnlineTrace {
  sdem::MbkpPolicy mbkp_inner;
  sdem::SdemOnPolicy sdem_inner;
  TimedPolicy mbkp{mbkp_inner};
  TimedPolicy sdem{sdem_inner};
  std::vector<double> simulate_s;  ///< per pass: total simulate() time
  std::vector<double> eval_us;
  double pass_simulate_s = 0.0;

  sdem::Comparison compare(const TaskSet& ts, const SystemConfig& cfg) {
    using sdem::SleepDiscipline;
    sdem::Comparison cmp;
    std::uint64_t t0 = now_ns();
    const sdem::SimResult mbkp_sim = sdem::simulate(ts, cfg, mbkp);
    pass_simulate_s += seconds_since(t0);
    t0 = now_ns();
    cmp.mbkp = sdem::evaluate_policy(mbkp_sim, cfg, SleepDiscipline::kNever,
                                     "MBKP");
    eval_us.push_back(seconds_since(t0) * 1e6);
    t0 = now_ns();
    cmp.mbkps = sdem::evaluate_policy(mbkp_sim, cfg,
                                      SleepDiscipline::kOptimal, "MBKPS");
    eval_us.push_back(seconds_since(t0) * 1e6);
    t0 = now_ns();
    const sdem::SimResult sdem_sim = sdem::simulate(ts, cfg, sdem);
    pass_simulate_s += seconds_since(t0);
    t0 = now_ns();
    cmp.sdem = sdem::evaluate_policy(sdem_sim, cfg,
                                     SleepDiscipline::kOptimal, "SDEM-ON");
    eval_us.push_back(seconds_since(t0) * 1e6);
    return cmp;
  }
};

}  // namespace

Report run_sweep(const Args& a) {
  const bool online = a.workload == "sweep_online";
  Report r;
  const auto golden = load_golden(a.golden);
  const auto seeds = [&a](int cell) {
    return pick(a.seed, static_cast<std::uint64_t>(cell), kPool, kPick);
  };

  // Set-up: building the sweep's inputs. It takes milliseconds, so it is
  // repeated before every timed pass as well and the median is reported.
  const OnlineGrid ogrid;
  const OfflineGrid fgrid;
  std::vector<Op> ops;
  std::vector<double> gen_s;
  const auto build = [&] {
    const std::uint64_t t0 = now_ns();
    ops = online ? ogrid.ops(seeds) : fgrid.ops(seeds);
    gen_s.push_back(seconds_since(t0));
  };
  for (int rep = 0; rep < 3; ++rep) build();

  CheckResult check;
  const auto verify = [&](const Op& op, std::uint64_t h) {
    ++check.attempted;
    const auto it = golden.find(op.key);
    if (it == golden.end() || it->second != h) {
      ++check.failed;
      if (check.first_error.empty()) {
        check.first_error = op.key + ": energy hash " + hex(h) + ", want " +
                            (it == golden.end() ? "<none>" : hex(it->second));
      }
    }
  };

  // One untimed pass warms caches and the allocator, and is checked too.
  sdem::ComparisonScratch scratch;
  const auto solve = [&](const Op& op) {
    return online ? hash_comparison(
                        sdem::run_comparison(op.tasks, *op.cfg, scratch))
                  : hash_offline(solve_offline(op));
  };
  const auto run_op = [&](const Op& op) { verify(op, solve(op)); };
  for (const Op& op : ops) run_op(op);

  const std::uint64_t start = now_ns();
  if (!a.trace) {
    // Every pass is checked; each operation keeps its fastest time, and
    // the passes take turns on the CPUs.
    std::vector<double> pass_s;
    std::vector<double> best_ms(ops.size(),
                                std::numeric_limits<double>::infinity());
    while (pass_s.size() < 3 || seconds_since(start) < a.seconds) {
      pin_next_cpu();
      build();
      const std::uint64_t p0 = now_ns();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const std::uint64_t t0 = now_ns();
        const std::uint64_t h = solve(ops[i]);
        best_ms[i] = std::min(best_ms[i], seconds_since(t0) * 1e3);
        verify(ops[i], h);
      }
      pass_s.push_back(seconds_since(p0));
    }
    r.set("setup_s", *std::min_element(gen_s.begin(), gen_s.end()), "s");
    r.extra.set("setup_median_s", median(gen_s));
    r.set("wall_s",
          std::accumulate(best_ms.begin(), best_ms.end(), 0.0) * 1e-3, "s");
    r.set("op_p50_ms", quantile(best_ms, 0.5), "ms");
    r.set("op_p99_ms", quantile(best_ms, 0.99), "ms");
    r.set("peak_rss_mb", peak_rss_mb(0), "MB");
    r.extra.set("ops_per_pass", static_cast<std::uint64_t>(ops.size()));
    r.extra.set("pass_s", to_json(pass_s));
    r.add(check);
    return r;
  }

  // Traced run: untraced and traced passes alternate, so the overhead
  // ratio compares passes taken under the same conditions.
  set_layer_defaults(r);
  r.set("workload.generate_s", median(gen_s), "s");
  std::vector<double> plain_s, traced_s;
  OnlineTrace ot;
  std::vector<double> self_s, share, agree_ms, common_ms, agree_share;
  std::uint64_t agree_solves = 0;
  const auto tc0 = TransitionCounters::read();
  const sdem::obs::Snapshot snap0 = sdem::obs::Registry::instance().snapshot();
  while (traced_s.size() < 2 || seconds_since(start) < a.seconds) {
    std::uint64_t p0 = now_ns();
    for (const Op& op : ops) run_op(op);
    plain_s.push_back(seconds_since(p0));

    p0 = now_ns();
    const double replan_before = ot.mbkp.total_s + ot.sdem.total_s;
    const double sdem_before = ot.sdem.total_s;
    double agree_total = 0.0;
    ot.pass_simulate_s = 0.0;
    for (const Op& op : ops) {
      if (online) {
        verify(op, hash_comparison(ot.compare(op.tasks, *op.cfg)));
        continue;
      }
      const std::uint64_t t0 = now_ns();
      const sdem::OfflineResult res = solve_offline(op);
      const double ms = seconds_since(t0) * 1e3;
      if (op.family <= kAgreeableAlpha) {
        agree_ms.push_back(ms);
        agree_total += ms * 1e-3;
        ++agree_solves;
      } else {
        common_ms.push_back(ms);
      }
      verify(op, hash_offline(res));
    }
    const double wall = seconds_since(p0);
    traced_s.push_back(wall);
    if (online) {
      const double replans = ot.mbkp.total_s + ot.sdem.total_s - replan_before;
      self_s.push_back(ot.pass_simulate_s - replans);
      share.push_back((ot.sdem.total_s - sdem_before) / ot.pass_simulate_s);
    } else {
      agree_share.push_back(agree_total / wall);
    }
  }
  r.set("bench.trace_overhead_x", median(traced_s) / median(plain_s),
        "ratio");
  if (online) {
    report_sdem_replans(r, ot.sdem.replan_us, ot.sdem.pending);
    r.set("core.sdem_replan_calls",
          static_cast<double>(ot.sdem.replan_us.size()) /
              static_cast<double>(traced_s.size()),
          "count");
    r.set("core.sdem_replan_share", median(share), "ratio");
    TransitionCounters::read().since(tc0).report(r);
    r.set("baseline.mbkp_replan_us_p50", quantile(ot.mbkp.replan_us, 0.5),
          "us");
    r.set("sim.simulate_self_s", median(self_s), "s");
    r.set("sched.evaluate_policy_us_p50", quantile(ot.eval_us, 0.5), "us");
  } else {
    const sdem::obs::Snapshot snap =
        sdem::obs::Registry::instance().snapshot();
    const auto delta = [&](const char* name) -> double {
      const std::uint64_t* now = snap.counter(name);
      const std::uint64_t* was = snap0.counter(name);
      return static_cast<double>((now ? *now : 0) - (was ? *was : 0));
    };
    // Counters cover the plain passes too; both ran the same solves.
    const double solves = 2.0 * static_cast<double>(agree_solves);
    const double opened = delta("block/boxes_opened");
    const double pruned = delta("block/boxes_pruned_infeasible") +
                          delta("block/boxes_pruned_lower_bound");
    r.set("core.agreeable_solve_ms_p50", quantile(agree_ms, 0.5), "ms");
    r.set("core.agreeable_share", median(agree_share), "ratio");
    r.set("core.common_release_solve_ms_p50", quantile(common_ms, 0.5), "ms");
    r.set("core.block_probes_per_solve",
          solves > 0 ? delta("block/probes") / solves : 0.0, "count");
    r.set("core.block_boxes_pruned_frac",
          opened + pruned > 0 ? pruned / (opened + pruned) : 0.0, "ratio");
  }
  r.extra.set("traced_passes", static_cast<std::uint64_t>(traced_s.size()));
  r.add(check);
  return r;
}

int record_golden() {
  std::printf(
      "# Bit-exact sweep results, recorded by `perfbench record`: one line\n"
      "# per pooled instance, FNV-1a over the result's energy bits.\n");
  const auto all = [](int) {
    std::vector<int> v;
    for (int i = 0; i < kPool; ++i) v.push_back(i);
    return v;
  };
  sdem::ComparisonScratch scratch;
  const OnlineGrid ogrid;  // ops point into the grids' configs
  for (const Op& op : ogrid.ops(all)) {
    std::printf("%s %s\n", op.key.c_str(),
                hex(hash_comparison(
                        sdem::run_comparison(op.tasks, *op.cfg, scratch)))
                    .c_str());
  }
  const OfflineGrid fgrid;
  for (const Op& op : fgrid.ops(all)) {
    std::printf("%s %s\n", op.key.c_str(),
                hex(hash_offline(solve_offline(op))).c_str());
  }
  return 0;
}

}  // namespace perfbench
