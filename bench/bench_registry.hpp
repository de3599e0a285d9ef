// Named-experiment registry for the paper's evaluation (§8).
//
// Each figure/table sweep registers here as an Experiment: a name
// ("fig6a"), the paper item it reproduces, and a run() callback that
// executes the sweep — in parallel across seeds when RunOptions.pool is set
// — and returns both the human-readable tables and a structured JSON
// payload with full-precision per-seed metrics.
//
// tools/sdem_bench_runner.cpp runs any subset (--filter, --seeds, --jobs),
// prints the tables and writes BENCH_<name>.json (schema in
// docs/benchmarks.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "support/json.hpp"

namespace sdem::bench {

struct RunOptions {
  int seeds = 0;               ///< seeds per point (Experiment::options)
  ThreadPool* pool = nullptr;  ///< null → serial reference execution
};

struct ExperimentResult {
  std::string header_title;  ///< first print_header line
  std::string header_what;   ///< second print_header line
  std::vector<Table> tables;
  std::vector<std::string> footers;  ///< lines printed after the tables
  Json data;                         ///< experiment-specific JSON payload
  double solver_seconds_total = 0.0;  ///< sum of per-seed run_comparison time
};

struct Experiment {
  std::string name;         ///< registry key, e.g. "fig6a"
  std::string paper_item;   ///< "Fig. 6a", "Table 4", ...
  std::string description;  ///< one line, shown by --list
  int default_seeds = 10;
  std::function<ExperimentResult(const RunOptions&)> run;

  /// The options run() takes: `seeds` per point, or default_seeds when 0.
  RunOptions options(int seeds, ThreadPool* pool) const {
    return {seeds > 0 ? seeds : default_seeds, pool};
  }
};

/// All registered experiments, in registration (paper) order.
const std::vector<Experiment>& all_experiments();

/// Exact-name lookup; null when absent.
const Experiment* find_experiment(const std::string& name);

/// Comma-separated case-sensitive substring filter against the names;
/// empty or "all" matches everything. Preserves registration order.
std::vector<const Experiment*> match_experiments(const std::string& filter);

/// Print an experiment's result: header, tables (text + CSV), footers.
void print_result(const ExperimentResult& r);

/// printf-style formatting into a std::string (for footers).
std::string strf(const char* fmt, ...);

/// Full-precision JSON rendering of one seed's comparison — the
/// bit-identical payload the determinism acceptance check diffs.
Json seed_comparison_json(const SeedComparison& sc);

/// Shared fold: per-seed array + total solver seconds onto `row`.
void attach_seeds(Json& row, const std::vector<SeedComparison>& seeds,
                  double* solver_seconds_total);

/// r.data = {"params": params, "rows": rows}, the payload most sweeps share.
void set_data(ExperimentResult& r, Json params, Json rows);

/// A JSON array of `xs`, in order.
template <typename Range>
Json json_array(const Range& xs) {
  Json arr = Json::array();
  for (const auto& x : xs) arr.push_back(Json(x));
  return arr;
}

/// `data` as `--stable` writes it: without the per-seed "solver_seconds"
/// timings and "counters" attribution, so the bytes match at any --jobs.
Json stable_data(const Json& data);

/// The cells of a points x seeds sweep, point-major like parallel_for_grid,
/// each with the wall time it took on the thread that ran it.
template <typename Cell>
struct TimedGrid {
  int seeds = 0;
  std::vector<Cell> cells;
  std::vector<double> seconds;

  const Cell& at(std::size_t point, int seed_index) const {
    return cells[point * static_cast<std::size_t>(seeds) +
                 static_cast<std::size_t>(seed_index)];
  }

  /// Fold `points` consecutive points from `first` in seed order:
  /// fn(cell, json) adds each cell's own fields to a per-seed object that
  /// starts with "seed" and ends with "solver_seconds". Returns the array.
  template <typename Fn>
  Json per_seed(std::size_t first, Fn&& fn, std::size_t points = 1) const {
    Json arr = Json::array();
    const std::size_t n = static_cast<std::size_t>(seeds);
    for (std::size_t i = first * n; i < (first + points) * n; ++i) {
      Json j = Json::object();
      j.set("seed", static_cast<std::uint64_t>(i % n + 1));
      fn(cells[i], j);
      j.set("solver_seconds", seconds[i]);
      arr.push_back(std::move(j));
    }
    return arr;
  }
};

/// Run fn(cell, point, seed) for every cell of a `points` x opt.seeds grid
/// (on opt.pool when set), timing each cell, and add the cells' time in
/// point-major order to r.solver_seconds_total.
template <typename Cell, typename Fn>
TimedGrid<Cell> run_timed_grid(const RunOptions& opt, int points,
                               ExperimentResult& r, Fn&& fn) {
  TimedGrid<Cell> g;
  g.seeds = opt.seeds;
  const std::size_t total = static_cast<std::size_t>(points) *
                            static_cast<std::size_t>(opt.seeds);
  g.cells.resize(total);
  g.seconds.resize(total);
  parallel_for_grid(opt.pool, points, opt.seeds,
                    [&](std::size_t point, std::uint64_t seed, std::size_t i) {
                      const auto t0 = std::chrono::steady_clock::now();
                      fn(g.cells[i], point, seed);
                      g.seconds[i] = std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() - t0)
                                         .count();
                    });
  for (double s : g.seconds) r.solver_seconds_total += s;
  return g;
}

}  // namespace sdem::bench
