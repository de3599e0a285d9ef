// Shared pieces of the benchmark program: the percentile rule, the rate
// ladder behind service.tcp_max_rate_rps, the per-connection response check, /proc
// readers and the metric report. Pure logic lives here so that
// tests/selftest.cpp can pin it on synthetic input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Ten-beyond rule: quantile q of n samples is reportable only when at
/// least ten samples lie beyond it (p99 needs 1000 samples, p90 needs 100).
bool supports_quantile(std::size_t n, double q);

/// Nearest-rank quantile (the smallest sample with at least q*n samples at
/// or below it). 0 for an empty set.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Median over consecutive windows of the quantile within each window:
/// steadier than one quantile over the whole run when a short stall of
/// the host lands in it. Uses fewer windows when needed so that each
/// keeps ten samples beyond q. Samples in the order they were taken.
double windowed_quantile(const std::vector<double>& v, double q, int windows);

// ------------------------------------------------------------ rate ladder

/// Client-side result of one ladder step at a fixed offered rate.
struct StepResult {
  std::vector<double> latency_ms;  ///< per SUBMIT, in due-time order
  std::uint64_t failed = 0;        ///< wrong, refused or missing responses
  int windows = 1;                 ///< windows for step_p99
};

/// A growing backlog: the median latency of the step's last quarter
/// exceeds that of its first quarter by more than half the limit. A queue
/// that grows through the step shows here even while its p99 is still
/// under the limit.
bool backlog_growing(const std::vector<double>& latency_ms, double limit_ms);

/// A step's p99: windowed_quantile over the step's windows, so one short
/// stall of the host does not decide it.
double step_p99(const StepResult& s);

/// A step passes when nothing failed, it holds enough samples for p99,
/// its p99 is within the limit and its backlog does not grow.
bool step_passes(const StepResult& s, double limit_ms);

/// Search for the highest passing rate: grow geometrically from `start`
/// until a step fails (or descend until one passes), then bisect the
/// bracket in log space `bisections` times. At most `max_steps` steps.
class Ladder {
 public:
  Ladder(double start, double factor, int bisections, int max_steps);
  bool done() const;
  double next_rate() const { return next_; }
  void record(bool passed);
  /// Highest passing rate so far; 0 when no step passed.
  double max_rate() const { return lo_; }

 private:
  double factor_;
  int bisections_left_;
  int max_steps_;
  int steps_ = 0;
  double lo_ = 0.0;  ///< highest passing rate
  double hi_ = 0.0;  ///< lowest failing rate; 0 = none yet
  double next_;
};

// ------------------------------------------------------------ response check

/// Outcome of checking responses: every request counts as attempted; a
/// missing, refused, extra, reordered or wrong response counts as failed.
struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;  ///< empty when nothing failed

  void merge(const CheckResult& o);
};

/// True when `line` is an ok:true response whose members include every
/// member of `expect` with the identical serialization (numbers are
/// shortest round-trip, so equal text is bit-equal doubles).
bool response_matches(const std::string& line, const sdem::Json& expect,
                      std::string* why);

/// Check one connection: `sent[i]` is the index (into `expect`) of the
/// i-th request written on it and `lines[i]` the i-th response line read
/// back. Responses must come one per request in the same order.
CheckResult check_connection(const std::vector<int>& sent,
                             const std::vector<std::string>& lines,
                             const std::vector<sdem::Json>& expect);

// ------------------------------------------------------------ process stats

/// VmHWM of a process in MB (pid 0 = this process); 0 when unreadable.
double peak_rss_mb(int pid);
/// VmRSS of a process in MB (pid 0 = this process); 0 when unreadable.
double rss_mb(int pid);
/// Reset this process's VmHWM to its current RSS (/proc/self/clear_refs).
/// False when the kernel does not allow it.
bool reset_peak_rss();
/// utime + stime of a process in microseconds; 0 when unreadable.
double cpu_time_us(int pid);

/// Move the calling thread to the next CPU it may run on, in turn. The
/// host runs each vCPU at its own, changing speed, so a run that rotates
/// its passes over every CPU gives each operation a fast pass somewhere.
void pin_next_cpu();

// ------------------------------------------------------------ report

std::uint64_t now_ns();
double seconds_since(std::uint64_t t0_ns);

/// The result line: metrics with units plus check counts.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  sdem::Json extra = sdem::Json::object();  ///< traffic properties, notes

  void set(const std::string& name, double value, const std::string& unit);
  void add(const CheckResult& c);
  /// One JSON line: {"correct", "attempted", "failed", "metrics", "extra"}.
  std::string dump() const;
};

/// A JSON array of the values, for the report's "extra" object.
sdem::Json to_json(const std::vector<double>& v);

/// Deterministic 64-bit mixing for seed derivation (SplitMix64 finalizer).
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
