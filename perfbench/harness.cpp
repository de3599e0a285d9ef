#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sched.h>
#include <unistd.h>

namespace perfbench {

// ------------------------------------------------------------ percentiles

bool supports_quantile(std::size_t n, double q) {
  // Samples strictly beyond the nearest-rank quantile: n - ceil(q n).
  const double at = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<double>(n) - at >= 10.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double windowed_quantile(const std::vector<double>& v, double q,
                         int windows) {
  // As many windows as asked for, but each keeps ten samples beyond q.
  const std::size_t n = v.size();
  const auto cap = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) / 10.0 + 1e-9));
  const std::size_t w =
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(
                                            std::max(windows, 1)),
                                        cap));
  std::vector<double> per_window;
  for (std::size_t i = 0; i < w; ++i) {
    per_window.push_back(quantile(
        std::vector<double>(
            v.begin() + static_cast<std::ptrdiff_t>(i * n / w),
            v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / w)),
        q));
  }
  return median(std::move(per_window));
}

// ------------------------------------------------------------ rate ladder

bool backlog_growing(const std::vector<double>& latency_ms,
                     double limit_ms) {
  const std::size_t quarter = latency_ms.size() / 4;
  if (quarter == 0) return false;
  const auto first = std::vector<double>(
      latency_ms.begin(),
      latency_ms.begin() + static_cast<std::ptrdiff_t>(quarter));
  const auto last = std::vector<double>(
      latency_ms.end() - static_cast<std::ptrdiff_t>(quarter),
      latency_ms.end());
  return median(last) - median(first) > 0.5 * limit_ms;
}

bool step_passes(const StepResult& s, double limit_ms) {
  if (s.failed > 0) return false;
  if (!supports_quantile(s.latency_ms.size(), 0.99)) return false;
  if (step_p99(s) > limit_ms) return false;
  return !backlog_growing(s.latency_ms, limit_ms);
}

double step_p99(const StepResult& s) {
  return windowed_quantile(s.latency_ms, 0.99, s.windows);
}

Ladder::Ladder(double start, double factor, int bisections, int max_steps)
    : factor_(factor),
      bisections_left_(bisections),
      max_steps_(max_steps),
      next_(start) {}

bool Ladder::done() const {
  if (steps_ >= max_steps_) return true;
  // Bracketed and bisected enough.
  return hi_ > 0.0 && lo_ > 0.0 && bisections_left_ <= 0;
}

void Ladder::record(bool passed) {
  ++steps_;
  const double rate = next_;
  if (lo_ > 0.0 && hi_ > 0.0) --bisections_left_;  // this was a bisection
  if (passed) {
    lo_ = std::max(lo_, rate);
  } else {
    hi_ = hi_ > 0.0 ? std::min(hi_, rate) : rate;
  }
  if (lo_ > 0.0 && hi_ > 0.0) {
    next_ = std::sqrt(lo_ * hi_);
  } else if (lo_ > 0.0) {
    next_ = rate * factor_;
  } else {
    next_ = rate / factor_;
  }
}

// ------------------------------------------------------------ response check

void CheckResult::merge(const CheckResult& o) {
  attempted += o.attempted;
  failed += o.failed;
  if (first_error.empty()) first_error = o.first_error;
}

bool response_matches(const std::string& line, const sdem::Json& expect,
                      std::string* why) {
  sdem::Json got;
  try {
    got = sdem::Json::parse(line);
  } catch (const std::exception& e) {
    if (why) *why = std::string("unparsable response: ") + e.what();
    return false;
  }
  const sdem::Json* ok = got.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    if (why) *why = "not ok: " + line;
    return false;
  }
  for (const auto& key : {"op", "island", "id", "policy", "admitted",
                          "filled_speed", "now", "arrivals", "pending",
                          "replans", "plan_from", "plan_end", "plan"}) {
    const sdem::Json* want = expect.find(key);
    if (want == nullptr) continue;
    const sdem::Json* have = got.find(key);
    if (have == nullptr || have->dump() != want->dump()) {
      if (why) {
        *why = std::string("field ") + key + ": got " +
               (have ? have->dump() : "<absent>") + ", want " + want->dump();
      }
      return false;
    }
  }
  return true;
}

CheckResult check_connection(const std::vector<int>& sent,
                             const std::vector<std::string>& lines,
                             const std::vector<sdem::Json>& expect) {
  CheckResult r;
  r.attempted = sent.size();
  const auto fail = [&r](const std::string& why) {
    ++r.failed;
    if (r.first_error.empty()) r.first_error = why;
  };
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (i >= lines.size()) {
      fail("missing response for request " + std::to_string(i));
      continue;
    }
    std::string why;
    if (!response_matches(lines[i], expect[static_cast<std::size_t>(sent[i])],
                          &why)) {
      fail("response " + std::to_string(i) + ": " + why);
    }
  }
  for (std::size_t i = sent.size(); i < lines.size(); ++i) {
    fail("extra response: " + lines[i]);
  }
  return r;
}

// ------------------------------------------------------------ process stats

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

double status_mb(int pid, const std::string& field) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(int pid) { return status_mb(pid, "VmHWM:"); }

double rss_mb(int pid) { return status_mb(pid, "VmRSS:"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double cpu_time_us(int pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime/stime are 14/15.
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (utime + stime) / tick * 1e6;
}

void pin_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  ::sched_setaffinity(0, sizeof one, &one);
}

// ------------------------------------------------------------ report

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, vu] : metrics) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::add(const CheckResult& c) {
  attempted += c.attempted;
  failed += c.failed;
  if (first_error.empty()) first_error = c.first_error;
}

std::string Report::dump() const {
  sdem::Json m = sdem::Json::object();
  for (const auto& [name, vu] : metrics) {
    sdem::Json one = sdem::Json::object();
    one.set("value", vu.first);
    one.set("unit", vu.second);
    m.set(name, std::move(one));
  }
  sdem::Json out = sdem::Json::object();
  out.set("correct", failed == 0 && attempted > 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(m));
  sdem::Json x = extra;
  if (!first_error.empty()) x.set("first_error", first_error);
  out.set("extra", std::move(x));
  return out.dump();
}

sdem::Json to_json(const std::vector<double>& v) {
  sdem::Json out = sdem::Json::array();
  for (double x : v) out.push_back(x);
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
