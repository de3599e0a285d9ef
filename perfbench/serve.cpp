// serve_race and serve_sdem: the service pipeline under a stream of
// SUBMIT (and, for serve_sdem, QUERY and METRICS) requests, every response
// checked against an in-process replay of the same stream through
// make_policy + StreamSim.
//
// The untraced run pushes the stream through sdem::service::Service
// in-process and single-threaded (the gated end-to-end metrics). The traced
// run drives the real sdem_service daemon over TCP with an open-loop
// generator: one thread with non-blocking sockets, three request
// connections (islands pinned to island % 3) and one for METRICS. Each
// request is due at a fixed time; its latency runs from that due time to
// the moment its response line is read, so a stalled daemon is charged for
// every request queued behind the stall, and the generator's own lateness
// (send time minus due time) is reported beside it. TCP phases use
// disjoint island ranges, so each is a fresh stream checked on its own.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "perfbench.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/event_sim.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using sdem::Json;

constexpr int kDataConns = 3;  ///< plus one METRICS connection: 4 in all

/// What distinguishes the two serve workloads.
struct ServeSpec {
  std::string policy;
  sdem::SyntheticParams task;  ///< per-island stream (num_tasks ignored)
  int islands = 64;
  int query_every = 0;      ///< a QUERY after every k-th SUBMIT of an island
  double scrape_hz = 0.0;   ///< METRICS scrapes on their own connection
  double fixed_rate = 0.0;  ///< TCP: offered requests/s of the fixed phase
  double limit_ms = 0.0;    ///< TCP: SUBMIT p99 limit of the rate ladder
  double ladder_start = 0.0;
  double step_s = 0.0;      ///< ladder step length
  std::size_t pass_requests = 0;  ///< requests per in-process pass
};

/// Latency percentiles are medians over windows of this length (fewer
/// when a window would hold too few samples; see windowed_quantile).
constexpr double kWindowS = 0.1;

int windows(double seconds) {
  return std::max(1, static_cast<int>(seconds / kWindowS + 0.5));
}

ServeSpec spec_for(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve_race") {
    // The trivial policy over paper-synthetic tasks: plumbing only.
    s.policy = "race";
    s.task.max_interarrival = 0.050;
    s.fixed_rate = 20000.0;
    s.limit_ms = 10.0;
    s.ladder_start = 20000.0;
    s.step_s = 0.5;
    s.pass_requests = 20000;
  } else if (workload == "serve_sdem") {
    // SDEM-ON on long deadline regions: each island keeps several tasks
    // pending, so every SUBMIT pays a deep replan. QUERY reads ride in
    // each island's own stream and METRICS barriers come at 10 Hz.
    s.policy = "sdem-on";
    s.task.max_interarrival = 0.050;
    s.task.region_lo = 0.200;
    s.task.region_hi = 0.500;
    s.query_every = 4;
    s.scrape_hz = 10.0;
    s.fixed_rate = 4000.0;
    s.limit_ms = 20.0;
    s.ladder_start = 4000.0;
    s.step_s = 1.0;
    s.pass_requests = 10000;
  } else {
    throw std::invalid_argument("unknown serve workload " + workload);
  }
  return s;
}

struct Req {
  int island = 0;
  bool query = false;
  sdem::Task task;   ///< SUBMIT payload
  std::string line;  ///< wire form, newline-terminated
};

/// The first `n` requests of phase `phase`'s stream: per-island synthetic
/// tasks merged in release order (ties by island), islands
/// [phase * islands, (phase + 1) * islands).
std::vector<Req> make_phase(const ServeSpec& s, std::uint64_t seed, int phase,
                            std::size_t n) {
  const double per_task = s.query_every > 0 ? 1.0 + 1.0 / s.query_every : 1.0;
  const int tasks = static_cast<int>(static_cast<double>(n) / per_task /
                                     s.islands * 1.3) + 8;
  struct Ev {
    double release;
    int island;
    int order;
    bool query;
    sdem::Task task;
  };
  std::vector<Ev> evs;
  evs.reserve(static_cast<std::size_t>(tasks) * s.islands * 2);
  for (int i = 0; i < s.islands; ++i) {
    sdem::SyntheticParams p = s.task;
    p.num_tasks = tasks;
    const int island = phase * s.islands + i;
    const sdem::TaskSet ts = sdem::make_synthetic(
        p, mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(island)));
    int order = 0;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      evs.push_back({ts[k].release, island, order++, false, ts[k]});
      if (s.query_every > 0 && (k + 1) % s.query_every == 0) {
        evs.push_back({ts[k].release, island, order++, true, {}});
      }
    }
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.release != b.release) return a.release < b.release;
    if (a.island != b.island) return a.island < b.island;
    return a.order < b.order;
  });
  evs.resize(std::min(n, evs.size()));
  std::vector<Req> out;
  out.reserve(evs.size());
  for (const Ev& e : evs) {
    Req r;
    r.island = e.island;
    r.query = e.query;
    r.task = e.task;
    Json req = Json::object();
    req.set("op", e.query ? "QUERY" : "SUBMIT");
    req.set("island", e.island);
    if (!e.query) {
      Json task = Json::object();
      task.set("id", e.task.id);
      task.set("release", e.task.release);
      task.set("deadline", e.task.deadline);
      task.set("work", e.task.work);
      req.set("task", std::move(task));
    }
    r.line = req.dump() + "\n";
    out.push_back(std::move(r));
  }
  return out;
}

// ------------------------------------------------------------ replay

/// What the daemon must answer, from the same calls its shard makes.
Json expect_submit(const sdem::StreamSim& sim, const sdem::SystemConfig& cfg,
                   const Req& r) {
  Json e = Json::object();
  e.set("op", "SUBMIT");
  e.set("island", r.island);
  e.set("id", r.task.id);
  const double s_up = cfg.core.s_up;
  const double fs = r.task.filled_speed();
  e.set("admitted", s_up <= 0.0 || fs <= s_up * (1.0 + 1e-12));
  e.set("filled_speed", fs);
  e.set("pending", static_cast<std::uint64_t>(sim.pending().size()));
  e.set("replans", sim.replans());
  double plan_end = sim.plan_from();
  for (const auto& seg : sim.current_plan()) {
    plan_end = std::max(plan_end, seg.end);
  }
  e.set("plan_end", plan_end);
  return e;
}

Json expect_query(const sdem::StreamSim& sim, const std::string& policy,
                  const Req& r) {
  Json e = Json::object();
  e.set("op", "QUERY");
  e.set("island", r.island);
  e.set("policy", policy);
  e.set("now", sim.now());
  e.set("arrivals", static_cast<std::uint64_t>(sim.arrivals()));
  e.set("pending", static_cast<std::uint64_t>(sim.pending().size()));
  e.set("replans", sim.replans());
  e.set("plan_from", sim.plan_from());
  Json plan = Json::array();
  for (const auto& seg : sim.current_plan()) {
    Json js = Json::object();
    js.set("task", seg.task_id);
    js.set("core", seg.core);
    js.set("start", seg.start);
    js.set("end", seg.end);
    js.set("speed", seg.speed);
    plan.push_back(std::move(js));
  }
  e.set("plan", std::move(plan));
  return e;
}

/// Layer timings gathered by a traced replay.
struct ReplayTrace {
  bool timed = true;  ///< false: the same calls with no clock reads
  std::vector<double> commit_us, peek_us, parse_us, dump_us;
  std::vector<double> replan_us, pending;  ///< SDEM-ON replans only
  double replan_s = 0.0;
};

/// Replay islands [first, last) of `by_island` (request indices per
/// island) and fill expect[] for their requests.
void replay_islands(const ServeSpec& s, const std::vector<Req>& reqs,
                    const std::vector<std::vector<int>>& by_island,
                    std::size_t first, std::size_t last,
                    std::vector<Json>& expect, ReplayTrace* trace) {
  const sdem::SystemConfig cfg = sdem::SystemConfig::paper_default();
  for (std::size_t i = first; i < last; ++i) {
    if (by_island[i].empty()) continue;
    std::unique_ptr<sdem::OnlinePolicy> inner =
        sdem::service::make_policy(s.policy);
    sdem::OnlinePolicy* policy = inner.get();
    std::unique_ptr<TimedPolicy> timed;
    if (trace != nullptr && trace->timed && s.policy == "sdem-on") {
      timed = std::make_unique<TimedPolicy>(*inner);
      policy = timed.get();
    }
    sdem::StreamSim sim(cfg, *policy, cfg.num_cores);
    for (int idx : by_island[i]) {
      const Req& r = reqs[static_cast<std::size_t>(idx)];
      Json& e = expect[static_cast<std::size_t>(idx)];
      if (trace == nullptr) {
        if (!r.query) {
          sim.inject_arrival(r.task);
          sim.commit();
        }
        e = r.query ? expect_query(sim, policy->name(), r)
                    : expect_submit(sim, cfg, r);
        continue;
      }
      // Traced: the daemon's calls, each timed at its layer boundary.
      const bool timed = trace->timed;
      const std::string line = r.line.substr(0, r.line.size() - 1);
      std::uint64_t t0 = timed ? now_ns() : 0;
      const sdem::service::Peeked pk = sdem::service::peek_request(line);
      if (timed) trace->peek_us.push_back(seconds_since(t0) * 1e6);
      if (timed) t0 = now_ns();
      const sdem::service::Parsed parsed = sdem::service::parse_request(line);
      if (timed) trace->parse_us.push_back(seconds_since(t0) * 1e6);
      if (!pk.routable() || !parsed.ok) {
        throw std::runtime_error("benchmark request does not parse: " + line);
      }
      if (!r.query) {
        if (timed) t0 = now_ns();
        sim.inject_arrival(parsed.request.task);
        sim.commit();
        if (timed) trace->commit_us.push_back(seconds_since(t0) * 1e6);
      }
      e = r.query ? expect_query(sim, policy->name(), r)
                  : expect_submit(sim, cfg, r);
      if (timed) t0 = now_ns();
      const std::string wire = e.dump();
      if (timed) trace->dump_us.push_back(seconds_since(t0) * 1e6);
      if (wire.empty()) throw std::runtime_error("empty response envelope");
    }
    if (timed) {
      trace->replan_us.insert(trace->replan_us.end(),
                              timed->replan_us.begin(),
                              timed->replan_us.end());
      trace->pending.insert(trace->pending.end(), timed->pending.begin(),
                            timed->pending.end());
      trace->replan_s += timed->total_s;
    }
  }
}

/// Expected responses for a phase; `threads` > 1 splits islands across
/// threads (the untraced check), a trace forces one thread.
std::vector<Json> replay(const ServeSpec& s, const std::vector<Req>& reqs,
                         int threads, ReplayTrace* trace) {
  int lo = reqs.empty() ? 0 : reqs.front().island;
  int hi = lo;
  for (const Req& r : reqs) {
    lo = std::min(lo, r.island);
    hi = std::max(hi, r.island);
  }
  std::vector<std::vector<int>> by_island(
      static_cast<std::size_t>(hi - lo + 1));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    by_island[static_cast<std::size_t>(reqs[i].island - lo)].push_back(
        static_cast<int>(i));
  }
  std::vector<Json> expect(reqs.size());
  if (trace != nullptr || threads <= 1) {
    replay_islands(s, reqs, by_island, 0, by_island.size(), expect, trace);
    return expect;
  }
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  const std::size_t per =
      (by_island.size() + static_cast<std::size_t>(threads) - 1) /
      static_cast<std::size_t>(threads);
  for (std::size_t first = 0; first < by_island.size(); first += per) {
    const std::size_t last = std::min(by_island.size(), first + per);
    std::exception_ptr& error = errors[pool.size()];
    pool.emplace_back([&, first, last] {
      try {
        replay_islands(s, reqs, by_island, first, last, expect, nullptr);
      } catch (...) {
        error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return expect;
}

// ------------------------------------------------------------ wire

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::vector<int> sent;           ///< request indices in write order
  std::vector<std::string> lines;  ///< response lines in read order
};

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Non-blocking write of pending output; false on a hard error.
bool flush_out(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Read what is available; every complete line is handed to `on_line`.
/// False on EOF or a hard error.
///
/// The client acknowledges every read at once (TCP_QUICKACK is re-armed
/// before each read; the kernel clears it). The daemon writes each
/// response with its own write() and leaves Nagle on, so without this a
/// response queued behind an unacknowledged one waits for the client's
/// delayed-ACK timer (~40 ms), and p99 swings between runs with it.
template <typename F>
bool drain_in(Conn& c, F&& on_line) {
  char buf[1 << 16];
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    on_line(c.in.substr(start, nl - start));
    start = nl + 1;
  }
  c.in.erase(0, start);
  return true;
}

/// Client-side record of one phase.
struct PhaseRun {
  std::vector<double> submit_ms, query_ms;  ///< due → response, due order
  std::vector<double> lag_ms;               ///< send attempt − due
  std::vector<double> scrape_ms;
  std::vector<std::string> scrape_lines;
  CheckResult check;
};

class Generator {
 public:
  explicit Generator(int port) {
    for (int i = 0; i < kDataConns; ++i) data_[i].fd = connect_local(port);
    metrics_.fd = connect_local(port);
  }
  ~Generator() {
    for (Conn& c : data_) ::close(c.fd);
    ::close(metrics_.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Send `reqs` at `rate` per second with METRICS
  /// scrapes at `scrape_hz` while sending, wait for every response (up to
  /// `grace_s` after the last due time) and return latencies. Responses
  /// stay on the connections for check().
  PhaseRun run(const std::vector<Req>& reqs, double rate, double scrape_hz,
               double grace_s);

  /// One METRICS round trip outside any phase; the response line.
  std::string metrics_now();

  /// Check the phase's responses against the replay, then forget them.
  CheckResult check(const std::vector<Json>& expect);

 private:
  Conn data_[kDataConns];
  Conn metrics_;
};

PhaseRun Generator::run(const std::vector<Req>& reqs, double rate,
                        double scrape_hz, double grace_s) {
  PhaseRun pr;
  const std::size_t n = reqs.size();
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) -> std::uint64_t {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  const std::uint64_t send_end = due(n == 0 ? 0 : n - 1);
  const std::uint64_t hard_end =
      send_end + static_cast<std::uint64_t>(grace_s * 1e9);
  const std::uint64_t scrape_period =
      scrape_hz > 0.0 ? static_cast<std::uint64_t>(1e9 / scrape_hz) : 0;
  std::vector<std::uint64_t> scrape_due;
  std::uint64_t next_scrape = t0;
  std::vector<std::uint64_t> recv(n, 0);
  std::size_t next = 0, received = 0;
  bool broken = false;

  pollfd fds[kDataConns + 1];
  while (!broken) {
    std::uint64_t now = now_ns();
    if (received == n && scrape_due.size() == metrics_.lines.size() &&
        next == n) {
      break;
    }
    if (now > hard_end) break;
    while (next < n && due(next) <= now) {
      const Req& r = reqs[next];
      Conn& c = data_[r.island % kDataConns];
      c.out += r.line;
      c.sent.push_back(static_cast<int>(next));
      pr.lag_ms.push_back(static_cast<double>(now - due(next)) * 1e-6);
      ++next;
    }
    if (scrape_period > 0 && next < n && next_scrape <= now) {
      metrics_.out += "{\"op\":\"METRICS\"}\n";
      scrape_due.push_back(next_scrape);
      next_scrape += scrape_period;
    }
    for (Conn& c : data_) broken |= !flush_out(c);
    broken |= !flush_out(metrics_);

    std::uint64_t wake = hard_end;
    if (next < n) wake = std::min(wake, due(next));
    if (scrape_period > 0 && next < n) wake = std::min(wake, next_scrape);
    for (int i = 0; i <= kDataConns; ++i) {
      Conn& c = i < kDataConns ? data_[i] : metrics_;
      fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
    }
    // Never sleep: on a virtual machine a timed sleep overshoots by
    // milliseconds at the tail, which would show up as generator lag.
    timespec ts{0, 0};
    if (::ppoll(fds, kDataConns + 1, &ts, nullptr) < 0 && errno != EINTR) {
      broken = true;
      break;
    }
    now = now_ns();
    for (int i = 0; i < kDataConns; ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = data_[i];
      broken |= !drain_in(c, [&](std::string line) {
        if (c.lines.size() < c.sent.size()) {
          recv[static_cast<std::size_t>(c.sent[c.lines.size()])] = now;
          ++received;
        }
        c.lines.push_back(std::move(line));
      });
    }
    if (fds[kDataConns].revents & (POLLIN | POLLHUP | POLLERR)) {
      broken |= !drain_in(metrics_, [&](std::string line) {
        const std::size_t k = metrics_.lines.size();
        if (k < scrape_due.size()) {
          pr.scrape_ms.push_back(static_cast<double>(now - scrape_due[k]) *
                                 1e-6);
        }
        metrics_.lines.push_back(line);
        pr.scrape_lines.push_back(std::move(line));
      });
    }
  }
  metrics_.lines.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (recv[i] == 0) continue;
    const double ms = static_cast<double>(recv[i] - due(i)) * 1e-6;
    (reqs[i].query ? pr.query_ms : pr.submit_ms).push_back(ms);
  }
  if (broken) {
    pr.check.failed = 1;
    pr.check.first_error = "connection to the daemon failed mid-phase";
  }
  return pr;
}

std::string Generator::metrics_now() {
  metrics_.out += "{\"op\":\"METRICS\"}\n";
  std::string got;
  const std::uint64_t end = now_ns() + 5'000'000'000ull;
  while (got.empty() && now_ns() < end) {
    if (!flush_out(metrics_)) break;
    pollfd p{metrics_.fd, POLLIN, 0};
    ::poll(&p, 1, 100);
    if (!drain_in(metrics_, [&](std::string line) { got = std::move(line); })) {
      break;
    }
  }
  return got;
}

CheckResult Generator::check(const std::vector<Json>& expect) {
  CheckResult r;
  for (Conn& c : data_) {
    r.merge(check_connection(c.sent, c.lines, expect));
    c.sent.clear();
    c.lines.clear();
  }
  return r;
}

// ------------------------------------------------------------ METRICS

/// Prometheus samples of one METRICS response: name{labels} -> value.
std::vector<std::pair<std::string, double>> metrics_samples(
    const std::string& line) {
  std::vector<std::pair<std::string, double>> out;
  Json resp;
  try {
    resp = Json::parse(line);
  } catch (const std::exception&) {
    return out;
  }
  const Json* body = resp.find("body");
  if (body == nullptr || !body->is_string()) return out;
  const std::string& text = body->as_string();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string l = text.substr(start, nl - start);
    start = nl + 1;
    if (l.empty() || l[0] == '#') continue;
    const std::size_t sp = l.rfind(' ');
    if (sp == std::string::npos) continue;
    out.emplace_back(l.substr(0, sp), std::strtod(l.c_str() + sp + 1, nullptr));
  }
  return out;
}

/// Max (or sum) over shards of the samples whose key starts with `prefix`
/// and contains `label`.
double over_shards(const std::vector<std::pair<std::string, double>>& s,
                   const std::string& prefix, const std::string& label,
                   bool sum) {
  double v = 0.0;
  for (const auto& [key, x] : s) {
    if (key.rfind(prefix, 0) != 0 || key.find(label) == std::string::npos) {
      continue;
    }
    v = sum ? v + x : std::max(v, x);
  }
  return v;
}

/// FNV-1a of a response line: later passes are compared with the first by
/// hash, so the run keeps no second copy of the responses.
std::uint64_t line_hash(const std::string& line) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : line) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The untraced run: the same stream pushed through the service pipeline
/// in-process (sdem::service::Service without a thread pool, so every
/// request is peeked, routed, parsed, committed and encoded inline on this
/// thread), one fresh Service per pass. Single-threaded CPU work repeats
/// closely enough to gate on; TCP latency on a shared virtual machine does
/// not (README.md, "Why the gated serve metrics are in-process"). Each
/// operation keeps its fastest pass, as in the sweeps.
Report serve_inproc(const Args& a, const ServeSpec& s) {
  Report r;
  sdem::service::ServiceOptions opt;
  opt.policy = s.policy;
  opt.shards = 2;
  // METRICS every k requests: scrape_hz at the offered fixed rate.
  const std::size_t scrape_every =
      s.scrape_hz > 0.0
          ? static_cast<std::size_t>(s.fixed_rate / s.scrape_hz + 0.5)
          : 0;

  // The stream, the answers the replay expects and the check's buffers
  // exist before any Service does, so the service's memory can be told
  // apart from the benchmark's.
  std::vector<Req> reqs = make_phase(s, a.seed, 0, s.pass_requests);
  const std::vector<Json> expect = replay(s, reqs, 4, nullptr);
  const std::size_t scrapes = scrape_every > 0 ? reqs.size() / scrape_every : 0;
  std::vector<std::uint64_t> want(reqs.size());
  std::vector<double> best_ms(reqs.size() + scrapes,
                              std::numeric_limits<double>::infinity());
  std::string answer;
  int answers = 0;
  std::uint64_t done_ns = 0;

  std::vector<double> setup_s, pass_s;
  double service_mb = 0.0;
  CheckResult check;
  const std::uint64_t begin = now_ns();
  while (pass_s.size() < 3 || seconds_since(begin) < a.seconds) {
    pin_next_cpu();
    // Set-up: generating the stream, then a fresh service until its first
    // answer.
    std::uint64_t t0 = now_ns();
    reqs = make_phase(s, a.seed, 0, s.pass_requests);
    // The first pass measures the service's memory: its peak RSS above
    // what the process held before the Service was built.
    const bool measure = pass_s.empty();
    const double rss0 = measure ? rss_mb(0) : 0.0;
    const bool hwm_reset = measure && reset_peak_rss();
    sdem::service::Service svc(opt, nullptr,
                               [&](const sdem::service::Request&, Json resp) {
                                 answer = resp.dump();
                                 done_ns = now_ns();
                                 ++answers;
                               });
    if (svc.stats(0).dump().empty()) throw std::runtime_error("STATS");
    setup_s.push_back(seconds_since(t0));

    // The first pass checks every response against the replay; later
    // passes must answer byte-identically to the first.
    CheckResult pass;
    const auto fail = [&pass](const std::string& why) {
      ++pass.failed;
      if (pass.first_error.empty()) pass.first_error = why;
    };
    std::size_t scrape = 0;
    const std::uint64_t p0 = now_ns();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::string& wire = reqs[i].line;
      std::string line(wire, 0, wire.size() - 1);
      answers = 0;
      t0 = now_ns();
      const sdem::service::Peeked pk = sdem::service::peek_request(line);
      svc.route_raw(pk.island, pk.op, std::move(line), i, 0, i);
      svc.flush();
      const double ms = static_cast<double>(done_ns - t0) * 1e-6;
      ++pass.attempted;
      std::string why;
      if (answers != 1) {
        fail("request " + std::to_string(i) + ": " +
             std::to_string(answers) + " responses");
      } else {
        best_ms[i] = std::min(best_ms[i], ms);
        if (measure) {
          want[i] = line_hash(answer);
          if (!response_matches(answer, expect[i], &why)) {
            fail("response " + std::to_string(i) + ": " + why);
          }
        } else if (line_hash(answer) != want[i]) {
          fail("pass " + std::to_string(pass_s.size() + 1) +
               " answered differently: " + answer);
        }
      }
      if (scrape_every > 0 && (i + 1) % scrape_every == 0) {
        t0 = now_ns();
        if (svc.metrics(i).dump().empty()) throw std::runtime_error("METRICS");
        double& b = best_ms[reqs.size() + scrape++];
        b = std::min(b, seconds_since(t0) * 1e3);
      }
    }
    pass_s.push_back(seconds_since(p0));
    if (measure) {
      service_mb = (hwm_reset ? peak_rss_mb(0) : rss_mb(0)) - rss0;
    }
    check.merge(pass);
  }
  r.add(check);

  // A request never answered has no time (and has already failed).
  std::vector<double> submit_ms;
  double wall_ms = 0.0;
  for (std::size_t i = 0; i < best_ms.size(); ++i) {
    if (!std::isfinite(best_ms[i])) continue;
    wall_ms += best_ms[i];
    if (i < reqs.size() && !reqs[i].query) submit_ms.push_back(best_ms[i]);
  }
  r.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  r.extra.set("setup_median_s", median(setup_s));
  r.set("wall_s", wall_ms * 1e-3, "s");
  r.set("op_p50_ms", quantile(submit_ms, 0.5), "ms");
  r.set("op_p99_ms", quantile(submit_ms, 0.99), "ms");
  r.set("peak_rss_mb", service_mb, "MB");
  r.extra.set("requests_per_pass", static_cast<std::uint64_t>(reqs.size()));
  r.extra.set("scrapes_per_pass", static_cast<std::uint64_t>(scrapes));
  r.extra.set("process_peak_rss_mb", peak_rss_mb(0));
  r.extra.set("pass_s", to_json(pass_s));
  return r;
}

/// The traced run: the real daemon over TCP at the fixed rate (client,
/// server and generator figures) and up the rate ladder, then the same
/// stream replayed in-process with every layer call timed.
Report serve_traced(const Args& a, const ServeSpec& s) {
  if (a.port < 0) throw std::invalid_argument("traced serve runs need --port");
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Report r;
  set_layer_defaults(r);
  const int threads = 4;
  // At least 100 METRICS scrapes at 10 Hz, so p90 has ten beyond it.
  const double fixed_s = 10.5;

  std::vector<double> gen_s;
  std::vector<Req> fixed;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = now_ns();
    fixed = make_phase(s, a.seed, 1,
                       static_cast<std::size_t>(s.fixed_rate * fixed_s));
    gen_s.push_back(seconds_since(t0));
  }
  r.set("workload.generate_s", median(gen_s), "s");

  Generator gen(a.port);
  const auto finish = [&](const std::vector<Req>& reqs, PhaseRun& pr) {
    pr.check.merge(gen.check(replay(s, reqs, threads, nullptr)));
    r.add(pr.check);
  };
  int phase = 0;
  {
    // Warm-up on its own islands: lazy set-up in the daemon finishes here.
    const auto warm = make_phase(s, a.seed, phase,
                                 static_cast<std::size_t>(s.fixed_rate * 0.3));
    PhaseRun pr = gen.run(warm, s.fixed_rate, s.scrape_hz, 5.0);
    finish(warm, pr);
  }
  phase = 2;  // phase 1 is the fixed-rate stream built above

  const double cpu0 = cpu_time_us(a.daemon_pid);
  PhaseRun fx = gen.run(fixed, s.fixed_rate, s.scrape_hz, 5.0);
  const double cpu1 = cpu_time_us(a.daemon_pid);
  const auto samples = metrics_samples(gen.metrics_now());
  const double answered =
      static_cast<double>(fx.submit_ms.size() + fx.query_ms.size());
  finish(fixed, fx);

  r.set("service.tcp_submit_p50_ms",
        windowed_quantile(fx.submit_ms, 0.5, windows(fixed_s)), "ms");
  r.set("service.tcp_submit_p99_ms",
        windowed_quantile(fx.submit_ms, 0.99, windows(fixed_s)), "ms");
  r.set("loadgen.lag_p99_ms", quantile(fx.lag_ms, 0.99), "ms");
  r.set("loadgen.lag_max_ms", quantile(fx.lag_ms, 1.0), "ms");
  r.set("loadgen.scrapes", static_cast<double>(fx.scrape_ms.size()), "count");
  r.set("loadgen.query_per_submit",
        fx.submit_ms.empty() ? 0.0
                             : static_cast<double>(fx.query_ms.size()) /
                                   static_cast<double>(fx.submit_ms.size()),
        "ratio");
  if (!fx.query_ms.empty()) {
    r.set("service.query_p50_ms", quantile(fx.query_ms, 0.5), "ms");
    r.set("service.query_p99_ms", quantile(fx.query_ms, 0.99), "ms");
  }
  if (!fx.scrape_ms.empty()) {
    r.set("service.scrape_p50_ms", quantile(fx.scrape_ms, 0.5), "ms");
    r.set("service.scrape_p90_ms", quantile(fx.scrape_ms, 0.9), "ms");
  }
  r.set("service.cpu_us_per_request",
        answered > 0 ? (cpu1 - cpu0) / answered : 0.0, "us");
  r.set("service.server_e2e_p50_ms",
        1e3 * over_shards(samples, "sdem_e2e_latency_seconds{",
                          "quantile=\"0.5\"", false),
        "ms");
  r.set("service.server_e2e_p99_ms",
        1e3 * over_shards(samples, "sdem_e2e_latency_seconds{",
                          "quantile=\"0.99\"", false),
        "ms");
  r.set("service.server_replan_p99_ms",
        1e3 * over_shards(samples, "sdem_replan_latency_seconds{",
                          "quantile=\"0.99\"", false),
        "ms");
  r.set("service.backpressure_stalls",
        over_shards(samples, "sdem_backpressure_stalls_total{", "", true),
        "count");
  double occupancy = 0.0;
  for (const std::string& line : fx.scrape_lines) {
    occupancy = std::max(occupancy,
                         over_shards(metrics_samples(line),
                                     "sdem_ring_occupancy{", "", false));
  }
  r.set("service.ring_occupancy_max", occupancy, "count");

  // The rate ladder: the highest rate whose SUBMIT p99 stays within the
  // workload's limit with no growing backlog.
  Ladder ladder(s.ladder_start, 1.5, 3, 8);
  sdem::Json steps = sdem::Json::array();
  while (!ladder.done()) {
    const double rate = ladder.next_rate();
    const auto reqs = make_phase(s, a.seed, phase++,
                                 static_cast<std::size_t>(rate * s.step_s));
    PhaseRun pr = gen.run(reqs, rate, s.scrape_hz, 5.0);
    finish(reqs, pr);
    StepResult st;
    st.latency_ms = pr.submit_ms;
    st.failed = pr.check.failed;
    st.windows = windows(s.step_s);
    const bool ok = step_passes(st, s.limit_ms);
    ladder.record(ok);
    sdem::Json js = sdem::Json::object();
    js.set("rate", rate);
    js.set("p99_ms", step_p99(st));
    js.set("pass", ok);
    steps.push_back(std::move(js));
  }
  r.set("service.tcp_max_rate_rps", ladder.max_rate(), "1/s");
  r.set("service.daemon_peak_rss_mb", peak_rss_mb(a.daemon_pid), "MB");
  r.extra.set("ladder", std::move(steps));
  r.extra.set("fixed_rate_rps", s.fixed_rate);
  r.extra.set("limit_ms", s.limit_ms);

  // The fixed-rate stream replayed in-process through the daemon's calls,
  // without and then with timers (the ratio is the tracing overhead).
  const auto tc0 = TransitionCounters::read();
  ReplayTrace plain;
  plain.timed = false;
  std::uint64_t t0 = now_ns();
  replay(s, fixed, 1, &plain);
  const double plain_s = seconds_since(t0);
  ReplayTrace trace;
  t0 = now_ns();
  replay(s, fixed, 1, &trace);
  const double traced_s = seconds_since(t0);
  r.set("bench.trace_overhead_x", traced_s / plain_s, "ratio");
  r.set("sim.commit_us_p50", quantile(trace.commit_us, 0.5), "us");
  r.set("sim.commit_us_p99", quantile(trace.commit_us, 0.99), "us");
  r.set("service.peek_us_p50", quantile(trace.peek_us, 0.5), "us");
  r.set("service.parse_us_p50", quantile(trace.parse_us, 0.5), "us");
  r.set("support.json_dump_us_p50", quantile(trace.dump_us, 0.5), "us");
  if (!trace.replan_us.empty()) {
    report_sdem_replans(r, trace.replan_us, trace.pending);
    r.set("core.sdem_replan_share", trace.replan_s / traced_s, "ratio");
    // Counts cover both replays; the ratios are per solve.
    TransitionCounters::read().since(tc0).report(r);
  }
  return r;
}

}  // namespace

Report run_serve(const Args& a) {
  const ServeSpec s = spec_for(a.workload);
  return a.trace ? serve_traced(a, s) : serve_inproc(a, s);
}

}  // namespace perfbench
