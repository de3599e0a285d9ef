// Self-test of the benchmark's own logic: the ten-beyond percentile rule,
// the backlog and ladder logic behind service.tcp_max_rate_rps, and the
// response check that counts wrong, reordered and missing responses as
// failed.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

using sdem::Json;

TEST(Percentile, TenBeyondRule) {
  // p99 needs 1000 samples (10 beyond), p90 needs 100, p50 needs 20.
  EXPECT_TRUE(supports_quantile(1000, 0.99));
  EXPECT_FALSE(supports_quantile(999, 0.99));
  EXPECT_TRUE(supports_quantile(100, 0.90));
  EXPECT_FALSE(supports_quantile(99, 0.90));
  EXPECT_TRUE(supports_quantile(20, 0.5));
  EXPECT_FALSE(supports_quantile(19, 0.5));
}

TEST(Percentile, NearestRankLeavesTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.99), 990.0);  // 10 samples above it
  EXPECT_EQ(quantile(v, 0.5), 500.0);
  EXPECT_EQ(quantile(v, 1.0), 1000.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Percentile, WindowedQuantileIgnoresOneBadWindow) {
  std::vector<double> v(4000, 1.0);
  for (int i = 1000; i < 1100; ++i) v[static_cast<std::size_t>(i)] = 50.0;
  EXPECT_GT(quantile(v, 0.99), 1.0);  // the stall decides the plain p99
  EXPECT_EQ(windowed_quantile(v, 0.99, 4), 1.0);
  // 1500 samples support one p99 window only: the stall counts again.
  std::vector<double> small(v.begin(), v.begin() + 1500);
  EXPECT_GT(windowed_quantile(small, 0.99, 4), 1.0);
}

std::vector<double> ramp(std::size_t n, double from, double to) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(from + (to - from) * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  }
  return v;
}

TEST(Ladder, BacklogGrowsWhenLatencyClimbs) {
  EXPECT_FALSE(backlog_growing(std::vector<double>(4000, 0.5), 2.0));
  // Climbing from 0.2 to 1.9 ms stays under a 2 ms p99 limit, yet the
  // queue is growing: the last quarter sits > 1 ms above the first.
  const auto climbing = ramp(4000, 0.2, 1.9);
  EXPECT_TRUE(backlog_growing(climbing, 2.0));
  StepResult s;
  s.latency_ms = climbing;
  EXPECT_FALSE(step_passes(s, 2.0));
}

TEST(Ladder, StepNeedsSamplesNoFailuresAndP99WithinLimit) {
  StepResult ok;
  ok.latency_ms.assign(4000, 0.3);
  EXPECT_TRUE(step_passes(ok, 2.0));

  StepResult few = ok;
  few.latency_ms.resize(999);
  EXPECT_FALSE(step_passes(few, 2.0));

  StepResult failed = ok;
  failed.failed = 1;
  EXPECT_FALSE(step_passes(failed, 2.0));

  StepResult slow = ok;
  slow.windows = 4;
  for (std::size_t i = 0; i < slow.latency_ms.size(); i += 50) {
    slow.latency_ms[i] = 5.0;  // 2% of every window over the limit
  }
  EXPECT_FALSE(step_passes(slow, 2.0));

  StepResult one_stall = ok;
  one_stall.windows = 4;
  for (std::size_t i = 0; i < 100; ++i) one_stall.latency_ms[i] = 5.0;
  EXPECT_TRUE(step_passes(one_stall, 2.0));  // one window of four
  one_stall.windows = 1;
  EXPECT_FALSE(step_passes(one_stall, 2.0));
}

/// Drive a ladder against a synthetic system whose capacity is `cap`.
double search(double cap, double start) {
  Ladder l(start, 1.5, 3, 20);
  while (!l.done()) l.record(l.next_rate() <= cap);
  return l.max_rate();
}

TEST(Ladder, BracketsThenBisectsToWithinResolution) {
  // Three bisections of a 1.5x bracket leave a 1.5^(1/8) ~ 5% gap.
  for (double cap : {25000.0, 61000.0, 140000.0}) {
    const double found = search(cap, 20000.0);
    EXPECT_LE(found, cap);
    EXPECT_GT(found, cap / 1.06);
  }
  // A start above capacity descends until a step passes.
  const double found = search(9000.0, 20000.0);
  EXPECT_LE(found, 9000.0);
  EXPECT_GT(found, 9000.0 / 1.06);
}

TEST(Ladder, StopsAtMaxSteps) {
  Ladder l(1000.0, 1.5, 3, 4);
  int steps = 0;
  while (!l.done()) {
    l.record(true);
    ++steps;
  }
  EXPECT_EQ(steps, 4);
  EXPECT_DOUBLE_EQ(l.max_rate(), 1000.0 * 1.5 * 1.5 * 1.5);
}

Json submit_expect(int island, int id, int replans) {
  Json e = Json::object();
  e.set("op", "SUBMIT");
  e.set("island", island);
  e.set("id", id);
  e.set("pending", 1);
  e.set("replans", replans);
  e.set("plan_end", 0.125);
  return e;
}

std::string submit_line(int seq, int island, int id, int replans) {
  return "{\"ok\": true, \"op\": \"SUBMIT\", \"seq\": " + std::to_string(seq) +
         ", \"island\": " + std::to_string(island) +
         ", \"id\": " + std::to_string(id) +
         ", \"pending\": 1, \"replans\": " + std::to_string(replans) +
         ", \"plan_end\": 0.125}";
}

TEST(Check, MatchingResponsesPass) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1),
                                    submit_expect(3, 0, 1),
                                    submit_expect(0, 1, 2)};
  const std::vector<int> sent = {0, 1, 2};
  const std::vector<std::string> lines = {
      submit_line(7, 0, 0, 1), submit_line(9, 3, 0, 1),
      submit_line(12, 0, 1, 2)};
  const CheckResult r = check_connection(sent, lines, expect);
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.first_error.empty());
}

TEST(Check, WrongFieldCountsAsFailed) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1)};
  const CheckResult r =
      check_connection({0}, {submit_line(0, 0, 0, 2)}, expect);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_NE(r.first_error.find("replans"), std::string::npos);
}

TEST(Check, BitDifferentNumberCountsAsFailed) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1)};
  std::string line = submit_line(0, 0, 0, 1);
  line.replace(line.find("0.125"), 5, "0.12500000000000003");
  EXPECT_EQ(check_connection({0}, {line}, expect).failed, 1u);
}

TEST(Check, ReorderedResponsesCountAsFailed) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1),
                                    submit_expect(0, 1, 2)};
  const CheckResult r = check_connection(
      {0, 1}, {submit_line(1, 0, 1, 2), submit_line(0, 0, 0, 1)}, expect);
  EXPECT_EQ(r.attempted, 2u);
  EXPECT_EQ(r.failed, 2u);
}

TEST(Check, MissingAndExtraResponsesCountAsFailed) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1),
                                    submit_expect(0, 1, 2)};
  const CheckResult missing =
      check_connection({0, 1}, {submit_line(0, 0, 0, 1)}, expect);
  EXPECT_EQ(missing.failed, 1u);
  EXPECT_NE(missing.first_error.find("missing"), std::string::npos);

  const CheckResult extra = check_connection(
      {0}, {submit_line(0, 0, 0, 1), submit_line(1, 0, 1, 2)}, expect);
  EXPECT_EQ(extra.failed, 1u);
}

TEST(Check, RefusedOrUnparsableResponsesCountAsFailed) {
  const std::vector<Json> expect = {submit_expect(0, 0, 1)};
  EXPECT_EQ(check_connection(
                {0}, {"{\"ok\": false, \"seq\": 0, \"error\": \"x\"}"}, expect)
                .failed,
            1u);
  EXPECT_EQ(check_connection({0}, {"{\"ok\": tr"}, expect).failed, 1u);
}

}  // namespace
}  // namespace perfbench
