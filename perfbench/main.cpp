// perfbench — the benchmark program behind perfbench/run.py.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--golden PATH] [--port P --daemon-pid PID]
//   perfbench record > perfbench/golden.txt
//
// Prints one JSON line: correct/attempted/failed, the metrics with their
// units (end-to-end with --trace 0, per-layer with --trace 1) and an
// "extra" object of traffic properties that run.py shows on stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc == 2 && std::string(argv[1]) == "record") {
    return perfbench::record_golden();
  }
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (flag == "--golden") {
      a.golden = v;
    } else if (flag == "--port") {
      a.port = std::atoi(v);
    } else if (flag == "--daemon-pid") {
      a.daemon_pid = std::atoi(v);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || !(a.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: flags come in pairs; --seconds > 0\n");
    return 2;
  }
  try {
    perfbench::Report r;
    if (a.workload == "sweep_online" || a.workload == "sweep_offline") {
      r = perfbench::run_sweep(a);
    } else if (a.workload == "serve_race" || a.workload == "serve_sdem") {
      r = perfbench::run_serve(a);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    std::printf("%s\n", r.dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
