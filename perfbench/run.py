#!/usr/bin/env python3
"""Run one benchmark workload and print its result line (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N]   # self-test, then every workload
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the library, the daemon
and the benchmark program into .bench_build/perfbench. The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Progress and the traffic properties the run measured go to standard error.
"""
import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["sweep_online", "sweep_offline", "serve_race", "serve_sdem"]
POLICY = {"serve_race": "race", "serve_sdem": "sdem-on"}
DAEMON_STARTS = 5  # daemon starts per traced serve run; the last one serves


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets,
                   check=True, stdout=sys.stderr)


def start_daemon(policy):
    """Start sdem_service on a free port; time until its first answer."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [os.path.join(BUILD, "sdem_service"), "--policy", policy,
         "--shards", "2", "--acceptors", "1", "--port", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stderr.readline()
        if not line.startswith("listening on 127.0.0.1:"):
            raise RuntimeError("daemon did not start: " + line.strip())
        port = int(line.split(":")[1].split()[0])
        # Keep reading stderr so the daemon never blocks on a full pipe.
        threading.Thread(target=proc.stderr.read, daemon=True).start()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(b'{"op":"STATS"}\n')
            answer = s.makefile().readline()
        if not json.loads(answer).get("ok"):
            raise RuntimeError("daemon's first answer failed: " + answer)
        return proc, port, time.perf_counter() - t0
    except BaseException:
        stop_daemon(proc, None)
        raise


def stop_daemon(proc, port):
    if port is not None and proc.poll() is None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(b'{"op":"SHUTDOWN"}\n')
                s.makefile().readline()
        except OSError:
            pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def run_driver(args, extra):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt")] + extra
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("perfbench failed with exit code %d" % out.returncode)
    return json.loads(lines[-1])


def run_workload(args):
    if args.workload in POLICY and args.trace:
        # The traced serve run drives the real daemon over TCP.
        starts = []
        for _ in range(DAEMON_STARTS - 1):
            proc, port, secs = start_daemon(POLICY[args.workload])
            starts.append(secs)
            stop_daemon(proc, port)
        proc, port, secs = start_daemon(POLICY[args.workload])
        starts.append(secs)
        try:
            result = run_driver(args, ["--port", str(port),
                                       "--daemon-pid", str(proc.pid)])
        finally:
            stop_daemon(proc, port)
        result["metrics"]["service.daemon_start_s"]["value"] = (
            statistics.median(starts))
    else:
        result = run_driver(args, [])

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(got.items()) ^ set(want.items())))
    log(json.dumps({"workload": args.workload, "extra": result["extra"]}))
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def selftest():
    build(["perfbench_selftest"])
    return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          stdout=sys.stderr).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="self-test, then every workload untraced and traced")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        build(["perfbench", "sdem_service"])
        if args.all:
            rc = selftest()
            for w in WORKLOADS:
                for t in (0, 1):
                    args.workload, args.trace = w, t
                    print(json.dumps(dict(run_workload(args), workload=w,
                                          trace=t)), flush=True)
            return rc
        if args.workload is None:
            p.error("--workload is required")
        print(json.dumps(run_workload(args)), flush=True)
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
