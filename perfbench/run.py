#!/usr/bin/env python3
"""Deployment benchmark: replays fixed streams through the cdpipe deployment.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench_driver (and the cdpipe
library from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
it for --seconds of replays.  Every replay replays the workload's fixed
stream, generated from --seed, through a fresh deployment, so each one
measures identical work; the run reports robust aggregates over them.

--trace 0 prints the end-to-end metrics of the untraced replays; --trace 1
prints the per-layer metrics of traced replays (a replica of the deployment
loop with a span around every layer call), interleaved with untraced ones
for the tracing overhead.  Either way, every replay's outputs are checked
(see metrics.check_replays) and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("url_continuous", "taxi_remat_spill")
# The seed whose outputs are committed in reference.json.
DEFAULT_SEED = 42
# What a run may take beyond --seconds: generating the stream, the warm-up,
# the replay in flight at the deadline and the traced replica (each a few
# seconds), with a wide margin for a slow machine.
PROCESS_SLACK_S = 90


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds perfbench_driver; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", "4", "--target",
         "perfbench_driver"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(cmake_dir, "perfbench_driver")


def run_driver(driver, args, timeout):
    """Runs one driver process; returns its JSON records or raises."""
    done = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"driver {' '.join(args)} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def filesystem_type(path):
    done = subprocess.run(["stat", "-f", "-c", "%T", path],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def cpu_times():
    """The machine's aggregate CPU times (the "cpu" line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 and len(deltas) > 7 else 0.0


def environment(driver, spill_root):
    """What the run ran on.  Diagnostic only: nothing here scales a metric."""
    calibration = run_driver(driver, ["--calibrate"], timeout=60)[0]
    return {
        "nproc": os.cpu_count(),
        "build_type": calibration["build_type"],
        "spill_fs": filesystem_type(spill_root),
        "loadavg_1m": os.getloadavg()[0],
        "calibration_mops": calibration["mops"],
    }


def measure(driver, workload, seed, seconds, trace, spill_root, spans_out):
    """One driver process: a warm-up replay, then timed replays for
    `seconds`.  Untraced runs end with one traced replica, whose outputs
    the correctness check compares with the untraced replays'; traced runs
    alternate traced and untraced replays."""
    return run_driver(driver, [
        f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
        f"--trace={trace}", f"--spill_root={spill_root}",
        f"--spans_out={spans_out}"], timeout=seconds + PROCESS_SLACK_S)


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)[workload]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        driver = build(build_dir)
    except (OSError, RuntimeError) as error:
        log(f"cannot build the benchmark: {error}")
        return 1
    spill_root = os.path.join(build_dir, "spill")
    os.makedirs(spill_root, exist_ok=True)
    spans_out = os.path.join(build_dir, f"spans_{args.workload}.json")

    try:
        env = environment(driver, spill_root)
        before = cpu_times()
        replays = measure(driver, args.workload, args.seed, args.seconds,
                          args.trace, spill_root, spans_out)
        env["steal_share"] = steal_share(before, cpu_times())
        print("environment " + json.dumps(env, sort_keys=True), flush=True)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as error:
        log(f"replay failed: {error}")
        print(json.dumps(metrics.result(False, 1, 1)))
        return 1

    problems = metrics.check_replays(
        replays, load_reference(args.workload, args.seed))
    attempted, failed = metrics.count_operations(replays)
    for problem in problems:
        log(f"incorrect: {problem}")
    if problems:
        failed += len(problems)
        print(json.dumps(metrics.result(False, attempted, failed)))
        return 1
    if args.trace:
        values, units = metrics.per_layer(replays), metrics.PER_LAYER
    else:
        values, units = metrics.end_to_end(replays), metrics.END_TO_END
    untraced = [r for r in replays if r["mode"] == "untraced"]
    # Diagnostic only: the rate per process CPU second, which leaves out
    # waits and time stolen by other guests (see metrics.replay_rates).
    cpu_rate = metrics.undisturbed(metrics.replay_rates(untraced,
                                                        "replay_cpu_s"))
    print("replays " + json.dumps({
        "untraced": len(untraced),
        "traced": len(replays) - len(untraced),
        "cpu_chunks_per_s": cpu_rate}), flush=True)
    print(json.dumps(metrics.result(True, attempted, failed, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
