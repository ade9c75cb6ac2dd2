#!/usr/bin/env python3
"""Steadiness of the benchmark: capture sets of runs, compare two of them.

    python3 perfbench/steadiness.py capture OUT.jsonl [--runs 10]
        [--seconds 10] [--workloads a,b] [--first-seed 1]
    python3 perfbench/steadiness.py report SET_A.jsonl SET_B.jsonl
        [--workloads a,b]

`capture` runs perfbench/run.py once per seed (first-seed, first-seed+1,
...) on each workload, untraced, and appends one JSON line per run: the
workload, the seed, the environment and replays records and the result.  Run it from
the repository root.

`report` prints, for every workload and end-to-end metric, each set's
median and quartiles, its spread (interquartile distance / median) and the
set-to-set change of the median, judged against the metric's bound in
BENCHMARK.json: every spread must stay under the bound and the second
median may be worse than the first by at most the bound.  Two
sets captured at different times show the drift a single set cannot.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(args):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in load_benchmark()["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                lines = done.stdout.splitlines()
                record = {"workload": workload, "seed": seed,
                          "exit": done.returncode,
                          "environment": tagged_line(lines, "environment"),
                          "replays": tagged_line(lines, "replays"),
                          "result": json.loads(lines[-1]) if lines else None}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)


def tagged_line(lines, tag):
    """The JSON after `tag ` on the first stdout line that starts with it."""
    return next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith(tag + " ")), {})


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path):
    """{workload: {metric: [values]}} over the correct runs of a set."""
    values = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            result = record["result"]
            if not result or not result["correct"]:
                continue
            per_metric = values.setdefault(record["workload"], {})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return values


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worsening(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def judge(a, b, bound, better):
    """Problems of one metric over two sets of values; empty when steady.

    "spread>=bound/3" is a warning that leaves the verdict steady.
    """
    spread_a, spread_b = spread(a), spread(b)
    problems = []
    if spread_a >= bound or spread_b >= bound:
        problems.append("spread>=bound")
    elif max(spread_a, spread_b) >= bound / 3:
        problems.append("spread>=bound/3")
    if worsening(quartiles(a)[1], quartiles(b)[1], better) > bound:
        problems.append("drift>bound")
    return problems


def report(args):
    benchmark = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in benchmark["workloads"]]
    sets = [load_set(args.set_a), load_set(args.set_b)]
    ok = True
    lines = []
    header = (f"{'workload':<17} {'metric':<18} {'bound':>5} | "
              f"{'A q1':>11} {'A median':>11} {'A q3':>11} {'A spr':>6} | "
              f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'B spr':>6} | "
              f"{'B vs A':>7} {'worse':>6}  verdict")
    lines.append(header)
    lines.append("-" * len(header))
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = sets[0].get(workload, {}).get(name, [])
            b = sets[1].get(workload, {}).get(name, [])
            if not a or not b:
                lines.append(f"{workload:<17} {name:<18} missing in a set")
                ok = False
                continue
            qa, qb = quartiles(a), quartiles(b)
            spread_a, spread_b = spread(a), spread(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse = worsening(qa[1], qb[1], metric["better"])
            problems = judge(a, b, bound, metric["better"])
            if any(p != "spread>=bound/3" for p in problems):
                ok = False
            lines.append(
                f"{workload:<17} {name:<18} {bound:>5.2f} | "
                f"{qa[0]:>11.5g} {qa[1]:>11.5g} {qa[2]:>11.5g} "
                f"{spread_a:>6.3f} | {qb[0]:>11.5g} {qb[1]:>11.5g} "
                f"{qb[2]:>11.5g} {spread_b:>6.3f} | {change:>+7.3f} "
                f"{worse:>+6.3f}  {' '.join(problems) or 'ok'}")
    lines.append("")
    for label, values in zip("AB", sets):
        counts = {w: len(m.get("chunks_per_s", [])) for w, m in values.items()}
        lines.append(f"set {label}: correct runs per workload {counts}")
    lines.append("verdict: " + ("steady" if ok else "NOT steady"))
    print("\n".join(lines))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture")
    cap.add_argument("out")
    cap.add_argument("--runs", type=int, default=10)
    cap.add_argument("--seconds", type=int, default=None)
    cap.add_argument("--workloads", default="")
    cap.add_argument("--first-seed", type=int, default=1)
    rep = sub.add_parser("report")
    rep.add_argument("set_a")
    rep.add_argument("set_b")
    rep.add_argument("--workloads", default="")
    args = parser.parse_args()
    if args.command == "capture":
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        capture(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
