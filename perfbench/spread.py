#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and checks it against its bounds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--out RUNS.jsonl] [--against FIRST.jsonl]
    python3 perfbench/spread.py --check RUNS.jsonl [--against FIRST.jsonl]

Run it from the repository root. Every run goes through perfbench/run.py
with BENCHMARK.json's run_seconds; each result line is appended to --out
as {"workload":..,"seed":..,"result":{..}}. An untraced set is then checked
against BENCHMARK.json: each end-to-end metric's spread over the seeds,
(q3 - q1) / median with the quartiles of statistics.quantiles(n=4), must
stay within its bound, and with --against an earlier set, the new median
must not be worse than the earlier one by more than the bound. That is the
held-out-seed check: measure seeds 1-10, then e.g. 101-110 --against the
first file. --check checks a set already on disk without running.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build helpers of the benchmark command)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """The run-to-run spread of one metric: (q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def median_ok(metric, baseline, candidate):
    """True when candidate's median is not worse than baseline's by more
    than the metric's bound."""
    base = statistics.median(baseline)
    cand = statistics.median(candidate)
    if metric["better"] == "lower":
        return cand <= base * (1.0 + metric["bound"])
    return cand >= base * (1.0 - metric["bound"])


def load_runs(path):
    """(workload -> metric -> values, every run correct) from a runs file."""
    values, correct = {}, True
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            entry = json.loads(line)
            result = entry["result"]
            correct = correct and result["correct"] is True
            per_metric = values.setdefault(entry["workload"], {})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    return values, correct


def check(spec, first, second=None):
    """Checks runs, as load_runs gives them, against the end_to_end bounds
    of the spec; `second` is a later set whose medians are compared with
    the first's. Returns (pass, report lines)."""
    ok = True
    lines = [f"{'workload':16} {'metric':18} {'median':>14} {'spread':>8} "
             + (f"{'spread2':>8} {'change':>8} " if second else "")
             + f"{'bound':>6} verdict"]
    for workload, metrics in first.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = metrics.get(name, [])
            other = (second or {}).get(workload, {}).get(name, [])
            if len(values) < 2 or (second is not None and len(other) < 2):
                lines.append(f"{workload:16} {name:18} missing")
                ok = False
                continue
            verdict = []
            if spread(values) > bound or (other and spread(other) > bound):
                verdict.append("SPREAD")
            if other and not median_ok(metric, values, other):
                verdict.append("MEDIAN")
            ok = ok and not verdict
            base = statistics.median(values)
            second_cols = (f"{spread(other):8.4f} "
                           f"{statistics.median(other) / base - 1:+8.4f} "
                           if other else "")
            lines.append(f"{workload:16} {name:18} {base:14.6g} "
                         f"{spread(values):8.4f} {second_cols}{bound:6.3f} "
                         f"{' '.join(verdict) or 'ok'}")
    return ok, lines


def collect(spec, seeds, workloads, trace, out_path):
    """Runs every (seed, workload) pair and appends the result lines to
    out_path. Returns False when a run fails."""
    with open(out_path, "a") as out:
        for seed in seeds:
            for workload in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", trace]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed",
                          file=sys.stderr)
                    return False
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out",
                        default=os.path.join(run.build_dir(), "runs.jsonl"))
    parser.add_argument("--against")
    parser.add_argument("--check", metavar="RUNS",
                        help="check this runs file instead of running")
    args = parser.parse_args()

    path = args.check
    if path is None:
        if not collect(spec, args.seeds, args.workloads.split(","),
                       args.trace, args.out):
            return 1
        if args.trace == "1":
            return 0
        path = args.out
    runs, correct = load_runs(path)
    if args.against:
        baseline, baseline_correct = load_runs(args.against)
        ok, lines = check(spec, baseline, runs)
        correct = correct and baseline_correct
    else:
        ok, lines = check(spec, runs)
    print("\n".join(lines))
    if not correct:
        print("some runs reported incorrect outputs")
    print("PASS" if ok and correct else "FAIL")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
