#!/usr/bin/env python3
"""Steadiness mode for the whole-study benchmark.

    python3 studybench/steady.py run --runs 10 --seed-base 100 --out set1.json
    python3 studybench/steady.py run --runs 10 --seed-base 200 --out set2.json
    python3 studybench/steady.py compare set1.json set2.json
    python3 studybench/steady.py run --runs 10 --seed-base 1 --same-seed

`run` invokes BENCHMARK.json's command, with its `run_seconds`, once per seed
(seed-base, seed-base+1, ...) on every workload and prints, per metric, the
median, the quartiles and the spread (quartile distance as a share of the
median) against a third of the metric's bound. With `--same-seed` every run
uses seed-base, so the spread is run-to-run noise alone, without the
seed-to-seed differences of the generated workloads. `--trace 1` collects
the per-layer metrics instead and prints each workload's layer split (self
time per layer).

`compare` checks that the second set's median of every end-to-end metric is
no worse than the first set's by more than the metric's bound.

Run from the repository root. CARGO_TARGET_DIR defaults to `.bench_build`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ["world", "scan", "store", "core"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return result


def cmd_run(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = [args.seed_base + (0 if args.same_seed else i) for i in range(args.runs)]
    collected = {}
    for w in (w["name"] for w in spec["workloads"]):
        samples = {}
        for seed in seeds:
            result = run_once(spec, w, seed, spec["run_seconds"], args.trace)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed} done", file=sys.stderr)
        collected[w] = samples
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        print(f"\n{w}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
        for name, values in samples.items():
            q1, q2, q3 = quartiles(values)
            line = (f"  {name:<28} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                    f"{spread(values):>8.4f}  {units.get(name, '')}")
            bound = bounds.get(name)
            if bound is not None:
                ok = spread(values) < bound / 3
                line += f"  (bound {bound}, {'steady' if ok else 'NOT steady'})"
            print(line)
        if args.trace:
            split = {layer: statistics.median(samples[f"{layer}.self_s"]) for layer in LAYERS}
            ranked = sorted(split.items(), key=lambda kv: -kv[1])
            print("  layer split (median self time): "
                  + ", ".join(f"{layer} {t:.4f}s" for layer, t in ranked))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"trace": args.trace, "samples": collected}, f, indent=1)


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)["samples"]
    with open(args.second) as f:
        second = json.load(f)["samples"]
    ok = True
    for w in first:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in first[w] or name not in second.get(w, {}):
                continue
            a = statistics.median(first[w][name])
            b = statistics.median(second[w][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = worse <= m["bound"]
            ok &= good
            print(f"  {w:<16} {name:<24} {a:>14.6g} -> {b:>14.6g}  "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {'ok' if good else 'FAIL'}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=100)
    r.add_argument("--same-seed", action="store_true")
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    main()
