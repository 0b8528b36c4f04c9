#!/usr/bin/env python3
"""Run one ftbench workload under several seeds and report, per metric,
the median and the quartile spread (q3 - q1) / median, as Markdown.
Untraced runs also get a second table: the run's slowdown (from the
speed probe) and the raw, not speed-normalized, median of each class.

    python3 ftbench/steadiness.py <workload> [--seeds 1-10] [--seconds 40] [--trace 0]

Run from the repository root. Raw values go to stderr as JSON lines.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

RAW = re.compile(r"^note: raw (.+?): p25 \S+ \S+, p50 (\S+) (\S+),")
SLOWDOWN = re.compile(r"^note: speed probe: slowdown (\S+)")


def row(name, unit, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return f"| `{name}` | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs, raws = [], []
    for seed in range(lo, hi + 1):
        cmd = ["cargo", "run", "--release", "--quiet", "--manifest-path", "ftbench/Cargo.toml", "--",
               "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        raw = {}
        for line in lines:
            if m := SLOWDOWN.match(line):
                raw["slowdown"] = (float(m.group(1)), "ratio")
            elif m := RAW.match(line):
                raw[f"raw {m.group(1)} p50"] = (float(m.group(2)), m.group(3))
        print(json.dumps({"seed": seed, **result, "raw": raw}), file=sys.stderr, flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: run not correct")
        runs.append(result["metrics"])
        raws.append(raw)
    print(f"| {args.workload} metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name, first in runs[0].items():
        print(row(name, first["unit"], [r[name]["value"] for r in runs]))
    if raws[0]:
        print()
        print(f"| {args.workload} probe and raw timing | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, (_, unit) in raws[0].items():
            print(row(name, unit, [r[name][0] for r in raws]))


if __name__ == "__main__":
    main()
