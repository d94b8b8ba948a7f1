#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two checkouts.

Usage::

    python3 scripts/ab.py BASE_DIR CHANGE_DIR --workload W --pairs N --seconds S

Each pair runs ``perfbench/run.py --workload W --seed 1 --trace 0`` once in
each checkout, one after the other; the side that goes first alternates
from one pair to the next, so drift in host speed falls on both sides alike.  Only
the last line of each run's standard output, the result object, is read.
``--workload`` may be given more than once; ``--seconds`` defaults to the
``run_seconds`` of CHANGE_DIR's ``BENCHMARK.json``.

For each end-to-end metric listed in CHANGE_DIR's ``BENCHMARK.json`` it
prints one markdown table row: both sides' medians with their interquartile
ranges, the ratio of the medians (change / base) with a bootstrap 95%
interval, the pairs in which the change was strictly better, and the
failed operations summed over each side's runs.  The interval resamples
whole pairs, so it keeps the pairing, from a fixed seed, so a table
reprints the same from the same runs.  Runs that print no result, or report ``correct: false``, are
listed after the table.  The script only reports: it has no pass/fail gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seconds: float) -> "dict | None":
    """One benchmark run in ``checkout``; its result object, or None."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def benchmark_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(Q1, median, Q3); a lone value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: Resamples behind each ratio interval, and the seed they are drawn from.
BOOTSTRAP_DRAWS = 2000
BOOTSTRAP_SEED = 0


def ratio_interval(both: "list[tuple[float, float]]") -> "tuple[float, float]":
    """Bootstrap 95% interval of median(change) / median(base) over pairs."""
    draw = random.Random(BOOTSTRAP_SEED).choices
    ratios = []
    for _ in range(BOOTSTRAP_DRAWS):
        sample = draw(both, k=len(both))
        base_med = statistics.median(b for b, _ in sample)
        if base_med:
            ratios.append(statistics.median(c for _, c in sample) / base_med)
    if not ratios:
        return float("nan"), float("nan")
    ratios.sort()
    return (ratios[int(0.025 * (len(ratios) - 1))],
            ratios[int(0.975 * (len(ratios) - 1))])


def summary(values: "list[float]") -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} ({q1:.4g}–{q3:.4g})"


def table_rows(workload: str, pairs: "list[tuple[dict | None, dict | None]]",
               metrics: "list[tuple[str, str]]") -> "list[str]":
    """One markdown row per metric over the pairs where both sides ran."""
    done = [(b, c) for b, c in pairs if b is not None and c is not None]
    failed = [
        sum(int(r.get("failed", 0)) for r in side if r is not None)
        for side in zip(*pairs)
    ]
    rows = []
    for name, better in metrics:
        both = [
            (b["metrics"][name]["value"], c["metrics"][name]["value"])
            for b, c in done
            if name in b.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not both:
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in both)
        base_med = statistics.median(base)
        ratio = statistics.median(change) / base_med if base_med else float("nan")
        low, high = ratio_interval(both)
        rows.append(
            f"| {workload} | {name} | {len(both)} | {summary(base)} | "
            f"{summary(change)} | {ratio:.3f} | {low:.3f}–{high:.3f} | "
            f"{wins}/{len(both)} | {failed[0]}/{failed[1]} |"
        )
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = benchmark_spec(args.change_dir)
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("| workload | metric | pairs | base median (IQR) | change median (IQR) "
          "| ratio | ratio 95% CI | change wins | failed base/change |")
    print("|---|---|---|---|---|---|---|---|---|")
    problems = []
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            dirs = (args.base_dir, args.change_dir)
            pair: "list[dict | None]" = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                pair[side] = run_once(dirs[side], workload, seconds)
            for side, result in zip(("base", "change"), pair):
                if result is None:
                    problems.append(f"{workload} pair {i}: {side} printed no result")
                elif not result.get("correct", False):
                    problems.append(f"{workload} pair {i}: {side} reported correct: false")
            pairs.append(tuple(pair))
        for row in table_rows(workload, pairs, metrics):
            print(row, flush=True)
    for line in problems:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
