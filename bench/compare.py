"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the results ``run.py --record`` appended, one JSON object per
line; traced results are ignored.  BASE is the parent commit (or the first
set of a rerun), CHANGE the change (or the second set).  Runs pair by seed
when both sets hold the same seeds, otherwise in file order.

For every workload, each end-to-end metric of BENCHMARK.json and each
campaign group's normalized time ``<group>_norm`` (judged with the bound of
``round_norm``) gets the medians
and quartiles of both sets, the share of pairs the change wins, and a
verdict:

* better: the change wins at least nine tenths of at least ten pairs, ties
  counting for neither, and the medians differ by more than the distance
  between the base's quartiles;
* unresolved: the spread (quartile distance over median) of either set is
  wider than the bound, unless every run of the change reads better than
  every run of the base;
* worse: the change's median is worse than the base's by more than the bound;
* no worse: otherwise.

The exit code is 1 when any verdict is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SAME_ENVIRONMENT = ("nproc", "affinity_cpus", "python", "numpy", "blas", "blas_threads")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [r for r in rows if not r.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    if sorted(r["seed"] for r in base) == sorted(r["seed"] for r in change):
        key = lambda r: r["seed"]  # noqa: E731
        return list(zip(sorted(base, key=key), sorted(change, key=key)))
    return list(zip(base, change))


def verdict(a: list[float], b: list[float], wins: int, npairs: int, bound: float,
            lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qa[1] - qb[1])                 # > 0 when the change is better
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if npairs >= MIN_PAIRS and wins >= WIN_SHARE * npairs and gain > qa[2] - qa[0]:
        return "better"
    every_run_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(qa[1]):
        return "worse"
    return "no worse"


def series(runs: list[dict], metric: str, group: bool) -> list[float]:
    if group:
        return [r["groups"][metric]["median"] for r in runs]
    return [r["metrics"][metric]["value"] for r in runs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(args.base), load(args.change)

    for field in SAME_ENVIRONMENT:
        seen = {str(r["environment"].get(field)) for r in base + change}
        if len(seen) > 1:
            print(f"warning: the sets differ in {field}: {sorted(seen)}")

    failing = 0
    header = (f"{'workload':14} {'metric':14} {'base median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>7}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        matched = pairs([r for r in base if r["workload"] == workload],
                        [r for r in change if r["workload"] == workload])
        if not matched:
            continue
        a_runs = [a for a, _ in matched]
        b_runs = [b for _, b in matched]
        groups = sorted(g for g in a_runs[0]["groups"]
                        if g.endswith("_norm") and g not in e2e)
        rows = [(name, False) for name in e2e] + [(name, True) for name in groups]
        for name, group in rows:
            metric = e2e["round_norm" if group else name]
            lower = metric["better"] == "lower"
            a, b = series(a_runs, name, group), series(b_runs, name, group)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            result = verdict(a, b, wins, len(a), metric["bound"], lower)
            failing += result in ("worse", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14} {name:14} "
                  f"{qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                  f"{qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                  f"{(qb[1] - qa[1]) / qa[1]:>+8.1%} {wins:>3}/{len(a):<3}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
