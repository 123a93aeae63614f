"""Run one named workload of the extconv benchmark and print its metrics.

    python3 bench/run.py --workload exact-top [--seed 1] [--seconds 30] [--trace 0|1]
                         [--record results.jsonl]

From the root of a checkout.  The workload runs in fresh single-threaded
processes with BLAS pinned to one thread (``workload.py``): ``SETUPS``
processes set up and warm up, and the last of them then measures.  Input
files go to a temporary ``bench/.work-*`` directory, removed when the run ends.  Set-up
time is the median over those processes.  Every warm-up runs the same inputs,
so the reports of all processes must be byte-identical (compared by digest).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it holds the full result, with the campaign
group times and the environment block; ``--record`` appends that result to a
JSON-lines file for ``compare.py``.  The exit code is 1 when any campaign's
verdict differs from the expected one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919       # reserved for checking a claim; never tune against it
DEADLINE_S = 170.0         # the whole run, all processes
BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"     # every run compiles the same way
    return env


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, phase: str, workdir: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase, "--workdir", workdir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the measuring process started")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extconv" / "__init__.py").is_file():
        print(f"benchmark: no extconv package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            children = [run_child(args, "setup", workdir, deadline)
                        for _ in range(SETUPS - 1)]
            children.append(run_child(args, "measure", workdir, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    measured = children[-1]

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c["failures"]] + measured["round_failures"]
    digests = {c["warmup_digest"] for c in children}
    if len(digests) != 1:
        failed += 1
        failures.append(f"warm-up reports differ between processes: {sorted(digests)}")

    # per round: program seconds and normalized time, per group and in total
    seconds, norm = measured["seconds"], measured["norm"]
    detail = {"reference_s": measured["reference_s"],
              "round_s": [sum(t) for t in zip(*seconds.values())],
              "round_norm": [sum(t) for t in zip(*norm.values())]}
    for group in seconds:
        detail[f"{group}_s"] = seconds[group]
        detail[f"{group}_norm"] = norm[group]
    if args.trace:
        values = {**measured["counts"], **measured["timings"]}
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(c["setup_s"] for c in children),
                  "round_norm": statistics.median(detail["round_norm"]),
                  "peak_rss_mb": measured["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": measured["rounds"],
        "window_s": measured["window_s"],
        "metrics": metrics,
        "groups": {name: {"median": statistics.median(times), "quartiles": quartiles(times)}
                   for name, times in detail.items()},
        "setup_s_each": [c["setup_s"] for c in children],
        "setup_wall_s_each": [c["setup_wall_s"] for c in children],
        "missing_spans": measured.get("missing_spans", []),
        "verdict_error_ratio": failed / attempted,
        "round0_digest": measured["round0_digest"],
        "failures": failures[:20],
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **measured["environment"],
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(),
            "seed": args.seed,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
        },
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} verdict_error_ratio = {result['verdict_error_ratio']:.6g} "
          f"({failed} of {attempted} campaigns)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
