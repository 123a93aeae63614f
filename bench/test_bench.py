"""The benchmark's own test.

    python3 -m pytest -q -s bench/test_bench.py

For each workload it runs the traced run twice at one seed and the untraced
run once, with a short window.  Every count metric must repeat exactly, every
campaign must meet its expected verdict, and the first round's reports must be
byte-identical across the three runs.  It prints the tracing overhead as the
traced campaign group times minus the untraced ones.  It takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = "3"
SECONDS = "1"
COUNT_UNITS = ("count", "ratio")

# counts each workload is built to drive, and counts it must leave at zero
EXERCISED = {
    "exact-top": (["shapespace.det.calls", "shapespace.minors_read"],
                  ["functions.evaluations", "simplex.pivots"]),
    "exact-mid": (["multiindex.block_partitions.yielded", "projection.minor_power_map.cells"],
                  ["functions.evaluations", "simplex.pivots"]),
    "float-sampled": (["functions.evaluations", "simplex.pivots", "sampling.draws"],
                      ["shapespace.minors_computed", "exterior.wedge.exact.calls"]),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> tuple[dict, dict]:
    code, stdout = run(workload, trace)
    lines = stdout.strip().splitlines()
    full, last = json.loads(lines[-2]), json.loads(lines[-1])
    assert code == 0, full["failures"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return full, last


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_and_verdicts_hold(workload):
    first, first_last = result(workload, 1)
    second, _ = result(workload, 1)
    untraced, untraced_last = result(workload, 0)

    assert set(first_last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(untraced_last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["round0_digest"] == second["round0_digest"] == untraced["round0_digest"]

    driven, untouched = EXERCISED[workload]
    for name in driven:
        assert first["metrics"][name]["value"] > 0, name
    for name in untouched:
        assert first["metrics"][name]["value"] == 0, name

    for group in ("verify", "powermap", "gradient", "lines", "fit", "lp"):
        if f"{group}_s" not in untraced["groups"]:
            continue
        traced = first["metrics"][f"campaign.{group}.s"]["value"]
        plain = untraced["groups"][f"{group}_s"]["median"]
        print(f"\n{workload} {group}: traced {traced:.4f} s, untraced {plain:.4f} s, "
              f"tracing overhead {traced - plain:+.4f} s ({(traced - plain) / plain:+.0%})")


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, stdout = run("exact-top", 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout
