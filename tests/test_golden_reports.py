"""The golden corpus: every pinned CLI run and report, each listed once.

A CLI case is one line of golden_cases.json (a ``Case``): one ``extconv`` run
with its arguments, where a name from ``INPUTS`` stands for a file written
from it (JSON, or bytes as they are); its exit code; exactly one expectation
on stdout (the exact text, the sha256 of its bytes, or the ``status`` of its
JSON report); and its count of stderr lines.  One runner, ``check_case``,
runs a case in one of two ways:

- tier-1 runs each case through ``cli.main`` in-process;
- run as a script, this module runs each case through the installed
  ``extconv`` entry point in a subprocess, then the library checks
  (``LIBRARY_CHECKS``) against the installed package.  It refuses to start
  when ``extconv`` resolves inside this checkout.  CI runs it from outside:

      python -m pip install . && cd "$TMPDIR" && python <checkout>/tests/test_golden_reports.py

``fit-quasiaffine`` is left out, and ``support-lp`` pins only its status:
their floats go through LAPACK and BLAS, whose last bits depend on the build.
``REPORTS`` pins the sha256 of bytes that no command prints: lift
cross-checks, seeded polynomial forms with their projected gradients and
classical derivatives, ``ShapeMatrix.to_json`` at k = 3 (row labels no
command writes), and the support LP's 500 drawn forms at (8,2) and their
wedge-power feature rows.

A refactor that claims to keep every output leaves every expectation as it
is.  To add a case, add its line (or a ``REPORTS`` entry) with a placeholder
expectation of the kind it pins, and copy in the JSON values that
``print_digests`` prints for it; it prints every case's current expectation:

    PYTHONPATH=src:tests python -c "import test_golden_reports as g; g.print_digests()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from extconv import (KForm, MinorTable, Poly, PolyKForm, ShapeMatrix, d_classical, d_right,
                     gradient, minor_power_map, project_polynomial, pullback_support,
                     scalar_product, table_inner)
from extconv.cli import main
from extconv.convexity import SamplerConfig, _power_features, cross_check_lift
from extconv.functions import FormFunction
from extconv.multiindex import enumerate_multiindices
from extconv.sampling import SUPPORT, _words, random_form_rows

CHECKOUT = Path(__file__).resolve().parents[1]


def seeded_form(n: int, k: int, a: int, b: int) -> dict:
    """A rational (n, k) form JSON: coefficient i is ((a·i + b) mod 11 − 5)/(i mod 3 + 1)."""
    coeffs = {}
    for i, key in enumerate(enumerate_multiindices(n, k)):
        q = Fraction((a * i + b) % 11 - 5, i % 3 + 1)
        if q:
            coeffs[",".join(map(str, key))] = str(q)
    return {"n": n, "k": k, "coeffs": coeffs}


def neg_norm_sq(n: int) -> dict:
    return {"n": n, "k": 2, "expr": {"op": "neg", "arg": {"op": "norm_sq", "arg": "xi"}}}


def matrix(k: int, rows: list[str], data: list[list]) -> dict:
    return {"n": len(data[0]), "k": k, "rows": rows, "data": data}


M3 = [[1, 2, 0], [0, 3, 4], [5, 0, 6]]
INPUTS = {
    "matrix_exact": matrix(2, ["1", "2", "3", "4"], [[0, "3/2", -1, 2], [1, 0, 5, "-7/3"],
                                                    ["1/4", -2, 0, 3], [4, "5/6", -3, 1]]),
    # k = 3, so every row label holds a comma and adjugate rows pair such labels
    "matrix_exact_k3": matrix(3, ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"],
                              [[1, "-1/2", 0, 3], [2, 0, "5/3", -1], [0, 4, -2, "1/5"],
                               ["-3/4", 1, 0, 2], [5, -1, "2/7", 0], [0, "3/2", 1, -4]]),
    "matrix_float": matrix(2, ["1", "2", "3", "4"],
                           [[0.0, 1.5, -1.1, 2.3], [0.7, 0.0, 5.25, -2.375],
                            [0.25, -2.2, 0.1, 3.0], [4.0, 0.8333, -3.3, 1.01]]),
    "matrix_2": matrix(2, ["1", "2"], [[0, 1], [0, 0]]),
    "matrix_3": matrix(2, ["1", "2", "3"], M3),
    "matrix_3_k3": matrix(3, ["1,2", "1,3", "2,3"], M3),
    # the full layout's plan: all 14 400 order-3 minors, 1 620 shared 2×2 minors
    "matrix_10": matrix(2, [str(i) for i in range(1, 11)],
                        [[(7 * i + 3 * j * j) % 11 - 5 for j in range(10)] for i in range(10)]),
    "form_exact": {"n": 6, "k": 2, "coeffs": {"1,2": "3/2", "1,4": "-2", "2,5": "7",
                                              "3,4": "1/3", "3,6": "-5/4", "5,6": "2"}},
    "form_float": {"n": 6, "k": 2, "coeffs": {"1,2": 1.5, "1,4": -0.2, "2,5": 7.125, "3,4": 0.3,
                                              "3,6": -1.25, "4,6": 2.0, "5,6": 0.1}},
    "zero_form": {"n": 4, "k": 0, "coeffs": {"": "-3/2"}},
    "norm_sq": {"n": 4, "k": 2, "expr": {"op": "norm_sq", "arg": "xi"}},
    "neg_norm_sq": neg_norm_sq(4),
    "neg_norm_sq_8": neg_norm_sq(8),
    "top_power": {"n": 4, "k": 2, "expr": {"op": "inner", "form": "e1234",
                                           "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}},
    # a planted (6,2) pairing with its wedge powers out of order (s = 3, 1, 2):
    # its bytes pin the power chain the powers share
    "planted_out_of_order": {"n": 6, "k": 2, "expr": {"op": "add", "args": [
        {"op": "inner", "form": seeded_form(6, 6, 3, 2),
         "arg": {"op": "wedge_pow", "s": 3, "arg": "xi"}},
        {"op": "inner", "form": seeded_form(6, 2, 7, 3),
         "arg": {"op": "wedge_pow", "s": 1, "arg": "xi"}},
        {"op": "const", "value": "-7/4"},
        {"op": "inner", "form": seeded_form(6, 4, 5, 1),
         "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}]}},
    # input that cannot be read: a file that is not UTF-8, a bool exponent
    "latin1": b'\xff\xfe{"n":4}',
    "bool_exponent": {"n": 4, "k": 2, "expr": {"op": "pow", "exp": True,
                                               "base": {"op": "norm_sq", "arg": "xi"}}},
}


class Case(NamedTuple):
    """One CLI run and what it prints; exactly one of ``stdout``, ``sha256``
    (of the stdout bytes) and ``status`` is set, and ``why`` says what the
    case pins beyond its command."""
    name: str
    args: str
    exit: int = 0
    stdout: str | None = None
    sha256: str | None = None
    status: str | None = None
    stderr: int = 0
    why: str = ""


CASES = [Case(**case) for case in
         json.loads(Path(__file__).with_name("golden_cases.json").read_text(encoding="utf-8"))]

CLI = {case.name: case for case in CASES}


def input_bytes(name: str) -> bytes:
    data = INPUTS[name]
    return data if isinstance(data, bytes) else json.dumps(data).encode()


def run_case(case: Case, command: list[str] | None = None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, its inputs written to a fresh
    directory: by ``cli.main`` in-process, or by ``command`` in a subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in case.args.split():
            if arg in INPUTS:
                path = Path(tmp) / f"{arg}.json"
                path.write_bytes(input_bytes(arg))
                arg = str(path)
            argv.append(arg)
        if command:
            done = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8")
            return done.returncode, done.stdout, done.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def observed(case: Case, stdout: str) -> tuple[str, str]:
    """The kind of the case's stdout expectation, and its value read off ``stdout``."""
    if case.stdout is not None:
        return "stdout", stdout
    if case.sha256 is not None:
        return "sha256", hashlib.sha256(stdout.encode()).hexdigest()
    return "status", json.loads(stdout)["status"]


def check_case(case: Case, command: list[str] | None = None) -> None:
    code, out, err = run_case(case, command)
    assert (code, err.count("\n")) == (case.exit, case.stderr), (case.name, code, err)
    kind, value = observed(case, out)
    assert value == getattr(case, kind), (case.name, kind, value)


def to_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


def lift(n: int, k: int, backend: str) -> bytes:
    return to_bytes(cross_check_lift(FormFunction.norm_squared(n, k),
                                     SamplerConfig(seed=4, trials=60), backend=backend))


def poly_form(rng: random.Random, n: int, r: int, terms: int = 3, degree: int = 3):
    """A seeded polynomial r-form, drawn as bench/workload.py's ``poly_form`` draws it."""
    coeffs = {}
    for mi in enumerate_multiindices(n, r):
        monomials = {}
        for _ in range(rng.randint(1, terms)):
            expo = [0] * n
            for _ in range(rng.randint(1, degree)):
                expo[rng.randrange(n)] += 1
            monomials[tuple(expo)] = monomials.get(tuple(expo), 0) \
                + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        coeffs[mi] = Poly(n, monomials)
    return PolyKForm(n, r, coeffs)


def poly(n: int, k: int) -> bytes:
    rng = random.Random(11)
    forms = [poly_form(rng, n, k - 1) for _ in range(4)]
    return json.dumps([{"form": w.to_json(),
                        "projected_gradient": project_polynomial(gradient(w)).to_json(),
                        "classical": d_classical(w).to_json()} for w in forms],
                      sort_keys=True).encode()


def stack(features: bool) -> bytes:
    """The support LP's sample at seed 3, or its feature rows, as little-endian bytes."""
    rows = random_form_rows(8, 2, 3, range(500), 2.0, SUPPORT)
    rows = _power_features(rows, 8, 2) if features else rows
    return repr(rows.shape).encode() + rows.astype("<f8").tobytes()


REPORTS = {    # name: (its report bytes, their sha256)
    "lift-4-2-exact": (lambda: lift(4, 2, "exact"),
                       "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b"),
    "lift-4-2-float": (lambda: lift(4, 2, "float"),
                       "49ccd811486e5cbf0bb26e09aa14bf47c7c9f4dee34f5ad84929cd1776971bd8"),
    "lift-5-3-exact": (lambda: lift(5, 3, "exact"),
                       "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b"),
    "lift-5-3-float": (lambda: lift(5, 3, "float"),
                       "4850d564651d74cc456d46165d44453ad2e6ff365f995f8f432f1db36e70ed12"),
    "poly-8-3": (lambda: poly(8, 3),
                 "8c63938ced4fb0ac5375f42f69e171ca27b56890063172948fdc1dfcd3d4b874"),
    "poly-4-2": (lambda: poly(4, 2),
                 "c28060af2f7bebafda8834e3ca0ce9721a87a9b30abc1e92a98e76e444d1f544"),
    "matrix-json-5-3": (lambda: to_bytes(ShapeMatrix(5, 3, [
        [Fraction((3 * r - 2 * c) % 11 - 5, 1 + (r + c) % 3) for c in range(5)]
        for r in range(10)])), "e9bf8f9c6957a8934c3f55d1329afe7a684ed117afe1b3dbca2ce0ed20345bbf"),
    "matrix-json-gradient-4-3": (lambda: to_bytes(gradient(poly_form(random.Random(13), 4, 2))),
                                 "42fc953460d8f39cea2b79be0e94f9d1118c993e4636c524733fda48f090cfec"),
    "support-draws-8-2": (lambda: stack(False),
                          "dd473489c39331452f96c71d265f5516ca667b9f71129e3c56bdf26c20fb44d6"),
    "support-features-8-2": (lambda: stack(True),
                             "4907340ddfdda8b1127e737646e362e5aa50d157be21cd6797aae2c9348cbed1"),
}


def digest(name: str) -> str:
    return hashlib.sha256(REPORTS[name][0]()).hexdigest()


def check_star_import() -> None:
    """The star import fails if ``__all__`` lists a name the package lost."""
    exec("from extconv import *", {})


def check_philox_known_answer() -> None:
    """Random123's first known-answer vector: Philox4x32-10 at counter 0, key 0."""
    words = _words(0, 0, np.zeros(1, int), np.zeros(1, int), 4).tolist()
    assert words == [[0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8]], words


def check_d_identity_2_1() -> None:
    """w = x2·e^1 has dw = e^1 ∧ e^2 by the projected gradient and by ``d_right``."""
    w = PolyKForm(2, 1, {(1,): Poly.variable(2, 2)})
    want = {"n": 2, "k": 2, "coeffs": {"1,2": "1"}}
    assert project_polynomial(gradient(w)).to_json() == want == d_right(w).to_json()
    p = Poly.parse("1/2*x1*x2", 2)
    assert str(p + p) == "x1*x2" and not (p - p)


def check_d_identity_8_3() -> None:
    """An (8,3) polynomial 2-form with exponents 2 and 3 and Fraction
    coefficients has one dw by the projected gradient, the wedge table and,
    at r = 2, the componentwise formula over ``Poly.diff``."""
    w = PolyKForm(8, 2, {(a, b): Poly.parse(f"{j + 1}/{j % 5 + 2}*x{a}^2*x{b}^3"
                                            f" - 1/3*x{j % 8 + 1}^3", 8)
                         for j, (a, b) in enumerate(itertools.combinations(range(1, 9), 2))})
    dw = d_right(w)
    assert project_polynomial(gradient(w)) == dw == d_classical(w) and not dw.is_zero()


def check_pullback_adjoint_4_2() -> None:
    """At (4,2) the pullback of D_s pairs with every minor table exactly as D_s
    pairs with its power-map image, s = 1, 2; a float pairing that meets only
    zeros, −0.0 among them, is +0.0."""
    rng = random.Random(5)
    draw = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))    # noqa: E731
    forms = [KForm(4, 2 * s, [draw() for _ in range(math.comb(4, 2 * s))]) for s in (1, 2)]
    for s, D, d in zip((1, 2), forms, pullback_support(forms)):
        M = MinorTable(4, 2, s, [[draw() for _ in range(math.comb(4, s))]
                                 for _ in range(math.comb(4, s))])
        left, right = table_inner(d, M), scalar_product(D, minor_power_map(4, 2, s).apply(M))
        assert left == right and left != 0, (s, left, right)
    zero = table_inner(MinorTable(4, 2, 1, [[-0.0, 1.0, 0.0, -0.0]] * 4, "float"),
                       MinorTable(4, 2, 1, [[1.0, 0.0, -0.0, 2.0]] * 4, "float"))
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0, zero


def check_rational_adjoint_8_2() -> None:
    """At (8,2), s = 1..4, both sides of the adjointness identity sum integer
    numerators over one denominator."""
    D = [KForm(8, 2 * s, [Fraction(i % 7 - 3, i % 4 + 1) for i in range(math.comb(8, 2 * s))])
         for s in (1, 2, 3, 4)]
    pairs = []
    for s, f, d in zip((1, 2, 3, 4), D, pullback_support(D)):
        m = MinorTable(8, 2, s, [[Fraction(3 * r - c + 1, r + 2 * c + 1) for c in
                                  range(math.comb(8, s))] for r in range(math.comb(8, s))])
        pairs.append((table_inner(d, m), scalar_product(f, minor_power_map(8, 2, s).apply(m))))
    assert all(a == b and a for a, b in pairs), pairs


LIBRARY_CHECKS = [check_star_import, check_philox_known_answer, check_d_identity_2_1,
                  check_d_identity_8_3, check_pullback_adjoint_4_2, check_rational_adjoint_8_2]


def print_digests() -> None:
    for case in CASES:
        code, out, err = run_case(case)
        kind, value = observed(case, out)
        print(case.name, json.dumps({"exit": code, kind: value, "stderr": err.count("\n")}))
    for name in REPORTS:
        print(name, json.dumps(digest(name)))


@pytest.mark.parametrize("name", [*CLI, *REPORTS])
def test_report_bytes_unchanged(name):
    if name in CLI:
        check_case(CLI[name])
    else:
        assert digest(name) == REPORTS[name][1]


# one case of each exit code through the subprocess path, so a runner bug shows before CI
@pytest.mark.parametrize("name", ["verify-8-2-4", "seed-negative"])
def test_cli_case_in_subprocess(name, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(CHECKOUT / "src"))
    check_case(CLI[name], [sys.executable, "-m", "extconv"])


def test_corpus_is_complete():
    """Names are unique, every input is read, no run is listed twice, and
    every case has exactly one stdout expectation."""
    assert len(CLI) == len(CASES) and not CLI.keys() & REPORTS.keys()
    args = [case.args.split() for case in CASES]
    assert set(INPUTS) <= {arg for argv in args for arg in argv}
    assert len({tuple(input_bytes(arg) if arg in INPUTS else arg for arg in argv)
                for argv in args}) == len(CASES)
    for case in CASES:
        assert [case.stdout, case.sha256, case.status].count(None) == 2, case.name
        if case.exit == 2:    # unreadable input: nothing on stdout, one line on stderr
            assert (case.stdout, case.stderr) == ("", 1), case.name


@pytest.mark.parametrize("check", LIBRARY_CHECKS, ids=lambda check: check.__name__)
def test_library(check):
    check()


def run_installed() -> None:
    """Every case by the installed ``extconv`` entry point, then every library
    check; refused when the entry point or the package is inside this checkout."""
    import extconv
    entry = shutil.which("extconv")
    for where in (entry, extconv.__file__):
        if where is None or Path(where).resolve().is_relative_to(CHECKOUT):
            sys.exit(f"extconv resolves to {where}, not to an install outside {CHECKOUT}")
    for case in CASES:
        check_case(case, [entry])
        print("ok", case.name)
    for check in LIBRARY_CHECKS:
        check()
        print("ok", check.__name__)


if __name__ == "__main__":
    run_installed()
