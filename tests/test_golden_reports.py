"""Golden report bytes for a fixed CLI and cross-check corpus.

Each case runs one command in-process and hashes its exit code and the exact
bytes of its report.  A refactor that claims to keep every output must leave
every digest in ``GOLDEN`` as it is.  The polynomial cases pin the text of
seeded polynomial forms, of their projected gradients and of their classical
exterior derivatives.  ``fit-quasiaffine`` and ``support-lp``
are left out: their floats go through LAPACK and BLAS, whose last bits depend
on the build.

To print the digests of the current code:

    PYTHONPATH=src:tests python -c "import test_golden_reports as g; g.print_digests()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from extconv import scalars
from extconv.cli import main
from extconv.convexity import SamplerConfig, cross_check_lift
from extconv.functions import FormFunction
from extconv.multiindex import enumerate_multiindices
from extconv.polyform import Poly, PolyKForm, d_classical, gradient, project_polynomial

MATRIX_EXACT = {"n": 4, "k": 2, "rows": ["1", "2", "3", "4"],
                "data": [[0, "3/2", -1, 2], [1, 0, 5, "-7/3"],
                         ["1/4", -2, 0, 3], [4, "5/6", -3, 1]]}
MATRIX_FLOAT = {"n": 4, "k": 2, "rows": ["1", "2", "3", "4"],
                "data": [[0.0, 1.5, -1.1, 2.3], [0.7, 0.0, 5.25, -2.375],
                         [0.25, -2.2, 0.1, 3.0], [4.0, 0.8333, -3.3, 1.01]]}
FORM_EXACT = {"n": 6, "k": 2, "coeffs": {"1,2": "3/2", "1,4": "-2", "2,5": "7",
                                         "3,4": "1/3", "3,6": "-5/4", "5,6": "2"}}
FORM_FLOAT = {"n": 6, "k": 2, "coeffs": {"1,2": 1.5, "1,4": -0.2, "2,5": 7.125,
                                         "3,4": 0.3, "3,6": -1.25, "4,6": 2.0,
                                         "5,6": 0.1}}
ZERO_FORM = {"n": 4, "k": 0, "coeffs": {"": "-3/2"}}
NORM_SQ = {"n": 4, "k": 2, "expr": {"op": "norm_sq", "arg": "xi"}}
NEG_NORM_SQ = {"n": 4, "k": 2, "expr": {"op": "neg", "arg": {"op": "norm_sq", "arg": "xi"}}}
TOP_POWER = {"n": 4, "k": 2, "expr": {"op": "inner", "form": "e1234",
                                      "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}}

INPUTS = {"matrix_exact": MATRIX_EXACT, "matrix_float": MATRIX_FLOAT,
          "form_exact": FORM_EXACT, "form_float": FORM_FLOAT, "zero_form": ZERO_FORM,
          "norm_sq": NORM_SQ, "neg_norm_sq": NEG_NORM_SQ, "top_power": TOP_POWER}

CLI_CASES = {
    "pi-exact": ["pi", "--input", "matrix_exact"],
    "pi-float": ["pi", "--input", "matrix_float"],
    "pi-exact-as-float": ["pi", "--input", "matrix_exact", "--backend", "float"],
    "adjugate-exact": ["adjugate", "--input", "matrix_exact", "--s", "2"],
    "adjugate-float": ["adjugate", "--input", "matrix_float", "--s", "2"],
    "adjugate-float-top": ["adjugate", "--input", "matrix_float", "--s", "4"],
    "wedge-power-exact-2": ["wedge-power", "--input", "form_exact", "--s", "2"],
    "wedge-power-exact-3": ["wedge-power", "--input", "form_exact", "--s", "3"],
    "wedge-power-float-2": ["wedge-power", "--input", "form_float", "--s", "2"],
    "wedge-power-float-3": ["wedge-power", "--input", "form_float", "--s", "3"],
    "wedge-power-zero-form": ["wedge-power", "--input", "zero_form", "--s", "7"],
    "verify-6-2-3": ["verify-formula", "--n", "6", "--k", "2", "--s", "3", "--trials", "3",
                     "--seed", "5"],
    "verify-8-4-2": ["verify-formula", "--n", "8", "--k", "4", "--s", "2", "--trials", "2",
                     "--seed", "5"],
    "verify-9-3-3": ["verify-formula", "--n", "9", "--k", "3", "--s", "3", "--trials", "2",
                     "--seed", "5"],
}
for _mode in ("one-convex", "one-affine"):
    for _name in ("norm_sq", "neg_norm_sq", "top_power"):
        CLI_CASES[f"{_mode}-{_name}"] = ["check-convexity", "--mode", _mode, "--input", _name,
                                         "--trials", "40", "--seed", "2"]

LIFT_CASES = {f"lift-{n}-{k}-{backend}": (n, k, backend)
              for n, k in [(4, 2), (5, 3)] for backend in scalars.BACKENDS}

POLY_CASES = {f"poly-{n}-{k}": (n, k) for n, k in [(8, 3), (4, 2)]}


def cli_report(case: str) -> bytes:
    """Exit code and stdout of one CLI case, its inputs written to a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in CLI_CASES[case]:
            if arg in INPUTS:
                path = Path(tmp) / f"{arg}.json"
                path.write_text(json.dumps(INPUTS[arg]))
                arg = str(path)
            argv.append(arg)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def lift_report(case: str) -> bytes:
    n, k, backend = LIFT_CASES[case]
    report = cross_check_lift(FormFunction.norm_squared(n, k),
                              SamplerConfig(seed=4, trials=60), backend=backend)
    return json.dumps(report.to_json(), sort_keys=True).encode()


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
        coeffs[mi.indices] = Poly(n, monomials)
    return PolyKForm(n, r, coeffs)


def poly_report(case: str) -> bytes:
    n, k = POLY_CASES[case]
    rng = random.Random(11)
    forms = [poly_form(rng, n, k - 1) for _ in range(4)]
    return json.dumps([{"form": w.to_json(),
                        "projected_gradient": project_polynomial(gradient(w)).to_json(),
                        "classical": d_classical(w).to_json()} for w in forms],
                      sort_keys=True).encode()


def report_bytes(case: str) -> bytes:
    if case in CLI_CASES:
        return cli_report(case)
    return lift_report(case) if case in LIFT_CASES else poly_report(case)


def digest(case: str) -> str:
    return hashlib.sha256(report_bytes(case)).hexdigest()


def print_digests() -> None:
    for case in [*CLI_CASES, *LIFT_CASES, *POLY_CASES]:
        print(f'    "{case}": "{digest(case)}",')


GOLDEN = {
    "pi-exact": "1358d4c27498c267f43d85e4b2226fd5829ccacc9ff6457d851156186c7bf32d",
    "pi-float": "66bc3a4b90ae808f3502d794514e1e053f6681e185e09223a23376f6339528bb",
    "pi-exact-as-float": "0dfe53724608a87716a255c6f37262f757cfd058414fc7f846e51c97caec8f86",
    "adjugate-exact": "3de658618948712e7a8704e510403c51daac7aef65fe140db2efcae1a88c0f0a",
    "adjugate-float": "63228d1479ab54d7c1cd4a970173cc40cf1647d10ee977223c134757e6906608",
    "adjugate-float-top": "d864e21b85d0d8142632104794106adc497efa156e934e45c197406743303c03",
    "wedge-power-exact-2": "73421fee670626005d44928af007d65d05affdeb6b11d27ca26db4e167d5e33f",
    "wedge-power-exact-3": "29a298bcb8904ead06f6222f9c5586d5eb4772b0a176938615fa5303d37a92d1",
    "wedge-power-float-2": "15d20db9ae4cbd55b8ec36c6eeb02c05c4fbc17db21cc501a012804211f78b18",
    "wedge-power-float-3": "6504cb7df6d501e67d5bb3f2896b90da4960320edc8da909facb807b373a4993",
    "wedge-power-zero-form": "5d0441d2f965e5447c1970e7a8a4b367df69fb7fb9bb4de31ba5a53edbf86266",
    "verify-6-2-3": "3c172f1b8ff9b7499e54e416eb1fd589bcb31dbd3112aacb8f2c9380dbcd2db2",
    "verify-8-4-2": "dfc60c18e5f48e48baba8a868a22a131d20f6dfd6558a42107454c424c383a77",
    "verify-9-3-3": "5c05dafda31df5862adad70f2f575079ae0d24b50a7540520793d4afc1e872a6",
    "one-convex-norm_sq": "6f1fb910085b54f926ec342b2f3b1d3bbaa6632783147334ea1ce6b8fce5f6a0",
    "one-convex-neg_norm_sq": "89fdbc35d8143e3960af627ff2c20ab69e739da651119d657850fa38084e3480",
    "one-convex-top_power": "1af450a15a32f1731088696c35fe7c68c9f865dbf11505121bd9c6473dbf56fa",
    "one-affine-norm_sq": "4f531004150c987e23a9435d7b18f1f850cbedbafad87092b450e9b373776809",
    "one-affine-neg_norm_sq": "d6031596ccb12fa23350a62199789b30ec4fb3abd1e3e1740c4925fcaccc0146",
    "one-affine-top_power": "31a4f63f3b017c43220f244112a4eb916a0e0829fa31ed16bcdfa4d6b32e5663",
    "lift-4-2-exact": "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b",
    "lift-4-2-float": "49ccd811486e5cbf0bb26e09aa14bf47c7c9f4dee34f5ad84929cd1776971bd8",
    "lift-5-3-exact": "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b",
    "lift-5-3-float": "17f3f9b634b9b65e5636574a4129cba4f54a50d5a784519547fc826c2762105c",
    "poly-8-3": "8c63938ced4fb0ac5375f42f69e171ca27b56890063172948fdc1dfcd3d4b874",
    "poly-4-2": "c28060af2f7bebafda8834e3ca0ce9721a87a9b30abc1e92a98e76e444d1f544",
}


def test_corpus_is_complete():
    assert set(GOLDEN) == set(CLI_CASES) | set(LIFT_CASES) | set(POLY_CASES)


@pytest.mark.parametrize("case", [*CLI_CASES, *LIFT_CASES, *POLY_CASES])
def test_report_bytes_unchanged(case):
    assert digest(case) == GOLDEN[case]
