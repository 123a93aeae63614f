"""Golden report bytes for a fixed CLI and cross-check corpus.

Each case runs one command in-process and hashes its exit code and the exact
bytes of its report.  A refactor that claims to keep every output must leave
every digest in ``GOLDEN`` as it is.  The polynomial cases pin the text of
seeded polynomial forms, of their projected gradients and of their classical
exterior derivatives.  The matrix cases pin ``ShapeMatrix.to_json`` at k = 3,
whose row labels no CLI command writes: an exact (5,3) matrix and the
gradient of a seeded polynomial 2-form on R^4.  ``fit-quasiaffine`` and ``support-lp``
are left out: their floats go through LAPACK and BLAS, whose last bits depend
on the build.  The support LP's inputs do not: the stack cases pin the bytes
of its 500 drawn forms at (8,2) and of their wedge-power feature rows.  The
planted (6,2) line case lists its pairing's wedge powers out of order
(s = 3, 1, 2), so its bytes pin the power chain the powers share.

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
from extconv.convexity import SamplerConfig, _power_features, cross_check_lift
from extconv.functions import FormFunction
from extconv.multiindex import enumerate_multiindices
from extconv.polyform import Poly, PolyKForm, d_classical, gradient, project_polynomial
from extconv.sampling import SUPPORT, random_form_rows
from extconv.shapespace import ShapeMatrix

MATRIX_EXACT = {"n": 4, "k": 2, "rows": ["1", "2", "3", "4"],
                "data": [[0, "3/2", -1, 2], [1, 0, 5, "-7/3"],
                         ["1/4", -2, 0, 3], [4, "5/6", -3, 1]]}
# k = 3, so every row label holds a comma and adjugate rows pair such labels
MATRIX_EXACT_K3 = {"n": 4, "k": 3, "rows": ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"],
                   "data": [[1, "-1/2", 0, 3], [2, 0, "5/3", -1], [0, 4, -2, "1/5"],
                            ["-3/4", 1, 0, 2], [5, -1, "2/7", 0], [0, "3/2", 1, -4]]}
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


def seeded_form(n: int, k: int, a: int, b: int) -> dict:
    """A rational (n, k) form JSON: coefficient i is ((a·i + b) mod 11 − 5)/(i mod 3 + 1)."""
    coeffs = {}
    for i, key in enumerate(enumerate_multiindices(n, k)):
        q = Fraction((a * i + b) % 11 - 5, i % 3 + 1)
        if q:
            coeffs[",".join(map(str, key))] = str(q)
    return {"n": n, "k": k, "coeffs": coeffs}


PLANTED_OUT_OF_ORDER = {"n": 6, "k": 2, "expr": {"op": "add", "args": [
    {"op": "inner", "form": seeded_form(6, 6, 3, 2),
     "arg": {"op": "wedge_pow", "s": 3, "arg": "xi"}},
    {"op": "inner", "form": seeded_form(6, 2, 7, 3),
     "arg": {"op": "wedge_pow", "s": 1, "arg": "xi"}},
    {"op": "const", "value": "-7/4"},
    {"op": "inner", "form": seeded_form(6, 4, 5, 1),
     "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}]}}

INPUTS = {"matrix_exact": MATRIX_EXACT, "matrix_exact_k3": MATRIX_EXACT_K3,
          "matrix_float": MATRIX_FLOAT,
          "form_exact": FORM_EXACT, "form_float": FORM_FLOAT, "zero_form": ZERO_FORM,
          "norm_sq": NORM_SQ, "neg_norm_sq": NEG_NORM_SQ, "top_power": TOP_POWER,
          "planted_out_of_order": PLANTED_OUT_OF_ORDER}

CLI_CASES = {
    "pi-exact": ["pi", "--input", "matrix_exact"],
    "pi-float": ["pi", "--input", "matrix_float"],
    "pi-exact-as-float": ["pi", "--input", "matrix_exact", "--backend", "float"],
    "pi-exact-k3": ["pi", "--input", "matrix_exact_k3"],
    "adjugate-exact": ["adjugate", "--input", "matrix_exact", "--s", "2"],
    "adjugate-exact-k3": ["adjugate", "--input", "matrix_exact_k3", "--s", "2"],
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
    # entries up to 10^5: the minor route takes Python ints, and the direct
    # route's int64 chain widens at its first step past the bound
    "verify-10-2-5-wide": ["verify-formula", "--n", "10", "--k", "2", "--s", "5",
                           "--low", "-100000", "--high", "100000", "--trials", "1",
                           "--seed", "0"],
}
for _mode in ("one-convex", "one-affine"):
    for _name in ("norm_sq", "neg_norm_sq", "top_power"):
        CLI_CASES[f"{_mode}-{_name}"] = ["check-convexity", "--mode", _mode, "--input", _name,
                                         "--trials", "40", "--seed", "2"]
CLI_CASES["one-affine-planted-6-2"] = ["check-convexity", "--mode", "one-affine", "--input",
                                       "planted_out_of_order", "--trials", "40", "--seed", "2"]

LIFT_CASES = {f"lift-{n}-{k}-{backend}": (n, k, backend)
              for n, k in [(4, 2), (5, 3)] for backend in scalars.BACKENDS}

POLY_CASES = {f"poly-{n}-{k}": (n, k) for n, k in [(8, 3), (4, 2)]}

MATRIX_JSON_CASES = {
    "matrix-json-5-3": lambda: ShapeMatrix(
        5, 3, [[Fraction((3 * r - 2 * c) % 11 - 5, 1 + (r + c) % 3) for c in range(5)]
               for r in range(10)]),
    "matrix-json-gradient-4-3": lambda: gradient(poly_form(random.Random(13), 4, 2)),
}

STACK_CASES = {"support-draws-8-2": lambda draws: draws,
               "support-features-8-2": lambda draws: _power_features(draws, 8, 2)}


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
        coeffs[mi] = Poly(n, monomials)
    return PolyKForm(n, r, coeffs)


def poly_report(case: str) -> bytes:
    n, k = POLY_CASES[case]
    rng = random.Random(11)
    forms = [poly_form(rng, n, k - 1) for _ in range(4)]
    return json.dumps([{"form": w.to_json(),
                        "projected_gradient": project_polynomial(gradient(w)).to_json(),
                        "classical": d_classical(w).to_json()} for w in forms],
                      sort_keys=True).encode()


def matrix_json_report(case: str) -> bytes:
    return json.dumps(MATRIX_JSON_CASES[case]().to_json(), sort_keys=True).encode()


def stack_report(case: str) -> bytes:
    """The support LP's sample at seed 3, or its feature rows, as little-endian bytes."""
    stack = STACK_CASES[case](random_form_rows(8, 2, 3, range(500), 2.0, SUPPORT))
    return repr(stack.shape).encode() + stack.astype("<f8").tobytes()


def report_bytes(case: str) -> bytes:
    if case in CLI_CASES:
        return cli_report(case)
    if case in STACK_CASES:
        return stack_report(case)
    if case in MATRIX_JSON_CASES:
        return matrix_json_report(case)
    return lift_report(case) if case in LIFT_CASES else poly_report(case)


def digest(case: str) -> str:
    return hashlib.sha256(report_bytes(case)).hexdigest()


ALL_CASES = [*CLI_CASES, *LIFT_CASES, *POLY_CASES, *MATRIX_JSON_CASES, *STACK_CASES]


def print_digests() -> None:
    for case in ALL_CASES:
        print(f'    "{case}": "{digest(case)}",')


GOLDEN = {
    "pi-exact": "1358d4c27498c267f43d85e4b2226fd5829ccacc9ff6457d851156186c7bf32d",
    "pi-float": "66bc3a4b90ae808f3502d794514e1e053f6681e185e09223a23376f6339528bb",
    "pi-exact-as-float": "0dfe53724608a87716a255c6f37262f757cfd058414fc7f846e51c97caec8f86",
    "pi-exact-k3": "8e26831c869bba0939cb8938ca7a22e372faa4c0c1996dd5b8313df201938e23",
    "adjugate-exact": "3de658618948712e7a8704e510403c51daac7aef65fe140db2efcae1a88c0f0a",
    "adjugate-exact-k3": "39e77349145c38996b57efaadcde47da9432559811539d4da74660e00190dab1",
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
    "verify-10-2-5-wide": "2b321e9aaa3372ecefe2e7be8b1bc7f67bbf4d8d7002e1f8f66d9c5271726714",
    "one-convex-norm_sq": "418506c98463096684238a5bb0a8bc4e760caea5a89116c5a7c99236643325c9",
    "one-convex-neg_norm_sq": "6e14c8e884a3d6fbedec611c57d2f9d725e63ec53d38a0ae061c21b711d32560",
    "one-convex-top_power": "7b86bc058c46e94e31a2b07a51bae77e3dc2bd4bf5c9dba698e30388e5d9933b",
    "one-affine-norm_sq": "0deaa327f7219e80b6388102fc2105f754f19f7ab644735565927b3c114c6932",
    "one-affine-neg_norm_sq": "1573553a43906d17d5df6ee0aade4794ff922986277fb5f675fd5e013582bfa1",
    "one-affine-top_power": "7b2cd69e49171cb0979716bdc548ab71a82e5655181ef176b018bec6d788bca3",
    "one-affine-planted-6-2": "bbd7c4ab83b78813afce35e28a7895b6db54fd58ff4b83570a9a8644f2153d20",
    "lift-4-2-exact": "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b",
    "lift-4-2-float": "49ccd811486e5cbf0bb26e09aa14bf47c7c9f4dee34f5ad84929cd1776971bd8",
    "lift-5-3-exact": "5d3613e3773c0d8d40634bfb065e616ffdb2d5c8914c090529aad4d6986b739b",
    "lift-5-3-float": "4850d564651d74cc456d46165d44453ad2e6ff365f995f8f432f1db36e70ed12",
    "poly-8-3": "8c63938ced4fb0ac5375f42f69e171ca27b56890063172948fdc1dfcd3d4b874",
    "poly-4-2": "c28060af2f7bebafda8834e3ca0ce9721a87a9b30abc1e92a98e76e444d1f544",
    "matrix-json-5-3": "e9bf8f9c6957a8934c3f55d1329afe7a684ed117afe1b3dbca2ce0ed20345bbf",
    "matrix-json-gradient-4-3": "42fc953460d8f39cea2b79be0e94f9d1118c993e4636c524733fda48f090cfec",
    "support-draws-8-2": "dd473489c39331452f96c71d265f5516ca667b9f71129e3c56bdf26c20fb44d6",
    "support-features-8-2": "4907340ddfdda8b1127e737646e362e5aa50d157be21cd6797aae2c9348cbed1",
}


def test_corpus_is_complete():
    assert set(GOLDEN) == set(ALL_CASES)


@pytest.mark.parametrize("case", ALL_CASES)
def test_report_bytes_unchanged(case):
    assert digest(case) == GOLDEN[case]
