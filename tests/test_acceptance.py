"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every expected value is either exact-identity (residual 0 on the rational
backend) or pinned at the tolerance stated with it; nothing is calibrated.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from extconv import scalars
from extconv.cli import main as cli_main
from extconv.convexity import (SamplerConfig, check_ext_one_convex,
                               check_ext_one_affine, cross_check_lift,
                               fit_quasiaffine, polyconvex_support_lp,
                               replay_witness)
from extconv.exterior import KForm, scalar_product, wedge, wedge_power
from extconv.functions import FormFunction
from extconv.multiindex import enumerate_multiindices
from extconv.polyform import PolyKForm, Poly, d_classical, d_right, gradient, \
    project_polynomial
from extconv.projection import (minor_power_map, project, pullback_support,
                                wedge_power_from_minors)
from extconv.sampling import derive_rng, random_exact_form, random_form, \
    random_integer_matrix
from extconv.shapespace import MinorTable, adjugate, table_inner, tensor

from oracles import laplace_residual


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS — {text}")


FORMULA_CONFIGS = [(4, 2, 2), (6, 2, 2), (6, 2, 3), (8, 4, 2)]


def test_criterion_1_adjugate_formula_exactness():
    started = time.perf_counter()
    for n, k, s in FORMULA_CONFIGS:
        for trial in range(100):
            X = random_integer_matrix(n, k, derive_rng(0, trial), -5, 5)
            direct = wedge_power(project(X), s)
            via_minors = wedge_power_from_minors(X, s)
            assert direct == via_minors, (n, k, s, trial)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"wedge power equals minor expansion, residual 0 on "
              f"{len(FORMULA_CONFIGS)}x100 integer matrices ({elapsed:.1f}s)")


def test_criterion_2_odd_degree_vanishing():
    for n, k in [(6, 3), (9, 3)]:
        for s in (2, 3):
            for trial in range(100):
                X = random_integer_matrix(n, k, derive_rng(0, trial), -5, 5)
                assert wedge_power(project(X), s).is_zero(), (n, k, s, trial)
    report(2, "odd-degree projections have identically zero wedge powers, "
              "2x2x100 matrices")


def test_criterion_3_tensor_projects_to_wedge():
    checked = 0
    for n in range(2, 7):
        for k in range(2, n + 1):
            for trial in range(200):
                rng = derive_rng(31, checked + trial)
                alpha = random_exact_form(n, k - 1, rng)
                beta = random_exact_form(n, 1, rng)
                assert project(tensor(alpha, beta)) == wedge(alpha, beta)
            checked += 200
    report(3, f"projection of outer products equals the wedge on {checked} "
              f"exact pairs across all 2 ≤ k ≤ n ≤ 6")


def _random_polyform(n, k, rng, degree=2):
    coeffs = {}
    for mi in enumerate_multiindices(n, k):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            expo = [0] * n
            for _ in range(rng.randint(0, degree)):
                expo[rng.randrange(n)] += 1
            terms[tuple(expo)] = terms.get(tuple(expo), 0) \
                + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        coeffs[mi.indices] = Poly(n, terms)
    return PolyKForm(n, k, coeffs)


def test_criterion_4_gradient_projection_identity():
    checked = 0
    for n in range(2, 6):
        for k in (2, 3):
            if k > n:
                continue
            for trial in range(50):
                w = _random_polyform(n, k - 1, derive_rng(41, checked + trial))
                right = d_right(w)
                assert project_polynomial(gradient(w)) == right
                classical = d_classical(w)
                assert classical == (right if (k - 1) % 2 == 0 else -right)
            checked += 50
    report(4, f"gradient projection equals the right-wedge derivative and the "
              f"classical derivative matches with sign (−1)^(k−1), {checked} "
              f"polynomial forms")


def test_criterion_5_power_map_consistency():
    for n, k, s in FORMULA_CONFIGS:
        power_map = minor_power_map(n, k, s)
        for trial in range(100):
            X = random_integer_matrix(n, k, derive_rng(0, trial), -5, 5)
            assert power_map.apply(adjugate(X, s)) == wedge_power(project(X), s)

    n, k = 4, 2
    row_sets = {s: list(itertools.combinations(range(math.comb(n, k - 1)), s))
                for s in (1, 2)}
    col_sets = {s: list(itertools.combinations(range(n), s)) for s in (1, 2)}
    maps = {s: minor_power_map(n, k, s) for s in (1, 2)}
    for trial in range(100):
        rng = derive_rng(51, trial)
        supports = [random_exact_form(n, k, rng), random_exact_form(n, 2 * k, rng)]
        tables = pullback_support(supports)
        for s in (1, 2):
            arbitrary = MinorTable(n, k, s, [[Fraction(rng.randint(-6, 6),
                                                       rng.randint(1, 3))
                                              for _ in col_sets[s]]
                                             for _ in row_sets[s]])
            assert table_inner(tables[s - 1], arbitrary) \
                == scalar_product(supports[s - 1], maps[s].apply(arbitrary))
    report(5, "power maps reproduce wedge powers on all criterion-1 configs and "
              "the pullback pairs adjointly on 100 exact (D, M) draws at (4,2,2)")


def test_criterion_6_laplace_consistency():
    for n, k in [(6, 2), (8, 4)]:
        for trial in range(50):
            X = random_integer_matrix(n, k, derive_rng(61, trial), -5, 5)
            first = adjugate(X, 1)
            second = adjugate(X, 2)
            for position in (1, 2):
                assert laplace_residual(second, first, X, position) == 0
    report(6, "order-2 minors expand exactly along every column position, "
              "2x50 integer matrices")


def test_criterion_7_quasiaffine_fitter():
    n, k = 4, 2
    rng = random.Random(71)
    constant = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    c1 = random_exact_form(n, k, rng)
    c2 = random_exact_form(n, 2 * k, rng)
    planted = FormFunction.affine_combination(n, k, [constant, c1, c2])
    fit = fit_quasiaffine(planted, SamplerConfig(seed=0, trials=200))
    assert fit.status == "ok"
    assert abs(fit.constant - float(constant)) <= 1e-8
    for recovered, expected in zip(fit.coefficients, [c1, c2]):
        for got, want in zip(recovered.coeffs, expected.coeffs):
            assert abs(got - float(want)) <= 1e-8
    assert fit.validation_residual <= 1e-8

    rejected = fit_quasiaffine(FormFunction.norm_squared(n, k),
                               SamplerConfig(seed=0, trials=200, coeff_range=1.0))
    assert rejected.status == "ok"
    assert rejected.validation_residual >= 0.1
    report(7, f"planted pairing recovered to {fit.validation_residual:.1e} and "
              f"the norm square rejected at residual "
              f"{rejected.validation_residual:.2f}")


def test_criterion_8_line_lift_consistency():
    for n, k in [(4, 2), (5, 3)]:
        f = FormFunction.norm_squared(n, k)
        float_report = cross_check_lift(f, SamplerConfig(seed=0, trials=500))
        assert float_report.status == "pass"
        assert float_report.max_discrepancy <= 1e-12
        exact_report = cross_check_lift(f, SamplerConfig(seed=0, trials=500),
                                        backend=scalars.EXACT)
        assert exact_report.status == "pass"
        assert exact_report.max_discrepancy == 0
    report(8, "line restrictions agree with lifted matrix lines over 500 lines "
              "per config: float within 1e-12, exact identically 0")


def test_criterion_9_convexity_verdict_corpus():
    n, k = 4, 2
    norm_sq = FormFunction.norm_squared(n, k)
    neg_norm_sq = FormFunction.neg_norm_squared(n, k)
    top_power = FormFunction(n, k, {"op": "inner", "form": "e1234",
                                    "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}})
    cfg = SamplerConfig(seed=0, trials=200)

    assert check_ext_one_convex(norm_sq, cfg).status == "pass"

    failed = check_ext_one_convex(neg_norm_sq, cfg)
    assert failed.status == "fail"
    assert replay_witness(neg_norm_sq, failed.witness) \
        == failed.witness["second_difference"]

    assert check_ext_one_affine(top_power, cfg).status == "pass"
    for point in range(5):
        base = random_form(n, k, derive_rng(91, point), 1.0)
        search = polyconvex_support_lp(top_power, base,
                                       SamplerConfig(seed=point, trials=500))
        assert search.status == "certified"
        assert search.slack <= 1e-9

    refuted = polyconvex_support_lp(neg_norm_sq, KForm.zero(n, k, scalars.FLOAT),
                                    SamplerConfig(seed=0, trials=500))
    assert refuted.status == "refuted"

    corpus = [norm_sq, neg_norm_sq, top_power,
              FormFunction.linear(KForm.from_dict(n, k, {(1, 3): 2})),
              FormFunction.constant(n, k, 5)]
    for f in corpus:
        lp = polyconvex_support_lp(f, KForm.zero(n, k, scalars.FLOAT),
                                   SamplerConfig(seed=0, trials=300))
        sampled = check_ext_one_convex(f, cfg)
        assert not (lp.status == "certified" and sampled.status == "fail")
    report(9, "verdict corpus behaves: certificates at 5 base points with "
              "slack ≤ 1e-9, refutation at the origin, witnesses replay, and no "
              "certified function fails the line sampler")


def test_criterion_10_campaign_determinism(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    first = run("verify-formula", "--n", "6", "--k", "2", "--s", "3",
                "--trials", "25", "--seed", "7")
    second = run("verify-formula", "--n", "6", "--k", "2", "--s", "3",
                 "--trials", "25", "--seed", "7")
    assert first == second

    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(
        {"n": 4, "k": 2, "expr": {"op": "neg", "arg": {"op": "norm_sq", "arg": "xi"}}}))
    third = run("check-convexity", "--mode", "one-convex", "--input", str(fn_path),
                "--seed", "5")
    fourth = run("check-convexity", "--mode", "one-convex", "--input", str(fn_path),
                 "--seed", "5")
    assert third == fourth

    fifth = run("support-lp", "--input", str(fn_path), "--trials", "150")
    sixth = run("support-lp", "--input", str(fn_path), "--trials", "150")
    assert fifth == sixth
    report(10, "verify-formula, check-convexity and support-lp reports are "
               "byte-identical across reruns with identical seeds")
