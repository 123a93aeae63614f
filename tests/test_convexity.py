import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from extconv import scalars
from extconv.convexity import (SamplerConfig, check_ext_one_affine,
                               check_ext_one_convex, check_rank_one_convex,
                               cross_check_lift, fit_quasiaffine, lift,
                               polyconvex_support_lp, replay_witness,
                               support_inequality_gap)
from extconv.errors import DomainError
from extconv.exterior import KForm, wedge
from extconv.functions import FormFunction
from extconv.projection import project
from extconv.sampling import (FIT, SUPPORT, VALIDATION, random_form_rows, random_line_rows,
                              random_rank_one_rows)
from extconv.shapespace import ShapeMatrix, tensor

from oracles import (RANK_ONE, ReferenceStream, line_draws, random_exact_form, random_form,
                     random_matrix, rank_one_draws, reference_cross_check, reference_scan)


def fn_norm_sq(n=4, k=2):
    return FormFunction.norm_squared(n, k)


def fn_neg_norm_sq(n=4, k=2):
    return FormFunction.neg_norm_squared(n, k)


def fn_top_power(n=4, k=2):
    return FormFunction(n, k, {"op": "inner", "form": "e1234",
                               "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}})


def line_restriction(f, xi, alpha, beta):
    """The scalar function t ↦ f(xi + t · alpha∧beta)."""
    if alpha.k != f.k - 1 or beta.k != 1:
        raise DomainError(f"direction degrees ({alpha.k},{beta.k}) do not fit a "
                          f"degree-{f.k} line")
    direction = wedge(alpha, beta)
    if (direction.n, direction.k) != (xi.n, xi.k):
        raise DomainError("direction does not live in the argument space")
    return lambda t: f(xi + direction.scale(t))


class TestLineRestriction:
    def test_quadratic_along_basis_direction(self):
        f = fn_norm_sq()
        g = line_restriction(f, KForm.zero(4, 2, scalars.FLOAT),
                             KForm.basis(4, (1,), scalars.FLOAT),
                             KForm.basis(4, (2,), scalars.FLOAT))
        for t in (-1.5, 0.0, 0.25, 2.0):
            assert abs(g(t) - t * t) < 1e-12

    def test_degenerate_direction_gives_constant(self):
        f = fn_norm_sq()
        alpha = KForm.basis(4, (1,), scalars.FLOAT)
        beta = KForm.basis(4, (1,), scalars.FLOAT)   # alpha ∧ beta = 0
        xi = KForm(4, 2, [1.0, 0, 0, 0, 0, 2.0], scalars.FLOAT)
        g = line_restriction(f, xi, alpha, beta)
        assert g(-3.0) == g(0.0) == g(11.0)

    def test_top_power_lines_are_affine(self):
        f = fn_top_power()
        rng = random.Random(0)
        for _ in range(20):
            xi = random_form(4, 2, rng, 2.0)
            alpha = random_form(4, 1, rng, 2.0)
            beta = random_form(4, 1, rng, 2.0)
            g = line_restriction(f, xi, alpha, beta)
            assert abs(g(1.0) + g(-1.0) - 2 * g(0.0)) < 1e-9

    def test_degree_mismatch_rejected(self):
        f = fn_norm_sq()
        with pytest.raises(DomainError):
            line_restriction(f, KForm.zero(4, 2, scalars.FLOAT),
                             KForm.basis(4, (1, 2), scalars.FLOAT),
                             KForm.basis(4, (3,), scalars.FLOAT))


class TestOneConvexity:
    CFG = SamplerConfig(seed=0, trials=100)

    def test_norm_sq_passes(self):
        assert check_ext_one_convex(fn_norm_sq(), self.CFG).status == "pass"

    def test_neg_norm_sq_fails_with_witness(self):
        verdict = check_ext_one_convex(fn_neg_norm_sq(), self.CFG)
        assert verdict.status == "fail"
        assert verdict.witness is not None
        replayed = replay_witness(fn_neg_norm_sq(), verdict.witness)
        assert replayed == verdict.witness["second_difference"]
        assert replayed < -verdict.witness["threshold"]

    def test_top_power_affine_and_convex(self):
        assert check_ext_one_convex(fn_top_power(), self.CFG).status == "pass"
        assert check_ext_one_affine(fn_top_power(), self.CFG).status == "pass"

    def test_norm_sq_not_affine(self):
        verdict = check_ext_one_affine(fn_norm_sq(), self.CFG)
        assert verdict.status == "fail"
        assert abs(replay_witness(fn_norm_sq(), verdict.witness)) \
            > verdict.witness["threshold"]

    def test_linear_passes_affine(self):
        c = KForm.from_dict(4, 2, {(1, 3): 2, (2, 4): -1})
        assert check_ext_one_affine(FormFunction.linear(c), self.CFG).status == "pass"

    def test_planted_wedge_pairings_are_one_affine(self):
        rng = random.Random(1)
        for n, k in [(4, 2), (5, 2), (6, 2)]:
            coeffs = [Fraction(rng.randint(-3, 3))]
            for s in range(1, n // k + 1):
                coeffs.append(random_exact_form(n, k * s, rng))
            f = FormFunction.affine_combination(n, k, coeffs)
            cfg = SamplerConfig(seed=rng.randint(0, 10 ** 6), trials=60)
            assert check_ext_one_affine(f, cfg).status == "pass"

    def test_verdict_json_shape(self):
        verdict = check_ext_one_convex(fn_neg_norm_sq(), self.CFG)
        blob = verdict.to_json()
        assert blob["status"] == "fail" and blob["seed"] == 0
        assert set(blob["witness"]) >= {"xi", "alpha", "beta", "t", "h",
                                        "second_difference", "threshold"}


class TestRankOneConvexity:
    CFG = SamplerConfig(seed=0, trials=80)

    def test_lifted_norm_sq_passes(self):
        assert check_rank_one_convex(lift(fn_norm_sq()), 4, 2, self.CFG).status == "pass"

    def test_lifted_neg_fails(self):
        assert check_rank_one_convex(lift(fn_neg_norm_sq()), 4, 2, self.CFG).status == "fail"

    def test_determinant_is_rank_one_convex(self):
        def det2(X):
            return X.entries[0][0] * X.entries[1][1] - X.entries[0][1] * X.entries[1][0]
        assert check_rank_one_convex(det2, 2, 2, self.CFG).status == "pass"


class TestLift:
    def test_lift_at_kernel_matrix(self):
        f = fn_norm_sq(2, 2)
        F = lift(f)
        identity = ShapeMatrix(2, 2, [[1.0, 0.0], [0.0, 1.0]], scalars.FLOAT)
        assert F(identity) == f(KForm.zero(2, 2, scalars.FLOAT))

    def test_lift_of_linear_function_is_linear(self):
        c = KForm.from_dict(4, 2, {(1, 2): 2, (1, 4): -3})
        F = lift(FormFunction.linear(c))
        rng = random.Random(14)
        X, Y = random_matrix(4, 2, rng, 2.0), random_matrix(4, 2, rng, 2.0)
        assert abs(F(X + Y) - (F(X) + F(Y))) < 1e-12
        assert abs(F(X.scale(3.0)) - 3.0 * F(X)) < 1e-12

    def test_lift_moves_along_matched_lines(self):
        rng = random.Random(2)
        f = fn_norm_sq()
        F = lift(f)
        from extconv.projection import right_inverse
        xi = random_form(4, 2, rng, 2.0)
        alpha, beta = random_form(4, 1, rng, 2.0), random_form(4, 1, rng, 2.0)
        X = right_inverse(xi)
        D = tensor(alpha, beta)
        for t in (-1.0, 0.5):
            line_val = f(xi + wedge(alpha, beta).scale(t))
            assert abs(F(X + D.scale(t)) - line_val) < 1e-12


    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_object_rows_stay_exact(self, n, k):
        rng = random.Random(n)
        f = fn_norm_sq(n, k)
        mats = [ShapeMatrix(n, k, [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                    for _ in range(n)] for _ in range(math.comb(n, k - 1))])
                for _ in range(5)]
        rows = np.array([[v for row in X.entries for v in row] for X in mats], dtype=object)
        values = lift(f).evaluate_rows(rows)
        assert values.dtype == object
        assert list(values) == [f(project(X)) for X in mats]

    @pytest.mark.parametrize("lifted", [False, True], ids=["form", "lift"])
    def test_magnitude_refuses_exact_rows(self, lifted):
        # the magnitude bounds float rounding, so an exact stack has none
        f = fn_norm_sq(4, 2)
        g, width = (lift(f), 4 * 4) if lifted else (f, 6)
        rows = np.array([[Fraction(1, 3)] * width], dtype=object)
        with pytest.raises(DomainError):
            g.magnitude_rows(rows)
        assert g.magnitude_rows(rows.astype(float)).shape == (1,)


class TestCrossCheck:
    def test_float_within_tolerance(self):
        report = cross_check_lift(fn_norm_sq(), SamplerConfig(seed=0, trials=100))
        assert report.status == "pass"
        assert report.max_discrepancy <= 1e-12

    def test_exact_is_identically_zero(self):
        report = cross_check_lift(fn_norm_sq(), SamplerConfig(seed=0, trials=30),
                                  backend=scalars.EXACT)
        assert report.status == "pass"
        assert report.max_discrepancy == 0

    @pytest.mark.parametrize("backend", scalars.BACKENDS)
    def test_projection_sign_fault_detected(self, projection_sign_fault, backend):
        # the wedge side (wedge_rows) never reads the projection table
        report = cross_check_lift(fn_norm_sq(), SamplerConfig(seed=0, trials=10),
                                  backend=backend)
        assert report.status == "fail"

    def test_verdicts_agree_for_affine_function(self):
        f = fn_top_power()
        cfg = SamplerConfig(seed=4, trials=60)
        assert check_ext_one_affine(f, cfg).status == "pass"
        report = cross_check_lift(f, cfg)
        assert report.status == "pass"


class TestQuasiaffineFit:
    def test_constant_function(self):
        fit = fit_quasiaffine(FormFunction.constant(4, 2, 7), SamplerConfig(seed=0, trials=60))
        assert fit.status == "ok"
        assert abs(fit.constant - 7) < 1e-9
        for form in fit.coefficients:
            assert all(abs(v) < 1e-9 for v in form.coeffs)
        assert fit.validation_residual < 1e-9

    def test_planted_top_power(self):
        fit = fit_quasiaffine(fn_top_power(), SamplerConfig(seed=1, trials=100))
        assert fit.validation_residual < 1e-9
        assert abs(fit.coefficients[1].coefficient((1, 2, 3, 4)) - 1) < 1e-9

    def test_norm_sq_rejected(self):
        fit = fit_quasiaffine(fn_norm_sq(), SamplerConfig(seed=1, trials=100,
                                                          coeff_range=1.0))
        assert fit.status == "ok"
        assert fit.validation_residual > 0.1

    def test_fit_function_roundtrip(self):
        fit = fit_quasiaffine(fn_top_power(), SamplerConfig(seed=2, trials=100))
        fitted = fit.as_function(4, 2)
        rng = random.Random(5)
        for _ in range(10):
            xi = random_form(4, 2, rng, 2.0)
            assert abs(fitted(xi) - fn_top_power()(xi)) < 1e-8

    def test_odd_degree_power_columns_pinned_to_zero(self):
        # (6,3): xi^2 ≡ 0, so its feature block is identically zero
        f = FormFunction.norm_squared(6, 3)
        fit = fit_quasiaffine(f, SamplerConfig(seed=3, trials=80))
        assert fit.status == "ok"
        assert all(v == 0 for v in fit.coefficients[1].coeffs)

    def test_planted_recovery_all_desk_scale_spaces(self):
        rng = random.Random(8)
        for n in range(2, 7):
            for k in range(2, n + 1):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))]
                for s in range(1, n // k + 1):
                    if k % 2 == 1 and s >= 2:
                        # vanishing powers carry no signal; plant zero there
                        coeffs.append(KForm.zero(n, k * s))
                    else:
                        coeffs.append(random_exact_form(n, k * s, rng))
                planted = FormFunction.affine_combination(n, k, coeffs)
                fit = fit_quasiaffine(planted, SamplerConfig(seed=n * 10 + k, trials=60))
                assert fit.status == "ok"
                assert fit.validation_residual <= 1e-8, (n, k, fit.validation_residual)
                assert abs(fit.constant - float(coeffs[0])) <= 1e-8
                for got, want in zip(fit.coefficients, coeffs[1:]):
                    for a, b in zip(got.coeffs, want.coeffs):
                        assert abs(a - float(b)) <= 1e-8, (n, k)


class TestSupportLP:
    BASE = KForm.zero(4, 2, scalars.FLOAT)

    def test_linear_certified_exactly(self):
        c = KForm.from_dict(4, 2, {(1, 2): 1, (2, 3): -2})
        f = FormFunction.linear(c)
        result = polyconvex_support_lp(f, self.BASE, SamplerConfig(seed=0, trials=200))
        assert result.status == "certified"
        assert result.slack <= 1e-9
        got = result.coefficients[0]
        for key, expect in [((1, 2), 1), ((2, 3), -2), ((1, 3), 0)]:
            assert abs(got.coefficient(key) - expect) < 1e-7

    def test_top_power_certified(self):
        result = polyconvex_support_lp(fn_top_power(), self.BASE,
                                       SamplerConfig(seed=0, trials=300))
        assert result.status == "certified" and result.slack <= 1e-9
        # certificate really supports the sampled inequality
        rng = random.Random(9)
        for _ in range(50):
            eta = random_form(4, 2, rng, 2.0)
            gap = support_inequality_gap(fn_top_power(), self.BASE,
                                         result.coefficients, eta)
            assert gap <= result.slack + 1e-7

    def test_neg_norm_sq_refuted(self):
        result = polyconvex_support_lp(fn_neg_norm_sq(), self.BASE,
                                       SamplerConfig(seed=0, trials=200))
        assert result.status == "refuted"
        assert result.slack > 0.1

    def test_two_point_hand_instance(self):
        e12 = KForm.basis(4, (1, 2), scalars.FLOAT)
        result = polyconvex_support_lp(fn_neg_norm_sq(), self.BASE,
                                       SamplerConfig(seed=0, trials=2),
                                       etas=[e12, -e12])
        assert result.status == "refuted"
        assert abs(result.slack - 1.0) < 1e-9

    def test_nonzero_base_point(self):
        rng = random.Random(11)
        base = random_form(4, 2, rng, 1.0)
        result = polyconvex_support_lp(fn_top_power(), base,
                                       SamplerConfig(seed=2, trials=300))
        assert result.status == "certified" and result.slack <= 1e-9

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2)])
    def test_surplus_start_certifies_norm_sq_at_zero(self, n, k):
        # every rhs −|η|² is ≤ 0, so the LP starts at x = 0 with no slack
        # entered, and with nonnegative costs that start is already optimal
        result = polyconvex_support_lp(fn_norm_sq(n, k), KForm.zero(n, k, scalars.FLOAT),
                                       SamplerConfig(seed=0, trials=100))
        assert result.status == "certified"
        assert repr(result.slack) == "0.0"
        assert [c.coeffs.tolist() for c in result.coefficients] == [
            [0.0] * math.comb(n, k * s) for s in range(1, n // k + 1)]

    def test_base_point_space_checked(self):
        with pytest.raises(DomainError):
            polyconvex_support_lp(fn_top_power(), KForm.zero(4, 1, scalars.FLOAT),
                                  SamplerConfig(seed=0, trials=10))

    @pytest.mark.parametrize("etas", [
        [KForm(4, 1, [1.0, 0, 0, 0], scalars.FLOAT)],
        [KForm.zero(4, 2, scalars.FLOAT), KForm.zero(5, 2, scalars.FLOAT)],
        [KForm.zero(4, 2, scalars.FLOAT), KForm.zero(4, 3, scalars.FLOAT)],
        [],
    ], ids=["degree", "dimension", "one-of-two", "empty"])
    def test_sample_space_checked(self, etas):
        with pytest.raises(DomainError):
            polyconvex_support_lp(FormFunction.norm_squared(4, 2), self.BASE,
                                  SamplerConfig(seed=0, trials=10), etas=etas)

    def test_odd_degree_degenerates_to_linear_support(self):
        # on (6,3) every power ≥ 2 vanishes, so only the s=1 block carries signal
        c = KForm.from_dict(6, 3, {(1, 2, 3): 2, (4, 5, 6): -1})
        f = FormFunction.linear(c)
        result = polyconvex_support_lp(f, KForm.zero(6, 3, scalars.FLOAT),
                                       SamplerConfig(seed=0, trials=150))
        assert result.status == "certified" and result.slack <= 1e-9
        assert abs(result.coefficients[0].coefficient((1, 2, 3)) - 2) < 1e-7
        neg = FormFunction.neg_norm_squared(6, 3)
        refuted = polyconvex_support_lp(neg, KForm.zero(6, 3, scalars.FLOAT),
                                        SamplerConfig(seed=0, trials=150))
        assert refuted.status == "refuted"


class TestErrorPaths:
    def test_persistent_rank_deficiency_is_inconclusive(self, monkeypatch):
        import numpy as np

        def deficient_lstsq(a, b, rcond=None):
            coeffs = np.zeros(a.shape[1])
            return coeffs, np.array([]), a.shape[1] - 1, np.array([])

        monkeypatch.setattr(np.linalg, "lstsq", deficient_lstsq)
        fit = fit_quasiaffine(fn_top_power(), SamplerConfig(seed=0, trials=40))
        assert fit.status == "inconclusive"

    def test_lp_iteration_cap_is_inconclusive(self, monkeypatch):
        from extconv import simplex

        def capped(*args, **kwargs):
            return simplex.LPResult(simplex.ITERATION_LIMIT, None, None, 0)

        monkeypatch.setattr("extconv.convexity.simplex.minimize", capped)
        result = polyconvex_support_lp(fn_top_power(),
                                       KForm.zero(4, 2, scalars.FLOAT),
                                       SamplerConfig(seed=0, trials=20))
        assert result.status == "inconclusive"
        assert result.slack is None and result.coefficients is None

    def test_lp_unbounded_is_internal_error(self, monkeypatch):
        from extconv import simplex
        from extconv.errors import LPInternalError

        def unbounded(*args, **kwargs):
            return simplex.LPResult(simplex.UNBOUNDED, None, None, 0)

        monkeypatch.setattr("extconv.convexity.simplex.minimize", unbounded)
        with pytest.raises(LPInternalError):
            polyconvex_support_lp(fn_top_power(), KForm.zero(4, 2, scalars.FLOAT),
                                  SamplerConfig(seed=0, trials=20))

    @pytest.mark.parametrize("n,k", [(4, 0), (4, -1), (-2, 2), (0, 1), (4, 5)])
    @pytest.mark.parametrize("campaign", [
        check_ext_one_convex, check_ext_one_affine, fit_quasiaffine, cross_check_lift,
        lambda f, cfg: polyconvex_support_lp(f, KForm.zero(4, 2, scalars.FLOAT), cfg),
    ])
    def test_degree_outside_1_to_n_rejected(self, campaign, n, k):
        # a space with no nonzero forms, or no forms at all, has nothing to sample
        with pytest.raises(DomainError):
            campaign(FormFunction(n, k, {"op": "norm_sq", "arg": "xi"}),
                     SamplerConfig(seed=0, trials=5))


class TestImplicationChain:
    def test_no_function_certified_and_one_convex_refuted(self):
        # ext. polyconvex ⇒ ext. one convex: an LP certificate plus a sampled
        # one-convexity refutation on the same function is a contradiction
        corpus = [fn_norm_sq(), fn_neg_norm_sq(), fn_top_power(),
                  FormFunction.linear(KForm.from_dict(4, 2, {(1, 4): 3})),
                  FormFunction.constant(4, 2, -2)]
        cfg = SamplerConfig(seed=0, trials=150)
        for f in corpus:
            lp = polyconvex_support_lp(f, KForm.zero(4, 2, scalars.FLOAT),
                                       SamplerConfig(seed=0, trials=200))
            one_convex = check_ext_one_convex(f, cfg)
            assert not (lp.status == "certified" and one_convex.status == "fail")


class TestDeterminism:
    def test_verdicts_reproduce(self):
        a = check_ext_one_convex(fn_neg_norm_sq(), SamplerConfig(seed=42, trials=50))
        b = check_ext_one_convex(fn_neg_norm_sq(), SamplerConfig(seed=42, trials=50))
        assert a.to_json() == b.to_json()

    def test_streams_are_per_trial(self):
        # same trial index and seed must give the same draw whatever its stack
        first = random_form_rows(4, 2, 7, [3], 2.0, SUPPORT)[0]
        _ = random_form_rows(4, 2, 7, [0], 2.0, SUPPORT)
        second = random_form_rows(4, 2, 7, [0, 5, 3], 2.0, SUPPORT)[2]
        assert first.tobytes() == second.tobytes()


class TestStackedDraws:
    """A stack of draws is the forms the one-trial draw of tests/oracles.py
    draws one stream at a time."""

    @pytest.mark.parametrize("n,k", [(8, 2), (4, 2), (5, 1), (6, 3), (3, 0), (7, 7)])
    @pytest.mark.parametrize("scale", [1e-300, 2.0, 1e300])
    @pytest.mark.parametrize("kind,attempt", [(SUPPORT, 0), (FIT, 2), (VALIDATION, 0)])
    def test_rows_are_random_form_bit_for_bit(self, n, k, scale, kind, attempt):
        indices = [0, 5, 3, 2 ** 32 - 1, 10_000_001]
        rows = random_form_rows(n, k, 9, indices, scale, kind, attempt)
        assert rows.shape == (len(indices), math.comb(n, k)) and rows.dtype == np.float64
        for row, j in zip(rows, indices):
            want = random_form(n, k, ReferenceStream(9, kind, j, attempt), scale)
            assert row.tobytes() == want.coeffs.tobytes()
        assert random_form_rows(n, k, 9, [], scale, kind).shape == (0, math.comb(n, k))

    def test_draws_follow_random_uniform(self):
        form = random_form_rows(8, 2, 4, [1], 3.0, SUPPORT)[0]
        X = random_rank_one_rows(4, 2, 4, [1], 0.5)[0][0]
        twin = ReferenceStream(4, SUPPORT, 1)
        assert form.tolist() == [twin.uniform(-3.0, 3.0) for _ in range(28)]
        twin = ReferenceStream(4, RANK_ONE, 1)
        assert X.tolist() == [twin.uniform(-0.5, 0.5) for _ in range(16)]

    def test_draws_beyond_the_float_range_are_refused(self):
        with pytest.raises(DomainError, match=r"^\(4,2\) coefficients is not finite$"):
            random_form_rows(4, 2, 0, range(3), 1e308, SUPPORT)
        with pytest.raises(DomainError, match=r"^\(4,2\) coefficients is not finite$"):
            random_line_rows(4, 2, 0, range(3), 1e308)


def fn_planted(n=8, k=2, seed=12):
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))]
    for s in range(1, n // k + 1):
        coeffs.append(random_exact_form(n, k * s, rng))
    return FormFunction.affine_combination(n, k, coeffs)


class TestStepIndependence:
    """A line verdict judges curvature d2/h² against tolerance plus a rounding floor."""

    STEPS = (1e-3, 1e-6)

    @pytest.mark.parametrize("step", STEPS)
    def test_concave_fails_at_every_step(self, step):
        for n in (4, 8):
            verdict = check_ext_one_convex(fn_neg_norm_sq(n, 2),
                                           SamplerConfig(seed=0, trials=100, step=step))
            assert verdict.status == "fail"
            witness = verdict.witness
            assert witness["curvature"] < -(verdict.tolerance + witness["floor"])
            assert witness["second_difference"] < -witness["threshold"]
            replayed = replay_witness(fn_neg_norm_sq(n, 2), witness)
            assert replayed == witness["second_difference"]

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name,f", [("norm_sq", fn_norm_sq(8, 2)),
                                        ("planted", fn_planted()),
                                        ("top_power", fn_top_power())])
    def test_convex_functions_pass_at_every_step(self, step, name, f):
        verdict = check_ext_one_convex(f, SamplerConfig(seed=1, trials=200, step=step))
        assert verdict.status == "pass"
        assert verdict.floor > 0

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name,f", [("planted", fn_planted()),
                                        ("planted_6_2", fn_planted(6, 2, seed=4)),
                                        ("top_power", fn_top_power())])
    def test_affine_functions_pass_affine_at_every_step(self, step, name, f):
        verdict = check_ext_one_affine(f, SamplerConfig(seed=2, trials=200, step=step))
        assert verdict.status == "pass"

    def test_floor_scales_as_one_over_step_squared(self):
        coarse = check_ext_one_convex(fn_norm_sq(8, 2), SamplerConfig(seed=3, trials=20))
        fine = check_ext_one_convex(fn_norm_sq(8, 2),
                                    SamplerConfig(seed=3, trials=20, step=1e-6))
        assert 0.5e6 < fine.floor / coarse.floor < 2e6

    def test_verdict_reports_floor(self):
        blob = check_ext_one_convex(fn_norm_sq(), SamplerConfig(seed=0, trials=10)).to_json()
        assert blob["floor"] > 0
        failed = check_ext_one_convex(fn_neg_norm_sq(), SamplerConfig(seed=0, trials=10))
        assert set(failed.to_json()["witness"]) >= {"curvature", "floor", "threshold"}

    @pytest.mark.parametrize("step", STEPS)
    def test_rank_one_verdicts_at_every_step(self, step):
        cfg = SamplerConfig(seed=0, trials=80, step=step)
        assert check_rank_one_convex(lift(fn_norm_sq()), 4, 2, cfg).status == "pass"
        failed = check_rank_one_convex(lift(fn_neg_norm_sq()), 4, 2, cfg)
        assert failed.status == "fail"
        assert failed.witness["curvature"] < -(cfg.tolerance + failed.witness["floor"])

    def test_lift_magnitude_bounds_the_value(self):
        F = lift(fn_planted(6, 2, seed=9))
        rng = random.Random(3)
        for _ in range(20):
            X = random_matrix(6, 2, rng, 2.0)
            row = np.array([[v for entries in X.entries for v in entries]])
            assert F.magnitude_rows(row)[0] >= abs(F(X))

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("inf"), float("nan"), 1e-170])
    def test_unusable_steps_rejected(self, step):
        with pytest.raises(DomainError):
            SamplerConfig(step=step)

    @pytest.mark.parametrize("field,value", [
        ("coeff_range", True), ("step", True), ("tolerance", True), ("tolerance", False),
        ("tolerance", "x"), ("step", "1e-3"), ("coeff_range", None), ("coeff_range", 1j),
        ("tolerance", np.bool_(False)), ("coeff_range", Fraction(10 ** 400)),
    ], ids=["range-True", "step-True", "tolerance-True", "tolerance-False", "tolerance-str",
            "step-str", "range-None", "range-complex", "tolerance-numpy-bool",
            "range-beyond-float"])
    def test_bools_and_non_reals_refused(self, field, value):
        # a bool compares as 1 or 0 and a string raised a bare TypeError
        with pytest.raises(DomainError):
            SamplerConfig(**{field: value})

    def test_real_settings_stored_as_floats(self):
        cfg = SamplerConfig(coeff_range=3, step=Fraction(1, 1000), tolerance=np.float32(0.5))
        assert (cfg.coeff_range, cfg.step, cfg.tolerance) == (3.0, 1e-3, 0.5)
        assert all(type(v) is float for v in (cfg.coeff_range, cfg.step, cfg.tolerance))


class TestStackedSampling:
    def test_scan_matches_the_per_trial_route(self):
        # |ξ|² is not affine, so the affine scan fails at trial 0 and shows its numbers
        f = FormFunction(6, 2, {"op": "add", "args": [
            {"op": "norm_sq", "arg": "xi"},
            {"op": "inner", "form": "e1234", "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}]})
        cfg = SamplerConfig(seed=5, trials=25)
        verdict = check_ext_one_affine(f, cfg)
        xi, alpha, beta, (t,) = line_draws(6, 2, cfg.seed, 0, cfg.coeff_range)
        g = line_restriction(f, xi, alpha, beta)
        assert verdict.witness["trial"] == 0
        assert verdict.witness["second_difference"] == g(t + cfg.step) + g(t - cfg.step) \
            - 2 * g(t)

    @staticmethod
    def rank_one_line(n, k, cfg, trial):
        """The per-trial route: the trial's matrix line, built with ShapeMatrix arithmetic."""
        X, a, b, t = rank_one_draws(n, k, cfg.seed, trial, cfg.coeff_range)
        direction = tensor(a, b)
        return [X + direction.scale(tau) for tau in (t + cfg.step, t - cfg.step, t)]

    @pytest.mark.parametrize("name", ["lift", "bare"])
    def test_rank_one_scan_matches_the_per_trial_route(self, name):
        # both are concave along every rank-one line, so the scan fails at trial 0
        def neg_det2_sq(X):
            return -(X.entries[0][0] * X.entries[1][1] - X.entries[0][1] * X.entries[1][0]) ** 2
        n, k, F = (6, 2, lift(fn_neg_norm_sq(6, 2))) if name == "lift" else (2, 2, neg_det2_sq)
        cfg = SamplerConfig(seed=5, trials=25)
        verdict = check_rank_one_convex(F, n, k, cfg)
        plus, minus, mid = (F(X) for X in self.rank_one_line(n, k, cfg, 0))
        assert verdict.witness["trial"] == 0
        assert verdict.witness["second_difference"] == plus + minus - 2 * mid

    def test_bare_callable_floor_matches_the_per_trial_route(self):
        # det₂ is affine along rank-one lines: it passes, and reports the largest floor
        from extconv.convexity import _EPS, ROUNDING_ALLOWANCE

        def det2(X):
            return X.entries[0][0] * X.entries[1][1] - X.entries[0][1] * X.entries[1][0]
        for step in (1e-3, 1e-6):
            cfg = SamplerConfig(seed=2, trials=60, step=step)
            floors = []
            for trial in range(cfg.trials):
                m = [max(abs(det2(X)), 1.0) for X in self.rank_one_line(2, 2, cfg, trial)]
                floors.append(ROUNDING_ALLOWANCE * _EPS * (m[0] + m[1] + 2 * m[2]) / (step * step))
            verdict = check_rank_one_convex(det2, 2, 2, cfg)
            assert verdict.status == "pass"
            assert verdict.floor == max(floors)

    def test_first_failing_trial_is_reported(self):
        f = fn_neg_norm_sq()
        verdict = check_ext_one_convex(f, SamplerConfig(seed=9, trials=40))
        for trial in range(verdict.witness["trial"]):
            single = check_ext_one_convex(f, SamplerConfig(seed=9, trials=trial + 1))
            assert single.status == "pass"

    def test_fit_report_repeats_exactly(self):
        cfg = SamplerConfig(seed=4, trials=60)
        assert fit_quasiaffine(fn_planted(6, 2), cfg).to_json() \
            == fit_quasiaffine(fn_planted(6, 2), cfg).to_json()


class TestSupportLPPinned:
    """The (8,2) support LP at the benchmark's 500 samples: answers and tableau width."""

    # statuses and slacks of scipy's HiGHS on the same LPs, whose samples are
    # the seed's SUPPORT streams (the split-coefficient solver this one
    # replaced recorded the samples of the streams before them)
    RECORDED = {
        ("neg_norm_sq", 0): ("refuted", 44.05839684943493),
        ("neg_norm_sq", 1): ("refuted", 42.93518650182811),
        ("neg_norm_sq", 2): ("refuted", 42.60889083192272),
        ("planted", 0): ("certified", 0.0),
        ("planted", 1): ("certified", 0.0),
        ("planted", 2): ("certified", 0.0),
    }
    FUNCTIONS = {"neg_norm_sq": fn_neg_norm_sq(8, 2), "planted": fn_planted()}

    @pytest.mark.parametrize("name,seed", sorted(RECORDED))
    def test_answers_match_the_recorded_ones(self, name, seed, monkeypatch):
        from extconv import simplex

        widths, results = [], []
        pivot, minimize = simplex._pivot, simplex.minimize

        def spy(tab, *args):
            widths.append(tab.T0.shape[1])
            pivot(tab, *args)

        def solve(c, A, b, free):
            results.append((minimize(c, A, b, free), bool((b > 0).any())))
            return results[-1][0]

        monkeypatch.setattr(simplex, "_pivot", spy)
        monkeypatch.setattr(simplex, "minimize", solve)
        f, base = self.FUNCTIONS[name], KForm.zero(8, 2, scalars.FLOAT)
        cfg = SamplerConfig(seed=seed, trials=500)
        result = polyconvex_support_lp(f, base, cfg)
        status, slack = self.RECORDED[name, seed]
        assert result.status == status
        assert result.slack == pytest.approx(slack, rel=0, abs=1e-9)
        # 127 free coefficients, t and the right-hand side; the split form had 756
        assert widths and max(widths) <= 129
        # every pivot passes the spy: the loop's, and the start pivot when some b > 0
        [(lp, started)] = results
        assert len(widths) == lp.iterations + started
        if status == "certified":
            for j in range(cfg.trials):
                eta = random_form(8, 2, ReferenceStream(seed, SUPPORT, j), cfg.coeff_range)
                gap = support_inequality_gap(f, base, result.coefficients, eta)
                assert gap <= cfg.tolerance, (j, gap)


def report_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


class TestLineCampaignsAgainstThePerTrialLoop:
    """The line campaigns draw their trials as stacks; their reports are the
    bytes the one-trial draws of ``oracles.reference_scan`` and
    ``oracles.reference_cross_check`` give."""

    FUNCTIONS = {"norm_sq": fn_norm_sq, "neg_norm_sq": fn_neg_norm_sq,
                 "planted": lambda n, k: fn_planted(n, k, seed=n + k)}

    @pytest.mark.parametrize("step", [1e-3, 1e-6])
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("mode,n,k", [
        (mode, n, k) for mode in ("one-convex", "one-affine", "rank-one-convex")
        for n, k in [(4, 2), (6, 2), (8, 2), (6, 3), (5, 1), (3, 3)]
        if k > 1 or mode != "rank-one-convex"])     # shape matrices need k ≥ 2
    def test_line_reports(self, mode, n, k, name, step):
        f = self.FUNCTIONS[name](n, k)
        cfg = SamplerConfig(seed=n * k, trials=30, step=step)
        if mode == "rank-one-convex":
            got = check_rank_one_convex(lift(f), n, k, cfg)
            want = reference_scan(lift(f), n, k, cfg, mode)
        else:
            check = check_ext_one_convex if mode == "one-convex" else check_ext_one_affine
            got, want = check(f, cfg), reference_scan(f, n, k, cfg, mode)
        assert report_bytes(got) == report_bytes(want)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_bare_rank_one_reports(self, seed):
        def neg_det2_sq(X):
            return -(X.entries[0][0] * X.entries[1][1] - X.entries[0][1] * X.entries[1][0]) ** 2
        cfg = SamplerConfig(seed=seed, trials=25)
        for F in (neg_det2_sq, lambda X: X.entries[0][1] - 2 * X.entries[1][0]):
            assert report_bytes(check_rank_one_convex(F, 2, 2, cfg)) == \
                report_bytes(reference_scan(F, 2, 2, cfg, "rank-one-convex"))

    @pytest.mark.parametrize("backend", scalars.BACKENDS)
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (6, 2), (5, 3), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_cross_check_reports(self, backend, n, k, seed):
        # at (2,2) exact first draws of α∧β vanish: 1 of 40 at seed 0, 3 at seed 7
        for f in (fn_norm_sq(n, k), fn_planted(n, k, seed=3)):
            cfg = SamplerConfig(seed=seed, trials=40)
            assert report_bytes(cross_check_lift(f, cfg, backend)) == \
                report_bytes(reference_cross_check(f, cfg, backend))

    @pytest.mark.parametrize("scale", [1e308, 1e200, 1e-200])
    def test_draw_errors(self, scale):
        # not finite, an overflowing wedge or outer product, and no nondegenerate direction
        f, cfg = fn_neg_norm_sq(4, 2), SamplerConfig(seed=3, trials=20, coeff_range=scale)
        campaigns = [
            (lambda: check_ext_one_convex(f, cfg), lambda: reference_scan(f, 4, 2, cfg, "one-convex")),
            (lambda: check_rank_one_convex(lift(f), 4, 2, cfg),
             lambda: reference_scan(lift(f), 4, 2, cfg, "rank-one-convex")),
            (lambda: cross_check_lift(f, cfg), lambda: reference_cross_check(f, cfg)),
        ]
        for stacked, per_trial in campaigns:
            try:
                want = report_bytes(per_trial())
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    stacked()
                assert str(got.value) == str(exc)
            else:
                assert report_bytes(stacked()) == want

    def test_exact_cross_check_ignores_the_range(self):
        cfg = SamplerConfig(seed=2, trials=10, coeff_range=1e308)
        report = cross_check_lift(fn_norm_sq(), cfg, scalars.EXACT)
        assert report.status == "pass"
        assert report_bytes(report) == report_bytes(reference_cross_check(fn_norm_sq(), cfg,
                                                                          scalars.EXACT))

    def test_rank_one_shape_checked_before_drawing(self):
        with pytest.raises(DomainError, match="shape matrices need 2 ≤ k ≤ n, got k=1, n=4"):
            check_rank_one_convex(lambda X: 0.0, 4, 1, SamplerConfig(trials=3))


class TestReplayRankOneWitness:
    @pytest.mark.parametrize("step", [1e-3, 1e-6])
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_stored_second_difference_comes_back(self, n, k, step):
        F = lift(fn_neg_norm_sq(n, k))
        verdict = check_rank_one_convex(F, n, k, SamplerConfig(seed=1, trials=20, step=step))
        witness = json.loads(json.dumps(verdict.to_json()))["witness"]
        assert set(witness) >= {"X", "a", "b", "t", "h"}
        replayed = replay_witness(F, witness)
        assert replayed.hex() == witness["second_difference"].hex()
        assert replayed < -witness["threshold"]

    def test_other_witnesses_are_refused(self):
        f = fn_neg_norm_sq()
        cfg = SamplerConfig(seed=0, trials=10)
        wedge_witness = check_ext_one_convex(f, cfg).witness
        rank_one_witness = check_rank_one_convex(lift(f), 4, 2, cfg).witness
        for g, witness in [(lift(f), wedge_witness), (f, rank_one_witness),
                           (lambda X: 0.0, rank_one_witness), (f, {"t": 0.0, "h": 1e-3}),
                           (f, {key: v for key, v in wedge_witness.items() if key != "h"}),
                           (f, None)]:
            with pytest.raises(DomainError):
                replay_witness(g, witness)
