import random
from fractions import Fraction

import pytest

from extconv import scalars
from extconv.convexity import (SamplerConfig, check_ext_one_affine,
                               check_ext_one_convex, check_rank_one_convex,
                               cross_check_lift, fit_quasiaffine, lift,
                               line_restriction, polyconvex_support_lp,
                               replay_witness, support_inequality_gap)
from extconv.errors import DomainError
from extconv.exterior import KForm, wedge
from extconv.functions import FormFunction
from extconv.sampling import derive_rng, random_exact_form, random_form
from extconv.shapespace import ShapeMatrix, tensor


def fn_norm_sq(n=4, k=2):
    return FormFunction.norm_squared(n, k)


def fn_neg_norm_sq(n=4, k=2):
    return FormFunction.neg_norm_squared(n, k)


def fn_top_power(n=4, k=2):
    return FormFunction(n, k, {"op": "inner", "form": "e1234",
                               "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}})


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
        from extconv.sampling import random_matrix
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

    def test_base_point_space_checked(self):
        with pytest.raises(DomainError):
            polyconvex_support_lp(fn_top_power(), KForm.zero(4, 1, scalars.FLOAT),
                                  SamplerConfig(seed=0, trials=10))

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
        # same trial index and seed must give the same draw regardless of order
        first = random_form(4, 2, derive_rng(7, 3), 2.0)
        _ = random_form(4, 2, derive_rng(7, 0), 2.0)
        second = random_form(4, 2, derive_rng(7, 3), 2.0)
        assert first == second


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
        from extconv.sampling import random_matrix
        F = lift(fn_planted(6, 2, seed=9))
        rng = random.Random(3)
        for _ in range(20):
            X = random_matrix(6, 2, rng, 2.0)
            assert F.magnitude(X) >= abs(F(X))

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("inf"), float("nan"), 1e-170])
    def test_unusable_steps_rejected(self, step):
        with pytest.raises(DomainError):
            SamplerConfig(step=step)


class TestStackedSampling:
    def test_scan_matches_the_per_trial_route(self):
        # |ξ|² is not affine, so the affine scan fails at trial 0 and shows its numbers
        f = FormFunction(6, 2, {"op": "add", "args": [
            {"op": "norm_sq", "arg": "xi"},
            {"op": "inner", "form": "e1234", "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}]})
        cfg = SamplerConfig(seed=5, trials=25)
        verdict = check_ext_one_affine(f, cfg)
        from extconv.sampling import random_line
        rng = derive_rng(cfg.seed, 0)
        xi = random_form(6, 2, rng, cfg.coeff_range)
        alpha, beta = random_line(6, 2, rng, cfg.coeff_range)
        t = rng.uniform(-1.0, 1.0)
        g = line_restriction(f, xi, alpha, beta)
        assert verdict.witness["trial"] == 0
        assert verdict.witness["second_difference"] == g(t + cfg.step) + g(t - cfg.step) \
            - 2 * g(t)

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
