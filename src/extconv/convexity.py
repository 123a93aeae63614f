"""Sampled and LP-based testers for the exterior convexity notions.

All sampled checks are falsifiers, not provers: a pass means "no violation
found in N trials at tolerance τ" and is reported as exactly that.  A fail
always carries a witness whose numbers replay the violation bit-for-bit.

The checks implemented here:

* second-difference convexity/affinity along degree-one wedge lines
  (``check_ext_one_convex`` / ``check_ext_one_affine``), and the classical
  rank-one counterpart for matrix functions (``check_rank_one_convex``);
* the lift f ∘ projection and the line-consistency cross-check tying the two
  families of line tests together (``cross_check_lift``);
* a least-squares fitter recovering wedge-power pairings for functions affine
  along every line (``fit_quasiaffine``);
* a supporting-coefficient search (``polyconvex_support_lp``): over a sampled
  set of forms, the smallest uniform slack t for which some coefficients c_s
  satisfy f(η) ≥ f(ξ) + Σ_s⟨c_s, η^s − ξ^s⟩ − t on the whole sample.  A slack
  within tolerance certifies the sample; a positive optimal slack is a sound
  refutation, because the sampled constraints alone already admit no
  supporting coefficients.

Every trial still draws from its own stream ``derive_rng(seed, trial)``; the
draws are then stacked into (trials × C(n,k)) arrays, and the wedge powers and
f run once per stack through the row-batched float kernels
(``exterior.wedge_rows``, ``FormFunction.evaluate_rows``).  A row's result
does not depend on the stack it sits in, so ``replay_witness`` runs the same
kernel on one row and reproduces the scan's second difference exactly.

Line verdicts judge the curvature d2/h² of the second difference d2 against
the tolerance plus a rounding floor, after Nocedal & Wright, *Numerical
Optimization*, §8.1: each value of g carries a rounding error of a few ε times
its magnitude M, so d2 can be off by ``ROUNDING_ALLOWANCE``·ε·(M(t+h) +
M(t−h) + 2M(t)), that is by the floor once divided by h².  M is the
running-error magnitude of f (``FormFunction.magnitude_rows``), or max(1, |g|)
for a matrix function that has none.  A curvature inside the floor is noise at
that step, so the verdict reports the largest floor it judged with: a
violation smaller than that could not be seen at the chosen ``--step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import scalars
from .errors import DomainError, LPInternalError
from .exterior import KForm, ordered_sum, scalar_product, wedge, wedge_power, wedge_rows
from .functions import FormFunction
from .projection import project, right_inverse
from .sampling import (derive_rng, random_exact_form, random_form, random_line,
                       random_matrix)
from .shapespace import ShapeMatrix, tensor
from . import simplex


@dataclass
class SamplerConfig:
    """Knobs shared by every sampled check; defaults match the campaign defaults."""

    seed: int = 0
    trials: int = 100
    coeff_range: float = 2.0
    step: float = 1e-3
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if not 0 < self.step < math.inf or self.step * self.step == 0:
            raise DomainError(f"step must be positive, finite and have a nonzero square, "
                              f"got {self.step!r}")
        if not 0 <= self.tolerance < math.inf:
            raise DomainError(f"tolerance must be nonnegative and finite, got {self.tolerance!r}")
        if not 0 < self.coeff_range < math.inf:
            raise DomainError(f"coefficient range must be positive and finite, "
                              f"got {self.coeff_range!r}")


@dataclass
class Verdict:
    status: str                    # "pass" | "fail"
    mode: str
    trials: int
    seed: int
    tolerance: float
    step: float
    floor: float                   # largest rounding floor (curvature) of the trials judged
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"status": self.status, "mode": self.mode, "trials": self.trials,
               "seed": self.seed, "tolerance": self.tolerance, "step": self.step,
               "floor": self.floor}
        out["witness"] = self.witness
        return out


def line_restriction(f: FormFunction, xi: KForm, alpha: KForm, beta: KForm
                     ) -> Callable:
    """The scalar function t ↦ f(xi + t · alpha∧beta)."""
    if alpha.k != f.k - 1 or beta.k != 1:
        raise DomainError(f"direction degrees ({alpha.k},{beta.k}) do not fit a "
                          f"degree-{f.k} line")
    direction = wedge(alpha, beta)
    if (direction.n, direction.k) != (xi.n, xi.k):
        raise DomainError("direction does not live in the argument space")

    def g(t):
        return f(xi + direction.scale(t))

    return g


ROUNDING_ALLOWANCE = 16     # rounding error of one value of g, in ε·M
_EPS = float(np.finfo(float).eps)


def _second_differences(values: np.ndarray) -> np.ndarray:
    """g(t+h) + g(t−h) − 2g(t) for rows of g at (t+h, t−h, t)."""
    with scalars.float_guard("second difference"):
        return values[:, 0] + values[:, 1] - 2 * values[:, 2]


@dataclass
class _LineJudgement:
    """Second differences of the trials and what they were judged against."""

    d2: np.ndarray
    threshold: np.ndarray          # bound on |d2|: (tolerance + floor)·h²
    floor: np.ndarray              # rounding floor in curvature units
    bad: np.ndarray
    h: float

    def first_bad(self) -> int | None:
        hits = np.flatnonzero(self.bad)
        return int(hits[0]) if hits.size else None

    def witness(self, i: int) -> dict:
        return {"second_difference": float(self.d2[i]),
                "curvature": float(self.d2[i] / (self.h * self.h)),
                "floor": float(self.floor[i]), "threshold": float(self.threshold[i])}

    def verdict(self, mode: str, cfg: SamplerConfig, witness: dict | None) -> "Verdict":
        judged = self.floor if witness is None else self.floor[:witness["trial"] + 1]
        return Verdict("pass" if witness is None else "fail", mode, cfg.trials, cfg.seed,
                       cfg.tolerance, cfg.step, float(judged.max()), witness)


def _judge(values: np.ndarray, magnitudes: np.ndarray, h: float, tolerance: float,
           affine: bool) -> _LineJudgement:
    """Judge rows of g and M at (t+h, t−h, t): convexity, or affinity if ``affine``.

    The comparison runs on d2 against (tolerance + floor)·h², which is the
    curvature test d2/h² against tolerance + floor without a division.
    """
    d2 = _second_differences(values)
    with scalars.float_guard("rounding floor"):
        noise = ROUNDING_ALLOWANCE * _EPS * (magnitudes[:, 0] + magnitudes[:, 1]
                                             + 2 * magnitudes[:, 2])
        hh = h * h
        threshold = tolerance * hh + noise
        bad = np.abs(d2) > threshold if affine else d2 < -threshold
        return _LineJudgement(d2, threshold, noise / hh, bad, h)


def _line_points(xi: np.ndarray, alpha: np.ndarray, beta: np.ndarray, t: np.ndarray,
                 h: float, n: int, k: int) -> np.ndarray:
    """The points ξ + τ·α∧β at τ = t+h, t−h, t, as a (3 × m × C(n,k)) stack."""
    with scalars.float_guard("line point"):
        direction = wedge_rows(alpha, beta, n, k - 1, 1)
        taus = np.stack([t + h, t - h, t])
        return xi + taus[:, :, None] * direction


def _line_judgement(f: FormFunction, xi: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                    t: np.ndarray, h: float, tolerance: float, affine: bool
                    ) -> _LineJudgement:
    """Second differences of f along m lines, all evaluated in one kernel call."""
    points = _line_points(xi, alpha, beta, t, h, f.n, f.k)
    m = t.size
    flat = points.reshape(3 * m, -1)
    values = f.evaluate_rows(flat).reshape(3, m).T
    magnitudes = f.magnitude_rows(flat).reshape(3, m).T
    return _judge(values, magnitudes, h, tolerance, affine)


def _stack(forms: Sequence[KForm]) -> np.ndarray:
    return np.array([form.coeffs for form in forms], dtype=float)


def _scan_lines(f: FormFunction, cfg: SamplerConfig, mode: str) -> Verdict:
    xis, alphas, betas, ts = [], [], [], []
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, trial)
        xis.append(random_form(f.n, f.k, rng, cfg.coeff_range))
        alpha, beta = random_line(f.n, f.k, rng, cfg.coeff_range)
        alphas.append(alpha)
        betas.append(beta)
        ts.append(rng.uniform(-1.0, 1.0))
    judged = _line_judgement(f, _stack(xis), _stack(alphas), _stack(betas), np.array(ts),
                             cfg.step, cfg.tolerance, mode == "one-affine")
    trial = judged.first_bad()
    witness = None
    if trial is not None:
        witness = {"trial": trial, "xi": xis[trial].to_json(),
                   "alpha": alphas[trial].to_json(), "beta": betas[trial].to_json(),
                   "t": ts[trial], "h": cfg.step, **judged.witness(trial)}
    return judged.verdict(mode, cfg, witness)


def check_ext_one_convex(f: FormFunction, cfg: SamplerConfig) -> Verdict:
    """Sampled curvature test along wedge lines; fail carries a witness.

    A trial fails when its curvature d2/h² lies below −(tolerance + floor).
    """
    return _scan_lines(f, cfg, "one-convex")


def check_ext_one_affine(f: FormFunction, cfg: SamplerConfig) -> Verdict:
    """As the convexity check, but requiring |curvature| ≤ tolerance + floor."""
    return _scan_lines(f, cfg, "one-affine")


def replay_witness(f: FormFunction, witness: dict):
    """Recompute the witnessed second difference from its stored numbers.

    It runs the scan's own kernel on the one stored line.
    """
    xi, alpha, beta = (_stack([KForm.from_json(witness[key], scalars.FLOAT)])
                       for key in ("xi", "alpha", "beta"))
    points = _line_points(xi, alpha, beta, np.array([witness["t"]]), witness["h"],
                          f.n, f.k)
    return float(_second_differences(f.evaluate_rows(points.reshape(3, -1))[None, :])[0])


class LiftedFunction:
    """The matrix function X ↦ f(project(X))."""

    __slots__ = ("f", "n", "k")

    def __init__(self, f: FormFunction):
        self.f = f
        self.n = f.n
        self.k = f.k

    def __call__(self, X: ShapeMatrix):
        self._check(X)
        return self.f(project(X))

    def magnitude(self, X: ShapeMatrix) -> float:
        """A bound on the running-error magnitude of a float value of the lift.

        Each projected coefficient is a signed sum of k entries of X, so k·max|X|
        bounds its magnitude; f's magnitude grows with every coefficient's.
        """
        self._check(X)
        bound = self.k * max(abs(v) for row in X.entries for v in row)
        row = np.full((1, math.comb(self.n, self.k)), float(bound))
        return float(self.f.magnitude_rows(row)[0])

    def _check(self, X: ShapeMatrix) -> None:
        if (X.n, X.k) != (self.n, self.k):
            raise DomainError(f"matrix lives in ({X.n},{X.k}), lift expects "
                              f"({self.n},{self.k})")


def lift(f: FormFunction) -> LiftedFunction:
    return LiftedFunction(f)


def check_rank_one_convex(F: Callable, n: int, k: int, cfg: SamplerConfig) -> Verdict:
    """Second-difference test for a matrix function along rank-one directions.

    The rounding floor uses ``F.magnitude(X)`` when F has one (a lift does),
    and max(1, |F(X)|) otherwise.
    """
    magnitude = getattr(F, "magnitude", None)
    floors = []
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, trial)
        X = random_matrix(n, k, rng, cfg.coeff_range)
        a = random_form(n, k - 1, rng, cfg.coeff_range)
        b = random_form(n, 1, rng, cfg.coeff_range)
        direction = tensor(a, b)
        t = rng.uniform(-1.0, 1.0)
        points = [X + direction.scale(tau) for tau in (t + cfg.step, t - cfg.step, t)]
        values = np.array([[F(point) for point in points]], dtype=float)
        if magnitude is None:
            magnitudes = np.maximum(np.abs(values), 1.0)
        else:
            magnitudes = np.array([[magnitude(point) for point in points]])
        judged = _judge(values, magnitudes, cfg.step, cfg.tolerance, affine=False)
        floors.append(judged.floor[0])
        if judged.bad[0]:
            witness = {"trial": trial, "X": X.to_json(), "a": a.to_json(),
                       "b": b.to_json(), "t": t, "h": cfg.step, **judged.witness(0)}
            return Verdict("fail", "rank-one-convex", cfg.trials, cfg.seed,
                           cfg.tolerance, cfg.step, max(floors), witness)
    return Verdict("pass", "rank-one-convex", cfg.trials, cfg.seed,
                   cfg.tolerance, cfg.step, max(floors))


@dataclass
class LineCrossCheck:
    backend: str
    lines: int
    points_per_line: int
    max_discrepancy: object
    tolerance: float
    status: str

    def to_json(self) -> dict:
        gap = self.max_discrepancy
        return {"backend": self.backend, "lines": self.lines,
                "points_per_line": self.points_per_line,
                "max_discrepancy": scalars.scalar_to_json(gap, self.backend),
                "tolerance": self.tolerance, "status": self.status}


def cross_check_lift(f: FormFunction, cfg: SamplerConfig,
                     backend: str = scalars.FLOAT,
                     points_per_line: int = 3,
                     tolerance: float = 1e-12) -> LineCrossCheck:
    """Compare f along wedge lines with its lift along the matched matrix lines.

    The matched matrix line sits at right_inverse(xi) + t · alpha⊗beta; the
    discrepancy is exactly zero algebraically, so anything beyond float
    rounding is a sign fault somewhere in the projection path.
    """
    scalars.check_backend(backend)
    exact = backend == scalars.EXACT
    F = lift(f)
    worst = scalars.zero(backend)
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, trial)
        if exact:
            xi = random_exact_form(f.n, f.k, rng)
            alpha, beta = random_line(f.n, f.k, rng, cfg.coeff_range, exact=True)
        else:
            xi = random_form(f.n, f.k, rng, cfg.coeff_range)
            alpha, beta = random_line(f.n, f.k, rng, cfg.coeff_range)
        g = line_restriction(f, xi, alpha, beta)
        base = right_inverse(xi)
        direction = tensor(alpha, beta)
        for _ in range(points_per_line):
            if exact:
                t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            else:
                t = rng.uniform(-1.0, 1.0)
            gap = g(t) - F(base + direction.scale(t))
            if gap < 0:
                gap = -gap
            if gap > worst:
                worst = gap
    ok = (worst == 0) if exact else (worst <= tolerance)
    return LineCrossCheck(backend, cfg.trials, points_per_line, worst, tolerance,
                          "pass" if ok else "fail")


@dataclass
class QuasiaffineFit:
    """Result of fitting f(ξ) ≈ c_0 + Σ_s⟨c_s, ξ^s⟩ by least squares."""

    status: str                        # "ok" | "inconclusive"
    constant: float
    coefficients: list[KForm] = field(default_factory=list)
    validation_residual: float = float("inf")
    samples: int = 0
    seed: int = 0

    def as_function(self, n: int, k: int) -> FormFunction:
        return FormFunction.affine_combination(n, k, [self.constant, *self.coefficients])

    def to_json(self) -> dict:
        return {"status": self.status, "constant": self.constant,
                "coefficients": [c.to_json() for c in self.coefficients],
                "validation_residual": self.validation_residual,
                "samples": self.samples, "seed": self.seed}


def _power_features(xi: np.ndarray, n: int, k: int, smax: int) -> np.ndarray:
    """Rows (1, ξ, ξ², ..., ξ^smax) for a stack of float forms ξ."""
    with scalars.float_guard("wedge power feature"):
        blocks = [np.ones((xi.shape[0], 1)), xi]
        for s in range(2, smax + 1):
            blocks.append(wedge_rows(blocks[-1], xi, n, k * (s - 1), k))
        return np.hstack(blocks)


def _random_forms(n: int, k: int, seed: int, indices, scale: float) -> np.ndarray:
    """A stack of float forms, row j drawn from its own stream derive_rng(seed, j)."""
    return _stack([random_form(n, k, derive_rng(seed, j), scale) for j in indices])


def fit_quasiaffine(f: FormFunction, cfg: SamplerConfig,
                    validation_samples: int | None = None) -> QuasiaffineFit:
    """Least-squares recovery of a wedge-power pairing representation.

    The design matrix stacks (1, ξ, ξ², ...) coefficient features over at
    least twice as many samples as unknowns; the reported residual is the
    worst absolute error on a fresh validation sample, so a function that is
    not a wedge-power pairing is rejected by a large residual rather than by a
    fitted-but-meaningless coefficient vector.  Feature columns that vanish
    identically on the sample (odd-degree powers) are pinned to zero instead of
    being left floating.
    """
    n, k = f.n, f.k
    smax = n // k
    dims = [math.comb(n, k * s) for s in range(1, smax + 1)]
    unknowns = 1 + sum(dims)
    nsamples = max(cfg.trials, 2 * unknowns)
    if validation_samples is None:
        validation_samples = max(cfg.trials, 50)

    spread = cfg.coeff_range
    for attempt in range(3):
        offset = attempt * 10_000_000
        xi = _random_forms(n, k, cfg.seed, range(offset, offset + nsamples), spread)
        design = _power_features(xi, n, k, smax)
        y = f.evaluate_rows(xi)

        live = np.flatnonzero(np.abs(design).max(axis=0) > 1e-12)
        solution = np.zeros(unknowns)
        sub = design[:, live]
        coeffs, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < live.size:
            spread *= 2.0  # widen the cloud and retry before giving up
            continue
        solution[live] = coeffs

        held_out = _random_forms(n, k, cfg.seed,
                                 range(77_000_000, 77_000_000 + validation_samples),
                                 cfg.coeff_range)
        with scalars.float_guard("validation residual"):
            predicted = ordered_sum(_power_features(held_out, n, k, smax) * solution)
            worst = float(np.abs(f.evaluate_rows(held_out) - predicted).max())

        forms = []
        pos = 1
        for s, dim in enumerate(dims, start=1):
            forms.append(KForm(n, k * s, [float(v) for v in solution[pos:pos + dim]],
                               scalars.FLOAT))
            pos += dim
        return QuasiaffineFit("ok", float(solution[0]), forms, worst,
                              nsamples, cfg.seed)
    return QuasiaffineFit("inconclusive", 0.0, [], float("inf"), nsamples, cfg.seed)


@dataclass
class SupportSearch:
    """Outcome of the supporting-coefficient LP at one base point."""

    status: str                       # "certified" | "refuted" | "inconclusive"
    base: KForm
    slack: float | None
    coefficients: list[KForm] | None
    sample_size: int
    seed: int
    tolerance: float

    def to_json(self) -> dict:
        return {"status": self.status, "base": self.base.to_json(),
                "slack": None if self.slack is None else float(self.slack),
                "coefficients": None if self.coefficients is None
                else [c.to_json() for c in self.coefficients],
                "sample_size": self.sample_size, "seed": self.seed,
                "tolerance": self.tolerance}


def polyconvex_support_lp(f: FormFunction, xi: KForm, cfg: SamplerConfig,
                          etas: Sequence[KForm] | None = None) -> SupportSearch:
    """Search for supporting coefficients c_s at the base point ``xi``.

    Minimizes the uniform slack t ≥ 0 subject to
    f(η_j) − f(ξ) − Σ_s⟨c_s, η_j^s − ξ^s⟩ ≥ −t over the sample {η_j}.  The
    optimal slack is the smallest worst-case violation any coefficient choice
    leaves; within tolerance it yields a certificate, above it the sampled
    points alone already rule every candidate out.
    """
    n, k = f.n, f.k
    if (xi.n, xi.k) != (n, k):
        raise DomainError(f"base point lives in ({xi.n},{xi.k}), expected ({n},{k})")
    smax = n // k
    dims = [math.comb(n, k * s) for s in range(1, smax + 1)]
    total = sum(dims)

    if etas is None:
        eta = _random_forms(n, k, cfg.seed, range(cfg.trials), cfg.coeff_range)
    else:
        eta = _stack(etas)
    f_base = float(f(xi))

    with scalars.float_guard("support constraint"):
        base = _power_features(_stack([xi]), n, k, smax)[:, 1:]
        w = _power_features(eta, n, k, smax)[:, 1:] - base
        A = np.hstack([-w, w, np.ones((eta.shape[0], 1))])
        b = -(f.evaluate_rows(eta) - f_base)

    cost = [0.0] * (2 * total) + [1.0]
    result = simplex.minimize(cost, A, b, all_ones_var=2 * total)
    if result.status == simplex.UNBOUNDED:
        raise LPInternalError("support slack is bounded below by zero yet the "
                              "solver reported unbounded")
    if result.status != simplex.OPTIMAL:
        return SupportSearch("inconclusive", xi, None, None, eta.shape[0],
                             cfg.seed, cfg.tolerance)
    x = result.x
    slack = float(result.objective)
    forms = []
    pos = 0
    for s, dim in enumerate(dims, start=1):
        block = [x[pos + i] - x[total + pos + i] for i in range(dim)]
        forms.append(KForm(n, k * s, [float(v) for v in block], scalars.FLOAT))
        pos += dim
    status = "certified" if slack <= cfg.tolerance else "refuted"
    return SupportSearch(status, xi, slack, forms, eta.shape[0], cfg.seed,
                         cfg.tolerance)


def support_inequality_gap(f: FormFunction, xi: KForm,
                           coefficients: Sequence[KForm], eta: KForm):
    """Violation f(ξ) + Σ⟨c_s, η^s − ξ^s⟩ − f(η) of the support inequality at η."""
    total = f(xi)
    for s, c in enumerate(coefficients, start=1):
        total += scalar_product(c, wedge_power(eta, s) - wedge_power(xi, s))
    return total - f(eta)
