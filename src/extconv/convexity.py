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

Every trial draws from its own counter-based streams (``sampling``): the
words of (seed, kind, trial, attempt), where the kind names the draw site (the
support LP's samples, the fitter's samples and its held-out ones, a line's
base, direction and t), so no two sites or trials share a word.  The fitter's
widened retry is the next attempt of its sample streams, not an offset into
the trial indices.  Each campaign draws its trials as one stack
(``sampling.random_form_rows``, ``random_line_rows``,
``random_rank_one_rows``), one form or flattened matrix per row.  The wedge
powers and f run once per stack through the row kernels typed by its dtype
(``exterior.wedge_rows``, ``FormFunction.evaluate_rows``, and for a lift
``projection.project_rows``); wedge and rank-one lines share one scan, which
builds forms only for its witness, and the lift cross-check is one stacked
pass in either backend.  A row's result does not depend on its
stack, so ``replay_witness`` runs the same kernel on one row and reproduces the
scan's second difference exactly.

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
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import scalars
from .errors import DomainError, LPInternalError
from .exterior import KForm, ordered_sum, scalar_product, wedge_power, wedge_rows
from .functions import FormFunction
from .multiindex import integer
from .projection import project, project_rows, right_inverse_rows
from .sampling import (FIT, SUPPORT, VALIDATION, check_streams, random_form_rows,
                       random_line_rows, random_rank_one_rows)
from .shapespace import ShapeMatrix
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
        self.trials = integer(self.trials, "trials")
        self.seed = check_streams(self.seed, self.trials)
        self.coeff_range, self.step, self.tolerance = (
            scalars.real(self.coeff_range, "coefficient range"), scalars.real(self.step, "step"),
            scalars.real(self.tolerance, "tolerance"))
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
        return {"status": self.status, "mode": self.mode, "trials": self.trials,
                "seed": self.seed, "tolerance": self.tolerance, "step": self.step,
                "floor": self.floor, "witness": self.witness}


ROUNDING_ALLOWANCE = 16     # rounding error of one value of g, in ε·M
_EPS = float(np.finfo(float).eps)


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


def _line_judgement(f, xi: np.ndarray, direction: np.ndarray, t: np.ndarray, h: float,
                    tolerance: float, affine: bool) -> _LineJudgement:
    """Judge f along m lines, evaluated in one kernel call: convexity, or affinity.

    f runs on the points ξ + τ·D at τ = t+h, t−h, t.  M is ``f.magnitude_rows``
    where f has one, and max(1, |g|) otherwise.  The comparison runs on d2
    against (tolerance + floor)·h², which is the curvature test d2/h² against
    tolerance + floor without a division.
    """
    m = t.size
    with scalars.float_guard("line point"):
        flat = (xi + np.stack([t + h, t - h, t])[:, :, None] * direction).reshape(3 * m, -1)
    g = f.evaluate_rows(flat).reshape(3, m)
    M = (f.magnitude_rows(flat).reshape(3, m) if hasattr(f, "magnitude_rows")
         else np.maximum(np.abs(g), 1.0))
    with scalars.float_guard("second difference"):
        d2 = g[0] + g[1] - 2 * g[2]
        noise = ROUNDING_ALLOWANCE * _EPS * (M[0] + M[1] + 2 * M[2])
        hh = h * h
        threshold = tolerance * hh + noise
        bad = np.abs(d2) > threshold if affine else d2 < -threshold
        return _LineJudgement(d2, threshold, noise / hh, bad, h)


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is the flat entries of the rank-one matrix a[i] ⊗ b[i]."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _form_json(n: int, k: int, row: np.ndarray) -> dict:
    return KForm(n, k, row, scalars.FLOAT).to_json()


def _scan(f, cfg: SamplerConfig, mode: str, base: np.ndarray, lines: np.ndarray,
          t: np.ndarray, drawn: Callable[[int], dict]) -> Verdict:
    """Judge f along base[i] + τ·lines[i] near τ = t[i], one line per trial;
    ``drawn(i)`` gives the draws of the first failing trial by witness key."""
    judged = _line_judgement(f, base, lines, t[:, 0], cfg.step, cfg.tolerance,
                             mode == "one-affine")
    i = judged.first_bad()
    witness = None if i is None else {"trial": i, **drawn(i), "t": float(t[i, 0]),
                                      "h": cfg.step, **judged.witness(i)}
    return judged.verdict(mode, cfg, witness)


def _scan_lines(f: FormFunction, cfg: SamplerConfig, mode: str) -> Verdict:
    n, k = f.n, f.k
    xi, alpha, beta, t = random_line_rows(n, k, cfg.seed, range(cfg.trials), cfg.coeff_range)
    return _scan(f, cfg, mode, xi, wedge_rows(alpha, beta, n, k - 1, 1), t,
                 lambda i: {"xi": _form_json(n, k, xi[i]), "alpha": _form_json(n, k - 1, alpha[i]),
                            "beta": _form_json(n, 1, beta[i])})


def check_ext_one_convex(f: FormFunction, cfg: SamplerConfig) -> Verdict:
    """Sampled curvature test along wedge lines; fail carries a witness.

    A trial fails when its curvature d2/h² lies below −(tolerance + floor).
    """
    return _scan_lines(f, cfg, "one-convex")


def check_ext_one_affine(f: FormFunction, cfg: SamplerConfig) -> Verdict:
    """As the convexity check, but requiring |curvature| ≤ tolerance + floor."""
    return _scan_lines(f, cfg, "one-affine")


def replay_witness(f, witness: dict):
    """Recompute the witnessed second difference from its stored numbers: the
    scan's own judgement on the one stored line, a wedge line (ξ, α, β) of a
    ``FormFunction`` or a rank-one line (X, a, b) of a lift."""
    keys = set(witness) if isinstance(witness, dict) else set()
    form = lambda key: KForm.from_json(witness[key], scalars.FLOAT).coeffs[None]
    if isinstance(f, FormFunction) and keys >= {"xi", "alpha", "beta", "t", "h"}:
        base, line = form("xi"), wedge_rows(form("alpha"), form("beta"), f.n, f.k - 1, 1)
    elif isinstance(f, LiftedFunction) and keys >= {"X", "a", "b", "t", "h"}:
        base = ShapeMatrix.from_json(witness["X"], scalars.FLOAT).entries.reshape(1, -1)
        line = _outer_rows(form("a"), form("b"))
    else:
        raise DomainError("a witness replays as a wedge line (xi, alpha, beta) of a form "
                          "function or a rank-one line (X, a, b) of a lift")
    judged = _line_judgement(f, base, line, np.array([witness["t"]]), witness["h"], 0.0, False)
    return float(judged.d2[0])


class LiftedFunction:
    """The matrix function X ↦ f(project(X)); row methods take flat entry stacks."""

    __slots__ = ("f", "n", "k")

    def __init__(self, f: FormFunction):
        self.f, self.n, self.k = f, f.n, f.k

    def __call__(self, X: ShapeMatrix):
        if (X.n, X.k) != (self.n, self.k):
            raise DomainError(f"matrix lives in ({X.n},{X.k}), lift expects "
                              f"({self.n},{self.k})")
        return self.f(project(X))

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """The lift on each row, exact on an object stack; bit for bit its matrix's lift."""
        with scalars.float_guard("lifted value"):
            return self.f.evaluate_rows(project_rows(self._checked(rows), self.n, self.k))

    def magnitude_rows(self, rows: np.ndarray) -> np.ndarray:
        """A bound on the running-error magnitude of each value of ``evaluate_rows``.

        Each projected coefficient is a signed sum of k entries of X, so k·max|X|
        bounds its magnitude; f's magnitude grows with every coefficient's.
        """
        with scalars.float_guard("lifted magnitude"):
            bound = self.k * np.abs(self._checked(rows)).max(axis=1)
            return self.f.magnitude_rows(
                np.repeat(bound[:, None], math.comb(self.n, self.k), axis=1))

    def _checked(self, rows) -> np.ndarray:
        return scalars.checked_rows(rows, math.comb(self.n, self.k - 1) * self.n,
                                    f"({self.n},{self.k}) matrix entries")


def lift(f: FormFunction) -> LiftedFunction:
    return LiftedFunction(f)


def check_rank_one_convex(F: Callable, n: int, k: int, cfg: SamplerConfig) -> Verdict:
    """Second-difference test for a matrix function along rank-one directions a⊗b.

    F runs on the whole stack of line points when it has ``evaluate_rows`` (a
    lift does); a bare callable is called once per point, with M = max(1, |F|).
    """
    if not hasattr(F, "evaluate_rows"):
        F = SimpleNamespace(evaluate_rows=lambda rows, F=F: np.array(
            [F(ShapeMatrix(n, k, row.reshape(-1, n), scalars.FLOAT)) for row in rows],
            dtype=float))
    X, a, b, t = random_rank_one_rows(n, k, cfg.seed, range(cfg.trials), cfg.coeff_range)
    with scalars.float_guard("line direction"):
        lines = _outer_rows(a, b)
    return _scan(F, cfg, "rank-one-convex", X, lines, t, lambda i: {
        "X": ShapeMatrix(n, k, X[i].reshape(-1, n), scalars.FLOAT).to_json(),
        "a": _form_json(n, k - 1, a[i]), "b": _form_json(n, 1, b[i])})


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


LIFT_POINTS_PER_LINE = 3
LIFT_TOLERANCE = 1e-12      # float discrepancy allowed; the exact backend allows none


def cross_check_lift(f: FormFunction, cfg: SamplerConfig,
                     backend: str = scalars.FLOAT) -> LineCrossCheck:
    """Compare f along wedge lines with its lift along the matched matrix lines.

    Each trial draws ξ, α, β and ``LIFT_POINTS_PER_LINE`` values of t from its
    own stream (``sampling.random_line_rows``); then f runs once on the stacked
    wedge lines ξ + t·(α∧β), and the lift on the matrix lines
    right_inverse(ξ) + t·(α⊗β).  Only the lift sums the projection table's
    signs, and the discrepancy is exactly zero algebraically, so anything
    beyond float rounding is a sign fault in the projection path.  Both
    backends take this one path in their own dtype.
    """
    n, k = f.n, f.k
    xi, alpha, beta, t = random_line_rows(n, k, cfg.seed, range(cfg.trials), cfg.coeff_range,
                                          LIFT_POINTS_PER_LINE, backend)
    t = t.T[:, :, None]                                       # points × trials × 1
    base = right_inverse_rows(xi, n, k)
    with scalars.float_guard("lift cross-check"):
        line = (xi + t * wedge_rows(alpha, beta, n, k - 1, 1)).reshape(-1, xi.shape[1])
        matrix = (base + t * _outer_rows(alpha, beta)).reshape(-1, base.shape[1])
        gaps = np.abs(f.evaluate_rows(line) - lift(f).evaluate_rows(matrix))
    worst = max(gaps.ravel().tolist())
    ok = (worst == 0) if backend == scalars.EXACT else (worst <= LIFT_TOLERANCE)
    return LineCrossCheck(backend, cfg.trials, LIFT_POINTS_PER_LINE, worst, LIFT_TOLERANCE,
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


def _power_dims(n: int, k: int) -> list[int]:
    """Coefficient counts of ξ, ξ², ..., ξ^(n//k) for a k-form ξ on R^n."""
    return [math.comb(n, k * s) for s in range(1, n // k + 1)]


def _power_features(xi: np.ndarray, n: int, k: int) -> np.ndarray:
    """Rows (1, ξ, ξ², ..., ξ^(n//k)) for a stack of float forms ξ."""
    with scalars.float_guard("wedge power feature"):
        blocks = [np.ones((xi.shape[0], 1)), xi]
        for s in range(2, n // k + 1):
            blocks.append(wedge_rows(blocks[-1], xi, n, k * (s - 1), k))
        return np.hstack(blocks)


def _power_forms(n: int, k: int, flat: np.ndarray) -> list[KForm]:
    """Cut flat coefficients (the ξ block, then ξ², ...) into float forms of degree k, 2k, ..."""
    blocks = np.split(flat, np.cumsum(_power_dims(n, k))[:-1])
    return [KForm(n, k * s, block, scalars.FLOAT) for s, block in enumerate(blocks, start=1)]


def fit_quasiaffine(f: FormFunction, cfg: SamplerConfig) -> QuasiaffineFit:
    """Least-squares recovery of a wedge-power pairing representation.

    The design matrix stacks (1, ξ, ξ², ...) coefficient features over at
    least twice as many samples as unknowns; the reported residual is the
    worst absolute error on a fresh validation sample of max(trials, 50) forms,
    so a function that is not a wedge-power pairing is rejected by a large
    residual rather than by a fitted-but-meaningless coefficient vector.
    The samples of attempt a are the ``FIT`` streams at attempt a, and the
    validation forms the ``VALIDATION`` streams.  Feature columns that vanish
    identically on the sample (odd-degree powers) are pinned to zero instead
    of being left floating.
    """
    n, k = f.n, f.k
    unknowns = 1 + sum(_power_dims(n, k))
    nsamples = max(cfg.trials, 2 * unknowns)
    validation_samples = max(cfg.trials, 50)

    spread = cfg.coeff_range
    for attempt in range(3):
        xi = random_form_rows(n, k, cfg.seed, range(nsamples), spread, FIT, attempt)
        design = _power_features(xi, n, k)
        y = f.evaluate_rows(xi)

        live = np.flatnonzero(np.abs(design).max(axis=0) > 1e-12)
        solution = np.zeros(unknowns)
        sub = design[:, live]
        coeffs, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < live.size:
            spread *= 2.0  # widen the cloud and retry before giving up
            continue
        solution[live] = coeffs

        held_out = random_form_rows(n, k, cfg.seed, range(validation_samples),
                                    cfg.coeff_range, VALIDATION)
        with scalars.float_guard("validation residual"):
            predicted = ordered_sum(_power_features(held_out, n, k) * solution)
            worst = float(np.abs(f.evaluate_rows(held_out) - predicted).max())
        return QuasiaffineFit("ok", float(solution[0]), _power_forms(n, k, solution[1:]),
                              worst, nsamples, cfg.seed)
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
    if etas is None:
        eta = random_form_rows(n, k, cfg.seed, range(cfg.trials), cfg.coeff_range, SUPPORT)
    else:
        if not etas or any((eta.n, eta.k) != (n, k) for eta in etas):
            raise DomainError(f"sample points must be a nonempty list of ({n},{k}) forms")
        eta = np.array([e.coeffs for e in etas], dtype=float)
    f_base = float(f(xi))

    with scalars.float_guard("support constraint"):
        base = _power_features(np.array([xi.coeffs], dtype=float), n, k)[:, 1:]
        w = _power_features(eta, n, k)[:, 1:] - base
        # t's column is all ones: the simplex enters it to start feasible
        A = np.hstack([-w, np.ones((eta.shape[0], 1))])
        b = -(f.evaluate_rows(eta) - f_base)

    total = w.shape[1]
    cost = [0.0] * total + [1.0]
    result = simplex.minimize(cost, A, b, free=total)
    if result.status == simplex.UNBOUNDED:
        raise LPInternalError("support slack is bounded below by zero yet the "
                              "solver reported unbounded")
    if result.status != simplex.OPTIMAL:
        return SupportSearch("inconclusive", xi, None, None, eta.shape[0],
                             cfg.seed, cfg.tolerance)
    x = result.x
    slack = float(result.objective)
    forms = _power_forms(n, k, np.asarray(x[:total]))
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
