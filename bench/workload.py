"""One process of one benchmark workload: set-up, warm-up, then timed rounds.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --phase setup|measure --workdir DIR

``run.py`` starts this script with BLAS pinned to one thread.  The process is
single-threaded and runs a closed loop with one client: a round is the
workload's campaign list, each campaign starts when the one before it ends,
and rounds follow each other until ``--seconds`` are used.  Every round draws
fresh inputs from (workload, seed, round), so a program that memoized results
across calls would gain nothing from the repetition.

Only the program call of a campaign is timed.  Input generation happens before
a round and the verdict checks after it.  Before each campaign and after the
last one, the process also times ``reference_loop``, a fixed computation of
the benchmark's own.  Each campaign's program time divided by the mean of the
two reference times around it is its normalized time; their sum over a round
is the machine-speed-independent ``round_norm``.  Set-up time is reported the
same way, in reference seconds: wall seconds times ``REFERENCE_NOMINAL_S``
over a mean reference time taken in the warm-up round and right after it.

With ``--trace 1`` the layer wrappers of ``spans.py`` are installed after the
warm-up.

The last line on standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
FIT_ATOL = 1e-6            # recovered pairing coefficients vs the planted ones
GROUPS = ("verify", "powermap", "gradient", "lines", "fit", "lp")


@dataclass
class Campaign:
    group: str                                  # one of GROUPS
    name: str
    call: Callable[[], object]                  # the timed program call
    check: Callable[[object], tuple[bool, str]]  # (verdict as expected, canonical report)


class Program:
    """The extconv package, imported from the checkout's ``src``."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "extconv" / "__init__.py").is_file():
            raise SystemExit(f"benchmark: no extconv package under {src}")
        sys.path.insert(0, str(src))
        import extconv
        from extconv import cli
        if Path(extconv.__file__).resolve().parent != (src / "extconv").resolve():
            raise SystemExit(f"benchmark: imported extconv from {extconv.__file__}, "
                             f"not from {src}")
        self.ext = extconv
        self.cli = cli

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue() + err.getvalue()


# input generation (the benchmark's own; the program sees only the results) ---

def _rational(rng: random.Random, num: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _multiindices(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


def _rational_coeffs(rng: random.Random, n: int, k: int) -> dict[tuple[int, ...], Fraction]:
    return {mi: _rational(rng) for mi in _multiindices(n, k)}


def _form_json(n: int, k: int, coeffs: dict[tuple[int, ...], Fraction]) -> dict:
    return {"n": n, "k": k, "coeffs": {",".join(map(str, mi)): _text(q)
                                       for mi, q in coeffs.items() if q}}


def planted_pairing(rng: random.Random, n: int, k: int):
    """ξ ↦ c_0 + Σ_s ⟨c_s, ξ^s⟩ with rational c_s: affine along every wedge line."""
    constant = _rational(rng, 5, 3)
    forms = [_rational_coeffs(rng, n, k * s) for s in range(1, n // k + 1)]
    parts = [{"op": "const", "value": _text(constant)}]
    for s, coeffs in enumerate(forms, start=1):
        parts.append({"op": "inner", "form": _form_json(n, k * s, coeffs),
                      "arg": {"op": "wedge_pow", "s": s, "arg": "xi"}})
    return {"n": n, "k": k, "expr": {"op": "add", "args": parts}}, constant, forms


def norm_squared(n: int, k: int, sign: int = 1) -> dict:
    expr = {"op": "norm_sq", "arg": "xi"}
    return {"n": n, "k": k, "expr": expr if sign > 0 else {"op": "neg", "arg": expr}}


def integer_matrix(prog: Program, rng: random.Random, n: int, k: int):
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(math.comb(n, k - 1))]
    return prog.ext.ShapeMatrix(n, k, rows)


def rational_form(prog: Program, rng: random.Random, n: int, k: int):
    return prog.ext.KForm(n, k, [_rational(rng) for _ in range(math.comb(n, k))])


def rational_table(prog: Program, rng: random.Random, n: int, k: int, s: int):
    rows, cols = math.comb(math.comb(n, k - 1), s), math.comb(n, s)
    values = [[_rational(rng, 6, 3) for _ in range(cols)] for _ in range(rows)]
    return prog.ext.MinorTable(n, k, s, values)


def poly_form(prog: Program, rng: random.Random, n: int, r: int, terms: int, degree: int):
    ext = prog.ext
    coeffs = {}
    for mi in _multiindices(n, r):
        monomials = {}
        for _ in range(rng.randint(1, terms)):
            expo = [0] * n
            for _ in range(rng.randint(1, degree)):
                expo[rng.randrange(n)] += 1
            monomials[tuple(expo)] = monomials.get(tuple(expo), 0) + _rational(rng, 4, 3)
        coeffs[mi] = ext.Poly(n, monomials)
    return ext.PolyKForm(n, r, coeffs)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# campaigns ------------------------------------------------------------------

def _cli_campaign(prog: Program, group: str, name: str, argv: list[str],
                  code: int, status: str, extra: Callable[[dict], bool] | None = None
                  ) -> Campaign:
    def check(result) -> tuple[bool, str]:
        got_code, text = result
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return False, text
        ok = got_code == code and report.get("status") == status \
            and (extra is None or extra(report))
        return ok, text

    return Campaign(group, name, lambda: prog.run_cli(argv), check)


def verify_formula(prog: Program, rng: random.Random, n: int, k: int, s: int,
                   trials: int) -> Campaign:
    argv = ["verify-formula", "--n", str(n), "--k", str(k), "--s", str(s),
            "--trials", str(trials), "--seed", _seed(rng)]
    return _cli_campaign(prog, "verify", f"verify-formula({n},{k},{s})", argv, 0, "pass",
                         lambda r: r["max_residual"] == "0" and "failure" not in r)


def _exact_residual(pairs) -> tuple[bool, str]:
    """Every (left, right) pair of forms or scalars must agree with residual 0."""
    residual = 0
    canonical = []
    for left, right in pairs:
        if hasattr(left, "coeffs"):
            residual = max([residual, *(abs(a - b) for a, b in zip(left.coeffs, right.coeffs))])
            canonical.append(left.to_json())
        else:
            residual = max(residual, abs(left - right))
            canonical.append(_text(Fraction(left)))
    ok = residual == 0 and all(left == right for left, right in pairs)
    return ok, json.dumps({"residual": _text(Fraction(residual)), "values": canonical},
                          sort_keys=True)


def power_map_apply(prog: Program, rng: random.Random, n: int, k: int, s: int,
                    matrices: int) -> Campaign:
    """Build the dense order-s power map and apply it; the wedge route is the oracle."""
    ext = prog.ext
    Xs = [integer_matrix(prog, rng, n, k) for _ in range(matrices)]

    def call():
        power_map = ext.minor_power_map(n, k, s)
        return [(power_map.apply(ext.adjugate(X, s)), ext.wedge_power(ext.project(X), s))
                for X in Xs]

    return Campaign("powermap", f"minor_power_map({n},{k},{s})", call, _exact_residual)


def pullback_adjoint(prog: Program, rng: random.Random, n: int, k: int) -> Campaign:
    """⟨pullback(D)_s, M⟩ == ⟨D_s, P_s M⟩ for every order s, exactly."""
    ext = prog.ext
    orders = range(1, n // k + 1)
    forms = [rational_form(prog, rng, n, k * s) for s in orders]
    tables = [rational_table(prog, rng, n, k, s) for s in orders]

    def call():
        pulled = ext.pullback_support(forms)
        return [(ext.table_inner(d, M),
                 ext.scalar_product(D, ext.minor_power_map(n, k, s).apply(M)))
                for s, d, M, D in zip(orders, pulled, tables, forms)]

    return Campaign("powermap", f"pullback_support({n},{k})", call, _exact_residual)


def gradient_identity(prog: Program, rng: random.Random, n: int, k: int,
                      count: int) -> Campaign:
    """project_polynomial(gradient(w)) == d_right(w) for polynomial (k−1)-forms."""
    ext = prog.ext
    ws = [poly_form(prog, rng, n, k - 1, terms=3, degree=3) for _ in range(count)]

    def call():
        return [(ext.project_polynomial(ext.gradient(w)), ext.d_right(w)) for w in ws]

    def check(pairs) -> tuple[bool, str]:
        ok = all(left == right for left, right in pairs)
        return ok, json.dumps([left.to_json() for left, _ in pairs], sort_keys=True)

    return Campaign("gradient", f"gradient_identity({n},{k})", call, check)


def rank_one_lift(prog: Program, rng: random.Random, fn_json: dict, trials: int) -> Campaign:
    ext = prog.ext
    fn = ext.FormFunction.from_json(fn_json)
    cfg = ext.SamplerConfig(seed=int(_seed(rng)), trials=trials)

    def call():
        return ext.check_rank_one_convex(ext.lift(fn), fn.n, fn.k, cfg)

    def check(verdict) -> tuple[bool, str]:
        return verdict.status == "pass", json.dumps(verdict.to_json(), sort_keys=True)

    return Campaign("lines", f"check_rank_one_convex({fn.n},{fn.k})", call, check)


def _fit_recovers(constant: Fraction, forms: list[dict]) -> Callable[[dict], bool]:
    def ok(report: dict) -> bool:
        if abs(report["constant"] - float(constant)) > FIT_ATOL:
            return False
        for planted, got in zip(forms, report["coefficients"], strict=True):
            fitted = got["coeffs"]
            for mi, q in planted.items():
                if abs(fitted.get(",".join(map(str, mi)), 0.0) - float(q)) > FIT_ATOL:
                    return False
        return True

    return ok


# workloads ------------------------------------------------------------------

class Round:
    """Inputs of one round, written under ``workdir`` where the CLI reads files."""

    def __init__(self, prog: Program, rng: random.Random, workdir: Path):
        self.prog, self.rng, self.workdir = prog, rng, workdir

    def write(self, name: str, obj: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)


def exact_top(rd: Round) -> list[Campaign]:
    """Top degree k·s = n: the expansion reads a small share of the minor table."""
    prog, rng = rd.prog, rd.rng
    return [verify_formula(prog, rng, 8, 2, 4, trials=5),
            verify_formula(prog, rng, 8, 4, 2, trials=10),
            verify_formula(prog, rng, 10, 2, 5, trials=1)]


def exact_mid(rd: Round) -> list[Campaign]:
    """Mid degree: partitions, power maps and polynomial forms do the work."""
    prog, rng = rd.prog, rd.rng
    return [verify_formula(prog, rng, 12, 2, 3, trials=1),
            verify_formula(prog, rng, 10, 2, 3, trials=2),
            verify_formula(prog, rng, 9, 3, 3, trials=20),
            power_map_apply(prog, rng, 10, 2, 3, matrices=2),
            pullback_adjoint(prog, rng, 8, 2),
            gradient_identity(prog, rng, 8, 3, count=16)]


def float_sampled(rd: Round) -> list[Campaign]:
    """Float falsifiers at (8,2): expression evaluation, sampling and the simplex."""
    prog, rng = rd.prog, rd.rng
    n, k = 8, 2
    planted, constant, forms = planted_pairing(rng, n, k)
    planted_path = rd.write("planted.json", planted)
    norm_sq = norm_squared(n, k)
    norm_path = rd.write("norm_sq.json", norm_sq)
    neg_path = rd.write("neg_norm_sq.json", norm_squared(n, k, sign=-1))
    return [
        _cli_campaign(prog, "lines", "check-convexity one-affine planted",
                      ["check-convexity", "--mode", "one-affine", "--input", planted_path,
                       "--trials", "30", "--seed", _seed(rng)], 0, "pass"),
        _cli_campaign(prog, "lines", "check-convexity one-convex norm_sq",
                      ["check-convexity", "--mode", "one-convex", "--input", norm_path,
                       "--trials", "100", "--seed", _seed(rng)], 0, "pass"),
        rank_one_lift(prog, rng, norm_sq, trials=100),
        _cli_campaign(prog, "fit", "fit-quasiaffine planted",
                      ["fit-quasiaffine", "--input", planted_path, "--seed", _seed(rng)],
                      0, "ok", _fit_recovers(constant, forms)),
        _cli_campaign(prog, "lp", "support-lp planted",
                      ["support-lp", "--input", planted_path, "--seed", _seed(rng)],
                      0, "certified"),
        _cli_campaign(prog, "lp", "support-lp neg_norm_sq",
                      ["support-lp", "--input", neg_path, "--seed", _seed(rng)],
                      1, "refuted"),
    ]


WORKLOADS: dict[str, Callable[[Round], list[Campaign]]] = {
    "exact-top": exact_top,
    "exact-mid": exact_mid,
    "float-sampled": float_sampled,
}


# the loop -------------------------------------------------------------------

REFERENCE_NOMINAL_S = 0.025   # the reference loop's time that defines a reference second
_REFERENCE_ROWS = tuple(tuple((3 * i + 5 * j) % 11 - 5 for j in range(5)) for i in range(5))


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python computation: the benchmark's yardstick.

    On a shared host the speed the process gets drifts by tens of percent
    within a minute.  This loop does the kind of work the package does:
    fraction-free elimination on small integer matrices, tuple-keyed dict
    lookups and float products.  It never changes and is timed around every
    campaign, so dividing by it removes the drift but keeps every change of
    the program's own time.
    """
    start = time.perf_counter_ns()
    index: dict[tuple[int, ...], int] = {}
    acc = 0.0
    for r in range(1500):
        m = [[v + (r * (i + 1)) % 7 for v in row] for i, row in enumerate(_REFERENCE_ROWS)]
        prev = 1
        for k in range(4):
            pivot = m[k][k] or 1
            for i in range(k + 1, 5):
                lead, row_i, row_k = m[i][k], m[i], m[k]
                for j in range(k + 1, 5):
                    row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
            prev = pivot
        key = tuple(row[-1] % 1009 for row in m)
        index[key] = index.get(key, 0) + 1
        xs = [0.25 * v for v in key]
        acc += sum(a * b for a, b in zip(xs, reversed(xs)))
    return (time.perf_counter_ns() - start) / 1e9


@dataclass
class RoundResult:
    seconds: dict[str, float]      # program time per campaign group
    norm: dict[str, float]         # the same, each campaign over its local reference time
    reference_s: float             # mean time of the reference loop in the round
    ok: list[bool]
    failures: list[str]
    digest: str
    layers: tuple[dict[str, float], dict[str, float]] | None   # (counts, timings)


def run_round(campaigns: list[Campaign], tracer=None) -> RoundResult:
    results, elapsed, reference = [], [], []
    if tracer is not None:
        tracer.take()          # drop what input generation recorded
    for c in campaigns:
        reference.append(reference_loop())
        span = f"campaign.{c.group}"
        if tracer is not None:
            span_start = tracer.enter(span)
        start = time.perf_counter_ns()
        results.append(c.call())
        elapsed.append((time.perf_counter_ns() - start) / 1e9)
        if tracer is not None:
            tracer.leave(span, span_start)
    reference.append(reference_loop())
    seconds: dict[str, float] = {}
    norm: dict[str, float] = {}
    for i, (c, t) in enumerate(zip(campaigns, elapsed)):
        seconds[c.group] = seconds.get(c.group, 0.0) + t
        norm[c.group] = norm.get(c.group, 0.0) + 2 * t / (reference[i] + reference[i + 1])
    layers = tracer.take() if tracer is not None else None
    digest = hashlib.sha256()
    ok, failures = [], []
    for c, result in zip(campaigns, results):
        good, canonical = c.check(result)
        ok.append(good)
        if not good:
            failures.append(f"{c.name}: {canonical[:400]}")
        digest.update(f"{c.name}\t{canonical}\n".encode())
    return RoundResult(seconds, norm, statistics.fmean(reference), ok, failures,
                       digest.hexdigest(), layers)


def _round_rng(workload: str, seed: int, label) -> random.Random:
    return random.Random(f"{workload}/{seed}/{label}")


def environment(prog: Program) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "extconv": getattr(prog.ext, "__version__", "unknown")}


def main(argv: list[str] | None = None) -> int:
    setup_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="directory for the input files the CLI reads")
    args = parser.parse_args(argv)

    prog = Program()
    build = WORKLOADS[args.workload]
    warm = run_round(build(Round(prog, _round_rng(args.workload, args.seed, "warmup"),
                                 args.workdir)))
    setup_wall_s = time.perf_counter() - setup_start
    # more reference samples, outside the set-up clock, steady the set-up's yardstick
    reference = statistics.fmean([warm.reference_s, *(reference_loop() for _ in range(8))])
    out = {"setup_wall_s": setup_wall_s,
           "setup_s": setup_wall_s * REFERENCE_NOMINAL_S / reference,
           "warmup_digest": warm.digest,
           "attempted": len(warm.ok), "failed": warm.ok.count(False),
           "failures": warm.failures, "environment": environment(prog)}
    if args.phase == "measure":
        out.update(measure(prog, build, args))
        out["attempted"] += out.pop("round_attempted")
        out["failed"] += out.pop("round_failed")
    print(json.dumps(out, sort_keys=True))
    return 0


def measure(prog: Program, build, args) -> dict:
    tracer = installation = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        installation = install(tracer)
    rounds: list[RoundResult] = []
    window_start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            campaigns = build(Round(prog, _round_rng(args.workload, args.seed, len(rounds)),
                                    args.workdir))
            rounds.append(run_round(campaigns, tracer))
            del campaigns
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and \
                    now - window_start + (now - round_start) > args.seconds:
                break
    finally:
        if installation is not None:
            installation.restore()
    out = {
        "rounds": len(rounds),
        "window_s": time.perf_counter() - window_start,
        "round0_digest": rounds[0].digest,
        "round_attempted": sum(len(r.ok) for r in rounds),
        "round_failed": sum(r.ok.count(False) for r in rounds),
        "round_failures": [f for r in rounds for f in r.failures][:20],
        "reference_s": [r.reference_s for r in rounds],
        "seconds": {g: [r.seconds[g] for r in rounds] for g in GROUPS if g in rounds[0].seconds},
        "norm": {g: [r.norm[g] for r in rounds] for g in GROUPS if g in rounds[0].norm},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # counts of the first round repeat exactly for a seed; timings are medians
        out["counts"] = rounds[0].layers[0]
        keys = sorted({key for r in rounds for key in r.layers[1]})
        out["timings"] = {key: statistics.median(r.layers[1].get(key, 0.0) for r in rounds)
                          for key in keys}
        out["missing_spans"] = installation.missing
    return out


if __name__ == "__main__":
    sys.exit(main())
