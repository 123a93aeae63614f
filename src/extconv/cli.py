"""Command-line front end: algebraic one-shots and verification campaigns.

Every subcommand writes a single JSON document to standard output (and to
--output when given).  Reports are rendered with sorted keys and no ambient
state, so identical (command, seed, arguments) invocations are byte-identical.

``verify-formula`` runs its trials as stacks: trial t draws its matrix from
its own counter-based stream (seed, ``sampling.MATRICES``, t) by the
sampling module's integer rule (``sampling.random_integer_rows``, in int64
when the entry range fits it), and each stack goes once through the row
kernels of both routes, ``wedge_power_rows(project_rows(X))`` and
``wedge_power_from_minors_rows``, each in int64 as far as its own bounds
prove it fits.  A stack holds as many
trials as keep its largest array under ``_TRIAL_ENTRIES``, and one draw holds
as many whole stacks as keep their matrix entries under it, so memory does not
grow with ``--trials``, and the report does not depend on the stacking.  The
parser is built once per process.

A seed lies in [0, 2⁶⁴) and trial indices below 2³², the sampling streams'
key and counter words; others are refused before any draw.

Exit codes: 0 pass/certified, 1 fail/refuted, 2 usage error or inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import scalars
from .convexity import (SamplerConfig, check_ext_one_affine, check_ext_one_convex,
                        fit_quasiaffine, polyconvex_support_lp)
from .errors import DomainError
from .exterior import KForm, wedge_power, wedge_power_rows
from .functions import FormFunction
from .projection import map_plan, project, project_rows, wedge_power_from_minors_rows
from .sampling import check_streams, random_integer_rows
from .shapespace import ShapeMatrix, adjugate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

# entries one stack of verify-formula trials holds at most in any one array
# (or one trial, when it holds more), and the matrix entries one draw holds at
# most (or one stack), so that its memory does not grow with --trials
_TRIAL_ENTRIES = 1 << 13


def _load_json(path: str):
    """The JSON document in ``path``; text that is not UTF-8 JSON, nests too
    deep or holds a number too long to read is a ``DomainError``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:    # UnicodeDecodeError is a ValueError
            raise DomainError(f"cannot read JSON from {path}: {exc}") from None


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_pi(args) -> int:
    X = ShapeMatrix.from_json(_load_json(args.input), args.backend)
    _emit(project(X).to_json(), args.output)
    return EXIT_PASS


def cmd_adjugate(args) -> int:
    X = ShapeMatrix.from_json(_load_json(args.input), args.backend)
    _emit(adjugate(X, args.s).to_json(), args.output)
    return EXIT_PASS


def cmd_wedge_power(args) -> int:
    x = KForm.from_json(_load_json(args.input), args.backend)
    if x.k == 0 and x.backend == scalars.EXACT and args.s > 0:
        # refuse c**s before computing it if Python could not print it (0: no limit)
        c, limit = Fraction(x.coeffs[0]), sys.get_int_max_str_digits()
        digits = args.s * math.log10(max(abs(c.numerator), c.denominator))
        if limit and digits >= limit:
            raise DomainError(f"the power {args.s} of the 0-form has about {digits:.0f} "
                              f"digits, more than Python prints ({limit})")
    _emit(wedge_power(x, args.s).to_json(), args.output)
    return EXIT_PASS


def _trial_entries(n: int, k: int, s: int) -> int:
    """The most entries one verify-formula trial holds in one array: its
    matrix, the largest wedge table the direct route gathers, or, when the
    expansion has minors to take, the largest level of their plan: the minors
    it reads, or the sub-minors below them."""
    sizes = [math.comb(n, k - 1) * n]
    sizes += [math.comb(n, k * i) * math.comb(k * i, k) for i in range(2, min(s, n // k) + 1)]
    if k % 2 == 0 and 2 <= s <= n // k:
        sizes += [len(entries) for entries, *_ in map_plan(n, k, s).levels]
    return max(sizes)


def cmd_verify_formula(args) -> int:
    """Exact comparison of the wedge power against its minor-table expansion.

    Trials run as stacks: each draws from its own stream, and a stack holds
    as many trials as keep its largest array within ``_TRIAL_ENTRIES``.
    Consecutive stacks are drawn in one call, as many whole stacks as keep
    their matrix entries within ``_TRIAL_ENTRIES`` (at least one stack), so a
    draw's fixed cost is paid once for many small stacks.  A
    stack drawn in int64 enters both routes as it is; each route stays in
    int64 under bounds it proves itself and widens to Python ints past them.
    The residual is one array expression in whatever dtype the routes share:
    int64 when both results are int64 (each below ``scalars.INT64_LIMIT``, so
    their difference fits), Python ints when either is objects; ``tolist``
    gives Python ints, so the report is the same either way.
    """
    n, k, s = args.n, args.k, args.s
    if not 2 <= k <= n:
        raise DomainError(f"verify-formula needs 2 ≤ k ≤ n, got k={k}, n={n}")
    if args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    if args.low > args.high:
        raise DomainError(f"empty entry range: --low {args.low} exceeds --high {args.high}")
    check_streams(args.seed, args.trials)
    report = {"config": {"n": n, "k": k, "s": s}, "trials": args.trials,
              "seed": args.seed, "entry_range": [args.low, args.high]}
    worst = 0
    failure = None
    chunk = max(1, _TRIAL_ENTRIES // _trial_entries(n, k, s))
    per_draw = chunk * max(1, _TRIAL_ENTRIES // (chunk * math.comb(n, k - 1) * n))
    for start in range(0, args.trials, per_draw):
        drawn = range(start, min(start + per_draw, args.trials))
        matrices = random_integer_rows(n, k, args.seed, drawn, args.low, args.high)
        for first in range(0, len(drawn), chunk):
            trials, X = drawn[first:first + chunk], matrices[first:first + chunk]
            direct = wedge_power_rows(project_rows(X, n, k), n, k, s)
            via_minors = wedge_power_from_minors_rows(X, n, k, s)
            residuals = np.abs(direct - via_minors).max(axis=1, initial=0).tolist()
            for trial, residual in zip(trials, residuals):
                if residual > worst:
                    worst = residual
                if residual != 0 and failure is None:
                    failure = {"n": n, "k": k, "s": s, "seed": args.seed, "trial": trial}
    report["max_residual"] = scalars.format_rational(worst)
    report["status"] = "pass" if worst == 0 else "fail"
    if failure is not None:
        report["failure"] = failure
    _emit(report, args.output)
    return EXIT_PASS if worst == 0 else EXIT_FAIL


def cmd_convexity(args) -> int:
    """check-convexity; fit-quasiaffine and support-lp each fix ``mode``, and a
    flag that only another mode reads is a usage error, not ignored."""
    for flag, mode in (("base", "poly-lp"), ("fit_tolerance", "quasiaffine-fit")):
        if getattr(args, flag, None) is not None and args.mode != mode:
            raise DomainError(f"--{flag.replace('_', '-')} is read only by --mode {mode}")
    fn = FormFunction.from_json(_load_json(args.input))
    cfg = SamplerConfig(seed=args.seed, trials=args.trials, coeff_range=args.range,
                        step=args.step, tolerance=args.tolerance)
    if args.mode in ("one-convex", "one-affine"):
        check = check_ext_one_convex if args.mode == "one-convex" else check_ext_one_affine
        verdict = check(fn, cfg)
        report, code = verdict.to_json(), EXIT_PASS if verdict.status == "pass" else EXIT_FAIL
    elif args.mode == "quasiaffine-fit":
        fit_tolerance = 1e-8 if args.fit_tolerance is None else args.fit_tolerance
        if not 0 <= fit_tolerance < math.inf:
            raise DomainError(f"--fit-tolerance must be nonnegative and finite, "
                              f"got {fit_tolerance!r}")
        fit = fit_quasiaffine(fn, cfg)
        report, code = fit.to_json(), EXIT_ERROR
        report["fit_tolerance"] = fit_tolerance
        if fit.status == "ok":
            ok = fit.validation_residual <= fit_tolerance
            report["status"] = "ok" if ok else "rejected"
            code = EXIT_PASS if ok else EXIT_FAIL
    else:
        base = (KForm.from_json(_load_json(args.base), scalars.FLOAT) if args.base is not None
                else KForm.zero(fn.n, fn.k, scalars.FLOAT))
        search = polyconvex_support_lp(fn, base, cfg)
        report = search.to_json()
        code = {"certified": EXIT_PASS, "refuted": EXIT_FAIL,
                "inconclusive": EXIT_ERROR}[search.status]
    _emit(report, args.output)
    return code


def _add_io_flags(parser, backend: bool = True) -> None:
    parser.add_argument("--input", required=True, help="input JSON path")
    parser.add_argument("--output", help="also write the report to this path")
    if backend:
        parser.add_argument("--backend", choices=[scalars.EXACT, scalars.FLOAT],
                            default=None, help="override the inferred scalar backend")


def _add_sampler_flags(parser, trials: int = 100) -> None:
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--range", type=float, default=2.0,
                        help="coefficient sampling range")
    parser.add_argument("--step", type=float, default=1e-3,
                        help="second-difference step")
    parser.add_argument("--tolerance", type=float, default=1e-9)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="extconv",
        description="Exact projection/wedge-power identities and sampled "
                    "exterior-convexity checks with JSON I/O.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="project a shape matrix to a form")
    _add_io_flags(p)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("adjugate", help="order-s minor table of a shape matrix")
    _add_io_flags(p)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_adjugate)

    p = sub.add_parser("wedge-power", help="s-th wedge power of a form")
    _add_io_flags(p)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_wedge_power)

    p = sub.add_parser("verify-formula",
                       help="exact wedge-power vs minor-expansion campaign")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--low", type=int, default=-5)
    p.add_argument("--high", type=int, default=5)
    p.add_argument("--output", help="also write the report to this path")
    p.set_defaults(func=cmd_verify_formula)

    p = sub.add_parser("check-convexity", help="sampled convexity verdicts")
    _add_io_flags(p, backend=False)
    p.add_argument("--mode", required=True,
                   choices=["one-convex", "one-affine", "quasiaffine-fit", "poly-lp"])
    _add_sampler_flags(p)
    p.add_argument("--base", help="base-point KForm JSON (poly-lp only)")
    p.add_argument("--fit-tolerance", type=float, help="acceptance threshold on the fit "
                   "validation residual (quasiaffine-fit only; default 1e-8)")
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("fit-quasiaffine", help="recover wedge-power pairing coefficients")
    _add_io_flags(p, backend=False)
    _add_sampler_flags(p, trials=200)
    p.add_argument("--fit-tolerance", type=float, help="default 1e-8")
    p.set_defaults(func=cmd_convexity, mode="quasiaffine-fit")

    p = sub.add_parser("support-lp", help="supporting-coefficient LP search")
    _add_io_flags(p, backend=False)
    _add_sampler_flags(p, trials=500)
    p.add_argument("--base", help="base-point KForm JSON")
    p.set_defaults(func=cmd_convexity, mode="poly-lp")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, KeyError, TypeError, OSError) as exc:
        print(f"extconv: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
