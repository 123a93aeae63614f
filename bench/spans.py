"""Per-layer tracing from outside the package.

``install`` replaces the public functions of each extconv module with timing
wrappers, at every module attribute that binds them (``adjugate`` is bound in
``shapespace``, ``projection``, ``cli`` and the package itself; a caller looks
it up in its own module, so each binding must be replaced).
``Installation.restore`` puts the originals back.

Each timed call is a span.  A span's busy time counts once per outermost call
of its name; its self time is its duration minus the time covered by the
timed spans it encloses.  Counts are kept apart from timings: they repeat
exactly for the same inputs, timings do not.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_now = time.perf_counter_ns

_SAMPLING = ("derive_rng", "random_form", "random_exact_form", "random_matrix",
             "random_integer_matrix", "random_line")
_DRAWS = ("random_form", "random_exact_form", "random_matrix", "random_integer_matrix")


class Tracer:
    """Span and counter store for one traced round at a time."""

    def __init__(self):
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []     # time covered by child spans, per open span
        self._depth: Counter = Counter()

    def enter(self, name: str) -> int:
        self._stack.append(0)
        self._depth[name] += 1
        return _now()

    def leave(self, name: str, start: int) -> None:
        elapsed = _now() - start
        covered = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy_ns[name] += elapsed
        self.self_ns[name] += elapsed - covered

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """(counts, timings) recorded since the last take, then reset.

        Timings are in seconds: ``<span>.s`` busy, ``<span>.self_s`` self time.
        """
        counts: dict[str, float] = dict(self.counts)
        computed = counts.get("shapespace.minors_computed", 0)
        counts["shapespace.minors_used_ratio"] = (
            counts.get("shapespace.minors_read", 0) / computed if computed else 0.0)
        counts["functions.evaluations"] = counts.get("functions.FormFunction.call.calls", 0)
        timings = {f"{name}.s": ns / 1e9 for name, ns in self.busy_ns.items()}
        timings.update({f"{name}.self_s": ns / 1e9 for name, ns in self.self_ns.items()})
        self.busy_ns.clear()
        self.self_ns.clear()
        self.counts.clear()
        return counts, timings

    # wrappers ---------------------------------------------------------------

    def timed(self, fn, name, after=None):
        """Span around each call; ``after(args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            tracer.counts[f"{label}.calls"] += 1
            start = tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(label, start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_generator(self, fn, name):
        """Span around each ``next()`` of the generator a call returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[f"{name}.calls"] += 1
            return _TimedIterator(tracer, name, fn(*args, **kwargs))

        return wrapper

    def counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


class _TimedIterator:
    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        start = self._tracer.enter(self._name)
        try:
            item = next(self._inner)
        finally:
            self._tracer.leave(self._name, start)
        self._tracer.counts[f"{self._name}.yielded"] += 1
        return item


class Installation:
    """The replaced bindings, so that they can be restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []    # wrappers whose function the package lacks

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        For a function of an extconv module, every extconv module attribute
        bound to it is replaced.  A function the package no longer has is
        recorded in ``missing`` and its metrics read 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(original)
        if not getattr(owner, "__name__", "").startswith("extconv") or isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "extconv" or modname.startswith("extconv.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the layer boundaries of the imported extconv package."""
    import numpy as np
    from extconv import (cli, convexity, exterior, functions, multiindex, polyform,
                         projection, sampling, scalars, shapespace, simplex)

    inst = Installation()
    t = tracer

    def minors_computed(args, table):
        t.counts["shapespace.minors_computed"] += len(table.row_sets) * len(table.col_sets)

    def cells(args, power_map):
        rows, cols = power_map.shape
        t.counts["projection.minor_power_map.cells"] += rows * cols

    def count_attempt(args, result):
        if t.active("convexity.fit_quasiaffine"):
            t.counts["convexity.fit_quasiaffine.attempts"] += 1

    def lp_size(args, result):
        c, A = args[0], args[1]
        t.counts["simplex.pivots"] += result.iterations
        t.counts["simplex.rows"] += len(A)
        t.counts["simplex.cols"] += len(c)

    hooks = {"shapespace.adjugate": minors_computed, "projection.minor_power_map": cells,
             "numpy.linalg.lstsq": count_attempt, "simplex.minimize": lp_size}
    timed = [
        (shapespace, ("adjugate", "det", "tensor")),
        (multiindex, ("sign_interlace_append", "enumerate_multiindices")),
        (exterior, ("wedge_power", "scalar_product")),
        (projection, ("project", "wedge_power_from_minors", "pullback_support",
                      "minor_power_map")),
        (polyform, ("gradient", "d_right", "project_polynomial")),
        (convexity, ("check_ext_one_affine", "check_ext_one_convex", "check_rank_one_convex",
                     "fit_quasiaffine", "polyconvex_support_lp")),
        (simplex, ("minimize",)),
        (cli, ("main",)),
        (np.linalg, ("lstsq",)),
    ]
    for module, fnames in timed:
        for fname in fnames:
            name = f"{module.__name__.removeprefix('extconv.')}.{fname}"
            inst.wrap(module, fname, lambda fn, name=name: t.timed(fn, name, hooks.get(name)))

    inst.wrap(exterior, "wedge",
              lambda fn: t.timed(fn, lambda args: f"exterior.wedge.{args[0].backend}"))
    inst.wrap(multiindex, "block_partitions",
              lambda fn: t.timed_generator(fn, "multiindex.block_partitions"))
    inst.wrap(projection.MinorPowerMap, "apply",
              lambda fn: t.timed(fn, "projection.MinorPowerMap.apply"))
    inst.wrap(functions.FormFunction, "__call__",
              lambda fn: t.timed(fn, "functions.FormFunction.call"))
    inst.wrap(shapespace.MinorTable, "value",
              lambda fn: t.counted(fn, "shapespace.minors_read"))
    inst.wrap(scalars, "coerce", lambda fn: t.counted(fn, "scalars.coerce.calls"))

    # every sampling function shares one busy span, so nested draws count once
    for fname in _SAMPLING:
        if fname in _DRAWS:
            make = lambda fn: t.counted(t.timed(fn, "sampling"), "sampling.draws")  # noqa: E731
        elif fname == "random_line":
            make = lambda fn: _count_redraws(t, t.timed(fn, "sampling"))  # noqa: E731
        else:
            make = lambda fn: t.timed(fn, "sampling")  # noqa: E731
        inst.wrap(sampling, fname, make)
    return inst


def _count_redraws(tracer: Tracer, random_line):
    """A line costs two draws per attempt; attempts past the first are redraws."""

    @functools.wraps(random_line)
    def wrapper(*args, **kwargs):
        before = tracer.counts["sampling.draws"]
        try:
            return random_line(*args, **kwargs)
        finally:
            attempts = (tracer.counts["sampling.draws"] - before) // 2
            tracer.counts["sampling.random_line.redraws"] += max(attempts - 1, 0)

    return wrapper
