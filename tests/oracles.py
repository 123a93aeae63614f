"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the package's own sign/enumeration code:
permutation parity comes from cycle decomposition or a pairwise inversion
count (the package sorts by transpositions), wedge signs from shuffle
position sums, determinants from the full permutation expansion, and set
partitions from permutation grouping with dedup, and the Laplace expansion
reads minor tables by rank arithmetic.  Function expression trees are read by
``evaluate_expression``, an interpreter over dict forms and ``wedge_many``.
Expected values frozen into tests were computed with these.  The one
exception is ``reference_pullback``, a scalar loop that takes its signs from
the package's ``sign_interlace_append`` (a sort and its cycles), so that the
array pullback's inversion parity is checked against a second sign route.
``philox4x32`` and ``reference_words`` are Philox4x32-10 round by round in
Python ints, sharing no code with the numpy kernel of ``sampling``, and
``ReferenceStream`` reads one stream a value at a time by the published
float and integer rules.  ``reference_verify_report`` is the
``verify-formula`` campaign one trial at a time, with ``randint`` draws and
the one-matrix routes, which the stacked campaign must reproduce byte for
byte.  ``random_form``, ``random_exact_form``, ``random_matrix`` and
``random_integer_matrix`` are one-trial draws from any stream with
``uniform`` and ``randint`` (a ``ReferenceStream``, or ``random.Random`` for
test data); ``random_line``, ``line_draws`` and ``rank_one_draws`` take a
trial's line from its reference streams; ``reference_scan`` and
``reference_cross_check`` are the line campaigns built on them, one trial at a
time, whose reports the stacked campaigns must reproduce byte for byte.  They
judge and compare with the package's own kernels (``wedge_rows``, the scans'
``_line_judgement``, the lift), since what they check is the draw path.
``reference_minimize`` is the simplex as it pivoted before its rank-one
updates were delayed: one ``T −= outer`` a pivot, with the same pricing, ratio
test and Bland switch, which the blocked loop must follow pivot for pivot.
``reference_minors_at`` is the minor kernel as it was before minor plans:
every s×s submatrix gathered whole, in budgeted chunks, and expanded on its own
by ``reference_det_rows`` over a Laplace table of its own; the plans must
reproduce its minors, floats bit for bit.  ``plan_cells`` reads a plan's cells
back from its flat entry positions, checking every slot's entry and child.
``reference_rows`` is the expression kernel as it was before power chains were
shared: a walk of the tree over a stack that takes each ``wedge_pow`` node's
power alone, by ``wedge_power_rows``; the kernel must reproduce its floats bit
for bit.  ``reference_power_chain`` is the direct route of the identity in
Python ints only: the projection rule written out and ``shuffle_wedge`` one
factor at a time, with the dtypes the stepped int64 kernels must return,
read off its exact values.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from extconv import scalars, simplex
from extconv.convexity import LIFT_POINTS_PER_LINE, LIFT_TOLERANCE, LineCrossCheck, \
    _line_judgement, lift
from extconv.errors import DomainError
from extconv.exterior import (KForm, ordered_sum, power_by_squaring, sign_table, signed_sum,
                              wedge_power, wedge_power_rows, wedge_rows)
from extconv.multiindex import enumerate_multiindices, sign_interlace_append
from extconv.projection import project, right_inverse, wedge_power_from_minors
from extconv.shapespace import MinorTable, ShapeMatrix, minor_layout


def parity_by_cycles(seq):
    """±1 parity of the permutation sorting ``seq``, via cycle decomposition."""
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    seen = [False] * len(seq)
    parity = 1
    for start in range(len(seq)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def parity_by_inversions(seq):
    """±1 parity of the permutation sorting ``seq``, by counting every
    out-of-order pair."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions & 1 else 1


def interlace(J, blocks) -> tuple:
    """The string (j_1, I^1, ..., j_s, I^s), each index written before its block."""
    return tuple(v for j, block in zip(J, blocks) for v in (j, *block))


def sign_interlace(J, blocks) -> int:
    """Sign of the interlaced string (j_1, I^1, ..., j_s, I^s)."""
    J = tuple(J)
    if len(J) != len(blocks):
        raise DomainError(f"{len(J)} indices against {len(blocks)} blocks")
    string = interlace(J, blocks)
    if len(set(string)) != len(string):
        raise DomainError(f"index string has duplicate entries: {string}")
    return parity_by_cycles(string)


def shuffle_wedge(a: dict, b: dict) -> dict:
    """Wedge of two forms given as {sorted index tuple: coeff} dicts.

    The sign of merging two sorted blocks is the shuffle swap count
    Σ_j (pos_j − j) over the final positions of the first block's entries.
    """
    out: dict = {}
    for I, x in a.items():
        set_I = set(I)
        for J, y in b.items():
            if set_I & set(J):
                continue
            merged = tuple(sorted(I + J))
            positions = [merged.index(v) for v in I]
            swaps = sum(p - j for j, p in enumerate(positions))
            sign = -1 if swaps % 2 else 1
            value = out.get(merged, 0) + sign * x * y
            if value == 0:
                out.pop(merged, None)
            else:
                out[merged] = value
    return out


def wedge_many(forms: list[dict]) -> dict:
    acc = forms[0]
    for nxt in forms[1:]:
        acc = shuffle_wedge(acc, nxt)
    return acc


def coeffs_to_dict(n, k, coeffs) -> dict:
    """{index tuple: coeff} of the nonzero entries of a dense coefficient list."""
    return {key: c for key, c in zip(itertools.combinations(range(1, n + 1), k), coeffs)
            if c}


def _form_literal(node) -> dict:
    if isinstance(node, str):
        return {tuple(int(ch) for ch in node[1:]): 1}
    return {tuple(int(v) for v in key.split(",")) if key else (): Fraction(value)
            for key, value in node["coeffs"].items()}


def evaluate_expression(node, xi: dict):
    """Exact value of a function expression tree at ``xi`` ({index tuple: coeff}).

    A direct reading of the expression format: forms are dicts, wedge powers
    come from ``wedge_many``, and pairings sum over the keys of the literal.
    """
    if isinstance(node, str):
        return xi if node == "xi" else _form_literal(node)
    if isinstance(node, (int, float)):
        return Fraction(node)
    op = node["op"]
    if op == "const":
        return Fraction(node["value"])
    if op in ("add", "mul"):
        values = [evaluate_expression(arg, xi) for arg in node["args"]]
        return sum(values) if op == "add" else math.prod(values)
    if op == "neg":
        return -evaluate_expression(node["arg"], xi)
    if op == "abs":
        return abs(evaluate_expression(node["arg"], xi))
    if op == "pow":
        return evaluate_expression(node["base"], xi) ** node["exp"]
    if op == "inner":
        arg = evaluate_expression(node["arg"], xi)
        return sum(c * arg.get(key, 0) for key, c in _form_literal(node["form"]).items())
    if op == "norm_sq":
        return sum(v * v for v in evaluate_expression(node["arg"], xi).values())
    if op == "wedge_pow":
        arg = evaluate_expression(node["arg"], xi)
        return wedge_many([arg] * node["s"]) if node["s"] else {(): 1}
    raise ValueError(f"unknown op {op!r}")


def reference_rows(f, rows: np.ndarray, signed: bool = True) -> np.ndarray:
    """f's expression on each row of a stack (|rows| and every sign dropped when
    not ``signed``), every ``wedge_pow`` node's power taken on its own by
    ``wedge_power_rows``, sums and products in the kernel's order."""
    n, exact, m = f.n, rows.dtype == object, rows.shape[0]
    if not signed:
        rows = np.abs(rows)

    def literal(node):
        form = KForm.basis(n, tuple(int(ch) for ch in node[1:])) if isinstance(node, str) \
            else KForm.from_json(node)
        coeffs = scalars.array(form.coeffs, form.coeffs.shape,
                               scalars.EXACT if exact else scalars.FLOAT, "literal")
        return form.k, coeffs if signed or exact else np.abs(coeffs)

    def constant(value):
        value = scalars.parse_rational(value) if isinstance(value, str) else value
        if exact:
            return np.full(m, scalars.coerce(value), dtype=object)
        return np.full(m, float(value) if signed else abs(float(value)))

    def walk(node):
        """(degree or None, values) of ``node``."""
        if node == "xi":
            return f.k, rows
        if isinstance(node, (int, float)):
            return None, constant(node)
        if isinstance(node, str):
            degree, coeffs = literal(node)
            return degree, np.broadcast_to(coeffs, (m, coeffs.size))
        op = node["op"]
        if op == "const":
            return None, constant(node["value"])
        if op in ("add", "mul"):
            parts = [walk(arg)[1] for arg in node["args"]]
            total = np.zeros(m, dtype=rows.dtype) + parts[0] if op == "add" else parts[0]
            for part in parts[1:]:
                total = total + part if op == "add" else total * part
            return None, total
        if op == "neg":
            value = walk(node["arg"])[1]
            return None, -value if signed else value
        if op == "abs":
            return None, np.abs(walk(node["arg"])[1])
        if op == "pow":
            return None, power_by_squaring(walk(node["base"])[1], node["exp"])
        if op == "inner":
            _, coeffs = literal(node["form"])
            return None, ordered_sum(walk(node["arg"])[1] * coeffs)
        if op == "norm_sq":
            value = walk(node["arg"])[1]
            return None, ordered_sum(value * value)
        if op == "wedge_pow":
            degree, value = walk(node["arg"])
            return degree * node["s"], wedge_power_rows(value, n, degree, node["s"], signed)
        raise ValueError(f"unknown op {op!r}")

    with scalars.float_guard("reference value"):
        return walk(f.expr)[1]


def perm_det(rows):
    """Determinant by full permutation expansion with cycle-parity signs."""
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        sign = parity_by_cycles(perm)
        prod = 1
        for i in range(size):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def _reference_laplace_table(s: int, j: int) -> tuple:
    """The order-j minors on the last j of s rows by their first row: for each
    j-subset C of the s columns, in lex order, its j slots p give the column
    C[p] and the rank of C∖C[p] among the (j−1)-subsets, with sign (−1)^p."""
    below = {C: r for r, C in enumerate(itertools.combinations(range(s), j - 1))}
    col_sets = list(itertools.combinations(range(s), j))
    cols = np.array(col_sets, dtype=np.intp).reshape(len(col_sets), j)
    subs = np.array([[below[C[:p] + C[p + 1:]] for p in range(j)] for C in col_sets],
                    dtype=np.intp).reshape(len(col_sets), j)
    return sign_table(cols, subs, signs=[(-1) ** p for p in range(j)])


def reference_det_rows(M: np.ndarray) -> np.ndarray:
    """Determinants of an (…, s, s) stack, expanded per stack over the minors
    of its own last rows, as the package did before minor plans."""
    s = M.shape[-1]
    acc = np.ones(M.shape[:-2] + (1,), dtype=M.dtype)
    for j in range(1, s + 1):
        cols, subs, *signs = _reference_laplace_table(s, j)
        acc = signed_sum(lambda q: M[..., s - j, cols[:, q]] * acc[..., subs[:, q]], M.dtype,
                         *signs)
    return acc[..., 0]


def reference_minors_at(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        budget: int = 1 << 13) -> np.ndarray:
    """The minors of a stack of matrices' entries, (…, R, n), on the row and
    column positions of ``rows`` and ``cols``, which broadcast to (I, …, s):
    each s×s submatrix gathered whole and expanded by ``reference_det_rows``,
    ``budget`` entries a chunk, narrowed to int64 under the package's bound
    s!·B^s.  The package's minor kernel before minor plans, kept as the
    oracle of the plans."""
    rows, cols = np.broadcast_arrays(rows, cols)
    s = rows.shape[-1]
    if entries.dtype == object:
        narrowed = scalars.narrow(entries, lambda B: math.factorial(s) * B ** s)
        entries = entries if narrowed is None else narrowed
    stack = entries.reshape(-1, *entries.shape[-2:])
    per_item = math.prod(rows.shape[1:]) * s or 1
    matrices = min(len(stack), max(1, budget // per_item)) or 1
    step = max(1, budget // (per_item * matrices))
    out = np.empty((len(stack), *rows.shape[:-1]), dtype=entries.dtype)
    for first in range(0, len(stack), matrices):
        at = slice(first, first + matrices)
        for start in range(0, len(rows), step):
            r, c = rows[start:start + step], cols[start:start + step]
            out[at, start:start + step] = reference_det_rows(
                stack[at, r[..., :, None], c[..., None, :]])
    return out.reshape(*entries.shape[:-2], *rows.shape[:-1])


def plan_cells(plan, ncols: int) -> list[list[tuple[tuple, tuple]]]:
    """The cells (row set, column set) of each level of a minor plan, level 1
    first, read back from its flat entry positions (r·ncols + c), with every
    slot checked to name entry (R[0], C[p]) and child (R[1:], C∖C[p])."""
    levels = [[((int(p) // ncols,), (int(p) % ncols,)) for p in plan.first]]
    for entries, children, *_ in plan.levels:
        cells = []
        for slots, kids in zip(entries.tolist(), children.tolist()):
            rows = {p // ncols for p in slots}
            assert len(rows) == 1, f"one cell's entries lie on rows {rows}"
            C = tuple(p % ncols for p in slots)
            R = (rows.pop(),) + levels[-1][kids[0]][0]
            for p, kid in enumerate(kids):
                assert levels[-1][kid] == (R[1:], C[:p] + C[p + 1:]), "a child is not its sub-minor"
            cells.append((R, C))
        levels.append(cells)
    return levels


def brute_partitions(members: tuple[int, ...], s: int, k: int) -> set:
    """All (J, blocks) splits via raw permutation grouping, as canonical sets."""
    out = set()
    for J in itertools.combinations(members, s):
        rest = [m for m in members if m not in J]
        for perm in itertools.permutations(rest):
            blocks = frozenset(tuple(sorted(perm[i * (k - 1):(i + 1) * (k - 1)]))
                               for i in range(s))
            if len(blocks) == s:
                out.add((J, blocks))
    return out


def rand_exact(rng, numerator: int = 8, denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(-numerator, numerator), rng.randint(1, denominator))


def form_to_dict(form) -> dict:
    return form.as_dict()


def dict_to_coeff_list(n, k, d):
    import math
    out = [0] * math.comb(n, k)
    order = list(itertools.combinations(range(1, n + 1), k))
    index = {combo: i for i, combo in enumerate(order)}
    for key, value in d.items():
        out[index[tuple(key)]] = value
    return out


def reference_power_chain(X: list, n: int, k: int, s: int) -> tuple[list, list, bool, list]:
    """The projection and its s-th wedge power of each flat integer matrix of ``X``,
    in Python ints, whether ``project_rows`` keeps an int64 stack in int64, and
    for each step of ``wedge_power_rows`` whether that step's result is int64.

    Row K of the projection is Σ_p (−1)^(k−1−p)·X[K∖K_p, K_p] over the 0-based
    positions p of K, and the power is ξ ∧ ... ∧ ξ by ``shuffle_wedge``.  The
    projection stays int64 when k·B is below 2^62 (B the largest entry of the
    stack in size); step acc ∧ ξ then does while it and every step before it
    have C(k(i+1), k)·max|acc|·max|ξ| below 2^62, both maxima over the stack.
    """
    limit = 1 << 62
    rows = {label: r for r, label in enumerate(itertools.combinations(range(1, n + 1), k - 1))}
    projected = [{K: sum((-1) ** (k - 1 - p) * row[rows[K[:p] + K[p + 1:]] * n + K[p] - 1]
                         for p in range(k))
                  for K in itertools.combinations(range(1, n + 1), k)} for row in X]
    largest = max((abs(v) for row in X for v in row), default=0)
    xi_fits = k * largest < limit
    steps_fit, step_fits = xi_fits, []
    xi_max = max((abs(v) for form in projected for v in form.values()), default=0)
    powers = [{K: c for K, c in form.items() if c} for form in projected]
    if k * s <= n:
        for i in range(1, s):
            acc_max = max((abs(v) for form in powers for v in form.values()), default=0)
            steps_fit = steps_fit and math.comb(k * (i + 1), k) * acc_max * xi_max < limit
            step_fits.append(steps_fit)
            powers = [shuffle_wedge(acc, {K: c for K, c in xi.items() if c})
                      for acc, xi in zip(powers, projected)]
    else:
        powers = [{} for _ in projected]
    return ([dict_to_coeff_list(n, k, form) for form in projected],
            [dict_to_coeff_list(n, k * s, form) for form in powers], xi_fits, step_fits)


def lex_ranks(sets: np.ndarray, size: int) -> np.ndarray:
    """0-based lexicographic ranks of the rows of ``sets`` among the increasing
    tuples of their length over range(size): C(size,k) − 1 − Σ_t C(size−1−v_t, k−t)."""
    k = sets.shape[1]
    binom = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(size)])
    return math.comb(size, k) - 1 - binom[size - 1 - sets, np.arange(k, 0, -1)].sum(axis=1)


def laplace_residual(table_next, table, X, position):
    """Max |expansion mismatch| of the order-(s+1) minor table against the order-s one.

    Every order-(s+1) minor must equal its expansion along the entry column at
    1-based ``position`` within the minor's column selection; on an exact
    backend the residual of consistent tables is identically zero.  The order-s
    minors are read from ``table.values`` at the ranks of the sub-row and
    sub-column sets, one object array per expansion term.
    """
    if (table_next.n, table_next.k) != (X.n, X.k) or (table.n, table.k) != (X.n, X.k):
        raise DomainError("tables and matrix disagree on (n, k)")
    if table_next.backend != X.backend or table.backend != X.backend:
        raise DomainError("tables and matrix disagree on backend")
    if table_next.s != table.s + 1:
        raise DomainError(f"expected consecutive orders, got {table.s} and {table_next.s}")
    s1, li = table_next.s, position - 1
    if not 1 <= position <= s1:
        raise DomainError(f"expansion position {position} out of range 1..{s1}")
    rows, cols = np.array(table_next.row_sets), np.array(table_next.col_sets)
    entries = np.array(X.entries, dtype=object)
    minors = np.array(table.values, dtype=object)
    sub_cols = lex_ranks(np.delete(cols, li, axis=1), X.n)
    acc = 0
    for m in range(s1):
        sub_rows = lex_ranks(np.delete(rows, m, axis=1), len(X.entries))
        term = entries[np.ix_(rows[:, m], cols[:, li])] * minors[np.ix_(sub_rows, sub_cols)]
        acc = acc + term if (li + m) % 2 == 0 else acc - term
    return np.abs(np.array(table_next.values, dtype=object) - acc).max()


def dense_power_map(pm) -> np.ndarray:
    """The dense matrix of exact ints of a ``MinorPowerMap``: s!·sign at each
    target's cells, zero elsewhere."""
    dense = np.zeros(pm.shape, dtype=object)
    dense[np.arange(len(pm.cells))[:, None], pm.cells] = \
        pm.signs.astype(int).astype(object) * math.factorial(pm.s)
    return dense


def reference_pullback(forms) -> list:
    """``projection.pullback_support`` cell by cell: on a cell whose row labels
    and columns are pairwise disjoint, s!·(append interlace sign)·(D_s
    coefficient at their union), zero elsewhere, and zero tables for odd k
    and s ≥ 2, where ξ^s = 0."""
    n, k, backend = forms[0].n, forms[0].k, forms[0].backend
    labels = enumerate_multiindices(n, k - 1)
    out = []
    for s, form in enumerate(forms, start=1):
        factor = math.factorial(s)
        values = []
        for row_set in itertools.combinations(range(len(labels)), s):
            blocks = [labels[r] for r in row_set]
            members = [i for b in blocks for i in b]
            block_members = set(members)
            degenerate = len(block_members) != len(members) or (s > 1 and k % 2 == 1)
            row_vals = []
            for col_set in itertools.combinations(range(n), s):
                cols = tuple(c + 1 for c in col_set)
                if degenerate or block_members & set(cols):
                    row_vals.append(0)
                    continue
                joint = tuple(sorted(block_members | set(cols)))
                sign = sign_interlace_append(cols, blocks)
                value = factor * form.coefficient(joint)
                row_vals.append(value if sign > 0 else -value)
            values.append(row_vals)
        out.append(MinorTable(n, k, s, values, backend))
    return out


def drawn_table(draw, space, cells, backend=scalars.EXACT, first=()):
    """A minor table of ``space`` = (n, k, s) whose cells, row by row, are the
    ``first`` ones given and then ones drawn from the strategy ``cells``."""
    rows, cols = minor_layout(*space)
    size = len(rows) * len(cols) - len(first)
    flat = list(first) + draw(st.lists(cells, min_size=size, max_size=size))
    values = [flat[r * len(cols):(r + 1) * len(cols)] for r in range(len(rows))]
    return MinorTable(*space, values, backend)


def checked_ranks(table) -> np.ndarray:
    """A minor table's ``ranks``, once checked: a sorted, unique, read-only
    intp array with every cell outside it zero."""
    ranks = table.ranks
    assert ranks.ndim == 1 and ranks.dtype == np.intp and not ranks.flags.writeable
    assert (ranks[1:] > ranks[:-1]).all()
    outside = np.ones(table.values.size, dtype=bool)
    outside[ranks] = False
    assert all(v == 0 for v in table.values.ravel()[outside].tolist())
    return ranks


def dense_inner(a, b):
    """Σ a·b over every cell of two minor tables, row by row and left to right
    from 0 (+0.0 for floats), skipping no cell: the sum
    ``shapespace.table_inner`` must equal, bit for bit for floats."""
    total = 0.0 if a.backend == "float" else 0
    for row_a, row_b in zip(a.values.tolist(), b.values.tolist()):
        for x, y in zip(row_a, row_b):
            total = total + x * y
    return total


# Philox4x32-10 (Salmon, Moraes, Dror & Shaw, SC 2011), round by round in
# Python ints: the published multipliers and Weyl key increments
PHILOX_M = (0xD2511F53, 0xCD9E8D57)
PHILOX_W = (0x9E3779B9, 0xBB67AE85)
# the draw sites (counter word 3), as the README's stream table lists them
SUPPORT, FIT, VALIDATION, LINE_BASE, LINE_DIRECTION, LINE_T, RANK_ONE, RANK_ONE_T, \
    MATRICES = range(9)


def philox4x32(counter, key) -> list:
    """The four output words of Philox4x32-10 for four counter and two key words."""
    (c0, c1, c2, c3), (k0, k1) = counter, key
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, \
            p0 & 0xFFFFFFFF
        k0, k1 = (k0 + PHILOX_W[0]) & 0xFFFFFFFF, (k1 + PHILOX_W[1]) & 0xFFFFFFFF
    return [c0, c1, c2, c3]


def reference_words(seed, kind, index, attempt, count) -> list:
    """The first ``count`` words of stream (seed, kind, index, attempt): key
    (seed mod 2³², seed >> 32), counters (block, index, attempt, kind) for
    block 0, 1, …, four words a block."""
    words = []
    for block in range(-(-count // 4)):
        words += philox4x32((block, index, attempt, kind), (seed & 0xFFFFFFFF, seed >> 32))
    return words[:count]


class ReferenceStream:
    """One trial's stream of one kind, read a value at a time.

    ``random`` reads two words, ``uniform`` maps ``random`` by a + (b − a)·u,
    and ``randint`` reads m = ⌈log₂ S / 32⌉ words (at least one) for a span
    of S values, first word most significant, and reads the same words at
    the next attempt while the number is at or past 2^(32m) − (2^(32m) mod S).
    ``next_attempt`` is the attempt after the last one read.
    """

    def __init__(self, seed, kind, index, attempt=0):
        self.key, self.attempt, self.position = (seed, kind, index), attempt, 0
        self.next_attempt, self.cache = attempt + 1, {}

    def _word(self, attempt, position):
        seed, kind, index = self.key
        words = self.cache.setdefault(attempt, [])
        if position >= len(words):
            words += reference_words(seed, kind, index, attempt, position + 64)[len(words):]
        return words[position]

    def _take(self, m, attempt):
        value = 0
        for i in range(m):
            value = (value << 32) | self._word(attempt, self.position + i)
        return value

    def random(self):
        x, y = (self._word(self.attempt, self.position + i) for i in range(2))
        self.position += 2
        return ((x >> 5) * 67108864.0 + (y >> 6)) * (1.0 / 9007199254740992.0)

    def uniform(self, a, b):
        return a + (b - a) * self.random()

    def randint(self, low, high):
        span = high - low + 1
        m = max(1, -(-(span - 1).bit_length() // 32))
        attempt = self.attempt
        while self._take(m, attempt) >= (1 << 32 * m) - (1 << 32 * m) % span:
            attempt += 1
        value = low + self._take(m, attempt) % span
        self.position += m
        self.next_attempt = max(self.next_attempt, attempt + 1)
        return value


def reference_verify_report(n, k, s, trials, seed=0, low=-5, high=5) -> tuple[int, str]:
    """The exit code and stdout of ``verify-formula``, one trial at a time.

    Trial t draws its matrix row by row with ``randint`` from its
    ``MATRICES`` stream and compares ``wedge_power(project(X), s)`` with
    ``wedge_power_from_minors(X, s)``; the report keeps the largest residual
    and the first trial with a nonzero one.
    """
    worst, failure = 0, None
    for trial in range(trials):
        X = random_integer_matrix(n, k, ReferenceStream(seed, MATRICES, trial), low, high)
        direct, via_minors = wedge_power(project(X), s), wedge_power_from_minors(X, s)
        residual = max((abs(a - b) for a, b in zip(direct.coeffs.tolist(),
                                                   via_minors.coeffs.tolist())), default=0)
        worst = max(worst, residual)
        if residual and failure is None:
            failure = {"n": n, "k": k, "s": s, "seed": seed, "trial": trial}
    report = {"config": {"n": n, "k": k, "s": s}, "trials": trials, "seed": seed,
              "entry_range": [low, high], "max_residual": str(worst),
              "status": "fail" if worst else "pass"}
    if failure is not None:
        report["failure"] = failure
    return int(worst != 0), json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def random_form(n, k, rng, scale) -> KForm:
    """A float form: C(n, k) draws ``rng.uniform(−scale, scale)``."""
    return KForm(n, k, [rng.uniform(-scale, scale) for _ in range(math.comb(n, k))],
                 scalars.FLOAT)


def random_exact_form(n, k, rng, numerator=8, denominator=4) -> KForm:
    """An exact form: C(n, k) draws randint(−numerator, numerator)/randint(1, denominator)."""
    return KForm(n, k, [rand_exact(rng, numerator, denominator)
                        for _ in range(math.comb(n, k))], scalars.EXACT)


def random_matrix(n, k, rng, scale) -> ShapeMatrix:
    """A float shape matrix, its entries ``rng.uniform(−scale, scale)`` row by row."""
    return ShapeMatrix(n, k, [[rng.uniform(-scale, scale) for _ in range(n)]
                              for _ in range(math.comb(n, k - 1))], scalars.FLOAT)


def random_integer_matrix(n, k, rng, low=-5, high=5) -> ShapeMatrix:
    """An exact shape matrix, its entries ``rng.randint(low, high)`` row by row."""
    return ShapeMatrix(n, k, [[rng.randint(low, high) for _ in range(n)]
                              for _ in range(math.comb(n, k - 1))])


def random_line(n, k, seed, index, scale, exact=False) -> tuple:
    """A direction pair (α, β) with α ∧ β ≠ 0 from trial ``index``'s
    ``LINE_DIRECTION`` streams: drawn again at the next attempt while the
    wedge vanishes, at most 100 times in all."""
    attempt = 0
    for _ in range(100):
        rng = ReferenceStream(seed, LINE_DIRECTION, index, attempt)
        if exact:
            alpha, beta = random_exact_form(n, k - 1, rng), random_exact_form(n, 1, rng)
        else:
            alpha, beta = random_form(n, k - 1, rng, scale), random_form(n, 1, rng, scale)
        attempt = rng.next_attempt
        with scalars.float_guard("wedge"):
            product = wedge_rows(alpha.coeffs[None], beta.coeffs[None], n, k - 1, 1)
        if product.any():
            return alpha, beta
    raise DomainError(f"no nondegenerate direction for (n={n}, k={k}) at range {scale!r}")


def line_draws(n, k, seed, index, scale, points=1, exact=False) -> tuple:
    """Trial ``index``'s wedge line one value at a time: ξ from its ``LINE_BASE``
    stream, (α, β) by ``random_line`` and ``points`` values of t from
    ``LINE_T``, uniform(−1, 1) or exact randint(−8, 8)/randint(1, 4)."""
    base, ts = ReferenceStream(seed, LINE_BASE, index), ReferenceStream(seed, LINE_T, index)
    xi = random_exact_form(n, k, base) if exact else random_form(n, k, base, scale)
    alpha, beta = random_line(n, k, seed, index, scale, exact)
    return xi, alpha, beta, [rand_exact(ts) if exact else ts.uniform(-1.0, 1.0)
                             for _ in range(points)]


def rank_one_draws(n, k, seed, index, scale) -> tuple:
    """Trial ``index``'s rank-one line one value at a time: X, a and b from its
    ``RANK_ONE`` stream and t = uniform(−1, 1) from ``RANK_ONE_T``."""
    rng = ReferenceStream(seed, RANK_ONE, index)
    X = random_matrix(n, k, rng, scale)
    a, b = random_form(n, k - 1, rng, scale), random_form(n, 1, rng, scale)
    return X, a, b, ReferenceStream(seed, RANK_ONE_T, index).uniform(-1.0, 1.0)


def _rows(items) -> np.ndarray:
    """One float row per form (its coefficients) or matrix (its entries, row by row)."""
    return np.array([x.entries.ravel() if isinstance(x, ShapeMatrix) else x.coeffs
                     for x in items], dtype=float)


def reference_scan(F, n, k, cfg, mode):
    """A line scan's verdict, its trials drawn one at a time.

    Trial i's streams give ξ, α, β and t (``line_draws``); for
    ``rank-one-convex`` they give X, a, b and t (``rank_one_draws``), and F
    may be a bare callable.  The stacked draws are judged by the scans' own judgement.
    """
    rank_one, r = mode == "rank-one-convex", cfg.coeff_range
    if not hasattr(F, "evaluate_rows"):
        bare = F
        F = type("Bare", (), {"evaluate_rows": staticmethod(lambda rows: np.array(
            [bare(ShapeMatrix(n, k, row.reshape(-1, n), scalars.FLOAT)) for row in rows],
            dtype=float))})
    draws, ts = [], []
    for trial in range(cfg.trials):
        if rank_one:
            *drawn, t = rank_one_draws(n, k, cfg.seed, trial, r)
        else:
            *drawn, (t,) = line_draws(n, k, cfg.seed, trial, r)
        draws.append(drawn)
        ts.append(t)
    base, left, right = (_rows([d[i] for d in draws]) for i in range(3))
    with scalars.float_guard("line direction"):
        lines = ((left[:, :, None] * right[:, None, :]).reshape(cfg.trials, -1) if rank_one
                 else wedge_rows(left, right, n, k - 1, 1))
    judged = _line_judgement(F, base, lines, np.array(ts), cfg.step, cfg.tolerance,
                             mode == "one-affine")
    trial = judged.first_bad()
    witness = None
    if trial is not None:
        names = ("X", "a", "b") if rank_one else ("xi", "alpha", "beta")
        witness = {"trial": trial, **{name: x.to_json() for name, x in zip(names, draws[trial])},
                   "t": ts[trial], "h": cfg.step, **judged.witness(trial)}
    return judged.verdict(mode, cfg, witness)


def reference_cross_check(f, cfg, backend=scalars.FLOAT) -> LineCrossCheck:
    """``cross_check_lift``, its trials drawn one at a time: ξ, α, β, then
    ``LIFT_POINTS_PER_LINE`` values of t (uniform(−1, 1), or exact
    randint(−8, 8)/randint(1, 4)), and one ``right_inverse`` per trial."""
    exact = backend == scalars.EXACT
    n, k, r = f.n, f.k, cfg.coeff_range
    draws, ts = [], []
    for trial in range(cfg.trials):
        *drawn, t = line_draws(n, k, cfg.seed, trial, r, LIFT_POINTS_PER_LINE, exact)
        draws.append(drawn)
        ts.append(t)
    xi, alpha, beta = (np.stack([d[i].coeffs for d in draws]) for i in range(3))
    t = scalars.array(ts, (cfg.trials, LIFT_POINTS_PER_LINE), backend,
                      "line parameters").T[:, :, None]
    base = np.stack([right_inverse(d[0]).entries.ravel() for d in draws])
    with scalars.float_guard("lift cross-check"):
        line = (xi + t * wedge_rows(alpha, beta, n, k - 1, 1)).reshape(-1, xi.shape[1])
        outer = (alpha[:, :, None] * beta[:, None, :]).reshape(cfg.trials, -1)
        matrix = (base + t * outer).reshape(-1, base.shape[1])
        gaps = np.abs(f.evaluate_rows(line) - lift(f).evaluate_rows(matrix))
    worst = max(gaps.ravel().tolist())
    ok = (worst == 0) if exact else (worst <= LIFT_TOLERANCE)
    return LineCrossCheck(backend, cfg.trials, LIFT_POINTS_PER_LINE, worst, LIFT_TOLERANCE,
                          "pass" if ok else "fail")


def reference_minimize(c, A, b, free=0, *, max_iter=None) -> tuple:
    """``simplex.minimize`` with every rank-one update applied at its pivot.

    Returns the ``LPResult`` and the basis after each pivot, the start pivot's
    first.  It reads ``simplex._STALL_LIMIT`` when called, so a test that
    lowers the limit lowers it here too.
    """
    m, nv = len(A), len(c)
    c, A, b = np.asarray(c), np.asarray(A).reshape(m, nv), np.asarray(b)
    sc = simplex._EXACT if any(v.dtype == object for v in (c, A, b)) else simplex._FLOAT
    if sc is simplex._EXACT:
        c, A, b = (simplex._to_fraction(v.astype(object)) for v in (c, A, b))
    else:
        c, A, b = (v.astype(float, copy=False) for v in (c, A, b))
    if max_iter is None:
        max_iter = 200 + 25 * (m + nv)
    T = np.vstack([np.hstack([-A, -b[:, None]]), np.append(c, sc.make(0))])
    basis, nonbasic = nv + np.arange(m), np.arange(nv)
    bases = []

    def pivot(row, col):
        basis[row], nonbasic[col] = nonbasic[col], basis[row]
        p = T[row, col]
        T[row] /= p
        factors = T[:, col].copy()
        factors[row] = 0
        T[...] -= np.outer(factors, T[row])
        T[:, col] = -factors / p
        T[row, col] = 1 / p
        bases.append(basis.tolist())

    if (b > 0).any():
        ones = np.flatnonzero((A == 1).all(axis=0))
        if not ones.size:
            raise DomainError("a positive right-hand side needs an all-ones column")
        pivot(int(np.argmax(b)), int(ones[-1]))
    eps, bland, stall, last_objective = sc.eps, False, 0, None
    for it in range(max(0, max_iter)):
        reduced = T[-1, :-1]
        gain = np.where(nonbasic < free, -abs(reduced), reduced)
        candidates = np.flatnonzero(gain < -eps)
        if candidates.size == 0:
            x = np.full(nv + m, sc.make(0), dtype=sc.dtype)
            x[basis] = T[:-1, -1]
            x = x[:nv]
            return simplex.LPResult(simplex.OPTIMAL, x.tolist(), sc.make(c @ x), it), bases
        col = int(candidates[np.argmin(nonbasic[candidates] if bland else gain[candidates])])
        column = T[:-1, col] if reduced[col] < 0 else -T[:-1, col]
        eligible = np.flatnonzero((column > eps) & (basis >= free))
        if eligible.size == 0:
            return simplex.LPResult(simplex.UNBOUNDED, None, None, it), bases
        ratios = T[eligible, -1] / column[eligible]
        tied = eligible[ratios <= ratios.min() + eps]
        pivot(int(tied[np.argmin(basis[tied])]), col)
        if not bland:
            objective = -T[-1, -1]
            if last_objective is not None and objective >= last_objective - eps:
                stall += 1
                bland = stall > simplex._STALL_LIMIT
            else:
                stall = 0
            last_objective = objective
    return simplex.LPResult(simplex.ITERATION_LIMIT, None, None, max(0, max_iter)), bases
