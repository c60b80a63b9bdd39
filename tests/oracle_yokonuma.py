"""Independent trace tables for Y_{d,3}(u) at numbers, d <= 3.

The engine's trace recursion and product rules are not used here.  Elements
are dicts over the same split-basis words t^a g_w, but products are built by
iterated LEFT multiplication with generators:

    t_j^m t^a g_w = t^{a + m e_j} g_w,
    g_i t^a g_w = t^{s_i a} g_i g_w,  g_i g_w = g_{s_i w} when the length
    grows, else g_{s_i w} + (u-1) e_i g_{s_i w} + (u-1) e_i g_w,

with e_i = (1/d) sum_s t_i^s t_{i+1}^{-s} on the left, where it only shifts
framings.  The trace table, one unknown per basis word, is the solution of
the linear system of its defining properties:

    tr(1) = 1,
    tr(a b) = tr(b a)              for a generator a and a basis word b,
    tr(x g_k) = z tr(x)            for x in Y_{d,k}, k = 1, 2,
    tr(x t_{k+1}^m) = x_m tr(x)    for x in Y_{d,k}, k = 0, 1, 2,

solved by exact elimination over Q(zeta_d) at u = 5/3 and z = 2/7, with
x_m = (1/|D|) sum_{k in D} zeta_d^{km}.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from framelink.scalars import Cyclotomic

N = 3
U_VAL = Fraction(5, 3)
Z_VAL = Fraction(2, 7)


def _swap_values(w: tuple, i: int) -> tuple:
    # s_i w: exchange the values i, i+1 wherever they sit
    return tuple(i + 1 if v == i else (i if v == i + 1 else v) for v in w)


def _length(w: tuple) -> int:
    return sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def _add(out: dict, key, c) -> None:
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def left_t(d: int, j: int, m: int, elem: dict) -> dict:
    out: dict = {}
    for (a, w), c in elem.items():
        b = list(a)
        b[j - 1] = (b[j - 1] + m) % d
        _add(out, (tuple(b), w), c)
    return out


def left_g(d: int, i: int, elem: dict) -> dict:
    out: dict = {}
    quad = (U_VAL - 1) / d
    for (a, w), c in elem.items():
        b = list(a)
        b[i - 1], b[i] = b[i], b[i - 1]
        sw = _swap_values(w, i)
        _add(out, (tuple(b), sw), c)
        if _length(sw) < _length(w):
            for s in range(d):
                f = list(b)
                f[i - 1] = (f[i - 1] + s) % d
                f[i] = (f[i] - s) % d
                _add(out, (tuple(f), sw), quad * c)
                _add(out, (tuple(f), w), quad * c)
    return out


def _left_words() -> dict:
    """perm -> (i_1, ..., i_k) with g_w = g_{i_1} ... g_{i_k}, by breadth-first
    search over left multiplication."""
    start = tuple(range(1, N + 1))
    words, queue = {start: ()}, [start]
    for w in queue:
        for i in range(1, N):
            q = _swap_values(w, i)
            if q not in words:
                words[q] = (i,) + words[w]
                queue.append(q)
    return words


_WORDS = _left_words()


def product(d: int, x: dict, y: dict) -> dict:
    """x y: each word t^a g_{i_1} ... g_{i_k} of x acts on y from the left."""
    out: dict = {}
    for (a, w), c in x.items():
        part = y
        for i in reversed(_WORDS[w]):
            part = left_g(d, i, part)
        for j, m in enumerate(a, start=1):
            if m:
                part = left_t(d, j, m, part)
        for key, v in part.items():
            _add(out, key, c * v)
    return out


def basis(d: int) -> list:
    return [(a, w) for a in itertools.product(range(d), repeat=N)
            for w in itertools.permutations(range(1, N + 1))]


def x_values(d: int, D) -> list:
    return [sum((Cyclotomic.root_of_unity(d, k * m) for k in D), Fraction(0)) / len(D)
            for m in range(d)]


def _solve(rows: list, unknowns: int) -> list:
    """The unique solution of sum_c row[c] v_c + row[unknowns] = 0 over all
    rows; raises when the system does not have full rank."""
    pivots: dict = {}
    for row in rows:
        while True:
            col = min((c for c in row if c in pivots), default=None)
            if col is None:
                break
            f = row[col]
            for c, v in pivots[col].items():
                _add(row, c, -f * v)
        if not row:
            continue
        col = min(row)
        if col == unknowns:
            raise ValueError("the trace rules are inconsistent")
        inv = Fraction(1) / row[col]
        pivots[col] = {c: v * inv for c, v in row.items()}
    if len(pivots) != unknowns:
        raise ValueError(f"rank {len(pivots)} of {unknowns} unknowns")
    value = [0] * unknowns
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        value[col] = -sum((v * value[c] for c, v in row.items()
                           if c != col and c < unknowns), row.get(unknowns, 0))
    return value


def trace_table(d: int, D) -> dict:
    """basis word -> tr(word) at u = 5/3, z = 2/7 and the x of D."""
    words = basis(d)
    col = {w: k for k, w in enumerate(words)}
    const = len(words)
    xs = x_values(d, D)
    ident = tuple(range(1, N + 1))
    unit = ((0,) * N, ident)

    def gen_g(i):
        return {((0,) * N, _swap_values(ident, i)): 1}

    def gen_t(j, m=1):
        return {(tuple(m % d if k == j else 0 for k in range(1, N + 1)), ident): 1}

    def row(elem, rhs=None):
        out = {col[w]: c for w, c in elem.items()}
        if rhs is not None:
            for w, c in rhs.items():
                _add(out, col[w], -c)
        return out

    rows = [{col[unit]: 1, const: -1}]
    gens = [gen_g(i) for i in range(1, N)]
    if d > 1:
        gens += [gen_t(j) for j in range(1, N + 1)]
    for a in gens:
        for w in words:
            b = {w: 1}
            rows.append(row(product(d, a, b), product(d, b, a)))
    for k in range(N):
        below = [(a, w) for a, w in words
                 if not any(a[k:]) and w[k:] == ident[k:]]
        for x in below:
            if k:
                rows.append(row(product(d, {x: 1}, gen_g(k)), {x: Z_VAL}))
            for m in range(d):
                rows.append(row(product(d, {x: 1}, gen_t(k + 1, m)), {x: xs[m]}))
    return dict(zip(words, _solve(rows, const)))


def image(d: int, letters) -> dict:
    """The image of a braid word on 3 strands, one letter at a time:
    sigma_i^{+-1}, t_j^k and tau_i = e_i (1 + g_i) as elements built here."""
    ident = tuple(range(1, N + 1))
    out = {((0,) * N, ident): Fraction(1)}
    for letter in letters:
        if letter[0] == "t":
            out = product(d, out, left_t(d, letter[1], letter[2], {((0,) * N, ident): 1}))
            continue
        i = letter[1]
        g = {((0,) * N, _swap_values(ident, i)): Fraction(1)}
        e = {}
        for s in range(d):
            f = [0] * N
            f[i - 1], f[i] = s, -s % d
            e[(tuple(f), ident)] = Fraction(1, d)
        eg = product(d, e, g)
        if letter[0] == "x":
            gen = dict(e)
            for key, c in eg.items():
                _add(gen, key, c)
        elif letter[2] > 0:
            gen = g
        else:
            gen = dict(g)
            for key, c in itertools.chain(e.items(), eg.items()):
                _add(gen, key, (1 / U_VAL - 1) * c)
        out = product(d, out, gen)
    return out
