"""Trace-passing checks for the three Temperley-Lieb style quotients.

The quotient of Y_{d,n}(u) by the two-sided ideal generated by one element
(the Steinberg element for YTL, e_i e_{i+1} g_{i,i+1} for FTL, the full
framing-averaged sum for CTL) inherits the Markov trace exactly when the
trace kills the ideal.  At desk scale that is the statement

    tr(a . gen . b) = 0   for all split-basis words a, b of Y_{d,n}(u)

with the z and x parameters substituted in.  Each quotient also has a
closed-form characterization of the passing parameter sets; admissible()
evaluates that closed form, trace_vanishes_on_ideal() evaluates the ideal
criterion, and the two must agree.  The ideal criterion runs at n = 3.

The three closed forms are one rule on the Fourier transform
y_k = sum_m x_m zeta_d^{-km} of (1, x_1..x_{d-1}): y_k has level 0 when
y_k = 0, 1 when y_k = -dz, 2 when y_k = -dz(u+1), else none.  With n1, n2
the counts of levels 1 and 2, FTL passes when every y_k has a level and
z = -1/(n1 + (u+1) n2); YTL when also n1 + 2 n2 <= 2, the pairs (1, 0),
(0, 1), (2, 0) of z = -1, -1/(u+1) at y = d 1_D and z = -1/2 at
y = (d/2) 1_D, that is at the E-system solution of D, |D| <= 2; CTL when
y_0 has a level (below).  So YTL => FTL => CTL by construction, as the
defining ideals nest.  The levels are read off the check's integer form
(below), with no RatFunc built: with z = P / Q and x_m = X_m / S,
S y_k = sum_m X_m w^(-k m M/d) is a sum of shifted integer polynomials,
and each comparison is a polynomial identity given to the zero test:
y_k == -dz is Y_k Q + d S P == 0.  An x rational in u takes the same
path, with S a polynomial.  S, the Y_k = S y_k and the test y_k == 0 depend
on x alone, and x comes from small families while z varies, so they are
built once per (d, M, x) per process (_family); a check builds S P, the
Y_k Q and the comparisons that involve z.

CTL passes when (u+1) z^2 sum_k x_k + (u+2) z sum_k tr(e_1^{(k)})
+ sum_k tr(e_1^{(k)} e_2) = 0, with e_1^{(k)} = t_1^k e_1.  These are
traces of identity words, tr(t^a) = x_{a_1} x_{a_2} x_{a_3}, so the three
sums are y_0, y_0^2/d and y_0^3/d^2 for y_0 = 1 + x_1 + ... + x_{d-1}, and
the condition factors as y_0 (z + w)((u+1) z + w) = 0 with w = y_0/d,
that is y_0 = 0, -dz or -dz(u+1).

The quadratic blow-up of the pair loop is avoided by three exact reductions,
each verified rather than assumed, and by walking the basis:

* conjugation certificate: tr(c w) = tr(w c) is checked in generic mode
  for every basis word c and every algebra generator w; by induction on
  words this gives tr(ab) = tr(ba) for all a, b, and it survives parameter
  substitution because substitution is a ring map on trace values;
* with that, tr(a gen b) = tr(gen (b a)), and b a expands over the basis,
  so vanishing on all pairs is equivalent to tr(gen c) = 0 for every basis
  word c.  A failing word c yields the witness pair (1, c);
* only a basis of those generic values is substituted: a generic value,
  the kernel value (den, T) that ``Tracer.trace`` gives at formal z and x,
  is a vector over Q(u), one coordinate per (z, x) monomial, and
  substituting z and x is linear over Q(u).  The words are taken in
  split-basis order and a word is kept when its value is not in the span
  of those kept before it; the first word whose value does not vanish is
  always kept, so the kept words give the verdict and the witness of all
  d^3 3! words.  That keeps 1 word at d = 1, 4 / 2 / 1 (YTL / FTL / CTL)
  of 48 at d = 2 and 10 / 3 / 1 of 162 at d = 3;
* the products gen c come from algebra.basis_walk, each an earlier one times
  one generator, so terms cancel at every step; it keeps split_basis order,
  so the kept words and witnesses are those of the direct products.

Spans are decided by one fraction-free echelon over Z[u, u^-1] (_Span):
entries stay integer Laurent polynomials, read straight off T, a row is
made primitive when it is stored (by an integer pseudo-remainder gcd of
its entries), and a RatFunc is built only for a kept word, whose value may
be a witness.  A primitive row's pivot is most often a unit +-u^k, and a
step on it subtracts (vec[col] / p) row, exact in Z[u, u^-1], with no
scaling and no content to remove.

Both criteria read one integer form per check (QuotientCheck.integer_form,
built on first use): z and each x, values in Q(zeta_L)(u) with L the lcm
of their conductors, are split once as P / Q over Z[u, w], w = zeta_M with
M = lcm(d, L) <= scalars.MAX_ZETA.  A kept value times the Q^top of its
variables is N = sum c(u) prod P^e Q^(top-e); the table P^e Q^(top-e) of
one value depends on (P, Q, M, top) alone and is built once per process
(_power_table), since the values recur: x comes from the E-system
solutions and z from the passing families.  One zero test, _vanishes,
decides the scan and every closed-form comparison: is sum a_i b_i, with
a_i in Z[u, u^-1] and b_i in Z[u, w], 0 mod Phi_M(w) in every
u-coefficient?  Each u-coefficient, an integer vector over w^0..w^(M-1),
goes through scalars._reduce, the one reduction modulo Phi_M.
RatFunc.substitute runs only for the witness value of the first failing
word, which quotient_report prints.

ideal_inclusion decides the chain of the three defining ideals in the same
echelon, without the pair loop: it closes the span of one generator under
multiplication by the algebra generators on both sides, which gives its
whole two-sided ideal because words in those generators span Y_{d,n}(u).
Each product is one letter step on a term dict: r w by _times_letter, and
w r = iota(iota(r) w) through the anti-involution iota of algebra._anti,
so no full algebra product is built.  The certificate forms w c the same
way.  The closed span is built once per (generator, d) and kept, so every
later query is one reduce.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    _anti,
    _bump,
    _lmul,
    _times_letter,
    basis_walk,
    quotient_generator,
    split_basis,
    word_render,
)
from .esystem import MAX_MODULUS, check_modulus
from .scalars import (
    MAX_ZETA,
    Cyclotomic,
    RatFunc,
    _reduce,
    _zx_divexact,
    laurent_ratfunc,
)
from .trace import Tracer

KINDS = ("ytl", "ftl", "ctl")
_N = 3  # strands of the ideal criterion: witnesses and report bytes are pinned at 3


@dataclass(frozen=True)
class QuotientCheck:
    """One parameter set to test: quotient kind, d, z value, x_1..x_{d-1}.

    z and each x are values in Q(zeta)(u): any other variable is refused
    with ValueError, since a formal parameter is not a parameter set.
    """

    kind: str
    d: int
    zval: RatFunc
    xs: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown quotient kind {self.kind!r}")
        check_modulus(self.d)
        if len(self.xs) != self.d - 1:
            raise ValueError(f"need x_1..x_{self.d - 1}")
        object.__setattr__(self, "zval", RatFunc.const(self.zval))
        object.__setattr__(self, "xs", tuple(RatFunc.const(v) for v in self.xs))
        for v in (self.zval, *self.xs):
            if v.variables() - {"u"}:
                raise ValueError(f"a quotient parameter may hold no variable but u, "
                                 f"got {v.render()}")

    @functools.cached_property
    def integer_form(self) -> tuple:
        """(M, ((P, Q) for z, x_1, ..., x_{d-1})), built on first use: each
        value split once by _split over Z[u, w], w = zeta_M, with
        M = lcm(d, L) and L the lcm of the conductors of its coefficients."""
        values = (self.zval, *self.xs)
        M = math.lcm(self.d, *(c.m for v in values for poly in (v.num, v.den)
                               for c in poly.terms.values() if type(c) is Cyclotomic))
        if M > MAX_ZETA:  # before _vanishes allocates rows of length M
            raise ValueError(f"zeta{M} exceeds the budget of zeta{MAX_ZETA}")
        return M, tuple(_split(v, M) for v in values)

    def substitution(self) -> dict[str, RatFunc]:
        out = {"z": self.zval}
        for m, v in enumerate(self.xs, start=1):
            out[f"x{m}"] = v
        return out


def _same_trace(a: tuple[int, dict], b: tuple[int, dict]) -> bool:
    """Are two kernel values (den, T) of ``Tracer.trace`` equal?  Each T is
    compared times the other's den; neither holds a zero coefficient."""
    (da, ta), (db, tb) = a, b
    return ta.keys() == tb.keys() and all(c * db == tb[k] * da for k, c in ta.items())


# One entry per d <= MAX_MODULUS, the cap on every d.
@functools.lru_cache(maxsize=MAX_MODULUS)
def _conjugation_certificate(d: int) -> bool:
    """Generic-mode check that the trace is invariant under cyclic moves
    by every generator; extends to tr(ab) = tr(ba) by induction on words.
    c w is c right-multiplied by one letter, and w c = iota(iota(c) w)."""
    tracer = Tracer(d)
    letters = [("s", i, 1) for i in range(1, _N)] + ([("t", 1, 1)] if d > 1 else [])
    for frm, perm in split_basis(d, _N):
        c = AlgebraElement.from_word(d, _N, frm, perm)
        for letter in letters:
            cw = AlgebraElement(d, _N, *_times_letter(c.terms, c.den, d, letter))
            wc, den = _times_letter(_anti(c.terms), c.den, d, letter)
            wc = AlgebraElement(d, _N, _anti(wc), den)
            if not _same_trace(tracer.trace(cw), tracer.trace(wc)):
                return False
    return True


# One entry per (kind, d) with d <= MAX_MODULUS.
@functools.lru_cache(maxsize=len(KINDS) * MAX_MODULUS)
def _generic_scan(kind: str, d: int) -> tuple:
    """(tops, ((word, generic, form), ...)) for the kept words of the scan.

    The kernel value (den, T) of tr(gen . word), z and x formal, gives form
    = T as {(z exponent, x_1 exponent, ...): {u exponent: int}}; den is a
    nonzero int, so it changes no span and no zero test.  A word, in
    split-basis order, is kept when its form adds rank to a _Span, and only
    then is generic, its value as a RatFunc, built for the witness.  tops[i]
    is the top exponent of variable i (z, x_1, ...) over the kept forms.
    """
    tracer = Tracer(d)
    span = _Span()
    tops = [0] * d
    kept = []
    for word, prod in basis_walk(quotient_generator(kind, d, _N, 1)):
        den, terms = tracer.trace(prod)
        if {type(c) for c in terms.values()} - {int}:
            raise AssertionError("a generic value is not a polynomial in z, x over Q(u)")
        form: dict = {}
        for (j, ks, e), c in terms.items():
            form.setdefault((j, *ks), {})[e] = c
        if span.insert(form) is not None:
            kept.append((word, laurent_ratfunc(terms, den), form))
            tops = [max(t, *(k[i] for k in form)) for i, t in enumerate(tops)]
    return tuple(tops), tuple(kept)


def _kernel_mul(a: dict, b: dict, M: int) -> dict:
    """a * b for polynomials {(u exponent, w exponent): int} with w^M = 1."""
    out: dict = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key = (e1 + e2, (k1 + k2) % M)
            out[key] = out.get(key, 0) + c1 * c2
    return out


_KERNEL_ONE = {(0, 0): 1}
_ONE = {0: 1}  # the Laurent polynomial 1 of a zero-test part


def _split(value: RatFunc, M: int) -> tuple[dict, dict]:
    """value = P / Q with P, Q polynomials {(u exponent, w exponent): int} in u
    and w = zeta_M, M a multiple of the conductor of value; one integer
    clears the denominators of both."""
    coeffs = list(value.num.terms.values()) + list(value.den.terms.values())
    scale = math.lcm(*(q.denominator for c in coeffs
                       for q in (c.c if type(c) is Cyclotomic else (c,))))
    out = []
    for poly in (value.num, value.den):
        part = {}
        for mono, c in poly.terms.items():
            e = mono[0][1] if mono else 0
            if type(c) is Cyclotomic:  # zeta_m = w^(M/m)
                for j, cj in enumerate(c.c):
                    if cj:
                        part[(e, j * (M // c.m))] = cj.numerator * (scale // cj.denominator)
            else:
                part[(e, 0)] = c.numerator * (scale // c.denominator)
        out.append(part)
    return out[0], out[1]


def _vanishes(parts, M: int) -> bool:
    """Is sum a b over the parts (a, b) zero, with a a Laurent polynomial
    {u exponent: int} and b a polynomial {(u exponent, w exponent < M): int}
    in u and w = zeta_M: does every u-coefficient reduce to 0 mod Phi_M(w)?"""
    rows: dict = {}  # u exponent -> its coefficients at w^0..w^(M-1)
    for a, b in parts:
        for e1, c1 in a.items():
            for (e2, k), c2 in b.items():
                row = rows.get(e1 + e2)
                if row is None:
                    rows[e1 + e2] = row = [0] * M
                row[k] += c1 * c2
    return not any(any(_reduce(M, row)) for row in rows.values() if any(row))


# One entry per value (P, Q, M, top).  z and x come from finite families (the
# E-system solutions, the passing values of z), so values recur: tier-1 fills
# 196 keys in one process, and quotient_grid 210-218 after warm-up and 3,000
# requests (seeds 911-913) and 251 after 40,000 (seed 911).  1,024 is over 4x
# the largest, and an evicted table is only rebuilt.
@functools.lru_cache(maxsize=1024)
def _power_table(p: tuple, q: tuple, M: int, top: int) -> tuple:
    """P^e Q^(top-e) for e = 0..top, with P and Q given by their dict items;
    the tables are shared, so they are never changed."""
    p, q = dict(p), dict(q)
    ps, qs = [_KERNEL_ONE], [_KERNEL_ONE]
    for _ in range(top):
        ps.append(_kernel_mul(ps[-1], p, M))
        qs.append(_kernel_mul(qs[-1], q, M))
    return tuple(_kernel_mul(ps[e], qs[top - e], M) for e in range(top + 1))


def _first_failure(check: QuotientCheck):
    """(word, generic value) of the first kept word whose substituted value
    does not vanish, or None.

    A variable of top exponent t gives the table P^e Q^(t-e), e = 0..t, of
    its split; the value of a form times the product of the Q^t is then
    N = sum c(u) * prod of table entries, one zero-test part per monomial.
    Each monomial's product is built once per check."""
    if not _conjugation_certificate(check.d):
        raise AssertionError("trace conjugation certificate failed")
    tops, kept = _generic_scan(check.kind, check.d)
    M, split = check.integer_form
    tables = [_power_table(tuple(p.items()), tuple(q.items()), M, top)
              for (p, q), top in zip(split, tops)]
    memo: dict = {}

    def monomial(exps: tuple) -> dict:
        out = memo.get(exps)
        if out is None:
            for table, e in zip(tables, exps):
                if len(table) > 1:
                    out = table[e] if out is None else _kernel_mul(out, table[e], M)
            memo[exps] = out = _KERNEL_ONE if out is None else out
        return out

    for word, generic, form in kept:
        if not _vanishes([(coeff, monomial(exps)) for exps, coeff in form.items()], M):
            return word, generic
    return None


def trace_vanishes_on_ideal(check: QuotientCheck) -> bool:
    """Does the substituted trace kill the two-sided ideal of the generator?"""
    return _first_failure(check) is None


def _deep_scan(check: QuotientCheck):
    """Literal double loop, the reference for the scan: each pair traced at
    formal z and x, then substituted, as the report's witness is (0.8-1.6 s
    at a passing d = 2 point, 2 vCPU); returns a witness (a, b, value) or None."""
    gen = quotient_generator(check.kind, check.d, _N, 1)
    tracer, subs = Tracer(check.d), check.substitution()
    for wa in split_basis(check.d, _N):
        for wb, prod in basis_walk(AlgebraElement.from_word(check.d, _N, *wa) * gen):
            val = tracer.value(prod).substitute(subs)
            if not val.is_zero():
                return wa, wb, val
    return None


def quotient_report(check: QuotientCheck) -> dict:
    """JSON-shaped verdict with a witness pair when the trace does not vanish:
    a is the unit word, b the first failing word of the scan."""
    failure = _first_failure(check)
    out = {
        "kind": check.kind,
        "d": check.d,
        "params": {"z": check.zval.render(),
                   "x": [v.render() for v in check.xs]},
        "verdict": failure is None,
    }
    if failure is not None:
        (fb, pb), generic = failure
        out["witness"] = {"a": word_render((0,) * _N, tuple(range(1, _N + 1))),
                          "b": word_render(fb, pb),
                          "value": generic.substitute(check.substitution()).render()}
    return out


# -- closed-form characterizations ------------------------------------------


# One entry per (d, M, split of x_1..x_{d-1}).  Only z varies from check to
# check of one parameter family: x comes from the E-system solutions, the FTL
# block points and a few seeded values.  quotient_grid fills 33 keys after
# warm-up and 70,000 requests (seed 911), tier-1 197 in one process; 1,024
# is over 5x the larger, and an evicted entry is only rebuilt.
@functools.lru_cache(maxsize=1024)
def _family(d: int, M: int, xs: tuple) -> tuple:
    """(S, (Y_0, ..., Y_{d-1})) for the splits xs = ((P_m, Q_m) items, ...)
    of x_1..x_{d-1} over Z[u, w], w = zeta_M: x_m = X_m / S with S the
    product of the distinct Q_m (X_0 = S), so Y_k = S y_k = sum_m X_m
    w^(-k m M/d) needs no product.  A Y_k that vanishes, y_k = 0, is None.
    M is part of the key, since one split reads differently at another M.
    The entries are shared, so they are never changed."""
    xs = [(dict(p), dict(q)) for p, q in xs]
    dens: list = []
    for _, qm in xs:
        if qm not in dens:
            dens.append(qm)
    S = _KERNEL_ONE
    for qm in dens:
        S = _kernel_mul(S, qm, M)
    X = [S]
    for pm, qm in xs:
        for other in dens:
            if other != qm:
                pm = _kernel_mul(pm, other, M)
        X.append(pm)
    step = M // d
    ys = []
    for k in range(d):
        y: dict = {}
        for m, xm in enumerate(X):
            shift = -k * m * step
            for (e, j), c in xm.items():
                key = (e, (j + shift) % M)
                y[key] = y.get(key, 0) + c
        ys.append(None if _vanishes([(_ONE, y)], M) else y)
    return S, tuple(ys)


def _level(y, q: dict, sp: dict, d: int, M: int):
    """The level of y_k from y = Y_k of _family and sp = S P: 0 if Y_k is
    None (y_k = 0), 1 if Y_k Q + d S P = 0, 2 if Y_k Q + d (u+1) S P = 0,
    else None.  At z = 0 a nonzero y_k has no level; at z != 0 levels 1 and
    2 exclude each other."""
    if y is None:
        return 0
    yq = _kernel_mul(y, q, M)
    for level, a in ((1, {0: d}), (2, {0: d, 1: d})):
        if _vanishes([(_ONE, yq), (a, sp)], M):
            return level
    return None


def admissible(check: QuotientCheck) -> bool:
    """The closed-form passing condition for check.kind, read off the levels
    of y_0..y_{d-1} (_level), with n1 and n2 the counts of levels 1 and 2:
    CTL passes when y_0 has a level; FTL when every y_k has one and
    z = -1/(n1 + (u+1) n2), that is (n1 + n2 + n2 u) P + Q = 0; YTL when
    FTL passes and n1 + 2 n2 <= 2.  The x part comes from _family, so a
    check does only the work that depends on z."""
    M, ((p, q), *xs) = check.integer_form
    S, ys = _family(check.d, M, tuple((tuple(pm.items()), tuple(qm.items()))
                                      for pm, qm in xs))
    sp = _kernel_mul(S, p, M)
    counts = [0, 0, 0]
    for y in ys[:1] if check.kind == "ctl" else ys:
        level = _level(y, q, sp, check.d, M)
        if level is None:
            return False
        counts[level] += 1
    _, n1, n2 = counts
    return check.kind == "ctl" or ((check.kind == "ftl" or n1 + 2 * n2 <= 2)
                                   and _vanishes([({0: n1 + n2, 1: n2}, p), (_ONE, q)], M))


# -- exact elimination ---------------------------------------------------------


def _content_free(vec: dict) -> dict:
    """vec over the gcd of its int coefficients and its lowest power of u."""
    # per entry first: one long argument tuple per step raised peak RSS ~0.5 MB
    g = math.gcd(*{math.gcd(*c.values()) for c in vec.values()})
    low = min(map(min, vec.values()))
    if g == 1 and not low:
        return vec
    return {col: {e - low: v // g for e, v in c.items()} for col, c in vec.items()}


def _zx_primitive(c: list[int]) -> list[int]:
    """A nonzero dense int list over its content, leading coefficient > 0."""
    g = math.gcd(*c)
    if c[-1] < 0:
        g = -g
    return c if g == 1 else [v // g for v in c]


def _zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd in Z[u] of two nonzero dense int lists, primitive with a
    positive leading coefficient: Euclid on pseudo-remainders, each made
    primitive.  A constant gcd comes back as [1]."""
    a, b = _zx_primitive(a), _zx_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem, lead = list(a), b[-1]
        while len(rem) >= len(b):  # rem = (lead rem - c u^k b) / gcd(c, lead)
            c = rem.pop()
            g = math.gcd(c, lead)
            p, c, k = lead // g, c // g, len(rem) - len(b) + 1
            rem = [v * p for v in rem]
            for i, v in enumerate(b[:-1]):
                rem[k + i] -= c * v
            while rem and not rem[-1]:
                rem.pop()
        if not rem:
            return b
        a, b = b, _zx_primitive(rem)
    return [1]


def _primitive(vec: dict) -> dict:
    """vec over the gcd of its entries in Z[u, u^-1]: _content_free, then the
    primitive gcd in Z[u] of the entries (_zx_gcd), divided out exactly in
    Z[u].  A one-term entry makes that gcd 1."""
    vec = _content_free(vec)
    if any(len(c) == 1 for c in vec.values()):
        return vec
    dense = {col: [c.get(e, 0) for e in range(max(c) + 1)] for col, c in vec.items()}
    g = functools.reduce(_zx_gcd, sorted(dense.values(), key=len))
    if len(g) == 1:
        return vec
    return {col: {e: v for e, v in enumerate(_zx_divexact(c, g)) if v}
            for col, c in dense.items()}


class _Span:
    """A fraction-free echelon over Z[u, u^-1]; vectors are dicts column ->
    {u exponent: int} with comparable columns, never changed in place.

    A row is stored under its smallest column, its pivot, and holds no pivot
    of a row stored before it, so one sweep in column order reduces a vector.
    A step with p = row[col] a unit +-u^k is vec - (vec[col] / p) row, exact
    in Z[u, u^-1]; any other step is vec = p vec - vec[col] row, then
    _content_free.  A stored row is _primitive, which keeps the entries small
    and makes many pivots units.
    Scaling by a nonzero scalar changes no span, so rank and membership are
    those over Q(u), with no division in Q(u).
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        """A multiple of vec minus a combination of the rows, with no pivot column."""
        while True:
            col = min((c for c in vec if c in self.rows), default=None)
            if col is None:
                return vec
            row = self.rows[col]
            p = row[col]
            unit = len(p) == 1 and abs(next(iter(p.values()))) == 1
            if unit:  # p = +-u^k: vec - (vec[col] / p) row
                (k, sign), = p.items()
                q = {e - k: -v * sign for e, v in vec[col].items()}
                out = dict(vec)
            else:  # p vec - vec[col] row
                q = {e: -v for e, v in vec[col].items()}
                out = {c: _lmul(v, p) for c, v in vec.items()}
            del out[col]  # it cancels
            for c, v in row.items():
                if c != col:
                    prev = out.get(c)
                    out[c] = _lmul(v, q)
                    if prev is not None:
                        _bump(out, c, prev)
            vec = {c: v for c, v in out.items() if v}
            if vec and not unit:
                vec = _content_free(vec)

    def insert(self, vec: dict):
        """Add vec as a row unless it is in the span; returns the new pivot or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        self.rows[min(vec)] = _primitive(vec)
        return min(vec)


def _canonical(terms: dict) -> tuple:
    """An element's terms as a hashable key: (word, ((u exponent, int), ...))
    pairs in word order."""
    return tuple(sorted((w, tuple(sorted(c.items()))) for w, c in terms.items()))


# One entry per (generator, d): quotient_grid fills 3 (the YTL and FTL
# generators at d = 2 and the one of all three kinds at d = 1) and tier-1 13
# in one process.  A closed ideal holds 20 / 2 / 1 rows at d = 2 (YTL / FTL /
# CTL, < 0.05 MB each) and the YTL one 93 rows at d = 3 (~0.3 MB); 64 is over
# 4x the largest count, and an evicted ideal is only built again.  A call
# that raises keeps nothing, so no half-built ideal is ever kept.
@functools.lru_cache(maxsize=64)
def _ideal(gen: tuple, d: int) -> _Span:
    """The closed _Span of the two-sided ideal of the element whose terms are
    gen (_canonical).

    gen is inserted, each term dict that adds rank is queued, and w r and
    r w are inserted for each queued r and each generator w among g_1, g_2,
    t_1..t_3 (the t_j only when d > 1).  r w is one letter step
    (_times_letter) and w r = iota(iota(r) w) (algebra._anti), so no full
    product is built.  Words in those generators span Y_{d,3}(u), so the
    closed span is the whole two-sided ideal."""
    letters = [("s", i, 1) for i in range(1, _N)]
    if d > 1:
        letters += [("t", j, 1) for j in range(1, _N + 1)]
    span, first = _Span(), {w: dict(c) for w, c in gen}
    queue = [first] if span.insert(first) is not None else []
    for r in queue:  # grows while it is read
        flipped = _anti(r)
        for letter in letters:
            for prod in (_anti(_times_letter(flipped, 1, d, letter)[0]),
                         _times_letter(r, 1, d, letter)[0]):
                if span.insert(prod) is not None:
                    queue.append(prod)
    return span


def ideal_inclusion(genA: AlgebraElement, genB: AlgebraElement, d: int) -> bool:
    """Is genA in the two-sided ideal span{a genB b : a, b split-basis words}?

    The ideal is the closed _Span of _ideal, whose columns are basis words,
    built once per (terms of genB, d); a den is a nonzero scalar, so it is
    not part of the key.  genA is in the ideal when the span reduces it to 0.
    """
    check_modulus(d)
    if genA.d != d or genB.d != d or genA.n != _N or genB.n != _N:
        raise ValueError("generators must live in the stated algebra")
    return not _ideal(_canonical(genB.terms), d).reduce(genA.terms)
