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

The YTL and FTL closed forms read the subset D off the Fourier transform
y_k = sum_m x_m zeta_d^{-km} of (1, x_1..x_{d-1}): x is the E-system
solution of D exactly when y = (d/|D|) 1_D.  YTL passes when y has that
shape with |D| <= 2 and z is -1/(u+1) or -1 for |D| = 1, -1/2 for
|D| = 2.  FTL passes when every nonzero y_k is -dz or -dz(u+1), with
z = -1/(|D_1| + (u+1)|D_2|) for the two blocks D_1, D_2 of the support.
The transform runs in Fraction and Cyclotomic numbers when every x is a
constant, and in RatFunc only when some x is rational in u.

CTL passes when (u+1) z^2 sum_k x_k + (u+2) z sum_k tr(e_1^{(k)})
+ sum_k tr(e_1^{(k)} e_2) = 0, with e_1^{(k)} = t_1^k e_1.  These are
traces of identity words, tr(t^a) = x_{a_1} x_{a_2} x_{a_3}, so the three
sums are y_0, y_0^2/d and y_0^3/d^2 for y_0 = 1 + x_1 + ... + x_{d-1}, and
the condition factors as y_0 (z + w)((u+1) z + w) = 0 with w = y_0/d.

The quadratic blow-up of the pair loop is avoided by three exact reductions,
each verified rather than assumed, and by walking the basis:

* conjugation certificate: tr(c w) = tr(w c) is checked in generic mode
  for every basis word c and every algebra generator w; by induction on
  words this gives tr(ab) = tr(ba) for all a, b, and it survives parameter
  substitution because substitution is a ring map on trace values;
* with that, tr(a gen b) = tr(gen (b a)), and b a expands over the basis,
  so vanishing on all pairs is equivalent to tr(gen c) = 0 for every basis
  word c.  A failing word c yields the witness pair (1, c);
* only a basis of those generic values is substituted.  Each generic value
  tr(gen c) is a vector over Q(zeta_d)(u), one coordinate per monomial in z
  and x_1..x_{d-1}, and substituting z and x fixes Q(zeta_d)(u), so it is
  linear: every value vanishes exactly when the values of a spanning set
  do.  When the generic values are built, the words are taken once in
  split-basis order, and a word is kept when its value is not in the span
  of the values kept before it.  The first word of the full scan whose value does
  not vanish is always kept, because every value before it vanishes and so
  does everything in their span; the kept words therefore give the same
  verdict and the same witness as all d^3 3! words.  At n = 3 that keeps 1
  word at d = 1, 4 / 2 / 1 of 48 (YTL / FTL / CTL) at d = 2 and 10 / 3 of
  162 (YTL / FTL) at d = 3.
* the products gen c come from algebra.basis_walk, each an earlier one times
  one generator, so terms cancel at every step; it keeps split_basis order,
  so the kept words and witnesses are those of the direct products.

The substitution itself runs in integers.  A check's z and x are values in
Q(zeta_L)(u), L the lcm of their conductors; each is split as P / Q with
P, Q integer polynomials in u and w = zeta_L, and a kept value, whose
denominator holds only u, is read as integer coefficients of its (z, x)
monomials.  Multiplying by the product of the Q^top of its variables turns
the substituted value into N = sum c(u) prod P^e Q^(top-e), a polynomial
in u and w, and the value vanishes exactly when every u-coefficient of N is
0 mod the cyclotomic polynomial Phi_L(w): an exact test with no rational
function built.  RatFunc.substitute runs only for the witness value of the
first failing word, which quotient_report prints.

ideal_inclusion decides the chain of the three defining ideals without the
pair loop either: it closes the span of one generator under multiplication
by the algebra generators on both sides, which gives its whole two-sided
ideal because words in those generators span Y_{d,n}(u).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    _times_letter,
    basis_walk,
    gen_g,
    gen_t,
    quotient_generator,
    split_basis,
)
from .esystem import MAX_MODULUS, fourier_transform
from .scalars import (
    Cyclotomic,
    Poly,
    RatFunc,
    RATFUNC_ZERO,
    U,
    cyclotomic_polynomial,
)
from .trace import Tracer

KINDS = ("ytl", "ftl", "ctl")
_N = 3  # strands of the ideal criterion; n > 3 exceeds the budget


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
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if len(self.xs) != self.d - 1:
            raise ValueError(f"need x_1..x_{self.d - 1}")
        object.__setattr__(self, "zval", RatFunc.const(self.zval))
        object.__setattr__(self, "xs", tuple(RatFunc.const(v) for v in self.xs))
        for v in (self.zval, *self.xs):
            if v.variables() - {"u"}:
                raise ValueError(f"a quotient parameter may hold no variable but u, "
                                 f"got {v.render()}")

    def substitution(self) -> dict[str, RatFunc]:
        out = {"z": self.zval}
        for m, v in enumerate(self.xs, start=1):
            out[f"x{m}"] = v
        return out


# One entry per d <= MAX_MODULUS, the cap on every d.
@functools.lru_cache(maxsize=MAX_MODULUS)
def _conjugation_certificate(d: int) -> bool:
    """Generic-mode check that the trace is invariant under cyclic moves
    by every generator; extends to tr(ab) = tr(ba) by induction on words.
    c w is c right-multiplied by one letter; w c is a plain product."""
    tracer = Tracer(d)
    gens = [(("s", i, 1), gen_g(d, _N, i)) for i in range(1, _N)]
    if d > 1:
        gens.append((("t", 1, 1), gen_t(d, _N, 1)))
    for frm, perm in split_basis(d, _N):
        c = AlgebraElement.from_word(d, _N, frm, perm)
        for letter, w in gens:
            cw = AlgebraElement(d, _N, *_times_letter(c.terms, c.den, d, letter))
            if tracer.trace(cw) != tracer.trace(w * c):
                return False
    return True


# One entry per (kind, d) with d <= MAX_MODULUS.
@functools.lru_cache(maxsize=len(KINDS) * MAX_MODULUS)
def _generic_scan(kind: str, d: int) -> tuple:
    """The kept words of the generic scan, as ((word, tr(gen . word)), ...).

    Words come in split-basis order; a word is kept when its generic value is
    not in the span, over Q(zeta_d)(u), of the values of the words kept
    before it.
    """
    tracer = Tracer(d)
    span = _Echelon()
    out = []
    for word, prod in basis_walk(quotient_generator(kind, d, _N, 1)):
        value = tracer.trace(prod)
        if span.insert(_coordinates(value)) is not None:
            out.append((word, value))
    return tuple(out)


def _coordinates(value: RatFunc) -> dict:
    """value as a vector over Q(zeta_d)(u): (z, x)-monomial -> coefficient."""
    if value.den.variables() - {"u"}:
        raise AssertionError("a generic trace value has z or x in its denominator")
    parts: dict = {}
    for mono, c in value.num.terms.items():
        rest = tuple(t for t in mono if t[0] != "u")
        parts.setdefault(rest, {})[tuple(t for t in mono if t[0] == "u")] = c
    return {rest: RatFunc(Poly(terms), value.den) for rest, terms in parts.items()}


# One entry per (kind, d) with d <= MAX_MODULUS.
@functools.lru_cache(maxsize=len(KINDS) * MAX_MODULUS)
def _kernel_scan(kind: str, d: int) -> tuple:
    """(tops, ((word, generic, form), ...)) for the kept words of the scan.

    form is the numerator of tr(gen . word) in the integer kernel, as
    ((exps, ((u exponent, c), ...)), ...) with exps = (z exponent, x_1
    exponent, ...), scaled to int coefficients; the denominator holds only u
    and is nonzero, so it never decides whether a value vanishes.  tops[i]
    is the largest exponent of variable i (z, x_1, ...) over every form.
    """
    names = ("z",) + tuple(f"x{m}" for m in range(1, d))
    tops = [0] * d
    kept = []
    for word, generic in _generic_scan(kind, d):
        terms = generic.num.terms
        if any(type(c) is not Fraction for c in terms.values()):
            raise AssertionError("a generic trace value has an irrational coefficient")
        scale = math.lcm(*(c.denominator for c in terms.values()))
        form: dict = {}
        for mono, c in terms.items():
            exps = dict(mono)
            key = tuple(exps.get(v, 0) for v in names)
            form.setdefault(key, []).append((exps.get("u", 0),
                                             c.numerator * (scale // c.denominator)))
            tops = [max(t, k) for t, k in zip(tops, key)]
        kept.append((word, generic, tuple((k, tuple(v)) for k, v in form.items())))
    return tuple(tops), tuple(kept)


def _kernel_mul(a: dict, b: dict, L: int) -> dict:
    """a * b for polynomials {(u exponent, w exponent): int} with w^L = 1."""
    out: dict = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key = (e1 + e2, (k1 + k2) % L)
            out[key] = out.get(key, 0) + c1 * c2
    return out


_KERNEL_ONE = {(0, 0): 1}


def _split(value: RatFunc, L: int) -> tuple[dict, dict]:
    """value = P / Q with P, Q polynomials {(u exponent, w exponent): int} in u
    and w = zeta_L; one integer clears the denominators of both."""
    coeffs = list(value.num.terms.values()) + list(value.den.terms.values())
    scale = math.lcm(*(q.denominator for c in coeffs
                       for q in (c.c if type(c) is Cyclotomic else (c,))))
    out = []
    for poly in (value.num, value.den):
        part = {}
        for mono, c in poly.terms.items():
            e = mono[0][1] if mono else 0
            if type(c) is Cyclotomic:  # zeta_m = w^(L/m)
                for j, cj in enumerate(c.c):
                    if cj:
                        part[(e, j * (L // c.m))] = cj.numerator * (scale // cj.denominator)
            else:
                part[(e, 0)] = c.numerator * (scale // c.denominator)
        out.append(part)
    return out[0], out[1]


class _Specialization:
    """One check's z and x in the integer kernel, for the zero test of forms.

    Each value is split as P / Q over Z[u, w], w = zeta_L with L the lcm of
    the conductors of the check's coefficients (1 when all are rational),
    and w^L = 1 is used while multiplying.  A variable of top exponent t
    gives the table P^e Q^(t-e), e = 0..t, built once; the value of a form
    times the product of the Q^t is then N = sum c(u) * prod of table
    entries, and it vanishes exactly when N is 0 mod Phi_L(w).
    """

    def __init__(self, check: QuotientCheck, tops: tuple):
        values = (check.zval,) + check.xs
        self.L = L = math.lcm(*(c.m for v in values
                                for poly in (v.num, v.den)
                                for c in poly.terms.values() if type(c) is Cyclotomic))
        self.tables = []
        for v, top in zip(values, tops):
            p, q = _split(v, L)
            ps, qs = [_KERNEL_ONE], [_KERNEL_ONE]
            for _ in range(top):
                ps.append(_kernel_mul(ps[-1], p, L))
                qs.append(_kernel_mul(qs[-1], q, L))
            self.tables.append([_kernel_mul(ps[e], qs[top - e], L) for e in range(top + 1)])
        self.memo: dict = {}

    def _monomial(self, exps: tuple) -> dict:
        out = self.memo.get(exps)
        if out is None:
            out = _KERNEL_ONE
            for table, e in zip(self.tables, exps):
                if len(table) > 1:
                    out = _kernel_mul(out, table[e], self.L)
            self.memo[exps] = out
        return out

    def vanishes(self, form: tuple) -> bool:
        """Does the value of a kernel form vanish at this z and x?"""
        total: dict = {}
        for exps, coeff in form:
            mono = self._monomial(exps)
            for e1, c1 in coeff:
                for (e2, k), c2 in mono.items():
                    key = (e1 + e2, k)
                    total[key] = total.get(key, 0) + c1 * c2
        L = self.L
        if L == 1:
            return not any(total.values())
        phi = [int(c) for c in cyclotomic_polynomial(L)]  # monic, integral
        deg = len(phi) - 1
        rows: dict = {}
        for (e, k), c in total.items():
            rows.setdefault(e, [0] * L)[k] = c
        for row in rows.values():
            for j in range(L - 1, deg - 1, -1):  # w^j -= w^(j-deg) Phi_L(w)
                c = row[j]
                if c:
                    for i in range(deg):
                        row[j - deg + i] -= c * phi[i]
            if any(row[:deg]):
                return False
        return True


def _first_failure(check: QuotientCheck):
    """(word, generic value) of the first kept word whose substituted value
    does not vanish, or None."""
    if not _conjugation_certificate(check.d):
        raise AssertionError("trace conjugation certificate failed")
    tops, kept = _kernel_scan(check.kind, check.d)
    spec = _Specialization(check, tops)
    for word, generic, form in kept:
        if not spec.vanishes(form):
            return word, generic
    return None


def _scan(check: QuotientCheck):
    """(verdict, witness) for the ideal criterion; witness is (a, b, value)."""
    failure = _first_failure(check)
    if failure is None:
        return True, None
    word, generic = failure
    unit_word = ((0,) * _N, tuple(range(1, _N + 1)))
    return False, (unit_word, word, generic.substitute(check.substitution()))


def trace_vanishes_on_ideal(check: QuotientCheck) -> bool:
    """Does the substituted trace kill the two-sided ideal of the generator?"""
    return _first_failure(check) is None


def _deep_scan(check: QuotientCheck):
    """Literal double loop, the reference for _scan (a passing FTL point takes
    ~3.5 s at d = 2, 2 vCPU); returns a witness (a, b, value) or None."""
    gen = quotient_generator(check.kind, check.d, _N, 1)
    tracer = Tracer(check.d, check.xs, check.zval)
    for wa in split_basis(check.d, _N):
        for wb, prod in basis_walk(AlgebraElement.from_word(check.d, _N, *wa) * gen):
            val = tracer.trace(prod)
            if not val.is_zero():
                return wa, wb, val
    return None


def quotient_report(check: QuotientCheck) -> dict:
    """JSON-shaped verdict with a witness pair when the trace does not vanish."""
    verdict, witness = _scan(check)
    out = {
        "kind": check.kind,
        "d": check.d,
        "params": {"z": check.zval.render(),
                   "x": [v.render() for v in check.xs]},
        "verdict": verdict,
    }
    if witness is not None:
        from .algebra import word_render
        (fa, pa), (fb, pb), val = witness
        out["witness"] = {"a": word_render(fa, pa), "b": word_render(fb, pb),
                          "value": val.render()}
    return out


# -- closed-form characterizations ------------------------------------------


# z values that pass YTL, by |D|
_YTL_Z = {1: (RatFunc.const(-1) / (U + 1), RatFunc.const(-1)),
          2: (RatFunc.const(Fraction(-1, 2)),)}


def _transform(check: QuotientCheck):
    """The Fourier transform of (1, x_1..x_{d-1}), in numbers when every x is
    constant: a constant x is read as its Fraction or Cyclotomic."""
    return fourier_transform((1, *(v if v.variables() else v.num.constant_value()
                                   for v in check.xs)))


def _ytl_admissible(check: QuotientCheck) -> bool:
    ft = _transform(check)
    size = len(ft.support)
    if not any(check.zval == t for t in _YTL_Z.get(size, ())):
        return False
    level = RatFunc.const(Fraction(check.d, size))
    return all(level == ft.y[k] for k in ft.support)


def _ftl_admissible(check: QuotientCheck) -> bool:
    d, z = check.d, check.zval
    ft = _transform(check)
    neg_dz = RatFunc.const(-d) * z
    neg_dz_u = neg_dz * (U + 1)
    # the support is never empty (sum_k y_k = d), and the two blocks are
    # disjoint: for z != 0 the two values differ, for z = 0 both are empty
    d1 = [k for k in ft.support if ft.y[k] == neg_dz]
    d2 = [k for k in ft.support if ft.y[k] == neg_dz_u]
    if len(d1) + len(d2) != len(ft.support):
        return False
    denom = RatFunc.const(len(d1)) + (U + 1) * RatFunc.const(len(d2))
    return z == RatFunc.const(-1) / denom


def _ctl_admissible(check: QuotientCheck) -> bool:
    y0 = RatFunc.const(_transform(check).y[0])
    w = y0 * Fraction(1, check.d)
    z = check.zval
    return any(f.is_zero() for f in (y0, z + w, (U + 1) * z + w))


def admissible(check: QuotientCheck) -> bool:
    """Evaluate the closed-form passing condition for check.kind."""
    return {"ytl": _ytl_admissible, "ftl": _ftl_admissible,
            "ctl": _ctl_admissible}[check.kind](check)


# -- exact elimination ---------------------------------------------------------


class _Echelon:
    """Rows in echelon form over the coefficient field, u formal.

    Vectors are sparse dicts column -> RatFunc with comparable columns.  Each
    row is stored under its pivot column, where it is 1, and has no earlier
    column, so one sweep in column order reduces a vector: eliminating a
    column only brings in later ones.
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        """vec minus a combination of the rows that leaves no pivot column; in place."""
        while True:
            col = min((c for c in vec if c in self.rows), default=None)
            if col is None:
                return vec
            factor = vec[col]
            for c2, v2 in self.rows[col].items():
                nxt = vec.get(c2, RATFUNC_ZERO) - factor * v2
                if nxt.is_zero():
                    vec.pop(c2, None)
                else:
                    vec[c2] = nxt

    def insert(self, vec: dict):
        """Add vec as a row unless it is in the span; returns the new pivot or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        col = min(vec)
        inv = vec[col] ** -1
        self.rows[col] = {c: inv * v for c, v in vec.items()}
        return col


def _row(e: AlgebraElement) -> dict:
    """e as an echelon row: columns are basis words, in split-basis order."""
    return {w: e.coeff(w) for w in e.terms}


def ideal_inclusion(genA: AlgebraElement, genB: AlgebraElement, d: int) -> bool:
    """Is genA in the two-sided ideal span{a genB b : a, b split-basis words}?

    Built by closure: from genB on, each element that adds rank to an echelon
    over the coefficient field (u formal) is queued, and w r and r w are
    inserted for each queued r and each generator w among g_1, g_2,
    t_1..t_3 (the t_j only when d > 1).  The span is then closed under
    multiplication on both sides by the generators, hence by their words,
    which span Y_{d,3}(u), the algebra of the ideal criterion.  genA is
    reduced after every rank increase, so membership exits early.
    """
    if genA.d != d or genB.d != d or genA.n != _N or genB.n != _N:
        raise ValueError("generators must live in the stated algebra")
    gens = [gen_g(d, _N, i) for i in range(1, _N)]
    if d > 1:
        gens += [gen_t(d, _N, j) for j in range(1, _N + 1)]
    span = _Echelon()
    target = _row(genA)
    queue: list[AlgebraElement] = []

    def insert(e: AlgebraElement) -> bool:
        nonlocal target
        if span.insert(_row(e)) is not None:
            queue.append(e)
            target = span.reduce(target)
        return not target

    if not target or insert(genB):
        return True
    for r in queue:  # grows while it is read
        for w in gens:
            if insert(w * r) or insert(r * w):
                return True
    return False
