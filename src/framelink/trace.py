"""Markov trace on the tower of Yokonuma-Hecke algebras.

The trace is computed by structural recursion on the strand count.  Per
basis word t^a g_w on n strands:

* if w fixes n, strand n carries only the framing t_n^{a_n}; it is stripped
  and contributes a factor x_{a_n};
* otherwise w factors uniquely as v (s_{n-1} s_{n-2} ... s_k) with
  v in S_{n-1} and k = w^{-1}(n), so t^a g_w = A g_{n-1} B with
  A = t^{a'} g_v and B = t_{n-1}^{a_n} g_{s_{n-2}...s_k} both one strand
  down, and tr(A g_{n-1} B) = z tr(A B).

The second rule is derived from conjugation invariance together with the
Markov property, tr(A g B) = tr(B A g) = z tr(B A) = z tr(A B); it is
exercised directly by the test suite rather than trusted silently.

The structural reduction of a word is independent of the z and x values,
so it is cached globally per (d, framings, permutation); a z-step holds the
product A B in the algebra's integer kernel, Laurent coefficients over a
denominator that is a power of d.  ``Tracer(d, xs)`` is the one
evaluator, and it stays in that kernel too: a word's value, memoized per
word, is a dict {(z exponent, x exponents, u exponent): int} over a power
of d, with z and x formal; an x strip adds 1 to its exponent, or drops
the branch or leaves it as it is when that x is the number 0 or 1.
``Tracer.trace`` sums c_w tr(w) and returns it over its denominator, as
the invariants and the quotient scans read it; numeric x (an int,
Fraction or Cyclotomic) are multiplied in once, at the end, c z^j x^k u^e
becoming c prod x_m^(k_m) under (j, (), e).  ``Tracer.value`` alone
builds a RatFunc, z formal; specialising it is a ring map, so a caller
substitutes a z, or x in Q(u), into it.  One ``trace`` call may make at
most MAX_TRACE_PRODUCTS coefficient products, or is refused.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AlgebraElement, _word_product
from .esystem import check_modulus
from .scalars import Cyclotomic, RatFunc, laurent_ratfunc

_NUMBERS = (int, Fraction, Cyclotomic)
# Coefficient products one ``Tracer.trace`` call may make: len(c) * len(value)
# per part of a z-step sum, then one per term and sum(k) per x monomial k to
# multiply numeric x in.  `verify --what markov --d 6 --n 4` makes 250,940; the
# long framed word "-s1 s2 -s3 s4 -s5 s1 -s2 s3 -s4 s5" twice plus t1 t2 makes
# 1,930,914 at d = 3 (~2 s) and 6,415,266 at d = 4, D = {0,1} (refused, ~4 s).
MAX_TRACE_PRODUCTS = 4_000_000

# (d, frm, perm) -> ("x", m, (frm', perm')) | ("z", den, ((coeff, frm', perm'), ...)),
# dropping its oldest key when full.  Tier-1 fills 14,611 keys in one process
# (most of them `verify --what markov --d 6`), invariant_mix 352-381,
# quotient_grid 250 and cli_cache 9 (warm-up + 600 requests, seeds 911-913);
# 60,000 is over 4x the largest, and a dropped step is only recomputed.
_STRIP_MAX = 60_000
_STRIP: dict[tuple, tuple] = {}


def _strip(d: int, frm: tuple, perm: tuple) -> tuple:
    key = (d, frm, perm)
    out = _STRIP.get(key)
    if out is not None:
        return out
    n = len(frm)
    if perm[n - 1] == n:
        out = ("x", frm[n - 1], (frm[: n - 1], perm[: n - 1]))
    else:
        k = perm.index(n) + 1
        v = perm[: k - 1] + perm[k:]
        # one-line form of s_{n-2}...s_k in S_{n-1}: k -> n-1, j -> j-1 above k
        tail = tuple(range(1, k)) + (n - 1,) + tuple(range(k, n - 1))
        bfrm = (0,) * (n - 2) + (frm[n - 1],)
        # A B = t^{a'} (g_v t^bfrm g_tail): a' adds to the first n-1 framings
        den, words = _word_product(d, v, bfrm, tail)
        out = ("z", den, tuple(sorted(
            ((c, tuple((a + b) % d for a, b in zip(frm[: n - 1], f)), p)
             for c, f, p in words),
            key=lambda t: t[1:])))
    if len(_STRIP) >= _STRIP_MAX:
        del _STRIP[next(iter(_STRIP))]
    _STRIP[key] = out
    return out


class Tracer:
    """The trace on Y_{d,n}(u) at one parameter set, memoizing per word.

    xs lists x_1..x_{d-1} (x_0 = 1 always) as numbers, each an int,
    Fraction or Cyclotomic, or is None to keep them formal; z is formal.
    """

    __slots__ = ("d", "_x", "_unit", "_memo", "_work")

    def __init__(self, d: int, xs=None):
        check_modulus(d)
        if xs is not None:
            if len(xs) != d - 1:
                raise ValueError(f"need x_1..x_{d - 1}, got {len(xs)} values")
            if any(type(v) not in _NUMBERS for v in xs):
                raise TypeError("an x must be an int, Fraction or Cyclotomic")
            # an integral value as an int
            xs = tuple(int(v) if type(v) is Fraction and v.denominator == 1 else v
                       for v in xs)
        self.d = d
        self._x = xs
        self._unit = (1, {(0, (0,) * (d - 1), 0): 1})
        self._memo: dict[tuple, tuple[int, dict]] = {}
        self._work = 0

    def _word(self, frm: tuple, perm: tuple) -> tuple[int, dict]:
        """(den, value) of tr(t^frm g_perm) with x formal: value / den."""
        if not frm:
            return self._unit
        key = (frm, perm)
        val = self._memo.get(key)
        if val is not None:
            return val
        step = _strip(self.d, frm, perm)
        if step[0] == "z":
            top, value = self._sum(step[2], 1)
            val = (step[1] * top, value)
        elif step[1] and self._x and self._x[step[1] - 1] in (0, 1):  # x_m is 0 or 1
            val = self._word(*step[2]) if self._x[step[1] - 1] else (1, {})
        else:
            m, val = step[1], self._word(*step[2])
            if m:
                val = (val[0], {(j, ks[: m - 1] + (ks[m - 1] + 1,) + ks[m:], e): c
                                for (j, ks, e), c in val[1].items()})
        self._memo[key] = val
        return val

    def _charge(self, products: int) -> None:
        self._work += products
        if self._work > MAX_TRACE_PRODUCTS:
            raise ValueError(f"the trace exceeds the budget of {MAX_TRACE_PRODUCTS} "
                             "coefficient products")

    def _sum(self, items, dz: int) -> tuple[int, dict]:
        """(den, value) of z^dz sum c tr(t^frm g_perm) over items
        (c, frm, perm) with Laurent c.  Word denominators are powers of d,
        so the largest is their lcm."""
        parts = [(c, self._word(f, p)) for c, f, p in items]
        self._charge(sum(len(c) * len(value) for c, (_, value) in parts))
        top = max((den for _, (den, _) in parts), default=1)
        out: dict = {}
        for c, (den, value) in parts:
            k = top // den
            c = [(ce, cv * k) for ce, cv in c.items()] if k != 1 else c.items()
            for (j, ks, e), v in value.items():
                j += dz
                for ce, cv in c:
                    key = (j, ks, e + ce)
                    out[key] = out.get(key, 0) + cv * v
        return top, {key: s for key, s in out.items() if s}

    def trace(self, e: AlgebraElement) -> tuple[int, dict]:
        """(den, T) with tr(e) = T / den and T = {(z exponent, x exponents,
        u exponent): c != 0}: z formal, and x unless all are numbers."""
        if e.d != self.d:
            raise ValueError(f"element has d={e.d}, the trace has d={self.d}")
        self._work = 0
        top, value = self._sum(((c, f, p) for (f, p), c in e.terms.items()), 0)
        if self._x:  # numeric x_1..x_{d-1}: each x monomial is built once
            monos = {ks for _, ks, _ in value}
            self._charge(len(value) + sum(map(sum, monos)))
            xk = {ks: math.prod(v ** k for v, k in zip(self._x, ks) if k) for ks in monos}
            out: dict = {}
            for (j, ks, u), c in value.items():
                out[j, (), u] = out.get((j, (), u), 0) + c * xk[ks]
            value = {key: c for key, c in out.items() if c}
        return top * e.den, value

    def value(self, e: AlgebraElement) -> RatFunc:
        """tr(e) as a RatFunc: the kernel value of ``trace``, z formal."""
        den, terms = self.trace(e)
        return laurent_ratfunc(terms, den)
