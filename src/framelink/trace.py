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
so it is cached globally per (d, framings, permutation).  ``Tracer(d, xs,
z)`` is the one evaluator: it fixes the x and z values, formal unless
given, and memoizes the scalar value of each word.
"""
from __future__ import annotations

from .algebra import AlgebraElement, _word_product
from .scalars import RatFunc, RATFUNC_ONE, RATFUNC_ZERO, Z, x_var

# (d, frm, perm) -> ("x", m, (frm', perm')) | ("z", ((coeff, frm', perm'), ...)),
# dropping its oldest key when full.  Tier-1 fills 8,985 keys in one process,
# invariant_mix at most 411 and quotient_grid 250 (warm-up + 600 requests);
# 40,000 is over 4x the largest, and a dropped step is only recomputed.
_STRIP_MAX = 40_000
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
        out = ("z", tuple(sorted(
            ((c, tuple((a + b) % d for a, b in zip(frm[: n - 1], f)), p)
             for c, f, p in _word_product(d, v, bfrm, tail)),
            key=lambda t: t[1:])))
    if len(_STRIP) >= _STRIP_MAX:
        del _STRIP[next(iter(_STRIP))]
    _STRIP[key] = out
    return out


class Tracer:
    """The trace on Y_{d,n}(u) at one parameter set, memoizing per word.

    xs lists x_1..x_{d-1} (x_0 = 1 always), as scalars convertible to
    RatFunc; None keeps them formal.  z stays formal unless given.
    """

    __slots__ = ("d", "_x", "_z", "_memo")

    def __init__(self, d: int, xs=None, z=None):
        if d < 1:
            raise ValueError("d must be >= 1")
        xs = [x_var(m) for m in range(1, d)] if xs is None \
            else [RatFunc.const(v) for v in xs]
        if len(xs) != d - 1:
            raise ValueError(f"need x_1..x_{d - 1}, got {len(xs)} values")
        self.d = d
        self._x = (RATFUNC_ONE, *xs)  # indexed by the framing exponent
        self._z = Z if z is None else RatFunc.const(z)
        self._memo: dict[tuple, RatFunc] = {}

    def trace_word(self, frm: tuple, perm: tuple) -> RatFunc:
        if not frm:
            return RATFUNC_ONE
        key = (frm, perm)
        val = self._memo.get(key)
        if val is not None:
            return val
        step = _strip(self.d, frm, perm)
        if step[0] == "x":
            val = self._x[step[1]] * self.trace_word(*step[2])
        else:
            val = sum((c * self.trace_word(f, p) for c, f, p in step[1]),
                      start=RATFUNC_ZERO)
            val = self._z * val
        self._memo[key] = val
        return val

    def trace(self, e: AlgebraElement) -> RatFunc:
        if e.d != self.d:
            raise ValueError(f"element has d={e.d}, the trace has d={self.d}")
        total = RATFUNC_ZERO
        for (frm, perm), coeff in e.terms.items():
            total = total + coeff * self.trace_word(frm, perm)
        return total
