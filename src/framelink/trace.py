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
so it is cached globally per (d, framings, permutation); a Tracer then
memoizes scalar values under its own parameter specialization.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement
from .scalars import RatFunc, RATFUNC_ONE, RATFUNC_ZERO, Z, x_var

# (d, frm, perm) -> ("x", m, (frm', perm')) | ("z", ((coeff, frm', perm'), ...))
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
        a = AlgebraElement.from_word(d, n - 1, frm[: n - 1], v)
        bfrm = [0] * (n - 1)
        bfrm[n - 2] = frm[n - 1]
        b = AlgebraElement.from_word(d, n - 1, tuple(bfrm), tail)
        out = ("z", tuple((c, w[0], w[1]) for w, c in (a * b).sorted_terms()))
    _STRIP[key] = out
    return out


@dataclass(frozen=True)
class TraceParams:
    """Trace parameters: xs = None keeps x_1..x_{d-1} as formal variables.

    A specialized vector lists x_1..x_{d-1} in order (x_0 = 1 always);
    entries may be any scalar convertible to RatFunc.
    """

    d: int
    xs: tuple | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.xs is not None:
            xs = tuple(RatFunc.const(v) for v in self.xs)
            if len(xs) != self.d - 1:
                raise ValueError(f"need x_1..x_{self.d - 1}, got {len(xs)} values")
            object.__setattr__(self, "xs", xs)

    def x_value(self, m: int) -> RatFunc:
        m %= self.d
        if m == 0:
            return RATFUNC_ONE
        if self.xs is None:
            return x_var(m)
        return self.xs[m - 1]


class Tracer:
    """Evaluates the trace under one parameter set, memoizing per word."""

    __slots__ = ("params", "_z", "_memo")

    def __init__(self, params: TraceParams, z: RatFunc | None = None):
        self.params = params
        self._z = z if z is not None else Z
        self._memo: dict[tuple, RatFunc] = {}

    def trace_word(self, frm: tuple, perm: tuple) -> RatFunc:
        if not frm:
            return RATFUNC_ONE
        key = (frm, perm)
        val = self._memo.get(key)
        if val is not None:
            return val
        step = _strip(self.params.d, frm, perm)
        if step[0] == "x":
            val = self.params.x_value(step[1]) * self.trace_word(*step[2])
        else:
            val = sum((c * self.trace_word(f, p) for c, f, p in step[1]),
                      start=RATFUNC_ZERO)
            val = self._z * val
        self._memo[key] = val
        return val

    def trace(self, e: AlgebraElement) -> RatFunc:
        if e.d != self.params.d:
            raise ValueError(f"element has d={e.d}, params have d={self.params.d}")
        total = RATFUNC_ZERO
        for (frm, perm), coeff in e.terms.items():
            total = total + coeff * self.trace_word(frm, perm)
        return total


def juyumaya_trace(e: AlgebraElement, p: TraceParams) -> RatFunc:
    return Tracer(p).trace(e)


def ocneanu_trace(e: AlgebraElement) -> RatFunc:
    """The d = 1 trace on the Iwahori-Hecke tower; z plays the role of zeta."""
    if e.d != 1:
        raise ValueError("Ocneanu trace requires d = 1")
    return juyumaya_trace(e, TraceParams(1))


def specialized_params(sol) -> TraceParams:
    """Trace parameters with x's taken from an E-system solution."""
    return TraceParams(sol.d, sol.x[1:])
