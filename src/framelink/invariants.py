"""Link invariants built from the specialized Markov trace.

A braid word alpha on n strands with exponent sum eps closes to a link;
its invariant is

    z^{-(n-1)} lambda_D^{(eps - n + 1)/2} tr_D(image(alpha))

where lambda_D = (|D| z + 1 - u)/(|D| u z) and the image map sends
sigma_i to g_i, t_j to t_j, and tau_i to p_i = e_i (1 + g_i).  The
half-integer lambda_D power is tracked by parity instead of adjoining a
square root.  Three families are supported: framed links (framed braid
words), classical links (plain braid words) and singular links (words
with tau letters).

A word without framing letters takes a value that depends on D only
through |D| (Chlouveraki, Juyumaya, Karvounis and Lambropoulou,
"Identifying the invariants for classical knots and links from the
Yokonuma-Hecke algebras", 2015; singular words follow by linearity, since
p_i = (g_i^2 - 1)/(u - 1)).  So ``invariant`` traces such a word in
Y_{|D|,n} at D' = Z/|D|Z, and only framed words go to Y_{d,n} at the
request's own d; the value keeps the request's d and D.  The constants of a
request are built once per process: the per-d constants of the letter rules
(``algebra``), the solution of each (d, D) (``esystem.build_solution``),
lambda_D and the powers L^k of L = |D| z + 1 - u.

The value at formal z is written straight from the kernel value (den, T)
that ``Tracer.trace`` gives, with no RatFunc built before the last step,
where den is divided in.  With h = eps - (n-1), half = h mod 2,
f = (h - half)/2, m = |D| and T the trace times den, a Laurent polynomial
in z and u:

* f >= 0: the value is the Laurent polynomial L^f T / (m^f u^f z^(f+n-1)),
  written over the monic monomial u^a z^b that clears its negative
  exponents (``scalars.laurent_ratfunc``);
* f = -k < 0: with S = m^k u^k z^(k-n+1) T the value is S / L^k.  If S is
  a polynomial and k synthetic divisions in z by L leave no remainder, it
  is the quotient, over 1.  Otherwise it is (-1)^k S u^a z^b over
  (-1)^k L^k u^a z^b: the graded-lex lead of L^k is (-u)^k, so the
  denominator has leading coefficient 1, and L is not cancelled in part;
* a zero trace gives the zero value.

This is the normal form that ``RatFunc`` arithmetic gives the product
z^-(n-1) lambda_D^f T (monomial cancellation, exact division by the whole
denominator, leading denominator coefficient 1), term for term.

``jones`` and ``framed_jones`` take the value at z0 = -1/((u+1)|D|), where
lambda_D(z0) = u (Goundaroulis, Juyumaya, Kontogeorgis and Lambropoulou,
"Framization of the Temperley-Lieb algebra", 2013).  The trace at formal z
is tr = sum_{j<n} c_j z^j with each c_j a Laurent polynomial in u, so with
w = 1/z0 = -(u+1)|D| and h = eps - (n-1) the value is

    u^{floor(h/2)} sum_j c_j w^{n-1-j}    (times sqrt(u) when h is odd),

one Horner pass over c_0, c_1, ..., c_{n-1}.  It is a Laurent polynomial in
u, reached with no rational substitution and no division; the integer
power of u goes in through ``HalfPowerValue``.  Such a request still runs
through ``invariant``, which maps and traces every request in one place and
lets the request finish the value.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import map_to_algebra
from .braids import BraidWord, framing, sigma, tau
from .esystem import build_solution
from .scalars import RATFUNC_ZERO, Cyclotomic, HalfPowerValue, RatFunc, U, Z, laurent_ratfunc
from .trace import Tracer

FAMILIES = ("framed", "classical", "singular")

# The trace strips one strand per recursion level, and one crossing on n
# strands costs about n^3.7 at d = 1: 64 strands take ~0.8 s, 100 ~10 s and
# 200 ~2 min (2 vCPU, Python 3.11).  A braid on more strands is refused
# rather than left to exhaust the stack or run for minutes.
MAX_STRANDS = 64
# The value holds L^k T for k = |eps - n + 1| // 2 (see the module
# docstring), so its size grows with k^2: the largest allowed word, s1^82
# (k = 40), gives 4,303 terms in ~0.08 s (2 vCPU, Python 3.11).  A larger k
# is refused before any work.
MAX_LAMBDA_EXPONENT = 40

_ALLOWED_KINDS = {
    "framed": ("classical", "framed"),
    "classical": ("classical",),
    "singular": ("classical", "singular"),
}


# 528 pairs (d, |D|) with |D| <= d <= MAX_MODULUS = 32 exist.
@functools.lru_cache(maxsize=528)
def lambda_d(d: int, sizeD: int) -> RatFunc:
    """(|D| z + 1 - u) / (|D| u z); the d = 1 case is the Homflypt lambda."""
    if sizeD < 1:
        raise ValueError("|D| must be >= 1")
    m = RatFunc.const(sizeD)
    return (m * Z + 1 - U) / (m * U * Z)


# 128 keys (|D|, k): tier-1 uses 21 and invariant_mix 9, and k <=
# MAX_LAMBDA_EXPONENT keeps one entry at most 861 terms.
@functools.lru_cache(maxsize=128)
def _l_power(sizeD: int, k: int) -> dict:
    """L^k for L = |D| z + 1 - u, the numerator of |D| u z lambda_D, as
    {(z exponent, (), u exponent): int} by the trinomial theorem."""
    return {(i, (), j): math.comb(k, i) * math.comb(k - i, j) * sizeD ** i * (-1) ** j
            for i in range(k + 1) for j in range(k + 1 - i)}


def _add(out: dict, key, v) -> None:
    """out[key] += v, keeping no zero entry."""
    s = out.get(key, 0) + v
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _divided_by_l(S: dict, sizeD: int, k: int) -> dict | None:
    """S / L^k for a polynomial S = {(j, (), e): c}, by k synthetic
    divisions in z; None if L^k does not divide S, at once when S has
    z-degree below k."""
    cols: list[dict] = [{} for _ in range(max(j for j, _, _ in S) + 1)]
    if len(cols) <= k:
        return None
    for (j, _, e), c in S.items():
        cols[j][e] = c
    for _ in range(k):
        quot = []
        for j in range(len(cols) - 1, 0, -1):
            q = cols[j] if sizeD == 1 else {
                e: c / sizeD if type(c) is Cyclotomic else Fraction(c, sizeD)
                for e, c in cols[j].items()}
            low = cols[j - 1] = dict(cols[j - 1])
            for e, c in q.items():  # low -= q (1 - u)
                _add(low, e, -c)
                _add(low, e + 1, c)
            quot.append(q)
        if cols[0]:
            return None
        cols = quot[::-1]
    return {(j, (), e): c for j, col in enumerate(cols) for e, c in col.items()}


@dataclass(frozen=True)
class InvariantRequest:
    """What to evaluate: a braid, a family and the solution subset."""

    braid: BraidWord
    family: str
    d: int
    D: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.braid.kind not in _ALLOWED_KINDS[self.family]:
            raise ValueError(
                f"a {self.braid.kind} word does not define a {self.family} link")
        if self.braid.n > MAX_STRANDS:
            raise ValueError(f"a braid on {self.braid.n} strands exceeds the "
                             f"budget of {MAX_STRANDS} strands")
        k = abs(self.braid.epsilon() - self.braid.n + 1) // 2
        if k > MAX_LAMBDA_EXPONENT:
            raise ValueError(f"lambda exponent {k} exceeds the budget of "
                             f"{MAX_LAMBDA_EXPONENT}")

    def _finish(self, den: int, T: dict, size: int) -> HalfPowerValue:
        """The value from the trace T / den at formal z, T = {(z exponent, (),
        u exponent): c} as ``Tracer.trace`` gives it: z^-(n-1) lambda_D^(h/2)
        T / den, written in its normal form (see the module docstring)."""
        n, m = self.braid.n, size
        h = self.braid.epsilon() - (n - 1)
        half = h % 2
        f = (h - half) // 2
        base = lambda_d(m, m)
        if not T:
            return HalfPowerValue(RATFUNC_ZERO, half, base)
        if f >= 0:  # L^f T / (m^f u^f z^(f+n-1))
            out: dict = {}
            for (lz, _, lu), c in _l_power(m, f).items():
                for (tz, _, tu), v in T.items():
                    _add(out, (lz + tz - f - n + 1, (), lu + tu - f), c * v)
            return HalfPowerValue(laurent_ratfunc(out, den * m ** f), half, base)
        k = -f  # S / L^k with S = m^k u^k z^(k-n+1) T
        mk, dz = m ** k, k - n + 1
        S = {(tz + dz, (), tu + k): v * mk for (tz, _, tu), v in T.items()}
        if all(sz >= 0 and su >= 0 for sz, _, su in S):
            quot = _divided_by_l(S, m, k)
            if quot is not None:
                return HalfPowerValue(laurent_ratfunc(quot, den), half, base)
        over = _l_power(m, k)
        if k % 2:  # the graded-lex lead of L^k is (-u)^k
            S = {key: -v for key, v in S.items()}
            over = {key: -c for key, c in over.items()}
        return HalfPowerValue(laurent_ratfunc(S, den, over), half, base)


@dataclass(frozen=True)
class _JonesPoint(InvariantRequest):
    """A request valued at z0 = -1/((u+1)|D|), where lambda_D(z0) = u."""

    def _finish(self, den: int, T: dict, size: int) -> HalfPowerValue:
        """u^(h/2) sum_j c_j w^(n-1-j) for the trace T / den = sum_j c_j z^j
        and w = 1/z0 = -(u+1)|D|, by Horner from c_0 up (see the module
        docstring)."""
        n = self.braid.n
        coeffs: list[dict] = [{} for _ in range(n)]
        for (tz, _, tu), c in T.items():
            coeffs[tz][(0, (), tu)] = c
        acc: dict = {}
        for c in coeffs:  # acc = acc w + c, w = -size - size u
            nxt = c
            for (_, _, e), v in acc.items():
                v = -size * v
                _add(nxt, (0, (), e), v)
                _add(nxt, (0, (), e + 1), v)
            acc = nxt
        return HalfPowerValue(laurent_ratfunc(acc, den), self.braid.epsilon() - (n - 1), U)


@dataclass(frozen=True, eq=False)
class InvariantValue:
    value: HalfPowerValue
    family: str
    d: int
    D: tuple[int, ...]
    n: int
    epsilon: int

    def _meta(self):
        return (self.family, self.d, self.D)

    def __eq__(self, other):
        if not isinstance(other, InvariantValue):
            return NotImplemented
        if self._meta() != other._meta():
            raise ValueError("values with different (family, d, D) are not comparable")
        return self.value == other.value

    def render(self) -> str:
        return self.value.render()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "D": list(self.D),
            "n": self.n,
            "epsilon": self.epsilon,
            "value": self.value.render(),
        }


def invariant(req: InvariantRequest) -> InvariantValue:
    sol = build_solution(req.d, req.D)
    size = sol.size()
    # without framing letters the value sees D only through |D|, so the word
    # is traced in Y_{|D|,n} at D' = Z/|D|Z (see the module docstring)
    at = sol if req.braid.kind == "framed" else build_solution(size, range(size))
    den, T = Tracer(at.d, at.x[1:]).trace(map_to_algebra(req.braid, at.d))
    return InvariantValue(req._finish(den, T, size), req.family, req.d, sol.D,
                          req.braid.n, req.braid.epsilon())


def homflypt(b: BraidWord) -> InvariantValue:
    return invariant(InvariantRequest(b, "classical", 1, (0,)))


def jones(b: BraidWord) -> InvariantValue:
    """Homflypt at z = -1/(u+1), read off the trace polynomial
    tr = sum_j c_j z^j as u^(h/2) sum_j c_j w^(n-1-j) with w = -(u+1) and
    h = eps - (n-1), since lambda(-1/(u+1)) = u."""
    return invariant(_JonesPoint(b, "classical", 1, (0,)))


def framed_jones(b: BraidWord, d: int, D) -> InvariantValue:
    """The framed invariant at z = -1/((u+1)|D|), |D| read off the built
    solution: lambda_D there is u, and with w = -(u+1)|D| the value is
    u^(h/2) sum_j c_j w^(n-1-j) for the trace polynomial sum_j c_j z^j."""
    return invariant(_JonesPoint(b, "framed", d, tuple(D)))


# -- skein relations ---------------------------------------------------------


def _append(base: BraidWord, letters) -> BraidWord:
    return base.concat(BraidWord(letters, n=base.n))


def verify_skein(kind: str, base: BraidWord, i: int, d: int, D) -> bool:
    """Exact check of one local skein relation at position i over a base word.

    kind "framed": sqrt(lam) F(L-) = (1/sqrt(lam)) F(L+)
        + ((u^-1 - 1)/d) sum_s F(L_s) + ((u^-1 - 1)/(d sqrt(lam))) sum_s F(L_sx);
    kind "cubic": sqrt(lam) F(L-) = -(1/(u lam)) F(L++)
        + (1/sqrt(lam)) F(L+) + (1/u) F(L0);
    kind "singular": sqrt(lam) F(L-) - (1/sqrt(lam)) F(L+)
        = ((u^-1 - 1)/sqrt(lam)) F(Lx).
    """
    if not 1 <= i <= base.n - 1:
        raise ValueError(f"position {i} invalid on {base.n} strands")
    family = {"framed": "framed", "cubic": "classical", "singular": "singular"}.get(kind)
    if family is None:
        raise ValueError(f"unknown skein kind {kind!r}")

    def value(b):
        return invariant(InvariantRequest(b, family, d, tuple(D)))

    minus = value(_append(base, [sigma(i, -1)]))
    plus = value(_append(base, [sigma(i)]))
    lhs = minus.value.times_half_steps(1)
    if kind == "framed":
        c = (U ** -1 - 1) * RatFunc.const(Fraction(1, d))
        rhs = plus.value.times_half_steps(-1)
        for s in range(d):
            twist = [framing(i, s), framing(i + 1, d - s)]
            rhs = rhs + value(_append(base, twist)).value.scale(c)
            rhs = rhs + value(_append(base, twist + [sigma(i)])) \
                .value.scale(c).times_half_steps(-1)
        return lhs == rhs
    if kind == "cubic":
        double = value(_append(base, [sigma(i), sigma(i)]))
        rhs = double.value.scale(-(U ** -1)).times_half_steps(-2)
        rhs = rhs + plus.value.times_half_steps(-1)
        rhs = rhs + value(base).value.scale(U ** -1)
        return lhs == rhs
    cross = value(_append(base, [tau(i)]))
    rhs = cross.value.scale(U ** -1 - 1).times_half_steps(-1)
    return lhs - plus.value.times_half_steps(-1) == rhs


def compare_links(a: BraidWord, b: BraidWord, family: str, d: int, D) -> bool:
    """True iff the two closures get exactly equal invariant values."""
    subset = tuple(D)
    return invariant(InvariantRequest(a, family, d, subset)) == \
        invariant(InvariantRequest(b, family, d, subset))
