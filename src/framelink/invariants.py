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
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import map_to_algebra
from .braids import BraidWord, framing, sigma, tau
from .esystem import build_solution
from .scalars import HalfPowerValue, RatFunc, U, Z
from .trace import Tracer, specialized_params

FAMILIES = ("framed", "classical", "singular")

# The trace strips one strand per recursion level, and one crossing on n
# strands costs about n^3.7 at d = 1: 64 strands take ~0.8 s, 100 ~10 s and
# 200 ~2 min (2 vCPU, Python 3.11).  A braid on more strands is refused
# rather than left to exhaust the stack or run for minutes.
MAX_STRANDS = 64

_ALLOWED_KINDS = {
    "framed": ("classical", "framed"),
    "classical": ("classical",),
    "singular": ("classical", "singular"),
}


def lambda_d(d: int, sizeD: int) -> RatFunc:
    """(|D| z + 1 - u) / (|D| u z); the d = 1 case is the Homflypt lambda."""
    if sizeD < 1:
        raise ValueError("|D| must be >= 1")
    m = RatFunc.const(sizeD)
    return (m * Z + 1 - U) / (m * U * Z)


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
    image = map_to_algebra(req.braid, req.d)
    t = Tracer(specialized_params(sol)).trace(image)
    n, eps = req.braid.n, req.braid.epsilon()
    lam = lambda_d(req.d, sol.size())
    val = HalfPowerValue(t * Z ** (-(n - 1)), eps - (n - 1), lam)
    return InvariantValue(val, req.family, req.d, sol.D, n, eps)


def homflypt(b: BraidWord) -> InvariantValue:
    return invariant(InvariantRequest(b, "classical", 1, (0,)))


def jones(b: BraidWord) -> InvariantValue:
    """Homflypt at z = -1/(u+1)."""
    val = invariant(InvariantRequest(b, "classical", 1, (0,)))
    zval = RatFunc.const(-1) / (U + 1)
    return replace(val, value=val.value.substitute({"z": zval}))


def framed_jones(b: BraidWord, d: int, D) -> InvariantValue:
    """The framed invariant at z = -1/((u+1)|D|), |D| read off the built solution."""
    val = invariant(InvariantRequest(b, "framed", d, tuple(D)))
    zval = RatFunc.const(-1) / ((U + 1) * RatFunc.const(len(val.D)))
    return replace(val, value=val.value.substitute({"z": zval}))


# -- skein relations ---------------------------------------------------------


def _append(base: BraidWord, letters, kind: str) -> BraidWord:
    return base.concat(BraidWord(letters, n=base.n, kind=kind))


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

    minus = value(_append(base, [sigma(i, -1)], "classical"))
    plus = value(_append(base, [sigma(i)], "classical"))
    lhs = minus.value.times_half_steps(1)
    if kind == "framed":
        c = (U ** -1 - 1) * RatFunc.const(Fraction(1, d))
        rhs = plus.value.times_half_steps(-1)
        for s in range(d):
            twist = [framing(i, s), framing(i + 1, d - s)]
            rhs = rhs + value(_append(base, twist, "framed")).value.scale(c)
            rhs = rhs + value(_append(base, twist + [sigma(i)], "framed")) \
                .value.scale(c).times_half_steps(-1)
        return lhs == rhs
    if kind == "cubic":
        double = value(_append(base, [sigma(i), sigma(i)], "classical"))
        rhs = double.value.scale(-(U ** -1)).times_half_steps(-2)
        rhs = rhs + plus.value.times_half_steps(-1)
        rhs = rhs + value(base).value.scale(U ** -1)
        return lhs == rhs
    cross = value(_append(base, [tau(i)], "singular"))
    rhs = cross.value.scale(U ** -1 - 1).times_half_steps(-1)
    return lhs - plus.value.times_half_steps(-1) == rhs


def compare_links(a: BraidWord, b: BraidWord, family: str, d: int, D) -> bool:
    """True iff the two closures get exactly equal invariant values."""
    subset = tuple(D)
    return invariant(InvariantRequest(a, family, d, subset)) == \
        invariant(InvariantRequest(b, family, d, subset))
