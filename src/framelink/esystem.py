"""E-system solutions parametrized by non-empty subsets of Z/dZ.

The constraints on the framing trace parameters x_1..x_{d-1} (with x_0 = 1)
are E^{(m)} = x_m E, where E^{(m)} = (1/d) sum_s x_{m+s} x_{d-s} and
E = E^{(0)}.  Every solution is the average of a character set,
x_m = (1/|D|) sum_{k in D} zeta_d^{km}, and conversely.  By Fourier
inversion x is the solution of D exactly when its transform
y_k = sum_m x_m zeta_d^{-km} is (d/|D|) 1_D, so D is the support of y and
distinct subsets give distinct x.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .scalars import Cyclotomic, RatFunc


def _lift(values: Sequence) -> list:
    """Coerce a mixed vector into a single arithmetic domain.

    Any RatFunc entry promotes the whole vector to RatFunc; otherwise
    entries live in the cyclotomic field, rationals as Fractions.
    """
    if any(isinstance(v, RatFunc) for v in values):
        return [RatFunc.const(v) for v in values]
    return [v if isinstance(v, Cyclotomic) else Fraction(v) for v in values]


@dataclass(frozen=True)
class ESolution:
    """One subset-parametrized solution: x_m = (1/|D|) sum_{k in D} zeta_d^{km}."""

    d: int
    D: tuple[int, ...]
    x: tuple[Fraction | Cyclotomic, ...]

    def size(self) -> int:
        return len(self.D)


@dataclass(frozen=True)
class FourierData:
    y: tuple
    support: tuple[int, ...]


MAX_MODULUS = 32  # verify --what relations --d 32 takes ~14 s (2 vCPU)


def check_modulus(d: int) -> None:
    """Z/dZ needs d >= 1, and d stays within the budget MAX_MODULUS."""
    if d < 1:
        raise ValueError(f"modulus d must be >= 1, got {d}")
    if d > MAX_MODULUS:
        raise ValueError(f"modulus d = {d} exceeds the budget of d <= {MAX_MODULUS}")


def build_solution(d: int, D) -> ESolution:
    check_modulus(d)
    subset = tuple(sorted(k % d for k in D))
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset has repeated residues")
    inv = Fraction(1, len(subset))
    x = []
    for m in range(d):
        acc = Fraction(0)
        for k in subset:
            acc = acc + Cyclotomic.root_of_unity(d, (k * m) % d)
        x.append(acc * inv)
    sol = ESolution(d, subset, tuple(x))
    bad = [r for r in esystem_residual(sol.x) if r != 0]
    if bad:
        raise AssertionError(f"subset average failed the E-system: {bad}")
    return sol


def esystem_residual(x: Sequence):
    """The vector E^{(m)} - x_m E for m = 1..d-1; identically zero on solutions."""
    d = len(x)
    vals = _lift(x)
    inv_d = Fraction(1, d)

    def e_m(m: int):
        acc = vals[(m % d)] * 0
        for s in range(d):
            acc = acc + vals[(m + s) % d] * vals[(d - s) % d]
        return acc * inv_d

    e0 = e_m(0)
    return tuple(e_m(m) - vals[m] * e0 for m in range(1, d))


MAX_ENUMERATE_D = 8  # see enumerate_solutions


def enumerate_solutions(d: int) -> list[ESolution]:
    """All 2^d - 1 subset solutions, by size and then lexicographically.

    Distinct subsets give distinct x (see the module docstring), so each
    subset is built once and nothing is compared.  d = 8 takes ~0.6-0.9 s,
    d = 10 ~6-10 s and d = 11 ~100 s (2 vCPU, Python 3.11); d above the
    budget MAX_ENUMERATE_D = 8 is refused with ValueError rather than left
    to run for minutes; build_solution still takes a single subset at any d.
    """
    check_modulus(d)
    if d > MAX_ENUMERATE_D:
        raise ValueError(f"enumerating the 2^{d} - 1 subsets of Z/{d}Z exceeds "
                         f"the budget of d <= {MAX_ENUMERATE_D}")
    return [build_solution(d, subset) for size in range(1, d + 1)
            for subset in combinations(range(d), size)]


def _dft(values: Sequence, sign: int) -> list:
    """sum_m v_m zeta_d^{sign k m} for k = 0..d-1, in the domain of the values."""
    d = len(values)
    vals = _lift(values)
    out = []
    for k in range(d):
        acc = vals[0] * 0
        for m in range(d):
            acc = acc + vals[m] * Cyclotomic.root_of_unity(d, (sign * k * m) % d)
        out.append(acc)
    return out


def fourier_transform(x: Sequence) -> FourierData:
    """y_k = sum_m x_m zeta_d^{-km}; support is where y is nonzero."""
    y = tuple(_dft(x, -1))
    return FourierData(y, tuple(k for k, v in enumerate(y) if v != 0))


def inverse_fourier(y: Sequence) -> tuple:
    """x_m = (1/d) sum_k y_k zeta_d^{km}; inverts fourier_transform."""
    inv_d = Fraction(1, len(y))
    return tuple(v * inv_d for v in _dft(y, 1))


def e_d_value(sol: ESolution) -> Fraction:
    """tr_D(e_i) = 1/|D|."""
    return Fraction(1, sol.size())
