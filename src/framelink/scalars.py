"""Exact scalar arithmetic for the whole engine.

Four layers, none of which ever touches floating point:

* ``Cyclotomic`` -- irrational elements of Q(zeta_m) as coefficient vectors
  modulo the m-th cyclotomic polynomial, with ``fractions.Fraction`` entries.
  A rational number is a plain ``Fraction``: a result whose irrational part
  vanishes comes back as one, however it was produced.
* ``Poly`` -- sparse multivariate polynomials with ``Fraction`` or
  ``Cyclotomic`` coefficients, keyed by exponent tuples.  The variable order
  is fixed (u, z, x1, x2, ..., then anything else alphabetically) and
  rendering is graded lexicographic, so output is deterministic.
* ``RatFunc`` -- quotients of polynomials.  Equality is decided by
  cross-multiplication, so correctness never depends on cancellation; light
  normalization keeps representations small.  A common monomial factor is
  cancelled and a constant denominator folded in.  A monomial denominator
  (the usual u^k z^j) is then in lowest terms and is only scaled to leading
  coefficient 1; a longer one gets exact division when it succeeds, else a
  univariate gcd.  Substitution builds one numerator and one denominator
  from the powers of each value and normalizes once.
* ``HalfPowerValue`` -- r * L^(h/2) for a fixed rational function L and
  h in {0, 1}; integer powers of L are always folded into r.

The algebra, the trace and the invariants' last step do not use these
types: they compute in an integer kernel of their own (Laurent polynomials
in u, and in z and x, over one integer denominator), and ``laurent_ratfunc``
is the one way from that kernel to a ``RatFunc``, built already normalized
(over a monomial, or over a polynomial that the caller vouches for).
``RatFunc`` arithmetic runs where a division happens: lambda_D itself, the
z and x values substituted into a trace value, the one witness value a
failing quotient check prints, parsing and ``HalfPowerValue``.  The quotient
layer decides without it: its one zero test reduces integer polynomials
in u and zeta_M modulo Phi_M by ``_reduce``, and its elimination
is fraction-free over Z[u, u^-1], with an integer gcd.

A normalized ``RatFunc`` with a constant denominator holds the shared
``_POLY_ONE``, so products and sums of polynomials skip normalization by an
identity test.  ``Cyclotomic`` and ``Poly`` arithmetic builds its results
through ``_make``, which trusts its input but keeps the canonical form: no
stored zero ``Poly`` coefficient, and a ``Fraction`` for a value with zero
irrational part.  The public constructors validate outside input before
they call it; ``_rational`` turns an ``int`` coefficient into a ``Fraction``
and refuses any other type, a float, str or bool among them, for the
``Cyclotomic`` constructor and, through ``_as_coeff``, for ``Poly``.

One power routine, ``_power``, serves every type (algebra elements too);
one reduction modulo Phi_m, ``_reduce``, serves every ``Cyclotomic`` and
the quotient layer's zero test; on dense coefficient lists, ``_uni_mul`` is
the one product and ``_uni_divmod`` the one Euclid (``Cyclotomic.inverse``
and the univariate gcd);
Z[x] has one exact division, ``_zx_divexact``, which builds the cyclotomic
polynomials (their coefficients are ints) and divides out the quotient
layer's content gcd; and ``RatFunc.const`` is the one coercion to ``RatFunc``.

``parse_ratfunc`` reads back what ``RatFunc.render`` emits (and a bit
more: whitespace, explicit ``+``/``-`` chains, ``zeta<m>`` tokens with
m <= ``MAX_ZETA``) while the top exponents of a numerator and denominator,
and of each monomial's variables, add up to at most ``MAX_EXPONENT``.  One
parse's powers of multi-term bases may add at most ``MAX_EXPONENT`` to the
degree in all; a rendered value raises no multi-term base to a power.
"""
from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

# ---------------------------------------------------------------------------
# univariate helpers over coefficient lists (ascending; Fraction or Cyclotomic)
# ---------------------------------------------------------------------------


def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _uni_trim(out)


def _uni_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _uni_trim(out)


def _uni_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quot[k] = c
        for i, bi in enumerate(b):
            rem[k + i] -= c * bi
        _uni_trim(rem)
        if not rem:
            break
    return _uni_trim(quot), rem


def _zx_divexact(c: list[int], g: list[int]) -> list[int]:
    """c / g in Z[x], for a g that divides c in Z[x]: the one exact division
    of integer coefficient lists."""
    rem, top = list(c), len(g) - 1
    quot = [0] * (len(c) - top)
    for k in range(len(quot) - 1, -1, -1):  # an inexact step leaves rem[k + top]
        quot[k] = q = rem[k + top] // g[-1]
        for i, v in enumerate(g):
            rem[k + i] -= q * v
    if any(rem):
        raise AssertionError("inexact division in Z[x]")
    return quot


def _power(base, e: int, one):
    """base^e for e >= 0 by repeated squaring; one is the unit of base's ring."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:  # the square after the top bit would go unused
            base = base * base
    return out


# The largest conductor whose Phi is built, so of every Cyclotomic value
# and lcm.  Phi_m costs ~m^2 steps to build, and Phi_30030 would take about
# a minute; the lcm of two moduli d <= 32, at most 992, is the largest the
# engine forms itself.
MAX_ZETA = 1024


# Keyed on conductors: tier-1 fills 72 keys in one process, the workloads at
# most 3 (warm-up + 3,000 requests, 600 for cli_cache, seeds 911-913); 256
# is over 3x the largest, and an evicted polynomial is only rebuilt.
@functools.lru_cache(maxsize=256)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Monic ascending integer coefficients of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 exactly in Z[x] by the cyclotomic
    polynomials of the proper divisors of m; cached.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    if m > MAX_ZETA:
        raise ValueError(f"zeta{m} exceeds the budget of zeta{MAX_ZETA}")
    num = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            num = _zx_divexact(num, cyclotomic_polynomial(e))
    return tuple(num)


def _reduce(m: int, vec: list) -> list:
    """The one reduction modulo Phi_m: vec, the ascending int or Fraction
    coefficients of a polynomial in w, becomes its remainder mod Phi_m(w) in
    place, exactly deg(Phi_m) entries (int 0s pad a short vec); returns it."""
    phi = cyclotomic_polynomial(m)  # monic, integral
    deg = len(phi) - 1
    vec += [0] * (deg - len(vec))
    for j in range(len(vec) - 1, deg - 1, -1):
        c = vec[j]
        if c:  # w^j -= w^(j-deg) Phi_m(w)
            for i, p in zip(range(j - deg, j), phi):
                if p:
                    vec[i] -= c * p
    del vec[deg:]
    return vec


class Cyclotomic:
    """An irrational element of Q(zeta_m), m the conductor.

    Rational values are plain ``Fraction``s: the builder returns one
    whenever the irrational part vanishes.  The operators take ``int`` and
    ``Fraction`` operands directly, so mixed arithmetic with a Fraction on
    the left goes through the reflected operators.
    """

    __slots__ = ("m", "c")

    def __new__(cls, m: int, coeffs: Iterable[Fraction]):
        coeffs = tuple(map(_rational, coeffs))
        deg = len(cyclotomic_polynomial(m)) - 1
        if len(coeffs) != deg:
            raise ValueError(f"conductor {m} needs {deg} coefficients, got {len(coeffs)}")
        return Cyclotomic._make(m, coeffs)

    @staticmethod
    def _make(m: int, coeffs: tuple[Fraction, ...]) -> "Fraction | Cyclotomic":
        """The builder behind the constructor and the arithmetic: coeffs is a
        Fraction tuple of the right length; a value with zero irrational part
        is returned as its Fraction."""
        if not any(coeffs[1:]):
            return coeffs[0]
        out = object.__new__(Cyclotomic)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "c", coeffs)
        return out

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "Fraction | Cyclotomic":
        """zeta_m^k."""
        cyclotomic_polynomial(m)  # refuses m before the vector below is built
        return Cyclotomic(m, _reduce(m, [0] * (k % m) + [1]))

    # -- structure ----------------------------------------------------------

    def _coeffs_at(self, m2: int) -> tuple[Fraction, ...]:
        """Raw coefficient vector of this value embedded in Q(zeta_m2)."""
        if m2 == self.m:
            return self.c
        if m2 % self.m:
            raise ValueError(f"no embedding of conductor {self.m} into {m2}")
        k, vec = m2 // self.m, [Fraction(0)] * m2  # zeta_m = w^k, w = zeta_m2
        vec[: len(self.c) * k : k] = self.c
        return tuple(_reduce(m2, vec))

    def _pair(self, other: "Cyclotomic"):
        if self.m == other.m:
            return self.m, self.c, other.c
        m = math.lcm(self.m, other.m)
        return m, self._coeffs_at(m), other._coeffs_at(m)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            m, ca, cb = self._pair(other)
            return Cyclotomic._make(m, tuple(x + y for x, y in zip(ca, cb)))
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._make(self.m, (self.c[0] + other,) + self.c[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._make(self.m, tuple(-x for x in self.c))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._make(self.m, tuple(x * other for x in self.c))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        m, ca, cb = self._pair(other)
        return Cyclotomic._make(m, tuple(_reduce(m, _uni_mul(ca, cb))))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        # extended Euclid: maintain r_i = s_i*self (mod Phi); Phi irreducible,
        # so the last nonzero remainder is a constant.  Of two consecutive
        # remainders one is all Fraction, so no division is int / int
        r0, r1 = list(cyclotomic_polynomial(self.m)), _uni_trim(list(self.c))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _uni_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _uni_sub(s0, _uni_mul(q, s1))
        if len(r0) != 1:
            raise AssertionError("cyclotomic polynomial split unexpectedly")
        return Cyclotomic(self.m, _reduce(self.m, [x / r0[0] for x in s0]))

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, Fraction(1))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            _, ca, cb = self._pair(other)
            return ca == cb
        if isinstance(other, (int, Fraction)):
            return False  # a Cyclotomic is never rational
        return NotImplemented

    def __hash__(self):
        # Equal values can have different conductors (zeta6^2 == zeta3), and
        # a hash that agrees with __eq__ would need each value's least
        # conductor.  Nothing hashes Cyclotomics on a hot path, so all of
        # them share one hash; a Cyclotomic never equals a rational.
        return hash(Cyclotomic)

    def render(self) -> str:
        parts = []
        for j, cj in enumerate(self.c):
            if not cj:
                continue
            if j == 0:
                parts.append(str(cj))
            else:
                head = "" if cj == 1 else ("-" if cj == -1 else f"{cj}*")
                power = f"zeta{self.m}" if j == 1 else f"zeta{self.m}^{j}"
                parts.append(head + power)
        return " + ".join(parts).replace("+ -", "- ")

    __str__ = render

    def __repr__(self):
        return f"Cyclotomic({self.render()})"


Coeff = Union[Fraction, Cyclotomic]


def _rational(c) -> Fraction:
    """A rational coefficient from public input: a Fraction, or an int as one."""
    if type(c) is Fraction:
        return c
    if type(c) is int:
        return Fraction(c)
    raise TypeError(f"cannot use {c!r} as an exact coefficient")


def _as_coeff(c) -> Coeff:
    """A Poly coefficient from public input: a Cyclotomic, or by ``_rational``."""
    if type(c) is Fraction or type(c) is Cyclotomic:
        return c
    return _rational(c)


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

Mono = tuple[tuple[str, int], ...]  # ((var, exp), ...) sorted by variable rank
_MONO_ONE: Mono = ()


# One key per variable name, and parse_ratfunc takes any identifier: tier-1
# fills 6, the workloads 2 (warm-up + 3,000 requests, 600 for cli_cache,
# seeds 911-913); 64 is over 4x the largest.
@functools.lru_cache(maxsize=64)
def _var_rank(name: str):
    if name == "u":
        return (0, 0, "")
    if name == "z":
        return (1, 0, "")
    if name.startswith("x") and name[1:].isdigit():
        return (2, int(name[1:]), "")
    return (3, 0, name)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged: dict[str, int] = {}
    for v, e in a:
        merged[v] = merged.get(v, 0) + e
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e),
                        key=lambda t: _var_rank(t[0])))


def _mono_key(mono: Mono):
    """Sort key: ascending key order = graded-lex descending monomials."""
    return (-sum(e for _, e in mono),
            tuple((_var_rank(v), -e) for v, e in mono))


def _mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b as a monomial, or None if not divisible."""
    da = dict(a)
    for v, e in b:
        r = da.get(v, 0) - e
        if r < 0:
            return None
        if r:
            da[v] = r
        else:
            da.pop(v, None)
    return tuple(sorted(da.items(), key=lambda t: _var_rank(t[0])))


def _mono_render(mono: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Sparse multivariate polynomial over cyclotomic rationals."""

    __slots__ = ("terms",)

    def __new__(cls, terms: Mapping[Mono, Coeff] | None = None):
        coerced = ((m, _as_coeff(c)) for m, c in (terms or {}).items())
        return Poly._make({m: c for m, c in coerced if c})

    @staticmethod
    def _make(terms: dict[Mono, Coeff]) -> "Poly":
        """The builder behind the constructor and the arithmetic: terms must
        hold no zero coefficient."""
        out = object.__new__(Poly)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_MONO_ONE: c})

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("polynomial variables need nonnegative exponents")
        if exp == 0:
            return Poly.const(1)
        return Poly._make({((name, exp),): Fraction(1)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONO_ONE in self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[_MONO_ONE]

    def variables(self) -> set[str]:
        return {v for mono in self.terms for v, _ in mono}

    def leading(self) -> tuple[Mono, Coeff]:
        mono = min(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                s = prev + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly._make(out)

    def __neg__(self) -> "Poly":
        return Poly._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, Cyclotomic)):
            k = _as_coeff(other)
            if not k:
                return _POLY_ZERO
            return Poly._make({m: c * k for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return _POLY_ZERO
        out: dict[Mono, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                prev = out.get(m)
                s = c if prev is None else prev + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly._make(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        return _power(self, e, _POLY_ONE)

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """self / divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _POLY_ZERO
        dm, dc = divisor.leading()
        quot: dict[Mono, Coeff] = {}
        rem = self
        while not rem.is_zero():
            rm, rc = rem.leading()
            qm = _mono_div(rm, dm)
            if qm is None:
                return None
            qc = rc / dc
            quot[qm] = qc
            rem = rem - divisor * Poly({qm: qc})
        return Poly(quot)

    def degree_in(self, var: str) -> int:
        return max((dict(m).get(var, 0) for m in self.terms), default=0)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            mstr = _mono_render(mono)
            if type(c) is Fraction:
                sign = "-" if c < 0 else "+"
                mag = abs(c)
                body = (str(mag) if not mstr
                        else (mstr if mag == 1 else f"{mag}*{mstr}"))
            else:
                sign = "+"
                body = f"({c.render()})" + (f"*{mstr}" if mstr else "")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self.render()})"


_POLY_ZERO = Poly()
_POLY_ONE = Poly.const(1)


def _mono_content(p: Poly) -> dict[str, int]:
    """Largest monomial dividing every term of p."""
    it = iter(p.terms)
    try:
        first = dict(next(it))
    except StopIteration:
        return {}
    for mono in it:
        d = dict(mono)
        for v in list(first):
            e = d.get(v, 0)
            if e < first[v]:
                if e:
                    first[v] = e
                else:
                    del first[v]
        if not first:
            break
    return first


def _poly_div_mono(p: Poly, mono: Mono) -> Poly:
    return Poly({_mono_div(m, mono): c for m, c in p.terms.items()})


def _uni_gcd(a: Sequence[Coeff], b: Sequence[Coeff]) -> list[Coeff]:
    """Monic gcd of two dense coefficient lists, not both zero, with Fraction
    or Cyclotomic entries: Euclid through ``_uni_divmod``."""
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    inv = 1 / a[-1]
    return [c * inv for c in a]


def _uni_poly_gcd(a: Poly, b: Poly, var: str) -> Poly:
    """Monic gcd of two nonzero univariate polynomials in ``var``."""
    g = _uni_gcd(*([p.terms.get(((var, k),) if k else _MONO_ONE, Fraction(0))
                    for k in range(p.degree_in(var) + 1)] for p in (a, b)))
    return Poly({((var, k),) if k else _MONO_ONE: c for k, c in enumerate(g)})


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

ScalarLike = Union[int, Fraction, Cyclotomic, "RatFunc"]


class RatFunc:
    """Quotient of two Polys; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = _POLY_ONE if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _POLY_ZERO, _POLY_ONE
        else:
            num, den = _ratfunc_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        if isinstance(c, RatFunc):
            return c
        return RatFunc(Poly.const(c))

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc(Poly.variable(name))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.const(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.const(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.const(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.const(other)
        if self.is_zero() or other.is_zero():
            return RATFUNC_ZERO
        if self.den is _POLY_ONE:
            den = other.den
        elif other.den is _POLY_ONE:
            den = self.den
        else:
            den = self.den * other.den
        return RatFunc(self.num * other.num, den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> "RatFunc":
        return self * RatFunc.const(other).inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.const(other) * self.inverse()

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, RATFUNC_ONE)

    # -- substitution -------------------------------------------------------

    def substitute(self, mapping: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Simultaneously substitute rational functions for variables."""
        own = self.variables()
        relevant = {v: RatFunc.const(val) for v, val in mapping.items() if v in own}
        if not relevant:
            return self
        num, num_den = _poly_substitute(self.num, relevant)
        den, den_den = _poly_substitute(self.den, relevant)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes the denominator identically zero")
        return RatFunc(num * den_den, num_den * den)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def render(self) -> str:
        if self.den == _POLY_ONE:
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num.terms) > 1:
            num = f"({num})"
        # a bare monomial denominator is safe only when it is one variable
        # power: "p/u^2" parses back correctly, "p/u*z" would not
        den_monos = list(self.den.terms)
        if len(den_monos) > 1 or len(den_monos[0]) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _ratfunc_normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if den is _POLY_ONE:
        return num, den
    # cancel a common monomial factor
    cn, cd = _mono_content(num), _mono_content(den)
    common = {v: min(e, cd[v]) for v, e in cn.items() if v in cd}
    if common:
        mono = tuple(sorted(common.items(), key=lambda t: _var_rank(t[0])))
        num, den = _poly_div_mono(num, mono), _poly_div_mono(den, mono)
    # constant denominator folds in
    if den.is_constant():
        k = den.constant_value()
        if k != 1:
            num = num * (1 / k)
        return num, _POLY_ONE
    # a monomial denominator is now in lowest terms: every variable it holds
    # is missing from some term of num.  Otherwise try exact division, then a
    # univariate gcd when both sides live in one variable.
    if len(den.terms) > 1:
        q = num.exact_div(den)
        if q is not None:
            return q, _POLY_ONE
        vs = num.variables() | den.variables()
        if len(vs) == 1:
            var = next(iter(vs))
            g = _uni_poly_gcd(num, den, var)
            if g.degree_in(var) > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
    # normalize the leading denominator coefficient to 1
    _, lead = den.leading()
    if lead != 1:
        inv = 1 / lead
        num, den = num * inv, den * inv
    return num, den


def _poly_substitute(p: Poly, mapping: Mapping[str, "RatFunc"]) -> tuple[Poly, Poly]:
    """p with the values substituted, as an unnormalized (numerator, denominator).

    A variable v of degree top in p puts den_v^top into the denominator, and
    a term holding v^e gets num_v^e * den_v^(top-e).  The powers of each value
    are built once; terms that agree in the substituted exponents are summed
    before they are multiplied out.
    """
    tops = {v: t for v in mapping if (t := p.degree_in(v))}
    if not tops:
        return p, _POLY_ONE
    factors: dict[str, list[Poly]] = {}
    den = _POLY_ONE
    for v, top in tops.items():
        val = mapping[v]
        nums, dens = [_POLY_ONE], [_POLY_ONE]
        for _ in range(top):
            nums.append(nums[-1] * val.num)
            dens.append(dens[-1] * val.den)
        factors[v] = [nums[e] * dens[top - e] for e in range(top + 1)]
        den = den * dens[top]
    groups: dict[tuple[int, ...], dict[Mono, Coeff]] = {}
    for mono, c in p.terms.items():
        exps = dict(mono)
        key = tuple(exps.get(v, 0) for v in tops)
        rest = tuple((v, e) for v, e in mono if v not in tops)
        groups.setdefault(key, {})[rest] = c
    out: dict[Mono, Coeff] = {}
    for key, rest in groups.items():
        factor = _POLY_ONE
        for v, e in zip(tops, key):
            factor = factor * factors[v][e]
        for m, c in (Poly(rest) * factor).terms.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return Poly(out), den


def laurent_ratfunc(terms: Mapping[tuple[int, tuple[int, ...], int], Coeff],
                    den: int = 1, over=None) -> RatFunc:
    """sum c z^j x_1^k_1 ... x_{d-1}^k_{d-1} u^e / den over the terms
    {(j, (k_1, ..., k_{d-1}), e): c} with no zero c, j and e of either sign:
    the one way from the integer kernel of the algebra, the trace and the
    invariants to a RatFunc.  The result is built normalized: u^a z^b, for a and b the
    negated least u and z exponents floored at 0, is the whole denominator,
    and den divides into the coefficients.

    ``over``, in the same keys with exponents >= 0 and int coefficients, is
    a polynomial that the value is also divided by; the denominator is then
    over * u^a z^b.  The caller vouches that this is the normal form: over
    has a nonzero constant term and graded-lex leading coefficient 1, and
    it does not divide the numerator."""
    low_z = low_u = 0
    for j, _, e in terms:
        if j < low_z:
            low_z = j
        if e < low_u:
            low_u = e
    num = {_kernel_mono(j - low_z, ks, e - low_u):
           c / den if type(c) is Cyclotomic else Fraction(c, den)
           for (j, ks, e), c in terms.items()}
    if over is not None:
        den_terms = {_kernel_mono(j - low_z, ks, e - low_u): Fraction(c)
                     for (j, ks, e), c in over.items()}
    elif low_z or low_u:
        den_terms = {_kernel_mono(-low_z, (), -low_u): Fraction(1)}
    else:
        den_terms = None
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", Poly._make(num))
    object.__setattr__(out, "den", Poly._make(den_terms) if den_terms else _POLY_ONE)
    return out


def _kernel_mono(j: int, ks: tuple[int, ...], e: int) -> Mono:
    """The monomial u^e z^j x_1^k_1 ... of nonnegative exponents."""
    return (((("u", e),) if e else ()) + ((("z", j),) if j else ())
            + tuple((f"x{m}", k) for m, k in enumerate(ks, 1) if k))


RATFUNC_ZERO = RatFunc(_POLY_ZERO)
RATFUNC_ONE = RatFunc(_POLY_ONE)
U = RatFunc.var("u")
Z = RatFunc.var("z")


def x_var(m: int) -> RatFunc:
    """The formal trace parameter x_m."""
    if m < 1:
        raise ValueError("x_0 is the constant 1, not a variable")
    return RatFunc.var(f"x{m}")


# ---------------------------------------------------------------------------
# half-integer powers of a fixed rational function
# ---------------------------------------------------------------------------


class HalfPowerValue:
    """value * base^(half/2) with half in {0, 1}.

    Integer powers of the base are folded into ``value`` on construction, so
    two results are comparable by (value, half) alone; ``base`` records which
    rational function the square root refers to.
    """

    __slots__ = ("value", "half", "base")

    def __init__(self, value: RatFunc, half_steps: int, base: RatFunc):
        half = half_steps % 2
        fold = (half_steps - half) // 2
        if fold:
            value = value * base ** fold
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "base", base)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("HalfPowerValue is immutable")

    def times_half_steps(self, steps: int) -> "HalfPowerValue":
        """Multiply by base^(steps/2)."""
        return HalfPowerValue(self.value, self.half + steps, self.base)

    def scale(self, c: ScalarLike) -> "HalfPowerValue":
        return HalfPowerValue(self.value * c, self.half, self.base)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __add__(self, other: "HalfPowerValue") -> "HalfPowerValue":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.half != other.half:
            raise ValueError("cannot add values with different half-power parity")
        if not (self.base == other.base):
            raise ValueError("cannot add values over different half-power bases")
        return HalfPowerValue(self.value + other.value, self.half, self.base)

    def __sub__(self, other: "HalfPowerValue") -> "HalfPowerValue":
        return self + HalfPowerValue(-other.value, other.half, other.base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfPowerValue):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.half == other.half and self.value == other.value
                and self.base == other.base)

    def substitute(self, mapping: Mapping[str, RatFunc]) -> "HalfPowerValue":
        return HalfPowerValue(self.value.substitute(mapping), self.half,
                              self.base.substitute(mapping))

    def render(self) -> str:
        text = self.value.render()
        if self.half == 0:
            return text
        # "p/q" binds tighter than " * ", a sum of terms does not
        if self.value.den == _POLY_ONE and len(self.value.num.terms) > 1:
            text = f"({text})"
        return f"{text} * sqrt(lambda_D)"

    def __repr__(self):
        return f"HalfPowerValue({self.render()})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# The largest exponent a parsed operation may build, over 4x the u^122 of
# the Jones value of s1^82, and the most degree that one parse's powers of
# multi-term bases may add in all; (u+1)^512 takes ~0.4 s, and ~4x more per
# doubling, so (u+1)^512*(u+1)^512, or a sum of copies of ((u+1)^512*0),
# is refused after its first power, ~0.4 s.
MAX_EXPONENT = 512


# One scalar token: an int, a name (u, z, x1, zeta12, ...) or an operator;
# whitespace between tokens is skipped, and any other character is refused.
_SCALAR_TOKEN = re.compile(r"(\d+|[^\W\d]\w*|[-+*/^()])|(\S)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for tok, bad in _SCALAR_TOKEN.findall(text):
        if bad:
            raise ValueError(f"unexpected character {bad!r} in scalar expression")
        tokens.append(tok)
    return tokens


def _top(value: RatFunc) -> int:
    """The largest exponent in value's numerator and denominator."""
    return max((k for q in (value.num, value.den) for m in q.terms for _, k in m), default=0)


def _bounded(top: int) -> None:
    """Refuse with one line an operation whose exponents may reach top."""
    if top > MAX_EXPONENT:
        raise ValueError(f"^{top} exceeds the budget of ^{MAX_EXPONENT}")


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.built = 0  # degree added by the powers of multi-term bases so far

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            # a sum of fractions cross-multiplies, one of polynomials does not
            cross = not (value.den.is_constant() and rhs.den.is_constant())
            _bounded(_top(value) + _top(rhs) if cross else max(_top(value), _top(rhs)))
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RatFunc:
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            _bounded(_top(value) + _top(rhs))
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            return -self.parse_factor()
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            e = int(tok)
            _bounded(e * max(1, _top(base)))
            if len(base.num.terms) > 1 or len(base.den.terms) > 1:
                # a power of a monomial is cheap; this one adds (e - 1) top(base)
                self.built += max(e - 1, 0) * _top(base)
                _bounded(self.built)
            return base ** (-e if neg else e)
        return base

    def parse_atom(self) -> RatFunc:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in scalar expression")
            return inner
        if tok.isdigit():
            return RatFunc.const(int(tok))
        if tok.startswith("zeta") and tok[4:].isdigit():
            m = int(tok[4:])
            if m > MAX_ZETA:  # refused before any Phi is asked for
                raise ValueError(f"zeta{m} exceeds the budget of zeta{MAX_ZETA}")
            return RatFunc.const(Cyclotomic.root_of_unity(m))
        if tok.isidentifier():
            return RatFunc.var(tok)
        raise ValueError(f"unexpected token {tok!r} in scalar expression")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse the format ``RatFunc.render`` emits (plus harmless extensions)."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in scalar expression: {parser.tokens[parser.pos:]}")
    return value
