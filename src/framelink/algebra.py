"""The framed braiding algebra Y_{d,n}(u) in split normal form.

Elements are Q(u)-linear combinations of basis words t_1^{a_1}...t_n^{a_n} g_w
with framing exponents a_j in Z/dZ and w in S_n.  The defining relations are
the braid relations for the g_i, commuting framings of order d with
t_j g_i = g_i t_{s_i(j)}, and the quadratic relation

    g_i^2 = 1 + (u - 1) e_i + (u - 1) e_i g_i,
    e_i = (1/d) sum_s t_i^s t_{i+1}^{d-s},

so d = 1 is the Iwahori-Hecke algebra with h_i^2 = (u - 1) h_i + u.

Multiplication keeps everything in normal form: a product g_x g_i with
l(x s_i) < l(x) rewrites to g_{x s_i} + (u-1) g_{x s_i} e_i + (u-1) g_x e_i,
and the framings of e_i are transported to the left through g (replacing the
strand indices i, i+1 by their images), which follows from the defining
relations together with e_i g_i = g_i e_i.  Word-by-word products are cached
independently of any trace parameters.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator

from . import braids, perms
from .scalars import Poly, RatFunc, RATFUNC_ONE, U, _power

BasisWord = tuple[tuple[int, ...], perms.Perm]  # (framings, permutation)


@functools.lru_cache(maxsize=None)
def _quad_coeff(d: int) -> RatFunc:
    """(u - 1)/d, the coefficient of every e_i framing monomial in g_i^2."""
    return (U - 1) / RatFunc.const(d)


@functools.lru_cache(maxsize=None)
def _word_product(d: int, v: perms.Perm, bf: tuple[int, ...], w: perms.Perm):
    """Normal form of g_v * (t^bf g_w) as ((coeff, framings, perm), ...)."""
    inv_v = perms.inverse(v)
    pushed = tuple(bf[inv_v[j] - 1] for j in range(len(bf)))
    acc: dict[BasisWord, RatFunc] = {(pushed, v): RATFUNC_ONE}
    quad = _quad_coeff(d)
    for i in perms.reduced_word(w):
        out: dict[BasisWord, RatFunc] = {}
        for (f, x), c in acc.items():
            if perms.ascends(x, i):
                _bump(out, (f, perms.right_mul_s(x, i)), c)
                continue
            xp = perms.right_mul_s(x, i)
            _bump(out, (f, xp), c)
            cc = c * quad
            # strand labels carrying the transported e_i framings
            pa, pb = xp[i - 1], xp[i]   # x'(i), x'(i+1)
            qa, qb = x[i - 1], x[i]     # x(i), x(i+1)
            for s in range(d):
                fa = list(f)
                fa[pa - 1] = (fa[pa - 1] + s) % d
                fa[pb - 1] = (fa[pb - 1] + d - s) % d
                _bump(out, (tuple(fa), xp), cc)
                fb = list(f)
                fb[qa - 1] = (fb[qa - 1] + s) % d
                fb[qb - 1] = (fb[qb - 1] + d - s) % d
                _bump(out, (tuple(fb), x), cc)
        acc = out
    return tuple((c, f, p) for (f, p), c in acc.items() if not c.is_zero())


def _bump(out: dict, key, c: RatFunc) -> None:
    prev = out.get(key)
    out[key] = c if prev is None else prev + c


class AlgebraElement:
    """A finite Q(u)-linear combination of split-basis words of Y_{d,n}(u)."""

    __slots__ = ("d", "n", "terms")

    def __init__(self, d: int, n: int, terms: dict[BasisWord, RatFunc] | None = None):
        if d < 1 or n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {
            w: c for w, c in (terms or {}).items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(d: int, n: int) -> "AlgebraElement":
        return AlgebraElement(d, n)

    @staticmethod
    def unit(d: int, n: int) -> "AlgebraElement":
        return AlgebraElement.from_word(d, n, (0,) * n, perms.identity(n))

    @staticmethod
    def from_word(d: int, n: int, framings, perm, coeff: RatFunc = RATFUNC_ONE) -> "AlgebraElement":
        framings = tuple(a % d for a in framings)
        perm = tuple(perm)
        if len(framings) != n or len(perm) != n:
            raise ValueError("framings and permutation must have length n")
        return AlgebraElement(d, n, {(framings, perm): coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "AlgebraElement") -> None:
        if self.d != other.d or self.n != other.n:
            raise ValueError(
                f"mixed contexts: Y_{{{self.d},{self.n}}} vs Y_{{{other.d},{other.n}}}")

    def embed(self, n2: int) -> "AlgebraElement":
        """Extend to more strands by trivial framing and fixed points."""
        if n2 < self.n:
            raise ValueError("cannot embed into fewer strands")
        pad = n2 - self.n
        return AlgebraElement(self.d, n2, {
            (f + (0,) * pad, perms.embed(p, n2)): c
            for (f, p), c in self.terms.items()})

    # -- linear operations --------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _bump(out, w, c)
        return AlgebraElement(self.d, self.n, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.d, self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        c = RatFunc.const(c)
        if c.is_zero():
            return AlgebraElement.zero(self.d, self.n)
        return AlgebraElement(self.d, self.n, {w: c * cw for w, cw in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        d, n = self.d, self.n
        out: dict[BasisWord, RatFunc] = {}
        for (af, av), ca in self.terms.items():
            for (bf, bv), cb in other.terms.items():
                c = ca if cb is RATFUNC_ONE else (cb if ca is RATFUNC_ONE else ca * cb)
                for cc, f, p in _word_product(d, av, bf, bv):
                    frm = tuple((af[j] + f[j]) % d for j in range(n))
                    _bump(out, (frm, p), c if cc is RATFUNC_ONE else c * cc)
        return AlgebraElement(d, n, out)

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("use inverse_g for inverses of generators")
        return _power(self, e, AlgebraElement.unit(self.d, self.n))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    def sorted_terms(self):
        """Terms sorted by (framing vector, one-line permutation)."""
        return sorted(self.terms.items(), key=lambda t: t[0])

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (f, p), c in self.sorted_terms():
            word = word_render(f, p)
            cs = c.render()
            if cs == "1":
                parts.append(word)
            elif word == "1":
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            else:
                parts.append(f"({cs})*{word}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElement[d={self.d},n={self.n}]({self.render()})"


def word_render(framings: tuple[int, ...], perm: perms.Perm) -> str:
    parts = [f"t{j + 1}" if a == 1 else f"t{j + 1}^{a}"
             for j, a in enumerate(framings) if a]
    parts += [f"g{i}" for i in perms.reduced_word(perm)]
    return "*".join(parts) if parts else "1"


def split_basis(d: int, n: int) -> Iterator[BasisWord]:
    """All d^n * n! split-basis words in a deterministic order."""
    for frm in itertools.product(range(d), repeat=n):
        for p in perms.all_perms(n):
            yield (frm, p)


def basis_walk(elem: AlgebraElement) -> Iterator[tuple[BasisWord, AlgebraElement]]:
    """(c, elem * c) for every split-basis word c, in split_basis order: each
    framing block opens with elem * t^a, and elem * t^a g_w is
    (elem * t^a g_{w'}) * g_i for the last letter i of reduced_word(w) and
    w' = w s_i, which all_perms lists before w (s_i sorts a descent)."""
    d, n = elem.d, elem.n
    for frm, w in split_basis(d, n):
        word = perms.reduced_word(w)
        if word:
            done[w] = done[perms.right_mul_s(w, word[-1])] * gen_g(d, n, word[-1])
        else:  # the identity comes first in each framing block
            done = {w: elem * AlgebraElement.from_word(d, n, frm, w)}
        yield (frm, w), done[w]


# ---------------------------------------------------------------------------
# generators and named elements
# ---------------------------------------------------------------------------

# The generator images below are built once per process and shared, which is
# safe because AlgebraElement is immutable.  256 per builder is enough:
# tier-1 builds at most 125 images of one builder, invariant_mix 28.
_image_cache = functools.lru_cache(maxsize=256)


@_image_cache
def gen_g(d: int, n: int, i: int) -> AlgebraElement:
    """The braiding generator g_i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"g_{i} does not exist on {n} strands")
    return AlgebraElement.from_word(d, n, (0,) * n, perms.transposition(n, i))


@_image_cache
def gen_t(d: int, n: int, j: int, k: int = 1) -> AlgebraElement:
    """The framing generator t_j^k (exponent reduced mod d)."""
    if not 1 <= j <= n:
        raise ValueError(f"t_{j} does not exist on {n} strands")
    frm = [0] * n
    frm[j - 1] = k % d
    return AlgebraElement.from_word(d, n, tuple(frm), perms.identity(n))


@_image_cache
def idempotent_e(d: int, n: int, i: int) -> AlgebraElement:
    """e_i = (1/d) sum_s t_i^s t_{i+1}^{d-s}."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} does not exist on {n} strands")
    coeff = RatFunc.const(Fraction(1, d))
    out: dict[BasisWord, RatFunc] = {}
    ident = perms.identity(n)
    for s in range(d):
        frm = [0] * n
        frm[i - 1] = s
        frm[i] = (d - s) % d
        _bump(out, (tuple(frm), ident), coeff)
    return AlgebraElement(d, n, out)


@_image_cache
def inverse_g(d: int, n: int, i: int) -> AlgebraElement:
    """g_i^{-1} = g_i + (u^{-1} - 1) e_i + (u^{-1} - 1) e_i g_i."""
    g = gen_g(d, n, i)
    e = idempotent_e(d, n, i)
    c = U ** -1 - 1
    return g + (e + e * g).scale(c)


@_image_cache
def p_elem(d: int, n: int, i: int) -> AlgebraElement:
    """p_i = e_i (1 + g_i), the image of the singular generator tau_i."""
    e = idempotent_e(d, n, i)
    return e + e * gen_g(d, n, i)


def steinberg(d: int, n: int, i: int) -> AlgebraElement:
    """g_{i,i+1} = g_i g_{i+1} g_i + g_{i+1} g_i + g_i g_{i+1} + g_i + g_{i+1} + 1."""
    gi = gen_g(d, n, i)
    gi1 = gen_g(d, n, i + 1)
    return (gi * gi1 * gi + gi1 * gi + gi * gi1 + gi + gi1
            + AlgebraElement.unit(d, n))


def quotient_generator(kind: str, d: int, n: int, i: int) -> AlgebraElement:
    """The defining ideal generator of the ytl / ftl / ctl quotient at position i."""
    st = steinberg(d, n, i)
    if kind == "ytl":
        return st
    if kind == "ftl":
        return idempotent_e(d, n, i) * idempotent_e(d, n, i + 1) * st
    if kind == "ctl":
        total: dict[BasisWord, RatFunc] = {}
        ident = perms.identity(n)
        for exps in itertools.product(range(d), repeat=3):
            frm = [0] * n
            frm[i - 1], frm[i], frm[i + 1] = exps
            _bump(total, (tuple(frm), ident), RATFUNC_ONE)
        return AlgebraElement(d, n, total) * st
    raise ValueError(f"unknown quotient kind {kind!r}")


# ---------------------------------------------------------------------------
# braid words into the algebra
# ---------------------------------------------------------------------------


def map_to_algebra(b: braids.BraidWord, d: int) -> AlgebraElement:
    """Monoid map on words: sigma_i -> g_i, sigma_i^{-1} -> g_i^{-1},
    t_j^k -> t_j^{k mod d}, tau_i -> p_i."""
    n = b.n
    out = AlgebraElement.unit(d, n)
    for letter in b.letters:
        if letter[0] == "s":
            factor = gen_g(d, n, letter[1]) if letter[2] > 0 else inverse_g(d, n, letter[1])
        elif letter[0] == "t":
            factor = gen_t(d, n, letter[1], letter[2])
        else:
            factor = p_elem(d, n, letter[1])
        out = out * factor
    return out


# ---------------------------------------------------------------------------
# named relation checks
# ---------------------------------------------------------------------------


def verify_relation(name: str, d: int) -> bool:
    """Exact check of a named identity; algebra identities run in Y_{d,3}(u)
    (distant commutations in Y_{d,4}(u)), polynomial identities over Q."""
    if name == "cubic":
        out = True
        for i in (1, 2):
            g = gen_g(d, 3, i)
            lhs = g * g * g
            rhs = (g * g).scale(U) + g - AlgebraElement.unit(d, 3).scale(U)
            out = out and lhs == rhs
        return out
    if name == "cubic_factorization":
        x = Poly.variable("x")
        u = Poly.variable("u")
        one = Poly.const(1)
        lhs = (x - one) * (x * x - (u - one) * x - u)
        rhs = x ** 3 - u * x ** 2 - x + u
        return lhs == rhs
    if name == "gipi":
        out = True
        for i in (1, 2):
            lhs = inverse_g(d, 3, i) - gen_g(d, 3, i)
            rhs = p_elem(d, 3, i).scale(U ** -1 - 1)
            out = out and lhs == rhs
        return out
    if name == "quadratic_p":
        out = True
        for i in (1, 2):
            g = gen_g(d, 3, i)
            rhs = AlgebraElement.unit(d, 3) + p_elem(d, 3, i).scale(U - 1)
            out = out and g * g == rhs
        return out
    if name == "eta_relations":
        ok = True
        # adjacent relations on three strands
        for i, j in ((1, 2), (2, 1)):
            gi, gj = gen_g(d, 3, i), gen_g(d, 3, j)
            pi, pj = p_elem(d, 3, i), p_elem(d, 3, j)
            ok = ok and gi * pi == pi * gi
            ok = ok and gi * gj * pi == pj * gi * gj
        # distant commutations need four strands
        g1, p1 = gen_g(d, 4, 1), p_elem(d, 4, 1)
        g3, p3 = gen_g(d, 4, 3), p_elem(d, 4, 3)
        ok = ok and g1 * p3 == p3 * g1
        ok = ok and g3 * p1 == p1 * g3
        ok = ok and p1 * p3 == p3 * p1
        return ok
    if name == "bmw_quintic_factorization":
        x = Poly.variable("x")
        m = Poly.variable("m")
        one = Poly.const(1)
        lhs = (x * x + m * x - one) * (x * x + m - one)
        rhs = (x ** 4 + m * x ** 3 + (m - Poly.const(2)) * x ** 2
               + m * (m - one) * x - (m - one))
        return lhs == rhs
    raise ValueError(f"unknown relation name {name!r}")
