"""The framed braiding algebra Y_{d,n}(u) in split normal form.

Elements are Q(u)-linear combinations of basis words t_1^{a_1}...t_n^{a_n} g_w
with framing exponents a_j in Z/dZ and w in S_n.  The defining relations are
the braid relations for the g_i, commuting framings of order d with
t_j g_i = g_i t_{s_i(j)}, and the quadratic relation

    g_i^2 = 1 + (u - 1) e_i + (u - 1) e_i g_i,
    e_i = (1/d) sum_s t_i^s t_{i+1}^{d-s},

so d = 1 is the Iwahori-Hecke algebra with h_i^2 = (u - 1) h_i + u.

Multiplication keeps everything in normal form, one generator at a time on
the right (Juyumaya, "Markov trace on the Yokonuma-Hecke algebra", 2004).
For a word t^a g_x and a letter at position i, write x' = x s_i and
e' = (1/d) sum_s t_{x(i)}^s t_{x(i+1)}^{-s}; since x' swaps x(i) and x(i+1),
one set of framings serves both perms, and e' commutes with t^a.  Then
t^a g_x times

* g_i is t^a g_{x'} on an ascent (l(x') > l(x)), and
  t^a (g_{x'} + (u-1) e' g_{x'} + (u-1) e' g_x) on a descent;
* g_i^{-1} is t^a g_{x'} on a descent, and
  t^a (g_{x'} + (u^{-1}-1) e' g_x + (u^{-1}-1) e' g_{x'}) on an ascent;
* p_i = e_i (1 + g_i) is c t^a e' (g_x + g_{x'}), with c = 1 on an ascent
  and c = u on a descent;
* t_j^k adds k to the framing of strand x(j).

Coefficients.  In this basis every coefficient of a braid's image is a
Laurent polynomial in u with integer coefficients, divided by a power of d.
So a coefficient is a dict {u exponent: nonzero int}, and an element holds
one positive integer denominator ``den`` shared by all its terms.  A letter
step that produces e' terms drops the 1/d from e', multiplies ``den`` by d
and multiplies that step's lead terms g_{x'} by d; a p_i step has no lead
term.  The factors u - 1, u^{-1} - 1 and u are exponent shifts, so a braid
image has den = d^L, L its steps with e' terms, and den stays 1 at d = 1.

_times_letter applies these rules; the word products behind __mul__, the
braid-word map and basis_walk all go through it.  Word-by-word products are
cached independently of any trace parameters.  At the boundary,
``from_word(coeff=)`` and ``scale`` take an int, a Fraction or a RatFunc in u
whose denominator is a monomial, and ``coeff`` gives a term back as a RatFunc.

Left products.  The defining relations read the same backwards, so the map
iota that fixes every g_i and t_j and reverses products is an
anti-involution of Y_{d,n}(u).  It sends t^a g_x to g_{x^-1} t^a =
t^(a o x) g_{x^-1}, with (a o x)_j = a_{x(j)}: a bijection on basis words
that keeps every coefficient (_anti).  So a left product by one letter,
w r = iota(iota(r) w), is one letter step between two relabellings, with
no second product rule.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator

from . import braids, perms
from .scalars import Poly, RatFunc, U, _power, laurent_ratfunc

BasisWord = tuple[tuple[int, ...], perms.Perm]  # (framings, permutation)
Laurent = dict[int, int]  # u exponent -> nonzero integer coefficient

_ONE: Laurent = {0: 1}
# Per letter kind: (has the lead term g_{x'}, d times the constant of
# e' (g_x + g_{x'}) on an ascent, the same on a descent), None where that
# rule has no e' terms.
_STEP_COEFFS = {"g": (True, None, {1: 1, 0: -1}),       # u - 1
                "g-1": (True, {-1: 1, 0: -1}, None),    # u^-1 - 1
                "p": (False, _ONE, {1: 1})}             # 1, u
# The running count of image terms that map_to_algebra allows one word: the
# letter steps of a word cost about this count times 2d, so a word over the
# budget is refused after ~4 s (2 vCPU, Python 3.11).  The largest counts
# reached are 46,713 by the long framed word ("-s1 s2 -s3 s4 -s5 s1 -s2 s3
# -s4 s5" twice plus t1 t2 on 6 strands, d = 3), 4,045 by `verify --what
# markov --d 6`, 3,285 by tier-1, and 104 / 0 / 26 by invariant_mix /
# quotient_grid / cli_cache (warm-up + 600 requests); 200,000 is over 4x the
# largest.
MAX_IMAGE_TERMS = 200_000


def _lmul(a: Laurent, b: Laurent) -> Laurent:
    """The product of two Laurent polynomials; a one-term b is a shift."""
    if len(b) == 1:
        (eb, vb), = b.items()
        return {e + eb: v * vb for e, v in a.items()}
    out: Laurent = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            s = out.get(e, 0) + va * vb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _bump(out: dict, key, c: Laurent, k: int = 1) -> None:
    """out[key] += k c, dropping zero entries.  The first contribution to a
    key is copied, so c itself is never changed."""
    prev = out.get(key)
    if prev is None:
        out[key] = dict(c) if k == 1 else {e: v * k for e, v in c.items()}
        return
    for e, v in c.items():
        s = prev.get(e, 0) + v * k
        if s:
            prev[e] = s
        else:
            del prev[e]


def _from_scalar(c) -> tuple[Laurent, int]:
    """(Laurent numerator, positive denominator) of a boundary coefficient:
    an int, a Fraction, or a RatFunc in u whose denominator is a monomial."""
    if isinstance(c, RatFunc) and c.variables() <= {"u"} and len(c.den.terms) == 1:
        (dmono, dcoef), = c.den.terms.items()
        shift = dmono[0][1] if dmono else 0
        coeffs = [(mono[0][1] if mono else 0, v / dcoef) for mono, v in c.num.terms.items()]
        if all(type(v) is Fraction for _, v in coeffs):
            den = math.lcm(*(v.denominator for _, v in coeffs))
            return {e - shift: int(v * den) for e, v in coeffs}, den
    elif isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        c = Fraction(c)
        return ({0: c.numerator} if c else {}), c.denominator
    raise ValueError(f"an algebra coefficient is a Laurent polynomial in u over Q "
                     f"divided by an integer, not {c!r}")


def _times_letter(terms: dict[BasisWord, Laurent], den: int, d: int,
                  letter) -> tuple[dict[BasisWord, Laurent], int]:
    """terms / den right-multiplied by the image of one braid letter (module
    docstring), as (terms, den) with zero terms dropped."""
    tag, i = letter[0], letter[1]
    if tag == "t":  # a bijection on words: nothing merges or cancels
        out = {}
        for (f, x), c in terms.items():
            fa = list(f)
            fa[x[i - 1] - 1] = (fa[x[i - 1] - 1] + letter[2]) % d
            out[(tuple(fa), x)] = c
        return out, den
    lead, on_ascent, on_descent = _STEP_COEFFS[
        "p" if tag == "x" else "g" if letter[2] > 0 else "g-1"]
    # the step divides by d when any of its words has e' terms
    scale = d if any((on_ascent if x[i - 1] < x[i] else on_descent) is not None
                     for _, x in terms) else 1
    out: dict[BasisWord, Laurent] = {}
    for (f, x), c in terms.items():
        xp = perms.right_mul_s(x, i)
        if lead:
            _bump(out, (f, xp), c, scale)
        k = on_ascent if x[i - 1] < x[i] else on_descent
        if k is None:
            continue
        ck = _lmul(c, k)
        a, b = x[i - 1] - 1, x[i] - 1
        for s in range(d):
            fs = list(f)
            fs[a] = (fs[a] + s) % d
            fs[b] = (fs[b] - s) % d
            fs = tuple(fs)
            _bump(out, (fs, xp), ck)
            _bump(out, (fs, x), ck)
    return {w: c for w, c in out.items() if c}, den * scale


def _anti(terms: dict[BasisWord, Laurent]) -> dict[BasisWord, Laurent]:
    """The anti-involution iota (module docstring) on terms: t^a g_x goes to
    t^(a o x) g_{x^-1}, and every coefficient stays as it is."""
    return {(tuple([f[j - 1] for j in x]), perms.inverse(x)): c for (f, x), c in terms.items()}


# Called from __mul__ and trace._strip only.  Tier-1 fills 3,555 keys in one
# process, quotient_grid 799, invariant_mix 68-75 and cli_cache 5 (warm-up +
# 600 requests, seeds 911-913); 16,384 is over 4x the largest, and an evicted
# product is only recomputed.
@functools.lru_cache(maxsize=16384)
def _word_product(d: int, v: perms.Perm, bf: tuple[int, ...], w: perms.Perm):
    """Normal form of g_v * (t^bf g_w) as (den, ((coeff, framings, perm), ...))."""
    inv_v = perms.inverse(v)
    pushed = tuple(bf[inv_v[j] - 1] for j in range(len(bf)))
    terms, den = {(pushed, v): _ONE}, 1
    for i in perms.reduced_word(w):
        terms, den = _times_letter(terms, den, d, ("s", i, 1))
    return den, tuple((c, f, p) for (f, p), c in terms.items())


class AlgebraElement:
    """A finite Q(u)-linear combination of split-basis words of Y_{d,n}(u):
    the Laurent coefficients in ``terms``, all divided by ``den``."""

    __slots__ = ("d", "n", "terms", "den")

    def __init__(self, d: int, n: int, terms: dict[BasisWord, Laurent] | None = None,
                 den: int = 1):
        if d < 1 or n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {w: c for w, c in (terms or {}).items() if c})
        object.__setattr__(self, "den", den)

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
    def from_word(d: int, n: int, framings, perm, coeff=1) -> "AlgebraElement":
        framings = tuple(a % d for a in framings)
        perm = tuple(perm)
        if len(framings) != n or len(perm) != n:
            raise ValueError("framings and permutation must have length n")
        c, den = _from_scalar(coeff)
        return AlgebraElement(d, n, {(framings, perm): c}, den)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word: BasisWord) -> RatFunc:
        """The coefficient of a basis word, as a RatFunc in u."""
        c = self.terms.get(word, {})
        return laurent_ratfunc({(0, (), e): v for e, v in c.items()}, self.den)

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
            for (f, p), c in self.terms.items()}, self.den)

    # -- linear operations --------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        den = math.lcm(self.den, other.den)
        out: dict[BasisWord, Laurent] = {}
        for elem in (self, other):
            k = den // elem.den
            for w, c in elem.terms.items():
                _bump(out, w, c, k)
        return AlgebraElement(self.d, self.n, out, den)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.d, self.n, {
            w: {e: -v for e, v in c.items()} for w, c in self.terms.items()}, self.den)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        k, kden = _from_scalar(c)
        return AlgebraElement(self.d, self.n, {
            w: _lmul(cw, k) for w, cw in self.terms.items()} if k else {}, self.den * kden)

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        d, n = self.d, self.n
        pairs = [(af, _lmul(ca, cb), _word_product(d, av, bf, bv))
                 for (af, av), ca in self.terms.items()
                 for (bf, bv), cb in other.terms.items()]
        top = math.lcm(*(den for _, _, (den, _) in pairs))
        out: dict[BasisWord, Laurent] = {}
        for af, c, (den, words) in pairs:
            for cc, f, p in words:
                frm = tuple((af[j] + f[j]) % d for j in range(n))
                _bump(out, (frm, p), _lmul(c, cc), top // den)
        return AlgebraElement(d, n, out, self.den * other.den * top)

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("use inverse_g for inverses of generators")
        return _power(self, e, AlgebraElement.unit(self.d, self.n))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self - other).is_zero()

    def sorted_terms(self):
        """Terms sorted by (framing vector, one-line permutation)."""
        return sorted(self.terms.items(), key=lambda t: t[0])

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, _ in self.sorted_terms():
            word = word_render(*w)
            cs = self.coeff(w).render()
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
    (elem * t^a g_{w'}) right-multiplied by g_i through _times_letter, for the
    last letter i of reduced_word(w) and w' = w s_i, which all_perms lists
    before w (s_i sorts a descent)."""
    d, n = elem.d, elem.n
    for frm, w in split_basis(d, n):
        word = perms.reduced_word(w)
        if word:
            prev = done[perms.right_mul_s(w, word[-1])]
            done[w] = AlgebraElement(d, n, *_times_letter(prev.terms, prev.den, d,
                                                          ("s", word[-1], 1)))
        else:  # the identity comes first in each framing block
            done = {w: elem * AlgebraElement.from_word(d, n, frm, w)}
        yield (frm, w), done[w]


# ---------------------------------------------------------------------------
# generators and named elements
# ---------------------------------------------------------------------------

def gen_g(d: int, n: int, i: int) -> AlgebraElement:
    """The braiding generator g_i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"g_{i} does not exist on {n} strands")
    return AlgebraElement.from_word(d, n, (0,) * n, perms.transposition(n, i))


def gen_t(d: int, n: int, j: int, k: int = 1) -> AlgebraElement:
    """The framing generator t_j^k (exponent reduced mod d)."""
    if not 1 <= j <= n:
        raise ValueError(f"t_{j} does not exist on {n} strands")
    frm = [0] * n
    frm[j - 1] = k % d
    return AlgebraElement.from_word(d, n, tuple(frm), perms.identity(n))


def idempotent_e(d: int, n: int, i: int) -> AlgebraElement:
    """e_i = (1/d) sum_s t_i^s t_{i+1}^{d-s}."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} does not exist on {n} strands")
    out: dict[BasisWord, Laurent] = {}
    ident = perms.identity(n)
    for s in range(d):
        frm = [0] * n
        frm[i - 1] = s
        frm[i] = (d - s) % d
        out[(tuple(frm), ident)] = _ONE
    return AlgebraElement(d, n, out, d)


def inverse_g(d: int, n: int, i: int) -> AlgebraElement:
    """g_i^{-1} = g_i + (u^{-1} - 1) e_i + (u^{-1} - 1) e_i g_i."""
    g = gen_g(d, n, i)
    e = idempotent_e(d, n, i)
    c = U ** -1 - 1
    return g + (e + e * g).scale(c)


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
        total: dict[BasisWord, Laurent] = {}
        ident = perms.identity(n)
        for exps in itertools.product(range(d), repeat=3):
            frm = [0] * n
            frm[i - 1], frm[i], frm[i + 1] = exps
            total[(tuple(frm), ident)] = _ONE
        return AlgebraElement(d, n, total) * st
    raise ValueError(f"unknown quotient kind {kind!r}")


# ---------------------------------------------------------------------------
# braid words into the algebra
# ---------------------------------------------------------------------------


def map_to_algebra(b: braids.BraidWord, d: int) -> AlgebraElement:
    """Monoid map on words: sigma_i -> g_i, sigma_i^{-1} -> g_i^{-1},
    t_j^k -> t_j^{k mod d}, tau_i -> p_i, applied one letter at a time from
    the unit on.  The image terms of all the steps count against
    MAX_IMAGE_TERMS."""
    terms, den, spent = {((0,) * b.n, perms.identity(b.n)): _ONE}, 1, 0
    for letter in b.letters:
        terms, den = _times_letter(terms, den, d, letter)
        spent += len(terms)
        if spent > MAX_IMAGE_TERMS:
            raise ValueError(f"the image of the braid word exceeds the budget of "
                             f"{MAX_IMAGE_TERMS} image terms")
    return AlgebraElement(d, b.n, terms, den)


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
