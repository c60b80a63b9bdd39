"""Split-form normal form and the defining relations of Y_{d,n}(u)."""
from __future__ import annotations

import random

import pytest

from framelink import perms
from framelink.algebra import (
    AlgebraElement,
    _anti,
    _times_letter,
    basis_walk,
    gen_g,
    gen_t,
    idempotent_e,
    inverse_g,
    map_to_algebra,
    p_elem,
    quotient_generator,
    split_basis,
    steinberg,
    verify_relation,
)
from framelink.braids import BraidWord, parse_braid
from framelink.scalars import Cyclotomic, Fraction, RatFunc, U, Z
from helpers import random_element, random_laurent_element

DS = (1, 2, 3)


# -- defining relations -----------------------------------------------------


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_braid_relations(d, n):
    for i in range(1, n):
        for j in range(1, n):
            gi, gj = gen_g(d, n, i), gen_g(d, n, j)
            if abs(i - j) > 1:
                assert gi * gj == gj * gi
            elif abs(i - j) == 1:
                assert gi * gj * gi == gj * gi * gj


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_framing_relations(d, n):
    unit = AlgebraElement.unit(d, n)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            tj, tk = gen_t(d, n, j), gen_t(d, n, k)
            assert tj * tk == tk * tj
        assert gen_t(d, n, j) ** d == unit
    # t_j g_i = g_i t_{s_i(j)}
    for i in range(1, n):
        gi = gen_g(d, n, i)
        for j in range(1, n + 1):
            sj = j if j not in (i, i + 1) else (i + 1 if j == i else i)
            assert gen_t(d, n, j) * gi == gi * gen_t(d, n, sj)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_quadratic_relation(d, n):
    for i in range(1, n):
        g = gen_g(d, n, i)
        e = idempotent_e(d, n, i)
        rhs = AlgebraElement.unit(d, n) + e.scale(U - 1) + (e * g).scale(U - 1)
        assert g * g == rhs


@pytest.mark.parametrize("d", DS)
def test_inverse_formula_and_unit(d):
    for n in (2, 3):
        for i in range(1, n):
            g = gen_g(d, n, i)
            gi = inverse_g(d, n, i)
            assert g * gi == AlgebraElement.unit(d, n)
            assert gi * g == AlgebraElement.unit(d, n)


def test_hecke_reduction_at_d1():
    # d = 1: h^2 = (u-1) h + u
    g = gen_g(1, 2, 1)
    sq = g * g
    rhs = g.scale(U - 1) + AlgebraElement.unit(1, 2).scale(U)
    assert sq == rhs


# -- normal-form examples ---------------------------------------------------


def test_quadratic_normal_form_term_counts():
    # after merging the s=0 framing monomial with the unit word the normal
    # form of g_1^2 has exactly 2d distinct words, the off-unit ones with
    # coefficient (u-1)/d
    for d in DS:
        sq = gen_g(d, 2, 1) * gen_g(d, 2, 1)
        assert len(sq.terms) == 2 * d
        coeff = (U - 1) / RatFunc.const(d)
        unit_word = ((0,) * 2, perms.identity(2))
        assert sq.coeff(unit_word) == RatFunc.const(1) + coeff
        for w in sq.terms:
            if w != unit_word:
                assert sq.coeff(w) == coeff


def test_inverse_g_normal_form_d2():
    # expanding g^{-1} = g + (u^{-1}-1) e + (u^{-1}-1) e g at d = 2 merges
    # the two g-words: four distinct split words remain
    inv = inverse_g(2, 2, 1)
    assert len(inv.terms) == 4
    s1 = perms.transposition(2, 1)
    c = U ** -1 - 1
    half = RatFunc.const(Fraction(1, 2))
    assert inv.coeff(((0, 0), s1)) == RatFunc.const(1) + half * c
    assert inv.coeff(((1, 1), s1)) == half * c
    assert inv.coeff(((0, 0), perms.identity(2))) == half * c
    assert inv.coeff(((1, 1), perms.identity(2))) == half * c


def test_idempotent_relations():
    # e_i is an idempotent commuting with g_i; at d = 2, e_1 = (1 + t1 t2)/2
    for d in DS:
        e = idempotent_e(d, 3, 1)
        g = gen_g(d, 3, 1)
        assert e * e == e
        assert e * g == g * e
    e2 = idempotent_e(2, 2, 1)
    expected = (AlgebraElement.unit(2, 2)
                + AlgebraElement.from_word(2, 2, (1, 1), perms.identity(2))).scale(
                    RatFunc.const(Fraction(1, 2)))
    assert e2 == expected


def test_shifted_idempotent():
    # e_i^{(k)} = (1/d) sum_s t_i^{k+s} t_{i+1}^{-s} equals t_i^k e_i
    for d in (2, 3):
        for k in range(d):
            lhs = AlgebraElement.zero(d, 3)
            for s in range(d):
                lhs = lhs + AlgebraElement.from_word(
                    d, 3, ((k + s) % d, -s % d, 0), perms.identity(3))
            lhs = lhs.scale(RatFunc.const(Fraction(1, d)))
            rhs = gen_t(d, 3, 1, k) * idempotent_e(d, 3, 1)
            assert lhs == rhs


def test_associativity_random():
    rng = random.Random(5)
    for d in DS:
        for n in (2, 3):
            for _ in range(8):
                a = random_element(rng, d, n)
                b = random_element(rng, d, n)
                c = random_element(rng, d, n)
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("field", ("terms", "d", "n"))
def test_elements_are_immutable(field):
    e = AlgebraElement.unit(2, 2)
    with pytest.raises(AttributeError):
        setattr(e, field, getattr(e, field))
    assert e == AlgebraElement.unit(2, 2)


def test_split_basis_size_and_determinism():
    words = list(split_basis(2, 3))
    assert len(words) == 2 ** 3 * 6
    assert words == list(split_basis(2, 3))
    assert len(set(words)) == len(words)


def _direct(elem, word):
    return elem * AlgebraElement.from_word(elem.d, elem.n, *word)


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("kind", ("ytl", "ftl", "ctl"))
def test_basis_walk_matches_direct_products(kind, d):
    gen = quotient_generator(kind, d, 3, 1)
    assert list(basis_walk(gen)) == [(w, _direct(gen, w)) for w in split_basis(d, 3)]


def test_basis_walk_matches_direct_products_d3_sample():
    # the whole word sequence, and a seeded sample of its products, for each
    # quotient generator and for a random element of Y_{3,3}(u)
    rng = random.Random(7301)
    elems = [quotient_generator(kind, 3, 3, 1) for kind in ("ytl", "ftl", "ctl")]
    elems.append(random_element(rng, 3, 3, nwords=4))
    words = list(split_basis(3, 3))
    for elem in elems:
        walked = list(basis_walk(elem))
        assert [w for w, _ in walked] == words
        for k in rng.sample(range(len(words)), 20):
            assert walked[k][1] == _direct(elem, words[k]), words[k]


# -- named relations --------------------------------------------------------


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("name", ["cubic", "gipi", "quadratic_p", "eta_relations"])
def test_named_algebra_relations(name, d):
    assert verify_relation(name, d)


def test_named_polynomial_identities():
    assert verify_relation("cubic_factorization", 1)
    assert verify_relation("bmw_quintic_factorization", 1)


def test_unknown_relation_name():
    with pytest.raises(ValueError):
        verify_relation("quartic", 2)


# -- quotient generators ----------------------------------------------------


def test_steinberg_term_count_d1():
    st = steinberg(1, 3, 1)
    assert len(st.terms) == 6
    assert quotient_generator("ytl", 1, 3, 1) == st


def test_ftl_generator_matches_product_form():
    for d in (1, 2):
        r = quotient_generator("ftl", d, 3, 1)
        manual = idempotent_e(d, 3, 1) * idempotent_e(d, 3, 2) * steinberg(d, 3, 1)
        assert r == manual
        if d == 1:
            assert r == steinberg(1, 3, 1)


def test_ctl_generator_collapses_at_d1():
    assert quotient_generator("ctl", 1, 3, 1) == steinberg(1, 3, 1)


# -- braid word images ------------------------------------------------------


def test_map_positive_and_negative_letters():
    b = parse_braid("s1 -s1")
    assert map_to_algebra(b, 2) == AlgebraElement.unit(2, 2)
    b2 = parse_braid("t1^3")
    assert map_to_algebra(b2, 2) == gen_t(2, 1, 1, 3)


def test_framing_reduction_mod_d():
    for d in (2, 3):
        full = map_to_algebra(parse_braid(f"n=2 t1^{d + 1}"), d)
        red = map_to_algebra(parse_braid("n=2 t1"), d)
        assert full == red


def test_singular_letter_maps_to_p():
    b = parse_braid("x1")
    assert map_to_algebra(b, 2) == p_elem(2, 2, 1)


def test_embed_is_multiplicative():
    rng = random.Random(9)
    for d in (1, 2):
        a = random_element(rng, d, 2)
        b = random_element(rng, d, 2)
        assert (a * b).embed(3) == a.embed(3) * b.embed(3)


# -- the per-letter rules, against products of the generator images ----------


def _image(d, n, letter):
    if letter[0] == "s":
        return gen_g(d, n, letter[1]) if letter[2] > 0 else inverse_g(d, n, letter[1])
    if letter[0] == "t":
        return gen_t(d, n, letter[1], letter[2])
    return p_elem(d, n, letter[1])


def _letters(n, d):
    """Every letter on n strands: sigma_i^{+-1} and tau_i at each position, and
    t_j^k with k = 1, d + 1 (reduced mod d) and -1 at each strand."""
    out = [(tag, i, e) for i in range(1, n) for tag, e in (("s", 1), ("s", -1))]
    out += [("x", i) for i in range(1, n)]
    out += [("t", j, k) for j in range(1, n + 1) for k in (1, d + 1, -1)]
    return out


@pytest.mark.parametrize("d", (1, 2))
def test_each_letter_rule(d):
    # every split-basis word of Y_{d,3}, with a coefficient that is not 1,
    # times every letter: the rules equal the product with the letter's image
    n, coeff = 3, U + 2
    for word in split_basis(d, n):
        elem = AlgebraElement.from_word(d, n, *word, coeff=coeff)
        for letter in _letters(n, d):
            got = AlgebraElement(d, n, *_times_letter(elem.terms, elem.den, d, letter))
            assert got == elem * _image(d, n, letter), (word, letter)


def _iota(x):
    return AlgebraElement(x.d, x.n, _anti(x.terms), x.den)


@pytest.mark.parametrize("d", DS)
def test_anti_involution(d):
    # iota fixes every generator and reverses products: an involution, an
    # anti-homomorphism, and w r = iota(iota(r) w) for every letter w, on
    # seeded elements with den > 1 and negative powers of u
    rng = random.Random(2400 + d)
    elems = [random_laurent_element(rng, d) for _ in range(8)]
    assert any(x.den > 1 for x in elems) or d == 1
    assert any(min(c) < 0 for x in elems for c in x.terms.values())
    for a, b in zip(elems, elems[1:]):
        assert _iota(_iota(a)).terms == a.terms
        assert _iota(a * b) == _iota(b) * _iota(a)
    for r in elems[:4]:
        for letter in _letters(3, d):
            terms, den = _times_letter(_anti(r.terms), r.den, d, letter)
            got = AlgebraElement(d, 3, _anti(terms), den)
            assert got == _image(d, 3, letter) * r, letter


def test_map_to_algebra_matches_generator_products():
    # seeded words of all three families at d <= 3, n <= 4: inverse letters
    # at ascents and descents (s1 -s1 reaches a descent), tau letters, and
    # framings t_j^k with k >= d
    rng = random.Random(1402)
    checked = 0
    for d in DS:
        for n in (2, 3, 4):
            words = [parse_braid(f"n={n} -s1 s1 -s1 x1 s1 x1"),
                     parse_braid(f"n={n} t1^{d + 1} -s1 s1 t2^{2 * d} -s1")]
            for family in ("classical", "framed", "singular"):
                for _ in range(6):
                    letters = []
                    for _ in range(rng.randint(1, 7)):
                        roll = rng.random()
                        if family == "framed" and roll < 0.3:
                            letters.append(("t", rng.randint(1, n), rng.randint(1, 2 * d + 1)))
                        elif family == "singular" and roll < 0.3:
                            letters.append(("x", rng.randint(1, n - 1)))
                        else:
                            letters.append(("s", rng.randint(1, n - 1), rng.choice((1, -1))))
                    words.append(BraidWord(letters, n=n))
            for b in words:
                want = AlgebraElement.unit(d, n)
                for letter in b.letters:
                    want = want * _image(d, n, letter)
                assert map_to_algebra(b, d) == want, (d, b.render())
                checked += 1
    assert checked == 180


# -- the integer kernel, against the RatFunc letter rules it replaced ----------


def _ref_step_coeffs(d):
    """Per letter kind: (has the term g_{x'}, constant of e' (g_x + g_{x'}) on
    an ascent, the same on a descent), the 1/d of e' inside the constants."""
    quad = (U - 1) / RatFunc.const(d)
    inv_quad = (U ** -1 - 1) / RatFunc.const(d)
    return {"g": (True, None, quad), "g-1": (True, inv_quad, None),
            "p": (False, RatFunc.const(Fraction(1, d)), U / RatFunc.const(d))}


def _ref_times_letter(terms, d, letter):
    """The letter rules of the module docstring over RatFunc coefficients,
    written out independently of the kernel."""
    tag, i = letter[0], letter[1]
    if tag == "t":
        out = {}
        for (f, x), c in terms.items():
            fa = list(f)
            fa[x[i - 1] - 1] = (fa[x[i - 1] - 1] + letter[2]) % d
            out[(tuple(fa), x)] = c
        return out
    lead, on_ascent, on_descent = _ref_step_coeffs(d)[
        "p" if tag == "x" else "g" if letter[2] > 0 else "g-1"]
    out = {}

    def bump(key, c):
        out[key] = out[key] + c if key in out else c

    for (f, x), c in terms.items():
        xp = perms.right_mul_s(x, i)
        if lead:
            bump((f, xp), c)
        k = on_ascent if perms.ascends(x, i) else on_descent
        if k is None:
            continue
        a, b = x[i - 1], x[i]
        for s in range(d):
            fs = list(f)
            fs[a - 1] = (fs[a - 1] + s) % d
            fs[b - 1] = (fs[b - 1] - s) % d
            bump((tuple(fs), xp), c * k)
            bump((tuple(fs), x), c * k)
    return {w: c for w, c in out.items() if not c.is_zero()}


def _random_letter(rng, n, d):
    roll = rng.random()
    if roll < 0.25:
        return ("t", rng.randint(1, n), rng.randint(-1, 2 * d + 1))
    if roll < 0.45:
        return ("x", rng.randint(1, n - 1))
    return ("s", rng.randint(1, n - 1), rng.choice((1, -1)))


def test_kernel_matches_the_ratfunc_letter_rules():
    # seeded words of classical, framed and singular letters, inverse letters
    # on ascents and descents, and t_j^k with k >= d or k < 0, from a start
    # that is not the unit: every coefficient, read through coeff(), equals
    # that of the RatFunc rules, and the image of a braid word has den d^L
    rng = random.Random(1601)
    steps = 0
    for d in DS:
        for n in (2, 3, 4):
            for _ in range(5):
                start = random_element(rng, d, n, nwords=2).scale(Fraction(1, 3))
                ref = {w: start.coeff(w) for w in start.terms}
                terms, den = start.terms, start.den
                for _ in range(rng.randint(1, 7)):
                    letter = _random_letter(rng, n, d)
                    ref = _ref_times_letter(ref, d, letter)
                    terms, den = _times_letter(terms, den, d, letter)
                    got = AlgebraElement(d, n, terms, den)
                    assert set(got.terms) == set(ref), (d, letter)
                    assert all(got.coeff(w) == c for w, c in ref.items()), (d, letter)
                    steps += 1
            for family in ("t", "x"):
                b = BraidWord([letter for letter in (_random_letter(rng, n, d)
                                                     for _ in range(8))
                               if letter[0] in ("s", family)], n=n)
                den = map_to_algebra(b, d).den
                while d > 1 and den % d == 0:
                    den //= d
                assert den == 1, (d, b.render())
    assert steps > 150


@pytest.mark.parametrize("coeff, num, den", [
    (3, {0: 3}, 1),
    (Fraction(2, 7), {0: 2}, 7),
    (U ** -2 * (U - 1), {-1: 1, -2: -1}, 1),
    (RatFunc.const(1) / (2 * U), {-1: 1}, 2),
    (RatFunc.const(0), {}, 1),
])
def test_boundary_coefficients(coeff, num, den):
    w = ((0, 1), (2, 1))
    e = AlgebraElement.from_word(2, 2, *w, coeff=coeff)
    assert (e.terms.get(w, {}), e.den) == (num, den)
    assert e.coeff(w) == RatFunc.const(coeff)
    scaled = AlgebraElement.from_word(2, 2, *w, coeff=U).scale(coeff)
    assert scaled.coeff(w) == U * coeff


@pytest.mark.parametrize("coeff", [RatFunc.const(1) / (U + 1), U * Z, 0.5,
                                   RatFunc.const(Cyclotomic.root_of_unity(3))])
def test_boundary_refuses_other_coefficients(coeff):
    for make in (lambda: AlgebraElement.from_word(2, 2, (0, 0), (1, 2), coeff=coeff),
                 lambda: AlgebraElement.unit(2, 2).scale(coeff)):
        with pytest.raises(ValueError, match="Laurent polynomial") as exc:
            make()
        assert "\n" not in str(exc.value)


def test_den_is_shared_and_added_over_a_common_denominator():
    # e_1 at d = 3 has den 3 and unit coefficients; adding an element over 2
    # brings both to den 6, and equality compares across denominators
    e = idempotent_e(3, 2, 1)
    assert e.den == 3 and all(c == {0: 1} for c in e.terms.values())
    half = AlgebraElement.unit(3, 2).scale(Fraction(1, 2))
    total = e + half
    assert total.den == 6
    assert total.coeff(((0, 0), (1, 2))) == RatFunc.const(Fraction(5, 6))
    assert total - half == e and (e + e).scale(Fraction(1, 2)) == e
