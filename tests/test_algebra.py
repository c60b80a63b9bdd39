"""Split-form normal form and the defining relations of Y_{d,n}(u)."""
from __future__ import annotations

import random

import pytest

from framelink import perms
from framelink.algebra import (
    AlgebraElement,
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
from framelink.scalars import Fraction, RatFunc, U
from helpers import random_element

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
        assert sq.terms[unit_word] == RatFunc.const(1) + coeff
        for w, c in sq.terms.items():
            if w != unit_word:
                assert c == coeff


def test_inverse_g_normal_form_d2():
    # expanding g^{-1} = g + (u^{-1}-1) e + (u^{-1}-1) e g at d = 2 merges
    # the two g-words: four distinct split words remain
    inv = inverse_g(2, 2, 1)
    assert len(inv.terms) == 4
    s1 = perms.transposition(2, 1)
    c = U ** -1 - 1
    half = RatFunc.const(Fraction(1, 2))
    assert inv.terms[((0, 0), s1)] == RatFunc.const(1) + half * c
    assert inv.terms[((1, 1), s1)] == half * c
    assert inv.terms[((0, 0), perms.identity(2))] == half * c
    assert inv.terms[((1, 1), perms.identity(2))] == half * c


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
            got = AlgebraElement(d, n, _times_letter(elem.terms, d, letter))
            assert got == elem * _image(d, n, letter), (word, letter)


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
