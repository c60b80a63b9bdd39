"""Trace recursion: Markov rules, conjugation invariance, oracle agreement."""
from __future__ import annotations

import itertools
import random

import pytest

import oracle_hecke as oracle
import oracle_yokonuma as yok
from framelink import perms, trace
from framelink.algebra import (
    AlgebraElement,
    gen_g,
    gen_t,
    idempotent_e,
    inverse_g,
    map_to_algebra,
    split_basis,
)
from framelink.braids import parse_braid
from framelink.esystem import build_solution
from framelink.scalars import (
    RATFUNC_ONE,
    Cyclotomic,
    Fraction,
    RatFunc,
    U,
    Z,
    cyclotomic_polynomial,
    laurent_ratfunc,
    x_var,
)
from framelink.trace import Tracer, _strip
from helpers import random_braid, random_element

DS = (1, 2, 3)


def generic_trace(e):
    return Tracer(e.d).value(e)


# -- base values ------------------------------------------------------------


@pytest.mark.parametrize("d", DS)
def test_trace_of_unit(d):
    for n in (1, 2, 3):
        assert generic_trace(AlgebraElement.unit(d, n)) == RATFUNC_ONE


def test_framing_strip():
    for d in (2, 3):
        for m in range(1, d):
            e = gen_t(d, 1, 1, m)
            assert generic_trace(e) == x_var(m)
    # exponents reduce mod d before the table is consulted
    assert generic_trace(gen_t(3, 1, 1, 4)) == x_var(1)


def test_trace_of_idempotent_generic():
    # tr(e_i) = (1/d) sum_s x_s x_{d-s}
    x1, x2 = x_var(1), x_var(2)
    half = RatFunc.const(Fraction(1, 2))
    third = RatFunc.const(Fraction(1, 3))
    assert generic_trace(idempotent_e(2, 2, 1)) == half * (RATFUNC_ONE + x1 * x1)
    assert generic_trace(idempotent_e(3, 2, 1)) == third * (RATFUNC_ONE + x1 * x2 + x2 * x1)


def test_d1_triple_word():
    e = map_to_algebra(parse_braid("s1 s2 s1"), 1)
    assert Tracer(1).value(e) == (U - 1) * Z * Z + U * Z


def test_two_strand_framed_word():
    # tr(t1^a t2^b g_1) = z x_{a+b}
    for d in (2, 3):
        for a in range(d):
            for b in range(d):
                e = AlgebraElement.from_word(d, 2, (a, b), perms.transposition(2, 1))
                m = (a + b) % d
                want = Z * (x_var(m) if m else RATFUNC_ONE)
                assert generic_trace(e) == want


# -- Markov rules on random elements ----------------------------------------


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (2, 3))
def test_rule_positive_stabilization(d, n):
    rng = random.Random(100 * d + n)
    for _ in range(6):
        a = random_element(rng, d, n)
        lhs = generic_trace(a.embed(n + 1) * gen_g(d, n + 1, n))
        assert lhs == Z * generic_trace(a)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (2, 3))
def test_rule_framing_extension(d, n):
    rng = random.Random(200 * d + n)
    for _ in range(6):
        a = random_element(rng, d, n)
        for m in range(1, d):
            lhs = generic_trace(a.embed(n + 1) * gen_t(d, n + 1, n + 1, m))
            assert lhs == x_var(m) * generic_trace(a)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_conjugation_invariance(d, n):
    rng = random.Random(300 * d + n)
    for _ in range(4):
        a = random_element(rng, d, n)
        for i in range(1, n):
            g, gi = gen_g(d, n, i), inverse_g(d, n, i)
            assert generic_trace(g * a * gi) == generic_trace(a)
        for j in range(1, n + 1):
            t, ti = gen_t(d, n, j), gen_t(d, n, j, d - 1)
            assert generic_trace(t * a * ti) == generic_trace(a)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", (3, 4))
def test_derived_bridge_rule(d, n):
    # tr(A g_{n-1} B) = z tr(A B) for A, B one strand down; this is the
    # identity the word recursion leans on, checked against the rules it
    # follows from rather than assumed
    rng = random.Random(400 * d + n)
    for _ in range(6):
        a = random_element(rng, d, n - 1).embed(n)
        b = random_element(rng, d, n - 1).embed(n)
        lhs = generic_trace(a * gen_g(d, n, n - 1) * b)
        assert lhs == Z * generic_trace(a * b)


# -- oracle agreement at d = 1 ----------------------------------------------


def test_basis_trace_values_match_oracle():
    for p in perms.all_perms(3):
        e = AlgebraElement.from_word(1, 3, (0, 0, 0), p)
        assert Tracer(1).value(e) == oracle.trace(oracle.basis_elem(p), 3)


def test_all_h3_products_match_oracle():
    for p, q in itertools.product(perms.all_perms(3), repeat=2):
        engine = Tracer(1).value(
            AlgebraElement.from_word(1, 3, (0, 0, 0), p)
            * AlgebraElement.from_word(1, 3, (0, 0, 0), q))
        ref = oracle.trace(oracle.product(oracle.basis_elem(p), oracle.basis_elem(q), 3), 3)
        assert engine == ref


def test_random_h3_elements_match_oracle():
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(rng, 1, 3, nwords=3)
        ref = oracle.trace({w[1]: a.coeff(w) for w in a.terms}, 3)
        assert Tracer(1).value(a) == ref


# -- specialization ----------------------------------------------------------


def test_specialized_idempotent_values():
    # d=2: D={0} gives x_1 = 1, D={0,1} gives x_1 = 0
    one = Tracer(2, (1,)).value(idempotent_e(2, 2, 1))
    assert one == RATFUNC_ONE
    half = Tracer(2, (0,)).value(idempotent_e(2, 2, 1))
    assert half == RatFunc.const(Fraction(1, 2))


def test_generic_trace_does_not_factor():
    # with formal x's, tr(alpha e_1) != tr(e_1) tr(alpha) already for alpha = t_1
    alpha = gen_t(2, 2, 1)
    e = idempotent_e(2, 2, 1)
    assert generic_trace(alpha * e) != generic_trace(e) * generic_trace(alpha)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Tracer(3, (1,))
    with pytest.raises(ValueError):
        Tracer(0)
    with pytest.raises(ValueError):
        Tracer(1).trace(AlgebraElement.unit(2, 2))
    with pytest.raises(ValueError):
        Tracer(3).trace(AlgebraElement.unit(2, 2))


def test_specialized_x_values_reduce_mod_d():
    # x_0 = 1 and x_1 = 0; the exponent 3 of t_1^3 reduces to 1 mod 2
    t = Tracer(2, (0,))
    assert t.value(gen_t(2, 1, 1, 0)) == RATFUNC_ONE
    assert t.value(gen_t(2, 1, 1, 1)) == RatFunc.const(0)
    assert t.value(gen_t(2, 1, 1, 3)) == RatFunc.const(0)


def test_x_other_than_numbers_are_refused():
    # x are an int, Fraction or Cyclotomic, or formal; a RatFunc, even a
    # constant one, a float or a str is refused with one line
    for bad in (RatFunc.const(2), U + 1, 0.5, "1"):
        with pytest.raises(TypeError, match="^an x must be an int, Fraction or Cyclotomic$"):
            Tracer(3, (1, bad))


@pytest.mark.parametrize("d", DS)
def test_value_is_the_ratfunc_of_the_kernel_value(d):
    # trace gives the kernel value (den, T) with z formal, and x formal
    # unless given as numbers; value is the RatFunc of that kernel value
    rng = random.Random(2210 + d)
    xs_cases = [None, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                            for _ in range(d - 1))]
    if d == 3:
        xs_cases.append(tuple(build_solution(3, (0, 1)).x[1:]))
    types = set()
    for xs in xs_cases:
        tracer = Tracer(d, xs)
        for _ in range(3):
            elements = [random_element(rng, d, n, 3) for n in (1, 2, 3)]
            elements += [map_to_algebra(random_braid(rng, n, 4, "framed", d), d)
                         for n in (2, 3)]
            for e in elements:
                den, terms = tracer.trace(e)
                assert type(den) is int and den > 0
                assert all(c != 0 for c in terms.values())
                assert all(len(ks) == (d - 1 if xs is None else 0) for _, ks, _ in terms)
                assert tracer.value(e) == laurent_ratfunc(terms, den)
                types |= {type(c) for c in terms.values()}
    assert types == ({int, Fraction, Cyclotomic} if d == 3 else
                     {int, Fraction} if d == 2 else {int})


def test_trace_product_budget(monkeypatch):
    # one trace call may make MAX_TRACE_PRODUCTS coefficient products; the
    # count starts again at every call
    e = map_to_algebra(parse_braid("t1 s1 -s2 s1 s2 -s1 t3"), 2)
    tracer = Tracer(2, (Fraction(1, 3),))
    want = tracer.trace(e)
    need = tracer._work
    monkeypatch.setattr(trace, "MAX_TRACE_PRODUCTS", need)
    tracer = Tracer(2, (Fraction(1, 3),))
    assert tracer.trace(e) == want and tracer.trace(e) == want
    monkeypatch.setattr(trace, "MAX_TRACE_PRODUCTS", need - 1)
    with pytest.raises(ValueError, match=f"budget of {need - 1} coefficient products"):
        Tracer(2, (Fraction(1, 3),)).trace(e)


def test_trace_work_is_the_same_at_every_x_but_0_or_1():
    # every word is traced with x formal, so one trace makes the same int
    # products whether its x are formal, rational or in Q(zeta_3); numeric x
    # add one per term and sum(k) per x monomial k, while an x equal to 0
    # drops every branch that strips it and an x equal to 1 keeps no exponent
    e = map_to_algebra(parse_braid("t1 s1 -s2 s1 s2 -s1 t3^2"), 3)
    formal = Tracer(3)
    _, terms = formal.trace(e)
    final = len(terms) + sum(map(sum, {ks for _, ks, _ in terms}))
    works = []
    for D in (None, (0, 1), (0, 1, 2), (0,)):
        xs = build_solution(3, D).x[1:] if D else (Fraction(1, 3), Fraction(2, 5))
        tracer = Tracer(3, xs)
        tracer.trace(e)
        works.append(tracer._work)
    assert final > 0 and works[:2] == [formal._work + final] * 2
    assert works[2] < formal._work and works[3] < formal._work


def _random_x(rng):
    """0, an int, a Fraction, or (two times in five) a random element of
    Q(zeta_m), 3 <= m <= 12."""
    kind = rng.randrange(5)
    if kind < 2:
        return (0, rng.randint(-3, 3))[kind]
    if kind == 2:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    m = rng.randint(3, 12)
    deg = len(cyclotomic_polynomial(m)) - 1
    return Cyclotomic(m, (Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(deg)))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_numeric_x_match_the_formal_trace_substituted(d):
    # numeric x are multiplied in once, at the end of a trace: the value
    # equals the formal trace with the same x substituted, for every
    # E-system solution and for random x in Q(zeta_m), m <= 12, of mixed
    # conductors; compared by value, since a Cyclotomic's conductor may differ
    rng = random.Random(2600 + d)
    xs_cases = [tuple(build_solution(d, D).x[1:])
                for r in range(1, d + 1) for D in itertools.combinations(range(d), r)]
    xs_cases += [tuple(_random_x(rng) for _ in range(d - 1)) for _ in range(8)]
    formal = Tracer(d)
    for xs in xs_cases:
        tracer = Tracer(d, xs)
        subs = {f"x{m}": RatFunc.const(v) for m, v in enumerate(xs, start=1)}
        for n in (2, 3):
            for _ in range(2):
                e = map_to_algebra(random_braid(rng, n, 5, "framed", d), d)
                assert tracer.value(e) == formal.value(e).substitute(subs), (xs, e)


# -- the strand strip ----------------------------------------------------------


@pytest.mark.parametrize("d, n_max", [(1, 4), (2, 4), (3, 3)])
def test_strip_z_step_is_the_product_a_b(d, n_max):
    # t^a g_w = A g_{n-1} B with A = t^{a'} g_v and B = t_{n-1}^{a_n}
    # g_{n-2}...g_k one strand down; the z-step must list the terms of A B
    for n in range(2, n_max + 1):
        for frm, perm in split_basis(d, n):
            if perm[n - 1] == n:
                continue
            k = perm.index(n) + 1
            a = AlgebraElement.from_word(d, n - 1, frm[: n - 1],
                                         tuple(p for p in perm if p != n))
            b = AlgebraElement.from_word(d, n - 1, (0,) * (n - 2) + (frm[n - 1],),
                                         perms.identity(n - 1))
            for i in range(n - 2, k - 1, -1):
                b = b * gen_g(d, n - 1, i)
            assert a.embed(n) * gen_g(d, n, n - 1) * b.embed(n) \
                == AlgebraElement.from_word(d, n, frm, perm)
            step = _strip(d, frm, perm)
            assert step[0] == "z"
            assert [(f, p) for _, f, p in step[2]] == [w for w, _ in (a * b).sorted_terms()]
            assert AlgebraElement(d, n - 1, {(f, p): c for c, f, p in step[2]},
                                  step[1]) == a * b


# -- the independent trace table of Y_{d,3} --------------------------------------


@pytest.mark.parametrize("d, D", [(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1)),
                                  (3, (0,)), (3, (1,)), (3, (0, 1)), (3, (0, 1, 2))])
def test_trace_matches_the_linear_system_oracle(d, D):
    # the trace table solved from tr(1) = 1, tr(ab) = tr(ba) and the two
    # Markov rules (d = 3, D = {1} has Cyclotomic x) equals Tracer on every
    # basis word, and on seeded words mapped by either side
    table = yok.trace_table(d, D)
    at_zu = {"z": RatFunc.const(yok.Z_VAL), "u": RatFunc.const(yok.U_VAL)}
    tracer = Tracer(d, build_solution(d, D).x[1:])
    for word, want in table.items():
        got = tracer.value(AlgebraElement.from_word(d, 3, *word)).substitute(at_zu)
        assert got == want, word
    rng = random.Random(1603 + 10 * d + len(D))
    for kind in ("classical", "framed", "singular"):
        b = random_braid(rng, 3, 5, kind, d)
        want = sum((c * table[w] for w, c in yok.image(d, b.letters).items()), Fraction(0))
        assert tracer.value(map_to_algebra(b, d)).substitute(at_zu) == want, b.render()
