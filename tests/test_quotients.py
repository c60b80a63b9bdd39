"""Quotient trace-passing: closed forms against the ideal-vanishing scan,
and the inclusion chain of the three defining ideals."""

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from framelink import quotients, scalars
from framelink.algebra import (
    AlgebraElement,
    _bump,
    _lmul,
    gen_g,
    gen_t,
    idempotent_e,
    quotient_generator,
    split_basis,
    word_render,
)
from framelink.braids import parse_braid
from framelink.esystem import (
    MAX_MODULUS,
    build_solution,
    enumerate_solutions,
    fourier_transform,
    inverse_fourier,
)
from framelink.invariants import InvariantRequest, invariant
from framelink.quotients import (
    KINDS,
    QuotientCheck,
    _KERNEL_ONE,
    _Span,
    _canonical,
    _conjugation_certificate,
    _content_free,
    _deep_scan,
    _first_failure,
    _generic_scan,
    _ideal,
    _kernel_mul,
    _same_trace,
    _primitive,
    _vanishes,
    _zx_gcd,
    admissible,
    ideal_inclusion,
    quotient_report,
    trace_vanishes_on_ideal,
)
from framelink.scalars import (
    Cyclotomic,
    Poly,
    RatFunc,
    U,
    Z,
    _uni_divmod,
    _uni_gcd,
    _uni_poly_gcd,
    cyclotomic_polynomial,
    x_var,
)
from framelink.trace import Tracer
from helpers import random_element, random_laurent, random_laurent_element

Z_TL = -(U + 1) ** -1
HALF = Fraction(1, 2)


def both(check):
    """Closed form and scan must agree; returns the shared verdict."""
    a = admissible(check)
    assert trace_vanishes_on_ideal(check) == a
    return a


# -- parameter validation ----------------------------------------------------


def test_rejects_unknown_kind():
    with pytest.raises(ValueError):
        QuotientCheck("tl", 1, -1)


def test_rejects_wrong_xs_length():
    with pytest.raises(ValueError):
        QuotientCheck("ytl", 2, -1)
    with pytest.raises(ValueError):
        QuotientCheck("ytl", 1, -1, (1,))


def test_rejects_moduli_outside_the_budget():
    # d = 33 would run the certificate over 33^3 3! words; it is refused at
    # once, with the message of every other d, and so is d = 0
    for d, msg in ((0, "d must be >= 1"), (MAX_MODULUS + 1, f"budget of d <= {MAX_MODULUS}")):
        with pytest.raises(ValueError, match=msg):
            QuotientCheck("ytl", d, -1, (0,) * (d - 1))
        unit = AlgebraElement.unit(max(d, 1), 3)
        with pytest.raises(ValueError, match=msg):
            ideal_inclusion(unit, unit, d)
    # a d that is not an int is refused by the same gate, with one line,
    # wherever it enters: True is not taken as 1, nor 2.0 or "2" as 2
    unit = AlgebraElement.unit(2, 3)
    for d in (2.0, True, "2"):
        msg = rf"^modulus d must be an int, got {re.escape(repr(d))}$"
        for call in (lambda: QuotientCheck("ytl", d, -1, (0,)),
                     lambda: ideal_inclusion(unit, unit, d),
                     lambda: build_solution(d, (0,)),
                     lambda: enumerate_solutions(d),
                     lambda: invariant(InvariantRequest(parse_braid("s1 t1"), "framed", d, (0,)))):
            with pytest.raises(ValueError, match=msg):
                call()


def test_rejects_conductors_outside_the_budget(monkeypatch):
    # x with conductors 1021 and 1019 would need Phi of lcm(3, 1021, 1019);
    # every criterion refuses it with one line before that Phi is built
    check = QuotientCheck("ytl", 3, -1, (Cyclotomic.root_of_unity(1021),
                                         Cyclotomic.root_of_unity(1019)))
    asked = []
    phi = scalars.cyclotomic_polynomial
    monkeypatch.setattr(scalars, "cyclotomic_polynomial", lambda m: asked.append(m) or phi(m))
    for criterion in (admissible, trace_vanishes_on_ideal, quotient_report):
        with pytest.raises(ValueError, match=r"^zeta3121197 exceeds the budget of zeta1024$"):
            criterion(check)
    assert all(m <= scalars.MAX_ZETA for m in asked)


def test_rejects_small_n():
    # the ideal criterion runs at n = 3 only; there is no n to pass
    with pytest.raises(TypeError):
        QuotientCheck("ytl", 1, -1, n=2)


def test_large_n_needs_flag():
    with pytest.raises(TypeError):
        QuotientCheck("ytl", 1, -1, n=4)
    with pytest.raises(TypeError):
        trace_vanishes_on_ideal(QuotientCheck("ytl", 1, -1), deep=True)


def test_parameter_coercion():
    c = QuotientCheck("ytl", 2, -HALF, (Fraction(0),))
    assert isinstance(c.zval, RatFunc)
    assert isinstance(c.xs[0], RatFunc)
    assert set(c.substitution()) == {"z", "x1"}


# -- ytl ---------------------------------------------------------------------


@pytest.mark.parametrize("z,want", [
    (Z_TL, True),
    (-1, True),
    (5, False),
    (-HALF, False),
    (Fraction(1, 3), False),
])
def test_ytl_d1(z, want):
    assert both(QuotientCheck("ytl", 1, z)) is want


@pytest.mark.parametrize("x1,z,want", [
    (1, -1, True),
    (-1, -1, True),
    (1, Z_TL, True),
    (-1, Z_TL, True),
    (0, -HALF, True),
    (5, -1, False),
    (1, -HALF, False),
    (0, -1, False),
    (0, Z_TL, False),
    (Fraction(1, 2), -HALF, False),
])
def test_ytl_d2(x1, z, want):
    assert both(QuotientCheck("ytl", 2, z, (x1,))) is want


def test_ytl_d2_census():
    # every d=2 subset solution passes with the z values of its size class
    for sol in enumerate_solutions(2):
        zs = (Z_TL, RatFunc.const(-1)) if sol.size() == 1 else (RatFunc.const(-HALF),)
        for z in zs:
            assert both(QuotientCheck("ytl", 2, z, tuple(sol.x[1:])))


def _ytl_by_search(check):
    """YTL closed form as a literal search: x is one of the subset solutions
    with |D| <= 2, and z is allowed for that |D|."""
    allowed = {1: (Z_TL, -1), 2: (-HALF,)}
    xs = (1,) + check.xs
    return any(sol.size() <= 2
               and any(check.zval == z for z in allowed[sol.size()])
               and all(a == b for a, b in zip(xs, sol.x))
               for sol in enumerate_solutions(check.d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ytl_fourier_decoder_matches_the_search(d):
    # the closed form reads D off the Fourier transform; compare it with the
    # search over every solution, at every solution and at seeded
    # non-solutions, x integer or rational in u
    rng = random.Random(5200 + d)
    zs = (Z_TL, -1, -HALF, Fraction(1, 3), -(U + 2) ** -1)
    points = [(z, tuple(sol.x[1:])) for sol in enumerate_solutions(d) for z in zs]
    for _ in range(12):
        xs = [rng.randint(-2, 2) for _ in range(d - 1)]
        if xs and rng.random() < 0.5:
            xs[rng.randrange(d - 1)] = U * (U + rng.randint(1, 3)) ** -1
        points.append((rng.choice(zs), tuple(xs)))
    if d > 1:
        # support of size 2 with x_0 = 1, but y_k off the level d/2 on it
        D = rng.choice([s.D for s in enumerate_solutions(d) if s.size() == 2])
        y = [Fraction(d, 2) if k in D else 0 for k in range(d)]
        y[D[0]] += HALF
        y[D[1]] -= HALF
        points.append((-HALF, inverse_fourier(y)[1:]))
    verdicts = set()
    for z, xs in points:
        check = QuotientCheck("ytl", d, z, xs)
        verdict = admissible(check)
        assert verdict is _ytl_by_search(check), (z, xs)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_ytl_closed_form_past_the_enumeration_budget():
    assert admissible(QuotientCheck("ytl", 9, -1, build_solution(9, (0,)).x[1:]))
    assert not admissible(QuotientCheck("ytl", 9, -HALF, build_solution(9, (0,)).x[1:]))


# -- ftl ---------------------------------------------------------------------


def test_ftl_pure_support_values():
    # pure solution support: all of D in one block, z = -1/|D| or -1/((u+1)|D|)
    for d in (1, 2):
        for sol in enumerate_solutions(d):
            m = sol.size()
            for z in (Fraction(-1, m), -((U + 1) * m) ** -1):
                assert both(QuotientCheck("ftl", d, z, tuple(sol.x[1:])))


def test_ftl_two_value_family():
    # d=2 with y_0, y_1 split across both blocks: z = -1/(u+2), x_1 = -+ u/(u+2)
    z = -(U + 2) ** -1
    for x1 in (-U * (U + 2) ** -1, U * (U + 2) ** -1):
        assert both(QuotientCheck("ftl", 2, z, (x1,)))
    assert not both(QuotientCheck("ftl", 2, Z_TL, (U * (U + 2) ** -1,)))


@pytest.mark.parametrize("x1,z", [
    (1, 5),
    (1, -HALF),
    (0, -1),
    (3, Z_TL),
])
def test_ftl_rejects(x1, z):
    assert not both(QuotientCheck("ftl", 2, z, (x1,)))


def test_ftl_d3_closed_form():
    # closed form only at d=3; the scan runs in the acceptance grid
    for sol in enumerate_solutions(3):
        m = sol.size()
        xs = tuple(sol.x[1:])
        assert admissible(QuotientCheck("ftl", 3, Fraction(-1, m), xs))
        assert admissible(QuotientCheck("ftl", 3, -((U + 1) * m) ** -1, xs))
        # a mixed-block z never fits a solution's single-valued transform
        if m == 2:
            assert not admissible(QuotientCheck("ftl", 3, -(U + 2) ** -1, xs))


# -- ctl ---------------------------------------------------------------------


@pytest.mark.parametrize("z,want", [
    (-1, True),
    (Z_TL, True),
    (5, False),
    (Fraction(1, 3), False),
    (-HALF, False),
])
def test_ctl_d1(z, want):
    assert both(QuotientCheck("ctl", 1, z)) is want


def test_ctl_d2_support_without_zero():
    # sum of x over Z/d vanishes, so the condition holds for every z
    sol = next(s for s in enumerate_solutions(2) if s.D == (1,))
    for z in (7, Fraction(2, 5), -1, Z_TL):
        assert both(QuotientCheck("ctl", 2, z, tuple(sol.x[1:])))


@pytest.mark.parametrize("D,roots,nonroots", [
    ((0,), (-1, Z_TL), (-HALF, 4)),
    ((0, 1), (-HALF, -((U + 1) * 2) ** -1), (-1, Z_TL)),
])
def test_ctl_d2_support_with_zero(D, roots, nonroots):
    sol = next(s for s in enumerate_solutions(2) if s.D == D)
    xs = tuple(sol.x[1:])
    for z in roots:
        assert both(QuotientCheck("ctl", 2, z, xs))
    for z in nonroots:
        assert not both(QuotientCheck("ctl", 2, z, xs))


def test_ctl_d2_non_solution_points():
    # closed form and scan agree off the solution variety too
    for x1, z in ((3, -1), (Fraction(1, 2), -HALF), (0, -1)):
        both(QuotientCheck("ctl", 2, z, (x1,)))


def _ctl_by_traced_sums(check):
    """(u+1) z^2 sum_k x_k + (u+2) z sum_k tr(e_1^{(k)}) + sum_k tr(e_1^{(k)} e_2)
    = 0, each e_1^{(k)} = t_1^k e_1 traced on 3 strands."""
    d, z = check.d, check.zval
    tracer, subs = Tracer(d), check.substitution()
    xs = (RatFunc.const(1),) + check.xs
    e1, e2 = idempotent_e(d, 3, 1), idempotent_e(d, 3, 2)
    sum_x = sum_e = sum_ee = RatFunc.const(0)
    for k in range(d):
        ek = gen_t(d, 3, 1, k) * e1
        sum_x = sum_x + xs[k]
        sum_e = sum_e + tracer.value(ek).substitute(subs)
        sum_ee = sum_ee + tracer.value(ek * e2).substitute(subs)
    return ((U + 1) * z * z * sum_x + (U + 2) * z * sum_e + sum_ee).is_zero()


@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_ctl_closed_form_matches_the_traced_sums(d):
    # the closed form reads y_0 alone; the reference traces the three sums
    rng = random.Random(5200 + d)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def u_rational():
        return (rational() * U + rational()) / (U + rng.randint(1, 5))

    points = [tuple(sol.x[1:]) for sol in enumerate_solutions(d)]
    points += [tuple(make() for _ in range(d - 1))
               for make in (rational, u_rational) for _ in range(2)]
    # y_0 = 0 off the solutions: every z passes
    points += [(-1,) + (0,) * (d - 2)] if d > 1 else []
    verdicts = set()
    for xs in points:
        w = (1 + sum(xs, start=RatFunc.const(0))) * Fraction(1, d)
        for z in (-w, -w / (U + 1), rational(), u_rational()):
            check = QuotientCheck("ctl", d, z, xs)
            verdict = admissible(check)
            assert verdict is _ctl_by_traced_sums(check), (xs, z)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- the integer identities against the RatFunc comparisons they replace ----


_REF_YTL_Z = {1: (RatFunc.const(-1) / (U + 1), RatFunc.const(-1)),
              2: (RatFunc.const(-HALF),)}


def _ref_transform(check):
    """The Fourier transform of (1, x_1..x_{d-1}), a constant x read as its
    Fraction or Cyclotomic."""
    return fourier_transform((1, *(v if v.variables() else v.num.constant_value()
                                   for v in check.xs)))


def _ref_ytl(check):
    ft = _ref_transform(check)
    size = len(ft.support)
    if not any(check.zval == t for t in _REF_YTL_Z.get(size, ())):
        return False
    level = RatFunc.const(Fraction(check.d, size))
    return all(level == ft.y[k] for k in ft.support)


def _ref_ftl(check):
    d, z = check.d, check.zval
    ft = _ref_transform(check)
    neg_dz = RatFunc.const(-d) * z
    neg_dz_u = neg_dz * (U + 1)
    n1, n2 = (sum(ft.y[k] == v for k in ft.support) for v in (neg_dz, neg_dz_u))
    return n1 + n2 == len(ft.support) and z == RatFunc.const(-1) / (n1 + (U + 1) * n2)


def _ref_ctl(check):
    y0 = RatFunc.const(_ref_transform(check).y[0])
    w = y0 * Fraction(1, check.d)
    z = check.zval
    return any(f.is_zero() for f in (y0, z + w, (U + 1) * z + w))


_REF_ADMISSIBLE = {"ytl": _ref_ytl, "ftl": _ref_ftl, "ctl": _ref_ctl}


def _differential_xs(rng, d):
    """Every E-system solution at d, then seeded non-solutions: rational, rational
    in u, an FTL block point, a perturbed solution and x in Q(zeta_5)."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    out = [tuple(s.x[1:]) for s in enumerate_solutions(d)]
    if d == 1:
        return out
    for _ in range(2):
        out.append(tuple(rational() for _ in range(d - 1)))
        out.append(tuple((rational() * U + rational()) / (U + rng.randint(1, 5))
                         for _ in range(d - 1)))
    out.append(_block_point(rng, d)[1])
    xs = list(rng.choice(out[:2 ** d - 1]))
    xs[rng.randrange(d - 1)] += Fraction(1, 3)
    out.append(tuple(xs))
    out.append(tuple(Cyclotomic.root_of_unity(5, rng.randint(1, 4)) + rng.randint(-1, 1)
                     for _ in range(d - 1)))
    return out


def _differential_zs(rng, kind, d, xs):
    """Every z of the passing family of kind (for CTL the two roots at these
    x, for FTL one per block split, and for YTL those of FTL too, which it
    must refuse past n1 + 2 n2 = 2), then seeded rational, rational-in-u and
    cyclotomic z."""
    ftl = [RatFunc.const(-1) / (n1 + (U + 1) * n2)
           for n1 in range(d + 1) for n2 in range(d + 1 - n1) if n1 + n2]
    if kind == "ytl":
        zs = [Z_TL, RatFunc.const(-1), RatFunc.const(-HALF)] + ftl
    elif kind == "ftl":
        zs = ftl
    else:
        w = (1 + sum(xs, start=RatFunc.const(0))) * Fraction(1, d)
        zs = [-w, -w / (U + 1)]
    return zs + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 (U + rng.randint(1, 5)) / (rng.randint(2, 5) * U - 1),
                 RatFunc.const(-1) / (U + Cyclotomic.root_of_unity(3, rng.randint(1, 2))),
                 Cyclotomic.root_of_unity(4, 1) - rng.randint(1, 3)]


@pytest.mark.parametrize("d", [1, 2, 3, 4], ids=lambda d: f"d={d}")
def test_closed_forms_match_the_ratfunc_comparisons(d):
    # the integer identities over Z[u, w] / Phi_M against the RatFunc
    # comparisons of the Fourier transform that they replace
    rng = random.Random(6100 + d)
    verdicts = {kind: set() for kind in KINDS}
    for xs in _differential_xs(rng, d):
        for kind in KINDS:
            for z in _differential_zs(rng, kind, d, xs):
                check = QuotientCheck(kind, d, z, xs)
                verdict = admissible(check)
                assert verdict is _REF_ADMISSIBLE[kind](check), (kind, z, xs)
                verdicts[kind].add(verdict)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_closed_forms_pass_down_the_chain():
    # the closed-form mirror of test_chain_inclusions: the YTL ideal holds the
    # FTL ideal and that one the CTL ideal, so a pass of YTL is one of FTL
    # and a pass of FTL one of CTL, at every point of the differential sets
    patterns = set()
    for d in (1, 2, 3, 4):
        rng = random.Random(6100 + d)
        for xs in _differential_xs(rng, d):
            for z in [z for kind in KINDS for z in _differential_zs(rng, kind, d, xs)]:
                ytl, ftl, ctl = (admissible(QuotientCheck(kind, d, z, xs)) for kind in KINDS)
                assert ftl or not ytl, (d, z, xs)
                assert ctl or not ftl, (d, z, xs)
                patterns.add((ytl, ftl, ctl))
    assert patterns == {(True, True, True), (False, True, True),
                        (False, False, True), (False, False, False)}


# -- deep double loop validates the reduction --------------------------------


@pytest.mark.parametrize("check", [
    QuotientCheck("ytl", 1, Z_TL),
    QuotientCheck("ytl", 1, 5),
    QuotientCheck("ytl", 2, -1, (5,)),
    QuotientCheck("ftl", 2, -HALF, (0,)),
    QuotientCheck("ytl", 2, -HALF, (0,)),
    QuotientCheck("ctl", 2, -HALF, (0,)),
], ids=["ytl1-pass", "ytl1-fail", "ytl2-fail", "ftl2-pass", "ytl2-pass", "ctl2-pass"])
def test_deep_loop_agrees(check):
    assert (_deep_scan(check) is None) == trace_vanishes_on_ideal(check)


def test_deep_pairs_spot_check_d3():
    # the full double loop is impractical at d=3; sample pairs directly
    import random

    from framelink.algebra import AlgebraElement, split_basis
    from framelink.trace import Tracer

    sol = next(s for s in enumerate_solutions(3) if s.D == (0, 1))
    check = QuotientCheck("ftl", 3, Fraction(-1, 2), tuple(sol.x[1:]))
    assert trace_vanishes_on_ideal(check)
    gen = quotient_generator("ftl", 3, 3, 1)
    tracer, subs = Tracer(3), check.substitution()
    words = list(split_basis(3, 3))
    rng = random.Random(17)
    for frm_a, perm_a in rng.sample(words, 6):
        frm_b, perm_b = rng.choice(words)
        a = AlgebraElement.from_word(3, 3, frm_a, perm_a)
        b = AlgebraElement.from_word(3, 3, frm_b, perm_b)
        assert tracer.value(a * gen * b).substitute(subs).is_zero()


def test_witness_pair_is_genuine():
    # the reported witness must evaluate nonzero in the literal double loop
    from framelink.algebra import AlgebraElement
    from framelink.trace import Tracer

    check = QuotientCheck("ytl", 2, -1, (5,))
    report = quotient_report(check)
    assert report["verdict"] is False
    frm_a, perm_a = (0, 0, 0), (1, 2, 3)  # the unit word
    (frm_b, perm_b), _ = _first_failure(check)
    assert report["witness"]["a"] == word_render(frm_a, perm_a)
    assert report["witness"]["b"] == word_render(frm_b, perm_b)
    gen = quotient_generator("ytl", 2, 3, 1)
    a = AlgebraElement.from_word(2, 3, frm_a, perm_a)
    b = AlgebraElement.from_word(2, 3, frm_b, perm_b)
    assert not Tracer(2).value(a * gen * b).substitute(check.substitution()).is_zero()


@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_certificate_comparison_is_ratfunc_equality(d):
    # the certificate compares kernel values times each other's den; that
    # must be RatFunc equality of the values, on equal pairs (c w, w c),
    # on unequal pairs, and on equal values whose dens differ
    rng = random.Random(2300 + d)
    tracer = Tracer(d)
    words = list(split_basis(d, 3))
    gens = [gen_g(d, 3, 1), gen_g(d, 3, 2)] + ([gen_t(d, 3, 1)] if d > 1 else [])
    seen = set()
    for _ in range(10):
        c = AlgebraElement.from_word(d, 3, *rng.choice(words))
        w = rng.choice(gens)
        a, b = random_element(rng, d, 3, 3), random_element(rng, d, 3, 3)
        k = rng.randint(2, 7)
        for x, y in ((c * w, w * c), (a, b), (c * w, c), (a, a.scale(2)),
                     (a, a.scale(Fraction(1, k)).scale(k)), (a, a.scale(Fraction(1, k)))):
            kx, ky = tracer.trace(x), tracer.trace(y)
            same = tracer.value(x) == tracer.value(y)
            assert _same_trace(kx, ky) is same
            seen.add((same, kx[0] == ky[0]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_conjugation_certificate_holds(d):
    # tr(c w) = tr(w c) for every basis word c and generator w, with w c
    # read through the anti-involution, iota(iota(c) w)
    assert _conjugation_certificate(d) is True


# -- the scan substitutes only a basis of the generic values -----------------


def test_scan_keeps_a_basis():
    kept = {(kind, d): [word_render(*word) for word, _, _ in _generic_scan(kind, d)[1]]
            for d in (1, 2, 3) for kind in KINDS}
    assert kept == {
        ("ytl", 1): ["1"], ("ftl", 1): ["1"], ("ctl", 1): ["1"],
        ("ytl", 2): ["1", "g2", "t3", "t3*g1"], ("ftl", 2): ["1", "t3"], ("ctl", 2): ["1"],
        ("ytl", 3): ["1", "g2", "g1*g2", "t3", "t3*g2", "t3*g1", "t3^2", "t3^2*g2",
                     "t3^2*g1", "t2*t3^2*g1"],
        ("ftl", 3): ["1", "t3", "t3^2"], ("ctl", 3): ["1"]}


def _literal_scan(check):
    """((a, b, value) or None) from tr(gen . c) over every split-basis word c
    in order, traced under the check's own parameters."""
    gen = quotient_generator(check.kind, check.d, 3, 1)
    tracer, subs = Tracer(check.d), check.substitution()
    unit_word = ((0,) * 3, (1, 2, 3))
    for frm, perm in split_basis(check.d, 3):
        val = tracer.value(gen * AlgebraElement.from_word(check.d, 3, frm, perm)).substitute(subs)
        if not val.is_zero():
            return unit_word, (frm, perm), val
    return None


def _block_point(rng, d):
    """FTL-conforming z and x from a block assignment of the Fourier
    transform: each y_k is 0, -dz or -dz(u+1), so x is rational in u."""
    assign = [rng.randrange(3) for _ in range(d)]
    if not any(assign):
        assign[rng.randrange(d)] = rng.randint(1, 2)
    z = RatFunc.const(-1) / (assign.count(1) + (U + 1) * assign.count(2))
    y = [-d * z * ((U + 1) if a == 2 else 1) if a else 0 for a in assign]
    return z, inverse_fourier(y)[1:]


def _seeded_points(rng, kind, d):
    """Conforming and non-conforming checks of kind at d."""
    sols = enumerate_solutions(d)
    sol = rng.choice([s for s in sols if s.size() <= 2] if kind == "ytl" else sols)
    m, xs = sol.size(), tuple(sol.x[1:])
    if kind == "ytl":
        zs = (-HALF,) if m == 2 else (-1, Z_TL)
    elif kind == "ctl" and 0 not in sol.D:
        zs = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),)
    else:
        zs = (Fraction(-1, m), -((U + 1) * m) ** -1)
    # the literal scan at d = 3 with z rational in u takes ~25 s
    yield QuotientCheck(kind, d, rng.choice(zs[:1] if d == 3 else zs), xs)
    if kind == "ftl" and d < 3:
        yield QuotientCheck(kind, d, *_block_point(rng, d))
    # a positive z never takes a passing value
    sol = rng.choice([s for s in sols if 0 in s.D] if kind == "ctl" else sols)
    yield QuotientCheck(kind, d, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                        tuple(sol.x[1:]))
    if kind == "ytl" and d > 1:
        yield QuotientCheck(kind, d, -1, tuple(rng.randint(2, 5) for _ in range(d - 1)))


@pytest.mark.parametrize("d,kinds", [
    (1, ("ytl", "ftl", "ctl")),
    (2, ("ytl", "ftl", "ctl")),
    (3, ("ytl", "ftl")),
], ids=["d1", "d2", "d3"])
def test_basis_scan_matches_the_literal_scan(d, kinds):
    # the reduced scan gives the verdict and the witness of the unreduced one;
    # _deep_scan also checks each verdict except a passing one at d = 2, which
    # takes 0.4-1 s each there (test_deep_loop_agrees runs one per kind)
    rng = random.Random(3100 + d)
    for kind in kinds:
        verdicts = set()
        for check in _seeded_points(rng, kind, d):
            report, witness = quotient_report(check), _literal_scan(check)
            verdict = report["verdict"]
            if witness is not None:
                (fa, pa), (fb, pb), val = witness
                assert report["witness"] == {"a": word_render(fa, pa), "b": word_render(fb, pb),
                                             "value": val.render()}
            assert verdict is (witness is None) is ("witness" not in report)
            assert admissible(check) is verdict
            if d == 1 or (d == 2 and not verdict):
                assert (_deep_scan(check) is None) is verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _kernel_points(rng):
    """Seeded checks for the kernel zero test, every kind at d <= 3 (CTL to
    d = 2), FTL block points among them, then d = 3 points in Q(zeta)(u)."""
    for d, kinds in ((1, KINDS), (2, KINDS), (3, ("ytl", "ftl"))):
        for kind in kinds:
            yield from _seeded_points(rng, kind, d)
    # the solutions with |D| <= 2 whose x are irrational
    small = [s for s in enumerate_solutions(3)
             if s.size() <= 2 and all(type(v) is Cyclotomic for v in s.x[1:])]
    for kind in ("ytl", "ftl"):
        # z rational in u, Cyclotomic x: a passing and an arbitrary z
        sol = rng.choice([s for s in small if s.size() == 1])
        yield QuotientCheck(kind, 3, Z_TL, sol.x[1:])
        yield QuotientCheck(kind, 3, (U + rng.randint(1, 5)) / (rng.randint(2, 5) * U + 1),
                            sol.x[1:])
        # a solution written at conductor 6, and at mixed conductors
        sol = rng.choice(small)
        z = Fraction(-1, sol.size())
        yield QuotientCheck(kind, 3, z, tuple(Cyclotomic(6, v._coeffs_at(6)) for v in sol.x[1:]))
        yield QuotientCheck(kind, 3, z, (Cyclotomic(6, sol.x[1]._coeffs_at(6)), sol.x[2]))
        # a positive z never passes
        yield QuotientCheck(kind, 3, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                            (Cyclotomic.root_of_unity(6, rng.choice((1, 2, 4, 5))),
                             Cyclotomic.root_of_unity(3, rng.randint(1, 2))))


def _conductor(check):
    """The lcm of the conductors of a check's coefficients, 1 when all are
    rational."""
    return math.lcm(*(c.m for v in (check.zval, *check.xs) for poly in (v.num, v.den)
                      for c in poly.terms.values() if type(c) is Cyclotomic))


def test_kernel_zero_test_matches_substitution():
    # every kept word, not only the first failing one: the zero test on the
    # integer form, each monomial multiplied out here, against the
    # substituted RatFunc value
    rng = random.Random(3200)
    seen = set()
    for check in _kernel_points(rng):
        tops, kept = _generic_scan(check.kind, check.d)
        M, split = check.integer_form
        subs = check.substitution()
        for _, generic, form in kept:
            parts = []
            for exps, coeff in form.items():
                mono = _KERNEL_ONE
                for (p, q), e, top in zip(split, exps, tops):
                    for factor in [p] * e + [q] * (top - e):
                        mono = _kernel_mul(mono, factor, M)
                parts.append((coeff, mono))
            zero = generic.substitute(subs).is_zero()
            assert _vanishes(parts, M) is zero, (check, generic)
            seen.add((check.d, _conductor(check), M, zero))
    assert seen >= {(1, 1, 1, True), (1, 1, 1, False), (2, 1, 2, True), (2, 1, 2, False),
                    (3, 1, 3, False), (3, 3, 3, True), (3, 3, 3, False),
                    (3, 6, 6, True), (3, 6, 6, False)}


@pytest.mark.parametrize("M", range(1, 13))
def test_zero_test_matches_cyclotomic_evaluation(M):
    # seeded parts in Z[u, w] whose w exponents go past deg Phi_M, alone and
    # with multiples u^e w^s Phi_M(w) added, against each u-coefficient's
    # value in Q(zeta_M); a part that is only such multiples is zero
    rng = random.Random(2500 + M)
    phi = cyclotomic_polynomial(M)
    outcomes = set()
    for trial in range(60):
        parts = []
        if trial % 3:
            for _ in range(rng.randint(1, 3)):
                a = {rng.randint(-2, 2): rng.randint(-3, 3)}
                b = {(rng.randint(0, 2), rng.randrange(M)): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 4))}
                parts.append((a, b))
        for _ in range(rng.randint(0 if trial % 3 else 1, 3)):
            a = {rng.randint(-1, 1): rng.randint(1, 3), rng.randint(2, 3): rng.randint(-3, 3)}
            e, s = rng.randint(-1, 2), rng.randrange(M)
            b: dict = {}
            for i, c in enumerate(phi):  # w^M = 1, so exponents wrap
                b[(e, (s + i) % M)] = b.get((e, (s + i) % M), 0) + c
            parts.append((a, b))
        values: dict = {}
        for a, b in parts:
            for e1, c1 in a.items():
                for (e2, k), c2 in b.items():
                    values[e1 + e2] = (values.get(e1 + e2, 0)
                                       + c1 * c2 * Cyclotomic.root_of_unity(M, k))
        zero = all(v == 0 for v in values.values())
        assert _vanishes(parts, M) is zero, parts
        outcomes.add((trial % 3 == 0, zero))
    assert {(True, True), (False, False)} <= outcomes


@pytest.mark.parametrize("kind,d", [(k, d) for d in (1, 2, 3) for k in KINDS])
def test_each_value_is_split_once_per_check(monkeypatch, kind, d):
    # constructing a check splits nothing; the closed form and the scan
    # share one split of z and each x
    calls = []
    split = quotients._split
    monkeypatch.setattr(quotients, "_split", lambda v, M: calls.append(M) or split(v, M))
    sol = enumerate_solutions(d)[-1]
    for z in (Fraction(-1, sol.size()), Z_TL, Fraction(3, 7)):
        check = QuotientCheck(kind, d, z, sol.x[1:])
        assert calls == []
        admissible(check)
        trace_vanishes_on_ideal(check)
        assert len(calls) == d
        calls.clear()


@pytest.mark.parametrize("z,xs", [
    (Z, (1,)),
    (-1, (x_var(1),)),
    (-1, (U * x_var(1),)),
    (U + Z, (0,)),
], ids=["z", "x1", "u*x1", "u+z"])
def test_rejects_formal_parameters(z, xs):
    with pytest.raises(ValueError, match="no variable but u") as exc:
        QuotientCheck("ytl", 2, z, xs)
    assert "\n" not in str(exc.value)


# -- reports -----------------------------------------------------------------


def test_report_failing_has_witness():
    rep = quotient_report(QuotientCheck("ytl", 1, 5))
    assert rep["verdict"] is False
    assert rep["kind"] == "ytl" and rep["d"] == 1
    wit = rep["witness"]
    assert set(wit) == {"a", "b", "value"}
    assert all(isinstance(v, str) and v for v in wit.values())
    assert wit["value"] != "0"


@pytest.mark.parametrize("check,text", [
    (QuotientCheck("ytl", 2, -2 * (U + 1) ** -1, (0,)),
     '{"d": 2, "kind": "ytl", "params": {"x": ["0"], "z": "-2/(u + 1)"}, '
     '"verdict": false, "witness": {"a": "1", "b": "g2", '
     '"value": "(-1/2*u^2 + 2*u - 3/2)/(u + 1)"}}'),
    (QuotientCheck("ftl", 2, 5, (1,)),
     '{"d": 2, "kind": "ftl", "params": {"x": ["1"], "z": "5"}, '
     '"verdict": false, "witness": {"a": "1", "b": "1", "value": "30*u + 36"}}'),
    (QuotientCheck("ctl", 2, -HALF, (1,)),
     '{"d": 2, "kind": "ctl", "params": {"x": ["1"], "z": "-1/2"}, '
     '"verdict": false, "witness": {"a": "1", "b": "1", "value": "-2*u + 2"}}'),
    (QuotientCheck("ytl", 3, -1, (-1, -1)),
     '{"d": 3, "kind": "ytl", "params": {"x": ["-1", "-1"], "z": "-1"}, '
     '"verdict": false, "witness": {"a": "1", "b": "g1*g2", '
     '"value": "-4/9*u^2 + 8/9*u - 4/9"}}'),
    (QuotientCheck("ftl", 3, 0, (0, -1)),
     '{"d": 3, "kind": "ftl", "params": {"x": ["0", "-1"], "z": "0"}, '
     '"verdict": false, "witness": {"a": "1", "b": "t3", "value": "1/3"}}'),
], ids=["ytl2", "ftl2", "ctl2", "ytl3", "ftl3"])
def test_report_bytes_pinned(check, text):
    # the witness is the first failing kept word in split-basis order; three
    # of these points vanish on the unit word, so a scan that visits the
    # words in another order reports another witness
    assert json.dumps(quotient_report(check), sort_keys=True) == text


def test_report_passing_has_no_witness():
    rep = quotient_report(QuotientCheck("ytl", 1, -1))
    assert rep["verdict"] is True
    assert "witness" not in rep
    assert rep["params"]["z"] == "-1"


# -- ideal inclusion chain ---------------------------------------------------


def test_generators_coincide_at_d1():
    g = quotient_generator("ytl", 1, 3, 1)
    assert quotient_generator("ftl", 1, 3, 1).terms == g.terms
    assert quotient_generator("ctl", 1, 3, 1).terms == g.terms


@pytest.mark.parametrize("d", [1, 2])
def test_chain_inclusions(d):
    g = quotient_generator("ytl", d, 3, 1)
    r = quotient_generator("ftl", d, 3, 1)
    c = quotient_generator("ctl", d, 3, 1)
    assert ideal_inclusion(r, g, d)
    assert ideal_inclusion(c, r, d)
    assert ideal_inclusion(c, g, d)


def test_unit_outside_proper_ideal():
    assert not ideal_inclusion(AlgebraElement.unit(1, 3),
                               quotient_generator("ytl", 1, 3, 1), 1)


def test_chain_strict_at_d2():
    # the ftl ideal is properly smaller than the ytl ideal once d > 1
    assert not ideal_inclusion(quotient_generator("ytl", 2, 3, 1),
                               quotient_generator("ftl", 2, 3, 1), 2)


# Is the ideal of the first generator inside that of the second?  Every
# ordered pair at d <= 2; all three ideals coincide at d = 1, and at d = 2
# the CTL ideal lies in the FTL ideal, which lies in the YTL ideal, all
# strictly.
_INCLUSION_VERDICTS = {
    1: {(a, b): True for a in KINDS for b in KINDS},
    2: {("ytl", "ytl"): True, ("ytl", "ftl"): False, ("ytl", "ctl"): False,
        ("ftl", "ytl"): True, ("ftl", "ftl"): True, ("ftl", "ctl"): False,
        ("ctl", "ytl"): True, ("ctl", "ftl"): True, ("ctl", "ctl"): True},
}


@pytest.mark.parametrize("d", [1, 2])
def test_inclusion_verdicts_of_every_generator_pair(d):
    gens = {k: quotient_generator(k, d, 3, 1) for k in KINDS}
    got = {(a, b): ideal_inclusion(gens[a], gens[b], d) for a in KINDS for b in KINDS}
    assert got == _INCLUSION_VERDICTS[d]


def test_warm_cold_and_shuffled_inclusions_agree():
    # each ideal is kept and grown only as far as a query needs, so a verdict
    # must not depend on what was asked before it
    rng = random.Random(4311)
    want = {(d, a, b): v for d in (1, 2) for (a, b), v in _INCLUSION_VERDICTS[d].items()}
    for cold in (False, True):
        for _ in range(2):
            order = list(want)
            rng.shuffle(order)
            got = {}
            for d, a, b in order:
                if cold:
                    _ideal.cache_clear()
                got[d, a, b] = ideal_inclusion(quotient_generator(a, d, 3, 1),
                                               quotient_generator(b, d, 3, 1), d)
            assert got == want, cold


def test_inclusion_keys_the_ideal_on_the_terms_of_its_generator():
    _ideal.cache_clear()
    g, r = quotient_generator("ytl", 2, 3, 1), quotient_generator("ftl", 2, 3, 1)
    assert ideal_inclusion(r, g, 2)
    # a rebuilt generator and the same terms over another den share its ideal
    assert ideal_inclusion(r, quotient_generator("ytl", 2, 3, 1), 2)
    assert ideal_inclusion(r, AlgebraElement(2, 3, g.terms, 5 * g.den), 2)
    info = _ideal.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    zero = AlgebraElement.zero(2, 3)  # its ideal is {0}
    assert not ideal_inclusion(r, zero, 2)
    assert ideal_inclusion(zero, zero, 2)


def test_a_growth_cut_short_keeps_no_partial_ideal(monkeypatch):
    # an interrupt inside a letter step leaves a row whose products were
    # never queued; an ideal kept in that state would answer False for good
    _ideal.cache_clear()
    gens = {k: quotient_generator(k, 2, 3, 1) for k in KINDS}
    step, calls = quotients._times_letter, itertools.count(1)

    def interrupted(*args):
        if next(calls) == 3:
            raise KeyboardInterrupt
        return step(*args)

    monkeypatch.setattr(quotients, "_times_letter", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ideal_inclusion(gens["ftl"], gens["ytl"], 2)
    monkeypatch.undo()
    got = {(a, b): ideal_inclusion(gens[a], gens[b], 2) for a in KINDS for b in KINDS}
    assert got == _INCLUSION_VERDICTS[2]


class _Rows:
    """Row reduction over Q(u), apart from quotients._Span: rows are kept
    in insertion order, each free of the pivots of the rows before it."""

    def __init__(self):
        self.rows = []

    def reduce(self, vec):
        for col, row in self.rows:
            c = vec.get(col)
            if c is not None:
                for k, v in row.items():
                    nxt = vec.get(k, RatFunc.const(0)) - c * v
                    if nxt.is_zero():
                        vec.pop(k, None)
                    else:
                        vec[k] = nxt
        return vec

    def insert(self, vec) -> bool:
        vec = self.reduce(vec)
        if vec:
            col = min(vec)
            inv = vec[col] ** -1
            self.rows.append((col, {k: inv * v for k, v in vec.items()}))
        return bool(vec)


def _vec(e):
    return {w: e.coeff(w) for w in e.terms}


def _literal_inclusion(genA, genB, d, n=3):
    """Is genA in span{a genB b : a, b split-basis words}?  The double loop
    over the pairs, with a kept only where a genB is not in the span of the
    earlier left multiples; by bilinearity the pairs span the same ideal."""
    words = [AlgebraElement.from_word(d, n, f, p) for f, p in split_basis(d, n)]
    lefts = _Rows()
    kept = [x for x in (a * genB for a in words) if lefts.insert(_vec(x))]
    span = _Rows()
    for x in kept:
        for b in words:
            if span.insert(_vec(x * b)) and not span.reduce(_vec(genA)):
                return True
    return not genA.terms


def test_inclusion_matches_the_literal_ideal_d1():
    rng = random.Random(4101)
    named = [AlgebraElement.unit(1, 3), gen_g(1, 3, 1), gen_g(1, 3, 2),
             idempotent_e(1, 3, 1)] + [quotient_generator(k, 1, 3, 1) for k in KINDS]
    elems = named.copy()
    for _ in range(4):
        x = rng.choice(named)
        for _ in range(rng.randint(1, 2)):
            x = x * rng.choice(named)
        elems.append(x)
    verdicts = set()
    for a in elems:
        for b in elems:
            verdict = ideal_inclusion(a, b, 1)
            assert verdict is _literal_inclusion(a, b, 1), (a, b)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_inclusion_matches_the_literal_ideal_d2():
    # the chain, ytl outside ftl, and pairs moved by framing generators t_j,
    # which the closure must multiply by as well as by the g_i
    rng = random.Random(4102)
    g, r, c = (quotient_generator(k, 2, 3, 1) for k in KINDS)
    t = gen_t(2, 3, rng.randint(1, 3))
    s = gen_g(2, 3, rng.randint(1, 2))
    pairs = [(r, g), (c, r), (c, g), (g, r), (t * g * s, g), (s * r * t, r),
             (t * c, r), (t * r, c)]
    verdicts = set()
    for a, b in pairs:
        verdict = ideal_inclusion(a, b, 2)
        assert verdict is _literal_inclusion(a, b, 2), (a, b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_chain_at_d3():
    g, r, c = (quotient_generator(k, 3, 3, 1) for k in KINDS)
    assert ideal_inclusion(r, g, 3)
    assert ideal_inclusion(c, r, 3)
    assert not ideal_inclusion(g, r, 3)


def _partitions(k: int, most: int) -> list:
    """Partitions of k with parts at most most, as non-increasing tuples."""
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(min(k, most), 0, -1)
            for rest in _partitions(k - first, first)]


def _tableaux(shape: tuple) -> int:
    """Standard Young tableaux of a shape, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + sum(1 for below in shape[i + 1:] if below > j)
    return math.factorial(sum(shape)) // hooks


def _multipartition_dims(d: int, n: int) -> list:
    """(multipartition, dimension of its simple module) over the
    d-multipartitions of n: n! / prod |p|! times prod f^p, f^p the
    standard tableaux of the component p."""
    out = []
    for sizes in itertools.product(range(n + 1), repeat=d):
        if sum(sizes) == n:
            for mp in itertools.product(*(_partitions(k, k) for k in sizes)):
                dim = math.factorial(n)
                for p in mp:
                    dim = dim // math.factorial(sum(p)) * _tableaux(p)
                out.append((mp, dim))
    return out


# Which simple modules of Y_{d,n} survive in each quotient, as found from
# the closures below (not a cited theorem): those whose Young diagrams have
# at most two rows in total for YTL, in every component for FTL, and in one
# fixed component for CTL (by symmetry any one gives the same count).
_SURVIVES = {"ytl": lambda mp: sum(map(len, mp)) <= 2,
             "ftl": lambda mp: all(len(p) <= 2 for p in mp),
             "ctl": lambda mp: len(mp[0]) <= 2}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quotient_dimensions_match_the_multipartition_count(d):
    # d^3 3! minus the rank of each closed ideal is the dimension of the
    # quotient, and it equals the sum of dim^2 over the surviving simple
    # modules, a count that reads no algebra code
    dims = _multipartition_dims(d, 3)
    assert sum(dim * dim for _, dim in dims) == d ** 3 * 6
    counts = {kind: sum(dim * dim for mp, dim in dims if _SURVIVES[kind](mp)) for kind in KINDS}
    assert counts == {1: {"ytl": 5, "ftl": 5, "ctl": 5},
                      2: {"ytl": 28, "ftl": 46, "ctl": 47},
                      3: {"ytl": 69, "ftl": 159, "ctl": 161}}[d]
    for kind in KINDS:
        gen = quotient_generator(kind, d, 3, 1)
        # the unit is in no proper ideal, so this grows the ideal to its end
        assert not ideal_inclusion(AlgebraElement.unit(d, 3), gen, d)
        rank = len(_ideal(_canonical(gen.terms), d)[0].rows)
        assert d ** 3 * 6 - rank == counts[kind], kind


def _is_primitive(row):
    """Int content 1, lowest power of u 0, and no common factor in Q[u]."""
    coeffs = [v for c in row.values() for v in c.values()]
    gcd = None
    for c in row.values():
        p = sum((Poly.variable("u", e) * v for e, v in c.items()), Poly())
        gcd = p if gcd is None else _uni_poly_gcd(gcd, p, "u")
    return (math.gcd(*coeffs) == 1 and min(e for c in row.values() for e in c) == 0
            and gcd.degree_in("u") == 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_span_matches_the_ratfunc_rows(d):
    # rank and membership of the fraction-free echelon against _Rows over
    # Q(u), on seeded elements and combinations of them, which lie in the span
    rng = random.Random(4300 + d)
    span, ref = _Span(), _Rows()
    elems, ranks, members = [], set(), set()
    for step in range(24):
        x = random_laurent_element(rng, d)
        if len(elems) >= 2 and step % 3 == 2:
            a, b = rng.sample(elems, 2)
            x = a.scale(random_laurent(rng)) + b.scale(random_laurent(rng))
        if step % 2:  # membership only
            member = not span.reduce(x.terms)
            assert member is not ref.reduce(_vec(x)), step
            members.add(member)
            continue
        elems.append(x)
        added = span.insert(x.terms) is not None
        assert added is ref.insert(_vec(x)), step
        ranks.add(added)
        assert len(span.rows) == len(ref.rows)
        assert all(_is_primitive(row) for row in span.rows.values())
    assert ranks == members == {True, False}


def _ratvec(vec):
    return {c: sum((v * U ** e for e, v in p.items()), RatFunc.const(0))
            for c, p in vec.items()}


def test_span_steps_on_unit_pivots_with_a_power_of_u():
    # rows whose pivot entry is +-u^k with k != 0 after _primitive: each
    # vector's smallest column holds +-u^k and a later one a lower power.
    # Inserted from the last pivot column down, every later vector meets the
    # rows stored before it only at their unit pivots.  Rank and membership
    # are checked against _Rows over Q(u)
    rng = random.Random(4500)
    span, ref = _Span(), _Rows()
    vecs = []
    for col in range(11, -1, -1):
        vec = {col: {rng.randint(1, 3): rng.choice((1, -1))}}
        for c in rng.sample(range(col + 1, 14), min(3, 13 - col)):
            vec[c] = {rng.randint(-2, 0): rng.choice((-2, -1, 1, 3)), 1: rng.randint(1, 2)}
        vec[13] = {-1: rng.choice((1, -1))}  # a lower power in every vector
        assert (span.insert(vec) is not None) is ref.insert(_ratvec(vec))
        vecs.append(vec)
    units = [k for col, row in span.rows.items() for k, v in row[col].items()
             if len(row[col]) == 1 and abs(v) == 1]
    assert len(units) == len(span.rows) == 12 and all(units)
    members = set()
    for _ in range(40):
        vec = {}
        if rng.random() < 0.5:  # a combination of the vectors: in the span
            for x in rng.sample(vecs, 3):
                k = rng.choice(({0: 1}, {-1: 2}, {2: -1, 0: 1}))
                for c, p in x.items():
                    _bump(vec, c, _lmul(p, k))
        else:  # a seeded vector: almost never in the span
            for c in rng.sample(range(14), 4):
                vec[c] = {rng.randint(-2, 2): rng.choice((-1, 1, 2))}
        vec = {c: p for c, p in vec.items() if p}
        member = not span.reduce(vec)
        assert member is not ref.reduce(_ratvec(vec))
        members.add(member)
    assert members == {True, False}


def _ref_primitive(vec):
    """The Fraction route that the integer gcd replaced: _content_free, then
    the monic gcd in Q[u] (scalars._uni_gcd) made primitive in Z[u], and
    the entries divided by it through scalars._uni_divmod."""
    vec = _content_free(vec)
    if any(len(c) == 1 for c in vec.values()):
        return vec

    def dense(c):
        return [Fraction(c.get(e, 0)) for e in range(max(c) + 1)]

    g = functools.reduce(_uni_gcd, sorted(map(dense, vec.values()), key=len))
    if len(g) == 1:
        return vec
    scale = math.lcm(*(v.denominator for v in g))
    g = [v * Fraction(scale, math.gcd(*(int(v * scale) for v in g))) for v in g]
    return {col: {e: int(v) for e, v in enumerate(_uni_divmod(dense(c), g)[0]) if v}
            for col, c in vec.items()}


def _zx_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# common factors: 1, u+1, (u+1)^2, 2u-3, -3u+2 (negative lead), u^2+1,
# (2u-3)^2, (u+1)^2 (2u-3) and (u+1)^4
_FACTORS = ([1], [1, 1], [1, 2, 1], [-3, 2], [2, -3], [1, 0, 1], [9, -12, 4],
            [-3, -4, 1, 2], [1, 4, 6, 4, 1])


def _zx_entry(rng, common):
    """common times a seeded cofactor, u-degree up to 4 in all, a random sign
    and content."""
    top = max(0, 4 - (len(common) - 1))
    cof = [rng.randint(-4, 4) for _ in range(rng.randint(0, min(2, top)))]
    cof.append(rng.choice((-3, -2, -1, 1, 2)))
    scale = rng.choice((1, 1, -1, 2, -3))
    return [v * scale for v in _zx_mul(common, cof)]


def _ref_zx_gcd(a, b):
    g = _uni_gcd([Fraction(v) for v in a], [Fraction(v) for v in b])
    scale = math.lcm(*(v.denominator for v in g))
    ints = [int(v * scale) for v in g]
    return [v // math.gcd(*ints) for v in ints]


def test_integer_content_gcd_matches_the_fraction_euclid():
    # _zx_gcd against scalars._uni_gcd made primitive in Z[u], and the whole
    # _primitive step against the Fraction route it replaced
    rng = random.Random(4400)
    degrees, negative_leads = set(), set()
    for _ in range(300):
        common = rng.choice(_FACTORS)
        a, b = _zx_entry(rng, common), _zx_entry(rng, common)
        assert _zx_gcd(a, b) == _ref_zx_gcd(a, b), (a, b)
        degrees.add(len(_zx_gcd(a, b)) - 1)
        negative_leads.add(a[-1] < 0)
    assert degrees >= {0, 1, 2, 3, 4} and negative_leads == {True, False}
    nontrivial = 0
    for _ in range(300):
        common = rng.choice(_FACTORS)
        vec = {}
        for col in range(rng.randint(1, 4)):
            shift = rng.randint(-2, 2)
            vec[col] = {e + shift: v for e, v in enumerate(_zx_entry(rng, common)) if v}
        got = _primitive(vec)
        assert got == _ref_primitive(vec), vec
        nontrivial += got != _content_free(vec)
    assert nontrivial > 50


def test_inclusion_rejects_mismatched_algebra():
    _ideal.cache_clear()
    with pytest.raises(ValueError):
        ideal_inclusion(quotient_generator("ytl", 1, 3, 1),
                        quotient_generator("ytl", 2, 3, 1), 2)
    assert _ideal.cache_info().currsize == 0  # a refused call keeps no ideal


def test_inclusion_runs_on_three_strands():
    # the closure has no strand count to pass; 4-strand generators are refused
    _ideal.cache_clear()
    g4 = quotient_generator("ytl", 1, 4, 1)
    with pytest.raises(ValueError):
        ideal_inclusion(g4, g4, 1)
    with pytest.raises(TypeError):
        ideal_inclusion(g4, g4, 1, n=4)
    assert _ideal.cache_info().currsize == 0
