"""Exact scalar layer: cyclotomics, polynomials, rational functions."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from framelink.scalars import (
    Cyclotomic,
    HalfPowerValue,
    Poly,
    RatFunc,
    cyclotomic_polynomial,
    parse_ratfunc,
    ratfunc_eq,
    x_var,
    U,
    Z,
    _POLY_ONE,
    _uni_poly_gcd,
)
from framelink.invariants import lambda_d


def _poly_from_coeffs(coeffs):
    """Univariate polynomial in x from ascending rational coefficients."""
    p = Poly.zero()
    for k, c in enumerate(coeffs):
        p = p + Poly.variable("x", k) * Poly.const(c) if k else p + Poly.const(c)
    return p


# -- cyclotomic polynomials -------------------------------------------------


def test_small_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def test_cyclotomic_product_identity():
    # prod over divisors e | d of Phi_e(x) = x^d - 1, checked for d <= 24
    for d in range(1, 25):
        prod = _poly_from_coeffs([1])
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * _poly_from_coeffs(cyclotomic_polynomial(e))
        target = _poly_from_coeffs([-1] + [0] * (d - 1) + [1])
        assert prod == target, f"divisor product fails at d={d}"


# -- cyclotomic field arithmetic --------------------------------------------


def _random_cyclotomic(rng, m):
    deg = len(cyclotomic_polynomial(m)) - 1
    return Cyclotomic(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(deg)])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_field_axioms(m):
    rng = random.Random(100 + m)
    for _ in range(25):
        a = _random_cyclotomic(rng, m)
        b = _random_cyclotomic(rng, m)
        c = _random_cyclotomic(rng, m)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if a != 0:
            assert a * (1 / a) == Fraction(1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_roots_of_unity(m):
    z = Cyclotomic.root_of_unity(m)
    assert z ** m == Fraction(1)
    for k in range(1, m):
        assert z ** k != Fraction(1)
    # power sum vanishes
    total = Fraction(0)
    for k in range(m):
        total = total + z ** k
    assert total == 0


def test_zeta2_is_minus_one():
    assert Cyclotomic.root_of_unity(2) == Fraction(-1)
    assert type(Cyclotomic.root_of_unity(2)) is Fraction


def test_cross_conductor_promotion():
    # zeta_6^3 = -1 and zeta_6^2 = zeta_3
    z6 = Cyclotomic.root_of_unity(6)
    assert z6 ** 3 == Fraction(-1)
    assert z6 ** 2 == Cyclotomic.root_of_unity(3)
    # mixed-conductor arithmetic promotes to the lcm
    z4 = Cyclotomic.root_of_unity(4)
    z3 = Cyclotomic.root_of_unity(3)
    prod = z4 * z3
    assert prod ** 12 == Fraction(1)
    assert prod == Cyclotomic.root_of_unity(12, 7)  # zeta4*zeta3 = zeta12^(3+4)


def test_rational_demotion():
    # zeta3 + zeta3^2 = -1 collapses to the rational representation
    z = Cyclotomic.root_of_unity(3)
    s = z + z ** 2
    assert type(s) is Fraction
    assert s == Fraction(-1)


def test_equal_cyclotomics_hash_alike():
    # zeta6^2 and zeta3 are one value held at two conductors
    zeta6, zeta3 = Cyclotomic.root_of_unity(6), Cyclotomic.root_of_unity(3)
    assert zeta6 ** 2 == zeta3
    assert len({zeta6 ** 2, zeta3}) == 1


# -- rational functions -----------------------------------------------------


def test_ratfunc_cancellation_equality():
    lhs = (U ** 2 - RatFunc.const(1)) / (U - RatFunc.const(1))
    assert ratfunc_eq(lhs, U + RatFunc.const(1))


def test_ratfunc_equality_without_common_form():
    a = RatFunc.const(1) / (U * Z)
    b = Z / (U * Z * Z)
    assert a == b
    assert (U / Z) != (Z / U)


def test_ratfunc_field_ops():
    rng = random.Random(7)
    consts = [RatFunc.const(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(6)]
    vals = [U, Z, x_var(1), U + Z, U * Z - RatFunc.const(1)] + consts
    for _ in range(40):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a
    assert (U - U).is_zero()


def test_substitution():
    lam = (Z + 1 - U) / (U * Z)
    jones_z = RatFunc.const(-1) / (U + 1)
    assert lam.substitute({"z": jones_z}) == U
    f = (U + Z) ** 2
    g = f.substitute({"z": RatFunc.const(0)})
    assert g == U ** 2
    with pytest.raises(ZeroDivisionError):
        (RatFunc.const(1) / Z).substitute({"z": RatFunc.const(0)})


def test_substitution_rational_function_value():
    f = (Z ** 2 + U) / Z
    val = U / (U + 1)
    expected = (U ** 2 / (U + 1) ** 2 + U) * (U + 1) / U
    assert f.substitute({"z": val}) == expected


def test_renders_pinned():
    # monomial denominators skip the gcd; these are the renders it gave
    assert (U ** -1 - 1).render() == "(-u + 1)/u"
    assert lambda_d(2, 1).render() == "(-u + z + 1)/(u*z)"
    assert ((U * Z + 1) / (3 * U * U * Z)).render() == "(1/3*u*z + 1/3)/(u^2*z)"
    zval = RatFunc.const(-1) / (2 * (U + 1))
    assert lambda_d(3, 2).substitute({"z": zval}).render() == "u"
    # a common (u + 1) cancels only through the univariate gcd
    assert ((U + 1) * (U - 2) / ((U + 1) * (U + 3))).render() == "(u - 2)/(u + 3)"
    assert ((2 * U ** 2 - 2) / (3 * U ** 2 + 6 * U + 3)).render() \
        == "(2/3*u - 2/3)/(u + 1)"
    zeta3 = RatFunc.const(Cyclotomic.root_of_unity(3))
    assert ((U ** 2 - zeta3) * (U + 1) / ((U + 1) * (2 * U - 1))).render() \
        == "(1/2*u^2 + (-1/2*zeta3))/(u - 1/2)"


def _random_laurent(rng):
    """A few terms c * u^a * z^b * x1^c with exponents in [-2, 2], sometimes
    over u + 2 so that the gcd path runs too."""
    f = RatFunc.const(0)
    for _ in range(rng.randint(1, 4)):
        term = RatFunc.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for v in (U, Z, x_var(1)):
            term = term * v ** rng.randint(-2, 2)
        f = f + term
    if rng.random() < 0.3:
        f = f / (U + 2)
    return f


def test_substitution_is_a_ring_map():
    rng = random.Random(2024)
    zeta3 = RatFunc.const(Cyclotomic.root_of_unity(3))
    z_values = [RatFunc.const(-1) / (2 * (U + 1)), U / (U + 2),
                RatFunc.const(Fraction(3, 5)), U ** -1 - 1, zeta3 * U]
    x_values = [U ** -1 - 1, zeta3, RatFunc.const(1) / (U + 3),
                RatFunc.const(-2)]
    for _ in range(30):
        f, g = _random_laurent(rng), _random_laurent(rng)
        m = {"z": rng.choice(z_values), "x1": rng.choice(x_values)}
        fm, gm = f.substitute(m), g.substitute(m)
        assert (f * g).substitute(m) == fm * gm
        assert (f + g).substitute(m) == fm + gm
        # the values hold no z or x1, so one at a time gives the same
        zs, xs = {"z": m["z"]}, {"x1": m["x1"]}
        assert f.substitute(zs).substitute(xs) == fm
        assert f.substitute(xs).substitute(zs) == fm


def _random_uni(rng, zeta):
    """A nonzero polynomial in u of degree <= 3, coefficients in Q or Q(zeta)."""
    while True:
        p = Poly.zero()
        for k in range(rng.randint(0, 3) + 1):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if zeta is not None and rng.random() < 0.5:
                c = c + zeta ** rng.randint(1, 2) * rng.randint(-2, 2)
            p = p + Poly.variable("u", k) * Poly.const(c)
        if not p.is_zero():
            return p


@pytest.mark.parametrize("m", [1, 3])
def test_uni_poly_gcd(m):
    rng = random.Random(31 + m)
    zeta = Cyclotomic.root_of_unity(3) if m == 3 else None
    for _ in range(40):
        a, b, c = (_random_uni(rng, zeta) for _ in range(3))
        g = _uni_poly_gcd(a * c, b * c, "u")
        _, lead = max(g.terms.items(), key=lambda t: t[0][0][1] if t[0] else 0)
        assert lead == Fraction(1)
        assert (a * c).exact_div(g) is not None
        assert (b * c).exact_div(g) is not None
        assert g.exact_div(c) is not None


def test_negative_powers():
    assert U ** -2 * U ** 2 == RatFunc.const(1)
    assert (U / Z) ** -1 == Z / U


# -- canonical-form invariants the arithmetic relies on -----------------------


def _random_poly(rng, m, terms):
    """A polynomial in u, z, x1 with ``terms`` terms over Q(zeta_m)."""
    p = Poly.zero()
    for _ in range(terms):
        mono = Poly.const(_random_cyclotomic(rng, m))
        for v in ("u", "z", "x1"):
            mono = mono * Poly.variable(v, rng.randint(0, 2))
        p = p + mono
    return p


def test_unit_denominator_arithmetic_keeps_the_shared_one():
    rng = random.Random(4242)
    for _ in range(60):
        a, b = (RatFunc(_random_poly(rng, rng.choice((1, 3)), rng.randint(1, 4)))
                for _ in range(2))
        assert a.den is _POLY_ONE and b.den is _POLY_ONE
        prod, total = a * b, a + b
        # the reference goes through the general path: a.den * b.den is a new
        # Poly equal to 1, not the shared _POLY_ONE
        ref_prod = RatFunc(a.num * b.num, a.den * b.den)
        ref_total = RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
        assert prod.den is _POLY_ONE and prod.num == ref_prod.num
        assert total.den is _POLY_ONE
        assert total.num == ref_total.num and total.den == ref_total.den
        # one unit side against a general denominator
        g = b / (U + 2) / U ** rng.randint(0, 2) if not b.is_zero() else b
        mixed = RatFunc(a.num * g.num, a.den * g.den)
        assert (a * g).num == mixed.num and (a * g).den == mixed.den
        assert (g * a).num == mixed.num and (g * a).den == mixed.den


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_cancelled_irrational_part_has_conductor_one(m):
    rng = random.Random(900 + m)
    zeta = Cyclotomic.root_of_unity(m)
    for _ in range(20):
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        w = _random_cyclotomic(rng, m)
        k = rng.randint(1, m - 1)
        rat = Fraction(q)
        for val in ((rat + w) - w, w + rat + (-w), -(w - rat - w),
                    zeta ** k * zeta ** (m - k) * q):
            assert type(val) is Fraction
            assert val == rat and hash(val) == hash(rat)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_poly_results_store_no_zero_coefficient(d):
    rng = random.Random(70 + d)

    def clean(p):
        return all(c != 0 for c in p.terms.values())

    for _ in range(40):
        p = _random_poly(rng, d, rng.randint(1, 4))
        r = _random_poly(rng, d, rng.randint(1, 2))
        q = r - p  # shares p's monomials with opposite coefficients
        results = [p + q, q + p, p - p, -(p - r), p * q - q * p,
                   (p + q) * p - r * p, p * Fraction(0)]
        for res in results:
            assert clean(res)
            assert res == Poly(res.terms)
        assert p + q == r and (p - p).is_zero() and (p * q - q * p).is_zero()


# -- rendering and parsing --------------------------------------------------


def test_render_deterministic_graded_lex():
    p = U * U + U * Z + Z * Z + U + RatFunc.const(1)
    assert p.render() == "u^2 + u*z + z^2 + u + 1"
    q = U * Z * x_var(1) - RatFunc.const(Fraction(1, 2))
    assert q.render() == "u*z*x1 - 1/2"


def test_parse_render_roundtrip():
    rng = random.Random(11)
    samples = [
        U + Z,
        (U ** 2 - 1) / (U * Z ** 3),
        (Z + 1 - U) / (U * Z),
        x_var(1) * x_var(2) - RatFunc.const(Fraction(2, 3)) * U,
        RatFunc.const(Cyclotomic.root_of_unity(3)) * U + RatFunc.const(1),
        RatFunc.const(1) / (U * Z),
        -U,
        RatFunc.const(0),
    ]
    for _ in range(20):
        a = rng.choice(samples)
        b = rng.choice(samples)
        if not b.is_zero():
            samples.append(a / b)
        samples.append(a * b - rng.choice(samples))
    for f in samples:
        assert parse_ratfunc(f.render()) == f, f.render()


def test_inexact_coefficients_are_refused():
    with pytest.raises(TypeError):
        Poly({(): 0.5})
    with pytest.raises(TypeError):
        RatFunc.const(0.5)


def _coefficients(f: RatFunc):
    return list(f.num.terms.values()) + list(f.den.terms.values())


def test_coefficients_are_fractions_or_cyclotomics():
    from framelink.invariants import InvariantRequest, invariant
    from framelink.quotients import _generic_scan
    from helpers import random_braid

    rng = random.Random(515)
    values = []
    for d, D in ((1, (0,)), (2, (1,)), (2, (0, 1)), (3, (1,)), (3, (0, 2))):
        for _ in range(4):
            b = random_braid(rng, rng.randint(2, 3), rng.randint(1, 4), "framed", d)
            val = invariant(InvariantRequest(b, "framed", d, D)).value
            values += [val.value, val.base]
    values += [value for _, value in _generic_scan("ytl", 3)]
    values += [parse_ratfunc(v.render()) for v in values[::4]]
    kinds = {type(c) for f in values for c in _coefficients(f)}
    assert kinds == {Fraction, Cyclotomic}


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ratfunc("u +")
    with pytest.raises(ValueError):
        parse_ratfunc("2 ** 3")
    with pytest.raises(ValueError):
        parse_ratfunc("u $ z")


# -- half powers ------------------------------------------------------------


def test_half_power_folding():
    lam = (Z + 1 - U) / (U * Z)
    v = HalfPowerValue(RatFunc.const(1), 5, lam)   # lam^(5/2)
    assert v.half == 1
    assert v.value == lam ** 2
    w = v.times_half_steps(-5)
    assert w.half == 0
    assert w.value == RatFunc.const(1)


def test_half_power_addition_rules():
    lam = (Z + 1 - U) / (U * Z)
    a = HalfPowerValue(U, 1, lam)
    b = HalfPowerValue(Z, 1, lam)
    assert (a + b).value == U + Z
    zero = HalfPowerValue(RatFunc.const(0), 0, lam)
    assert a + zero == a
    with pytest.raises(ValueError):
        a + HalfPowerValue(Z, 0, lam)


def test_half_power_equality_and_substitution():
    lam = (Z + 1 - U) / (U * Z)
    a = HalfPowerValue(U * lam, 0, lam)
    b = HalfPowerValue(U, 2, lam)
    assert a == b
    sub = b.substitute({"z": RatFunc.const(-1) / (U + 1)})
    assert sub.base == U
    assert sub.value == U * U
