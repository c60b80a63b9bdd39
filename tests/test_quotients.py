"""Quotient trace-passing: closed forms against the ideal-vanishing scan,
and the inclusion chain of the three defining ideals."""

import random
from fractions import Fraction

import pytest

from framelink.algebra import (
    AlgebraElement,
    gen_g,
    gen_t,
    idempotent_e,
    quotient_generator,
    split_basis,
)
from framelink.esystem import enumerate_solutions, inverse_fourier
from framelink.quotients import (
    KINDS,
    QuotientCheck,
    _generic_scan,
    _scan,
    admissible,
    ideal_inclusion,
    quotient_report,
    trace_vanishes_on_ideal,
)
from framelink.scalars import RatFunc, U
from framelink.trace import TraceParams, Tracer

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


def test_rejects_small_n():
    with pytest.raises(ValueError):
        QuotientCheck("ytl", 1, -1, n=2)


def test_large_n_needs_flag():
    with pytest.raises(ValueError):
        trace_vanishes_on_ideal(QuotientCheck("ytl", 1, -1, n=4))


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


# -- deep double loop validates the reduction --------------------------------


@pytest.mark.parametrize("check", [
    QuotientCheck("ytl", 1, Z_TL),
    QuotientCheck("ytl", 1, 5),
    QuotientCheck("ytl", 2, -1, (5,)),
    QuotientCheck("ftl", 2, -HALF, (0,)),
], ids=["ytl1-pass", "ytl1-fail", "ytl2-fail", "ftl2-pass"])
def test_deep_loop_agrees(check):
    assert trace_vanishes_on_ideal(check, deep=True) == trace_vanishes_on_ideal(check)


def test_deep_pairs_spot_check_d3():
    # the full double loop is impractical at d=3; sample pairs directly
    import random

    from framelink.algebra import AlgebraElement, split_basis
    from framelink.trace import TraceParams, Tracer

    sol = next(s for s in enumerate_solutions(3) if s.D == (0, 1))
    check = QuotientCheck("ftl", 3, Fraction(-1, 2), tuple(sol.x[1:]))
    assert trace_vanishes_on_ideal(check)
    gen = quotient_generator("ftl", 3, 3, 1)
    tracer = Tracer(TraceParams(3, check.xs), z=check.zval)
    words = list(split_basis(3, 3))
    rng = random.Random(17)
    for frm_a, perm_a in rng.sample(words, 6):
        frm_b, perm_b = rng.choice(words)
        a = AlgebraElement.from_word(3, 3, frm_a, perm_a)
        b = AlgebraElement.from_word(3, 3, frm_b, perm_b)
        assert tracer.trace(a * gen * b).is_zero()


def test_witness_pair_is_genuine():
    # the reported witness must evaluate nonzero in the literal double loop
    from framelink.algebra import AlgebraElement
    from framelink.trace import TraceParams, Tracer

    check = QuotientCheck("ytl", 2, -1, (5,))
    verdict, witness = _scan(check)
    assert verdict is False
    (frm_a, perm_a), (frm_b, perm_b), _ = witness
    gen = quotient_generator("ytl", 2, 3, 1)
    tracer = Tracer(TraceParams(2, check.xs), z=check.zval)
    a = AlgebraElement.from_word(2, 3, frm_a, perm_a)
    b = AlgebraElement.from_word(2, 3, frm_b, perm_b)
    assert not tracer.trace(a * gen * b).is_zero()


# -- the scan substitutes only a basis of the generic values -----------------


def test_scan_keeps_a_basis():
    sizes = {(kind, d): len(_generic_scan(kind, d, 3))
             for d, kinds in ((1, ("ytl", "ftl", "ctl")), (2, ("ytl", "ftl", "ctl")),
                              (3, ("ytl", "ftl")))
             for kind in kinds}
    assert sizes == {("ytl", 1): 1, ("ftl", 1): 1, ("ctl", 1): 1,
                     ("ytl", 2): 4, ("ftl", 2): 2, ("ctl", 2): 1,
                     ("ytl", 3): 10, ("ftl", 3): 3}


def _literal_scan(check):
    """((a, b, value) or None) from tr(gen . c) over every split-basis word c
    in order, traced under the check's own parameters."""
    gen = quotient_generator(check.kind, check.d, check.n, 1)
    tracer = Tracer(TraceParams(check.d, check.xs), z=check.zval)
    unit_word = ((0,) * check.n, tuple(range(1, check.n + 1)))
    for frm, perm in split_basis(check.d, check.n):
        val = tracer.trace(gen * AlgebraElement.from_word(check.d, check.n, frm, perm))
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
    # deep=True also checks each verdict except a passing one at d = 2, which
    # takes 15 s or more there (test_deep_loop_agrees runs one)
    rng = random.Random(3100 + d)
    for kind in kinds:
        verdicts = set()
        for check in _seeded_points(rng, kind, d):
            verdict, witness = _scan(check)
            assert witness == _literal_scan(check)
            assert verdict is (witness is None)
            assert admissible(check) is verdict
            if d == 1 or (d == 2 and not verdict):
                assert trace_vanishes_on_ideal(check, deep=True) is verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


# -- reports -----------------------------------------------------------------


def test_report_failing_has_witness():
    rep = quotient_report(QuotientCheck("ytl", 1, 5))
    assert rep["verdict"] is False
    assert rep["kind"] == "ytl" and rep["d"] == 1
    wit = rep["witness"]
    assert set(wit) == {"a", "b", "value"}
    assert all(isinstance(v, str) and v for v in wit.values())
    assert wit["value"] != "0"


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


class _Rows:
    """Row reduction over Q(u), apart from quotients._Echelon: rows are kept
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


def _literal_inclusion(genA, genB, d, n=3):
    """Is genA in span{a genB b : a, b split-basis words}?  The double loop
    over the pairs, with a kept only where a genB is not in the span of the
    earlier left multiples; by bilinearity the pairs span the same ideal."""
    words = [AlgebraElement.from_word(d, n, f, p) for f, p in split_basis(d, n)]
    lefts = _Rows()
    kept = [x for x in (a * genB for a in words) if lefts.insert(dict(x.terms))]
    span = _Rows()
    for x in kept:
        for b in words:
            if span.insert(dict((x * b).terms)) and not span.reduce(dict(genA.terms)):
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


def test_inclusion_rejects_mismatched_algebra():
    with pytest.raises(ValueError):
        ideal_inclusion(quotient_generator("ytl", 1, 3, 1),
                        quotient_generator("ytl", 2, 3, 1), 2)
