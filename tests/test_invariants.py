"""Invariant normalization, Markov invariance, skein checks, specializations."""
from __future__ import annotations

import importlib
import itertools
import pkgutil
import random

import pytest

import framelink
import oracle_hecke as oracle
from framelink import trace
from framelink.algebra import map_to_algebra
from framelink.braids import BraidWord, conjugate, parse_braid, stabilize
from framelink.esystem import build_solution
from framelink.invariants import (
    MAX_LAMBDA_EXPONENT,
    InvariantRequest,
    InvariantValue,
    compare_links,
    framed_jones,
    homflypt,
    invariant,
    jones,
    lambda_d,
    verify_skein,
)
from framelink.scalars import Cyclotomic, HalfPowerValue, RatFunc, RATFUNC_ONE, U, Z
from framelink.trace import Tracer
from helpers import random_braid

TREFOIL = parse_braid("s1 s1 s1")
FIG8 = parse_braid("s1 -s2 s1 -s2")


def test_lambda_formula():
    assert lambda_d(1, 1) == (Z + 1 - U) / (U * Z)
    assert lambda_d(3, 2) == (2 * Z + 1 - U) / (2 * U * Z)
    for size in (1, 2, 3):
        zval = RatFunc.const(-1) / ((U + 1) * RatFunc.const(size))
        assert lambda_d(3, size).substitute({"z": zval}) == U
    with pytest.raises(ValueError):
        lambda_d(2, 0)


def test_unknot_is_one_everywhere():
    unknot = parse_braid("")
    for family, d, D in (("classical", 1, (0,)), ("framed", 2, (0, 1)),
                         ("framed", 3, (1,)), ("singular", 2, (0,))):
        v = invariant(InvariantRequest(unknot, family, d, D))
        assert v.value.half == 0 and v.value.value == RATFUNC_ONE


def test_stabilized_unknots_are_one():
    for word in ("s1", "-s1"):
        b = parse_braid(word)
        for family, d, D in (("classical", 1, (0,)), ("framed", 2, (0,)),
                             ("framed", 2, (0, 1)), ("singular", 3, (0, 2))):
            v = invariant(InvariantRequest(b, family, d, D))
            assert v.value.half == 0 and v.value.value == RATFUNC_ONE


def test_trefoil_matches_independent_expansion():
    got = homflypt(TREFOIL)
    want_value, want_half = oracle.homflypt_value(TREFOIL.letters, 2)
    assert got.value.half == want_half
    assert got.value.value == want_value
    assert got.epsilon == 3 and got.n == 2


def test_jones_trefoil_frozen():
    v = jones(TREFOIL)
    assert v.value.half == 0
    assert v.value.value == -(U ** 4) + U ** 3 + U


def test_jones_is_homflypt_specialized():
    rng = random.Random(11)
    zval = RatFunc.const(-1) / (U + 1)
    for _ in range(6):
        b = random_braid(rng, rng.randint(2, 3), rng.randint(1, 6))
        assert jones(b).value == homflypt(b).value.substitute({"z": zval})


def test_framed_jones_reduces_to_jones_at_d1():
    rng = random.Random(12)
    for _ in range(6):
        b = random_braid(rng, rng.randint(2, 3), rng.randint(1, 5))
        assert framed_jones(b, 1, (0,)).value == jones(b).value


def test_framed_jones_refuses_the_empty_subset():
    with pytest.raises(ValueError, match="non-empty"):
        framed_jones(TREFOIL, 2, ())
    with pytest.raises(ValueError, match="repeated"):
        framed_jones(TREFOIL, 2, (0, 2))
    with pytest.raises(ValueError, match="modulus"):
        framed_jones(TREFOIL, 0, (0,))


def test_framed_equals_classical_on_zero_framings():
    rng = random.Random(13)
    for d, D in ((2, (0,)), (2, (0, 1)), (3, (0, 2))):
        for _ in range(4):
            b = random_braid(rng, rng.randint(2, 3), rng.randint(1, 5))
            cl = invariant(InvariantRequest(b, "classical", d, D))
            fr = invariant(InvariantRequest(b, "framed", d, D))
            assert cl.value == fr.value


def test_singular_equals_classical_on_tau_free_words():
    rng = random.Random(14)
    for _ in range(4):
        b = random_braid(rng, 3, 4)
        cl = invariant(InvariantRequest(b, "classical", 2, (0, 1)))
        sg = invariant(InvariantRequest(b, "singular", 2, (0, 1)))
        assert cl.value == sg.value


@pytest.mark.parametrize("family,d,D", [
    ("classical", 1, (0,)),
    ("framed", 2, (0, 1)),
    ("singular", 2, (0,)),
])
def test_markov_move_invariance(family, d, D):
    kind = {"classical": "classical", "framed": "framed", "singular": "singular"}[family]
    rng = random.Random(hash((family, d)) % 10 ** 6)
    for _ in range(6):
        n = rng.randint(2, 3)
        b = random_braid(rng, n, rng.randint(2, 5), kind=kind, d=d)
        base = invariant(InvariantRequest(b, family, d, D))
        conj = conjugate(b, random_braid(rng, n, 2))
        up = stabilize(b, 1)
        dn = stabilize(b, -1)
        for moved in (conj, up, dn):
            v = invariant(InvariantRequest(moved, family, d, D))
            assert v == base
            assert v.value.half == base.value.half


def test_skein_framed():
    for d, D in ((1, (0,)), (2, (0,)), (2, (0, 1)), (3, (0, 1))):
        assert verify_skein("framed", parse_braid("n=2"), 1, d, D)
        assert verify_skein("framed", parse_braid("s1 t2"), 1, d, D)


def test_skein_cubic():
    assert verify_skein("cubic", parse_braid("s1"), 1, 1, (0,))
    assert verify_skein("cubic", parse_braid("s1 s2 s1"), 2, 2, (0, 1))


def test_skein_singular():
    assert verify_skein("singular", parse_braid("n=2"), 1, 2, (0,))
    assert verify_skein("singular", parse_braid("x1 s2"), 2, 3, (0, 2))


def test_skein_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_skein("framed", parse_braid("s1"), 2, 2, (0,))
    with pytest.raises(ValueError):
        verify_skein("quintic", parse_braid("s1"), 1, 2, (0,))


def test_compare_links():
    conj = conjugate(TREFOIL, parse_braid("s1"))
    assert compare_links(TREFOIL, conj, "classical", 1, (0,))
    assert compare_links(TREFOIL, stabilize(TREFOIL, -1), "classical", 1, (0,))
    assert not compare_links(TREFOIL, parse_braid(""), "classical", 1, (0,))


def test_distinguishes_small_knots():
    assert not compare_links(TREFOIL, FIG8, "classical", 1, (0,))
    assert not compare_links(FIG8, parse_braid(""), "classical", 1, (0,))


def test_incompatible_kind_errors():
    framed_word = parse_braid("s1 t1")
    with pytest.raises(ValueError):
        InvariantRequest(framed_word, "classical", 2, (0,))
    with pytest.raises(ValueError):
        InvariantRequest(parse_braid("x1"), "framed", 2, (0,))
    with pytest.raises(ValueError):
        InvariantRequest(parse_braid("s1"), "jones", 1, (0,))


def test_meta_mismatch_not_comparable():
    a = homflypt(TREFOIL)
    b = invariant(InvariantRequest(TREFOIL, "classical", 2, (0, 1)))
    with pytest.raises(ValueError):
        a == b


def test_json_shape():
    v = invariant(InvariantRequest(TREFOIL, "classical", 1, (0,)))
    out = v.to_json()
    assert out["family"] == "classical" and out["d"] == 1 and out["D"] == [0]
    assert out["n"] == 2 and out["epsilon"] == 3
    assert isinstance(out["value"], str) and out["value"]


# -- the |D| reduction against the algebra at the request's own (d, D) -----


def _direct_value(b, d, D) -> HalfPowerValue:
    """z^-(n-1) lambda_D^((eps-n+1)/2) tr_D(image) in Y_{d,n} itself."""
    sol = build_solution(d, D)
    t = Tracer(d, sol.x[1:]).value(map_to_algebra(b, d))
    n = b.n
    return HalfPowerValue(t * Z ** (-(n - 1)), b.epsilon() - (n - 1),
                          lambda_d(d, len(sol.D)))


def _subsets_to_check(rng, d):
    """Every subset for d <= 3; at d = 4 the non-subgroups {0,1} and {1,3}
    and one random subset of each size."""
    if d <= 3:
        return [D for k in range(1, d + 1) for D in itertools.combinations(range(d), k)]
    return [(0, 1), (1, 3)] + [tuple(sorted(rng.sample(range(d), k)))
                               for k in range(1, d + 1)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_direct_path_matches_invariant(d):
    # invariant traces a word without framing letters at d' = |D|; here the
    # same value is built in Y_{d,n} at the request's own D, with no reduction
    rng = random.Random(4100 + d)
    for D in _subsets_to_check(rng, d):
        for family in ("classical", "singular", "classical", "singular"):
            b = random_braid(rng, rng.randint(2, 3), rng.randint(1, 5), kind=family)
            got = invariant(InvariantRequest(b, family, d, D))
            want = _direct_value(b, d, D)
            assert got.value == want, (d, D, b.render())
            assert got.render() == want.render(), (d, D, b.render())
            assert (got.d, got.D) == (d, tuple(sorted(D)))


KNOTS = [parse_braid(w) for w in ("s1 s1 s1", "s1 -s2 s1 -s2", "s1 s2 s1 s2 s1 s2 s1 s2")]
KNOT_SUBSETS = [(2, (0, 1)), (2, (1,)), (3, (0, 2)), (3, (0, 1, 2)), (4, (0, 1)),
                (4, (1, 2, 3))]


def _scaled_homflypt(b, size) -> HalfPowerValue:
    return homflypt(b).value.substitute({"z": RatFunc.const(size) * Z})


@pytest.mark.parametrize("knot", KNOTS, ids=lambda b: b.render())
def test_knots_are_homflypt_at_scaled_z(knot):
    # on a knot the invariant is Homflypt with z -> |D| z (Chlouveraki and
    # Lambropoulou, "The Yokonuma-Hecke algebras and the HOMFLYPT polynomial")
    for d, D in KNOT_SUBSETS:
        got = invariant(InvariantRequest(knot, "classical", d, D)).value
        want = _scaled_homflypt(knot, len(D))
        assert got == want, (d, D)
        assert got.base == want.base == lambda_d(d, len(D))


@pytest.mark.parametrize("word", ["s1 s1", "s1 s1 s1 s1", "s1 -s1"])
def test_links_are_not_scaled_homflypt(word):
    # a two-component link tells |D| >= 2 apart from that substitution, so
    # the invariant is not Homflypt in disguise
    b = parse_braid(word)
    for d, D in [(d, D) for d, D in KNOT_SUBSETS if len(D) >= 2]:
        got = invariant(InvariantRequest(b, "classical", d, D)).value
        assert not got == _scaled_homflypt(b, len(D)), (d, D)


def test_lambda_exponent_budget():
    # k = |eps - n + 1| // 2 is known from the word alone
    top = 2 * MAX_LAMBDA_EXPONENT + 1
    InvariantRequest(parse_braid(" ".join(["s1"] * (top + 1))), "classical", 1)
    for word in (["s1"] * (top + 2), ["-s1"] * top):
        b = parse_braid(" ".join(word))
        with pytest.raises(ValueError, match="lambda exponent") as exc:
            homflypt(b)
        assert "\n" not in str(exc.value)
    with pytest.raises(ValueError, match="lambda exponent"):
        framed_jones(parse_braid(" ".join(["t1 s1"] * (top + 2))), 2, (0, 1))


def _cached_functions() -> dict:
    """Every lru_cache-wrapped function that a framelink module defines, at
    module level or in a class, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(framelink.__path__):
        module = importlib.import_module(f"framelink.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type) and c.__module__ == module.__name__]
        for scope in scopes:
            for obj in scope.values():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


# Every cache that outlives a request has a bound.  quotients._power_table,
# the one keyed on parameter values, fills 196 keys in tier-1 and at most
# 218 in quotient_grid (warm-up + 3,000 requests, seeds 911-913) of its 1,024.
def test_constant_caches_are_bounded():
    cached = _cached_functions()
    assert {"cli.build_parser", "perms.reduced_word", "scalars._var_rank",
            "quotients._power_table", "algebra._word_product"} <= set(cached)
    for name, function in cached.items():
        assert function.cache_info().maxsize is not None, name


def test_strip_table_is_bounded(monkeypatch):
    # the strip table is a plain dict that drops its oldest key when full;
    # a dropped step is recomputed, so the values stay the same
    b = parse_braid("t1 s1 -s2 t3^2 s1 s2 -s1 t2")
    sol = build_solution(2, (0, 1))
    want = Tracer(2, sol.x[1:]).trace(map_to_algebra(b, 2))
    monkeypatch.setattr(trace, "_STRIP_MAX", 5)
    monkeypatch.setattr(trace, "_STRIP", {})
    got = Tracer(2, sol.x[1:]).trace(map_to_algebra(b, 2))
    assert got == want
    assert len(trace._STRIP) == 5


# -- the formal-z finish against the RatFunc route --------------------------------


def _finish_word(rng, n, family, d):
    """A word on n strands whose crossings are mostly positive or mostly
    negative, so that f = floor(h/2) takes both signs; a framed word gets
    t letters, a singular one tau letters."""
    bias = rng.choice((0.15, 0.5, 0.85))
    letters = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if family == "framed" and (roll < 0.3 or n == 1):
            letters.append(("t", rng.randint(1, n), rng.randint(1, d)))
        elif family == "singular" and roll < 0.25 and n > 1:
            letters.append(("x", rng.randint(1, n - 1)))
        elif n > 1:
            letters.append(("s", rng.randint(1, n - 1), 1 if rng.random() < bias else -1))
    return BraidWord(letters, n=n)


def _terms(p):
    return {mono: (type(c), c) for mono, c in p.terms.items()}


def _json(value, family, d, D, b):
    return InvariantValue(value, family, d, D, b.n, b.epsilon()).to_json()


def test_kernel_finish_matches_the_ratfunc_route():
    # invariant writes z^-(n-1) lambda_D^(h/2) tr in its normal form straight
    # from the trace polynomial; here the same value is multiplied out as
    # RatFuncs from the trace at the request's reduced d, and the two must
    # agree term by term, coefficient types included
    rng = random.Random(1801)
    seen = set()
    for d in (1, 2, 3):
        for D in _subsets_to_check(rng, d):
            for n in (1, 2, 3, 4):
                for family in ("classical", "framed", "singular", "framed"):
                    b = _finish_word(rng, n, family, d)
                    got = invariant(InvariantRequest(b, family, d, D))
                    sol = build_solution(d, D)
                    m = sol.size()
                    at = sol if b.kind == "framed" else build_solution(m, range(m))
                    t = Tracer(at.d, at.x[1:]).value(map_to_algebra(b, at.d))
                    h = b.epsilon() - (n - 1)
                    want = HalfPowerValue(Z ** -(n - 1), h, lambda_d(m, m)).scale(t)
                    where = (d, D, b.render())
                    assert _terms(got.value.value.num) == _terms(want.value.num), where
                    assert _terms(got.value.value.den) == _terms(want.value.den), where
                    assert got.value.half == want.half, where
                    assert got.value.base == want.base, where
                    assert got.render() == want.render(), where
                    assert got.to_json() == _json(want, family, d, sol.D, b), where
                    f = h // 2
                    seen.add(("f", (f > 0) - (f < 0)))
                    if f < 0 and not t.is_zero():
                        seen.add(("divides", want.value.den.is_constant()))
                    if t.is_zero():
                        seen.add("zero")
                    if any(type(c) is Cyclotomic for c in want.value.num.terms.values()):
                        seen.add(("cyclotomic", d, D))
    assert {("f", 1), ("f", 0), ("f", -1), ("divides", True), ("divides", False),
            "zero", ("cyclotomic", 3, (0, 1))} <= seen, seen


# -- Jones values against the z-substitution route -----------------------------


def _substituted(b, family, d, D):
    """The formal-z invariant with z = -1/((u+1)|D|) substituted, built
    without the Jones path."""
    formal = invariant(InvariantRequest(b, family, d, D))
    zval = RatFunc.const(-1) / ((U + 1) * RatFunc.const(len(formal.D)))
    return formal, formal.value.substitute({"z": zval})


def _jones_word(rng, n, length, framed, d):
    """A word on n strands; a framed one gets a t letter, with exponents up
    to 2d so that some reach past d."""
    if not framed:
        return BraidWord([("s", rng.randint(1, n - 1), rng.choice((1, 1, -1)))
                          for _ in range(length if n > 1 else 0)], n=n)
    letters = [("t", rng.randint(1, n), rng.randint(1, 2 * d))]
    for _ in range(length - 1):
        if n > 1 and rng.random() < 0.7:
            letters.append(("s", rng.randint(1, n - 1), rng.choice((1, 1, -1))))
        else:
            letters.append(("t", rng.randint(1, n), rng.randint(1, 2 * d)))
    rng.shuffle(letters)
    return BraidWord(letters, n=n)


def _assert_same_jones(got, b, family, d, D):
    formal, want = _substituted(b, family, d, D)
    assert got.value.value == want.value, (d, D, b.render())
    assert got.value.half == want.half, (d, D, b.render())
    assert got.value.base == U and want.base == U
    assert got.render() == want.render(), (d, D, b.render())
    assert got.to_json() == dict(formal.to_json(), value=want.render())
    assert (got.family, got.d, got.D, got.n, got.epsilon) == \
        (formal.family, formal.d, formal.D, formal.n, formal.epsilon)


def test_jones_values_match_the_substitution_route():
    # every non-empty D for d <= 3, n = 1..4, classical and framed words;
    # the cases must reach odd and even h = eps - (n-1), negative and
    # positive f = floor(h/2), and every z-degree 0..n-1 of the trace
    rng = random.Random(1501)
    seen = set()
    case = 0
    for d in (1, 2, 3):
        for D in _subsets_to_check(rng, d):
            for n in (1, 2, 3, 4):
                for framed in (False, True):
                    case += 1
                    length = case % (7 if n < 4 or d < 3 else 5)
                    b = _jones_word(rng, n, length, framed, d)
                    _assert_same_jones(framed_jones(b, d, D), b, "framed", d, D)
                    if not framed:
                        _assert_same_jones(jones(b), b, "classical", 1, (0,))
                    h = b.epsilon() - (n - 1)
                    t = Tracer(d, build_solution(d, D).x[1:]).value(map_to_algebra(b, d))
                    seen |= {("h", h % 2), ("f", (h // 2 > 0) - (h // 2 < 0)),
                             ("z", n, t.num.degree_in("z"))}
    assert {("h", 0), ("h", 1), ("f", -1), ("f", 1)} <= seen
    assert {("z", n, j) for n in (1, 2, 3, 4) for j in range(n)} <= seen


def test_jones_values_substitute_nothing(monkeypatch):
    # the Jones path reads the value off the trace polynomial; a call of the
    # rational substitution would mean the slow route came back
    def refuse(*args, **kwargs):
        raise AssertionError("substitute called")

    monkeypatch.setattr(RatFunc, "substitute", refuse)
    monkeypatch.setattr(HalfPowerValue, "substitute", refuse)
    assert jones(TREFOIL).value.value == -(U ** 4) + U ** 3 + U
    assert jones(parse_braid("-s1 -s1")).value.half == 1
    framed_jones(parse_braid("t1 s1 -s2 t3^2 s1"), 3, (0, 2))
    framed_jones(FIG8, 2, (0, 1))
