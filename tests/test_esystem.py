"""Subset solutions, residuals, Fourier transform, and trace consistency."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from framelink.algebra import idempotent_e
from framelink.esystem import (
    build_solution,
    e_d_value,
    enumerate_solutions,
    esystem_residual,
    fourier_transform,
    inverse_fourier,
)
from framelink.scalars import Cyclotomic, RatFunc, U
from framelink.trace import Tracer, juyumaya_trace, specialized_params
from helpers import random_element


def test_full_subset_and_singleton():
    sol = build_solution(4, (0,))
    assert all(v == Fraction(1) for v in sol.x)
    sol2 = build_solution(2, (0, 1))
    assert sol2.x[1] == 0


def test_single_nonzero_residue_classes():
    sol = build_solution(3, (1,))
    assert sol.x[1] == Cyclotomic.root_of_unity(3, 1)
    assert sol.x[2] == Cyclotomic.root_of_unity(3, 2)


def test_subset_normalization():
    assert build_solution(3, (4,)).D == (1,)
    with pytest.raises(ValueError):
        build_solution(3, ())
    with pytest.raises(ValueError):
        build_solution(3, (1, 4))


@pytest.mark.parametrize("d", range(1, 9))
def test_residuals_vanish_for_all_subsets(d):
    sols = enumerate_solutions(d)
    assert len(sols) == 2 ** d - 1
    assert len({sol.x for sol in sols}) == len(sols)  # distinct D, distinct x
    for sol in sols:
        assert all(r == 0 for r in esystem_residual(sol.x))


def test_nonsolutions_have_nonzero_residual():
    assert any(r != 0 for r in esystem_residual((1, 2)))
    # x_1 = 1 at d = 2 is the D = {0} solution
    assert all(r == 0 for r in esystem_residual((1, 1)))


def test_residual_accepts_ratfunc_entries():
    res = esystem_residual((RatFunc.const(1), U))
    assert any(not r.is_zero() for r in res)


def test_fourier_of_solutions():
    for d in (1, 2, 3, 4, 5, 6):
        for sol in enumerate_solutions(d):
            data = fourier_transform(sol.x)
            assert data.support == sol.D
            scale = Fraction(d, len(sol.D))
            for k in sol.D:
                assert data.y[k] == scale


def test_fourier_trivial_vectors():
    assert fourier_transform((1,)).y[0] == Fraction(1)
    data = fourier_transform((1, 0, 0))
    assert data.support == (0, 1, 2)
    assert all(v == Fraction(1) for v in data.y)


@pytest.mark.parametrize("d", range(1, 9))
def test_fourier_roundtrip(d):
    rng = random.Random(d)
    vec = tuple(Cyclotomic.root_of_unity(d, rng.randrange(d)) * Fraction(rng.randint(-2, 2), 3)
                for _ in range(d))
    assert inverse_fourier(fourier_transform(vec).y) == vec
    data = fourier_transform(inverse_fourier(vec))
    assert data.y == vec


def test_e_d_value():
    assert e_d_value(build_solution(3, (1,))) == 1
    assert e_d_value(build_solution(2, (0, 1))) == Fraction(1, 2)
    assert e_d_value(build_solution(4, (0, 1, 3))) == Fraction(1, 3)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_trace_of_idempotent_specializes_to_e_d(d):
    for sol in enumerate_solutions(d):
        val = juyumaya_trace(idempotent_e(d, 2, 1), specialized_params(sol))
        assert val == RatFunc.const(e_d_value(sol))


@pytest.mark.parametrize("d", (2, 3))
def test_e_condition_factoring(d):
    # with specialized parameters tr(alpha e_n) = tr(e_n) tr(alpha)
    rng = random.Random(40 + d)
    for sol in enumerate_solutions(d)[:4]:
        tracer = Tracer(specialized_params(sol))
        ed = RatFunc.const(e_d_value(sol))
        for n in (2, 3):
            for _ in range(3):
                alpha = random_element(rng, d, n)
                lhs = tracer.trace(alpha.embed(n + 1) * idempotent_e(d, n + 1, n))
                assert lhs == ed * tracer.trace(alpha)
