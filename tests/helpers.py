"""Shared randomized constructors for the test suite."""
from __future__ import annotations

import random

from framelink.algebra import AlgebraElement, idempotent_e, inverse_g, split_basis
from framelink.braids import BraidWord
from framelink.scalars import RatFunc, U


def random_element(rng: random.Random, d: int, n: int, nwords: int = 2) -> AlgebraElement:
    out = AlgebraElement.zero(d, n)
    for _ in range(nwords):
        frm = tuple(rng.randrange(d) for _ in range(n))
        p = list(range(1, n + 1))
        rng.shuffle(p)
        coeff = RatFunc.const(rng.randint(-3, 3)) + U * RatFunc.const(rng.randint(0, 2))
        out = out + AlgebraElement.from_word(d, n, frm, tuple(p), coeff)
    return out


def random_laurent(rng: random.Random) -> RatFunc:
    """A nonzero Laurent polynomial in u with a negative power now and then."""
    return rng.choice((1, -1, 2)) * U ** rng.randint(-2, 1) + rng.randint(-2, 2) * U ** 2


def random_laurent_element(rng: random.Random, d: int) -> AlgebraElement:
    """A few split-basis words of Y_{d,3}(u) with Laurent coefficients, at
    times multiplied by an idempotent (den d) or by an inverse generator
    (negative powers of u)."""
    words = list(split_basis(d, 3))
    x = AlgebraElement.zero(d, 3)
    for _ in range(rng.randint(1, 3)):
        x = x + AlgebraElement.from_word(d, 3, *rng.choice(words), random_laurent(rng))
    roll = rng.random()
    if roll < 0.3:
        x = idempotent_e(d, 3, rng.randint(1, 2)) * x
    elif roll < 0.6:
        x = x * inverse_g(d, 3, rng.randint(1, 2))
    return x


def random_braid(rng: random.Random, n: int, length: int, kind: str = "classical",
                 d: int | None = None) -> BraidWord:
    letters = []
    for _ in range(length):
        roll = rng.random()
        if kind == "framed" and roll < 0.3:
            letters.append(("t", rng.randint(1, n), rng.randint(1, (d or 3) - 1) if (d or 3) > 1 else 1))
        elif kind == "singular" and roll < 0.25:
            letters.append(("x", rng.randint(1, n - 1)))
        else:
            letters.append(("s", rng.randint(1, n - 1), rng.choice((1, -1))))
    return BraidWord(letters, n=n)
