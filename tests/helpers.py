"""Shared randomized constructors for the test suite."""
from __future__ import annotations

import random

from framelink.algebra import AlgebraElement
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
