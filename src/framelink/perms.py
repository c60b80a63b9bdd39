"""Permutations of {1..n} in one-line notation.

A permutation is a tuple ``p`` of length n with ``p[j-1] = p(j)``; products
compose like functions, applying the rightmost factor first, and the simple
transposition ``s_i`` swaps i and i+1.
"""
from __future__ import annotations

import functools
from itertools import permutations as _itertools_permutations
from typing import Iterator

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def transposition(n: int, i: int) -> Perm:
    """The simple transposition s_i = (i, i+1) in S_n, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} does not exist in S_{n}")
    return right_mul_s(identity(n), i)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for j, v in enumerate(p):
        inv[v - 1] = j + 1
    return tuple(inv)


def right_mul_s(p: Perm, i: int) -> Perm:
    """p * s_i: swaps the entries in positions i, i+1."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def ascends(p: Perm, i: int) -> bool:
    """True iff l(p * s_i) > l(p), i.e. p(i) < p(i+1)."""
    return p[i - 1] < p[i]


# Tier-1 fills 39 keys in one process, the workloads at most 9 (warm-up +
# 3,000 requests, 600 for cli_cache, seeds 911-913); 256 is over 4x the
# largest.
@functools.lru_cache(maxsize=256)
def reduced_word(p: Perm) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_m) with p = s_{i_1} ∘ ... ∘ s_{i_m}.

    Deterministic: always strips the smallest right descent, so g_p is the
    product g_{i_1} ... g_{i_m} read left to right.
    """
    word_rev: list[int] = []
    q = list(p)
    n = len(q)
    while True:
        for i in range(1, n):
            if q[i - 1] > q[i]:
                word_rev.append(i)
                q[i - 1], q[i] = q[i], q[i - 1]
                break
        else:
            break
    return tuple(reversed(word_rev))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in a deterministic (lexicographic one-line) order."""
    return _itertools_permutations(range(1, n + 1))


def embed(p: Perm, n: int) -> Perm:
    """Embed into S_n by fixing the new top strands."""
    if n < len(p):
        raise ValueError("cannot embed into a smaller symmetric group")
    return p + tuple(range(len(p) + 1, n + 1))
