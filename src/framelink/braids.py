"""Braid words: classical, framed, and singular.

A word is a sequence of letters acting on n strands:

* ``("s", i, +1)`` / ``("s", i, -1)`` -- the braid generator sigma_i or its
  inverse, 1 <= i <= n-1;
* ``("t", j, k)`` -- the framing generator t_j to the integer power k,
  1 <= j <= n (framed words only);
* ``("x", i)`` -- the singular generator tau_i, 1 <= i <= n-1 (singular
  words only; tau has no inverse).

The textual grammar is whitespace-separated tokens ``s<i>``, ``-s<i>``,
``t<j>^<k>`` (``t<j>`` means k = 1), ``x<i>``, with an optional leading
``n=<int>`` header; without a header the strand count defaults to one more
than the largest index used (minimum 1, so the empty word is the unknot).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

Letter = tuple  # ("s", i, sign) | ("t", j, k) | ("x", i)

CLASSICAL = "classical"
FRAMED = "framed"
SINGULAR = "singular"


def sigma(i: int, sign: int = 1) -> Letter:
    if sign not in (1, -1):
        raise ValueError("sigma sign must be +1 or -1")
    if i < 1:
        raise ValueError("sigma index must be >= 1")
    return ("s", i, sign)


def framing(j: int, k: int = 1) -> Letter:
    if j < 1:
        raise ValueError("framing index must be >= 1")
    return ("t", j, k)


def tau(i: int) -> Letter:
    if i < 1:
        raise ValueError("tau index must be >= 1")
    return ("x", i)


def _min_strands(letters: Iterable[Letter]) -> int:
    n = 1
    for letter in letters:
        if letter[0] in ("s", "x"):
            n = max(n, letter[1] + 1)
        else:
            n = max(n, letter[1])
    return n


def _infer_kind(letters: Sequence[Letter]) -> str:
    has_t = any(l[0] == "t" for l in letters)
    has_x = any(l[0] == "x" for l in letters)
    if has_t and has_x:
        raise ValueError("a word cannot mix framing and singular letters")
    if has_x:
        return SINGULAR
    if has_t:
        return FRAMED
    return CLASSICAL


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid / framed braid / singular braid monoid on n strands."""

    n: int
    letters: tuple[Letter, ...]
    kind: str

    def __init__(self, letters: Iterable[Letter], n: int | None = None,
                 kind: str | None = None):
        letters = tuple(tuple(l) for l in letters)
        need = _min_strands(letters)
        if n is None:
            n = need
        elif n < need:
            raise ValueError(f"word needs at least {need} strands, got n={n}")
        inferred = _infer_kind(letters)
        if kind is None:
            kind = inferred
        else:
            if kind not in (CLASSICAL, FRAMED, SINGULAR):
                raise ValueError(f"unknown braid kind {kind!r}")
            widen = {CLASSICAL: {CLASSICAL}, FRAMED: {CLASSICAL, FRAMED},
                     SINGULAR: {CLASSICAL, SINGULAR}}
            if inferred not in widen[kind]:
                raise ValueError(f"letters require kind {inferred!r}, got {kind!r}")
        for letter in letters:
            if letter[0] not in ("s", "t", "x") or letter[1] < 1:
                raise ValueError(f"malformed braid letter {letter}")
            if letter[0] == "s" and (len(letter) != 3 or letter[2] not in (1, -1)):
                raise ValueError(f"malformed braid letter {letter}")
            if letter[0] == "t" and len(letter) != 3:
                raise ValueError(f"malformed braid letter {letter}")
            if letter[0] == "x" and len(letter) != 2:
                raise ValueError(f"malformed braid letter {letter}")
            if letter[0] in ("s", "x") and letter[1] > n - 1:
                raise ValueError(f"letter {letter} out of range for n={n}")
            if letter[0] == "t" and letter[1] > n:
                raise ValueError(f"letter {letter} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "kind", kind)

    # -- basic structure ----------------------------------------------------

    def epsilon(self) -> int:
        """Algebraic crossing count: sigma exponents plus one per tau."""
        total = 0
        for letter in self.letters:
            if letter[0] == "s":
                total += letter[2]
            elif letter[0] == "x":
                total += 1
        return total

    def concat(self, other: "BraidWord") -> "BraidWord":
        n = max(self.n, other.n)
        kind = self.kind
        if other.kind != kind:
            if CLASSICAL in (self.kind, other.kind):
                kind = self.kind if other.kind == CLASSICAL else other.kind
            else:
                raise ValueError("cannot concatenate framed and singular words")
        return BraidWord(self.letters + other.letters, n=n, kind=kind)

    def inverse(self) -> "BraidWord":
        """Group inverse; defined only for words without singular letters."""
        inv = []
        for letter in reversed(self.letters):
            if letter[0] == "s":
                inv.append(("s", letter[1], -letter[2]))
            elif letter[0] == "t":
                inv.append(("t", letter[1], -letter[2]))
            else:
                raise ValueError("singular letters have no inverse")
        return BraidWord(inv, n=self.n, kind=self.kind)

    def embed(self, n: int) -> "BraidWord":
        if n < self.n:
            raise ValueError("cannot embed into fewer strands")
        return BraidWord(self.letters, n=n, kind=self.kind)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        parts = []
        if self.n > _min_strands(self.letters):
            parts.append(f"n={self.n}")
        for letter in self.letters:
            if letter[0] == "s":
                parts.append(f"s{letter[1]}" if letter[2] > 0 else f"-s{letter[1]}")
            elif letter[0] == "t":
                parts.append(f"t{letter[1]}" if letter[2] == 1 else f"t{letter[1]}^{letter[2]}")
            else:
                parts.append(f"x{letter[1]}")
        return " ".join(parts)

    def __str__(self):
        return self.render()


_TOKEN = re.compile(
    r"^(?:(?P<header>n=(?P<n>\d+))|(?P<neg>-)?s(?P<si>\d+)|t(?P<tj>\d+)(?:\^(?P<tk>-?\d+))?|x(?P<xi>\d+))$")


def parse_braid(text: str, n: int | None = None, kind: str | None = None) -> BraidWord:
    """Parse the token grammar; inverse of ``BraidWord.render``."""
    letters: list[Letter] = []
    header_n = None
    for pos, token in enumerate(text.split()):
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad braid token {token!r}")
        if m.group("header"):
            if pos != 0:
                raise ValueError("n=<int> header must come first")
            header_n = int(m.group("n"))
        elif m.group("si"):
            letters.append(("s", int(m.group("si")), -1 if m.group("neg") else 1))
        elif m.group("tj"):
            k = int(m.group("tk")) if m.group("tk") is not None else 1
            letters.append(("t", int(m.group("tj")), k))
        else:
            letters.append(("x", int(m.group("xi"))))
    if header_n is not None:
        if n is not None and n != header_n:
            raise ValueError(f"explicit n={n} conflicts with header n={header_n}")
        n = header_n
    return BraidWord(letters, n=n, kind=kind)


# ---------------------------------------------------------------------------
# Markov moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovMove:
    """conjugate(by), stabilize_pos, stabilize_neg, or framing_shift(j, k)."""

    tag: str
    by: "BraidWord | None" = None
    j: int = 0
    k: int = 0

    @staticmethod
    def conjugate(by: BraidWord) -> "MarkovMove":
        return MarkovMove("conjugate", by=by)

    @staticmethod
    def stabilize_pos() -> "MarkovMove":
        return MarkovMove("stabilize_pos")

    @staticmethod
    def stabilize_neg() -> "MarkovMove":
        return MarkovMove("stabilize_neg")

    @staticmethod
    def framing_shift(j: int, k: int = 1) -> "MarkovMove":
        return MarkovMove("framing_shift", j=j, k=k)


def apply_move(b: BraidWord, move: MarkovMove, d: int | None = None) -> BraidWord:
    """Apply one Markov move, returning the new word.

    Conjugation keeps the strand count; stabilization appends sigma_n^{+-1}
    on one extra strand; framing_shift multiplies the framing of strand j by
    t_j^{k*d}, which is trivial modulo d and therefore only meaningful for
    framed words considered modulo d (pass the modulus).
    """
    if move.tag == "conjugate":
        by = move.by
        if by is None:
            raise ValueError("conjugate needs a conjugating word")
        if any(l[0] == "x" for l in by.letters):
            raise ValueError("conjugating word must be invertible (no tau letters)")
        n = max(b.n, by.n)
        return by.embed(n).concat(b.embed(n)).concat(by.inverse().embed(n))
    if move.tag == "stabilize_pos":
        return BraidWord(b.letters + (("s", b.n, 1),), n=b.n + 1, kind=b.kind)
    if move.tag == "stabilize_neg":
        return BraidWord(b.letters + (("s", b.n, -1),), n=b.n + 1, kind=b.kind)
    if move.tag == "framing_shift":
        if d is None:
            raise ValueError("framing_shift is a modular move; pass the modulus d")
        if b.kind == SINGULAR:
            raise ValueError("framing_shift does not apply to singular words")
        if not 1 <= move.j <= b.n:
            raise ValueError(f"strand {move.j} out of range")
        return BraidWord(b.letters + (("t", move.j, move.k * d),), n=b.n, kind=FRAMED)
    raise ValueError(f"unknown Markov move {move.tag!r}")
