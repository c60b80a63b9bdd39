"""Braid words: classical, framed, and singular.

A word is a sequence of letters acting on n strands:

* ``("s", i, +1)`` / ``("s", i, -1)`` -- the braid generator sigma_i or its
  inverse, 1 <= i <= n-1;
* ``("t", j, k)`` -- the framing generator t_j to the integer power k,
  1 <= j <= n (framed words only);
* ``("x", i)`` -- the singular generator tau_i, 1 <= i <= n-1 (singular
  words only; tau has no inverse).

The textual grammar is whitespace-separated tokens ``s<i>``, ``-s<i>``,
``t<j>^<k>`` (``t<j>`` means k = 1), ``x<i>``, indices from 1, with an
optional leading ``n=<int>`` header; no number has a leading zero, and the
exponent 0 has no sign.  Without a header the strand count defaults to one
more than the largest index used (minimum 1, so the empty word is the
unknot).
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
    return _checked([("s", i, sign)])[0]


def framing(j: int, k: int = 1) -> Letter:
    return _checked([("t", j, k)])[0]


def tau(i: int) -> Letter:
    return _checked([("x", i)])[0]


def _checked(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """The letters as tuples, each a known tag with its arity, int fields,
    an index >= 1 and, for sigma, a sign of +1 or -1."""
    out = []
    for letter in letters:
        try:
            letter = tuple(letter)
        except TypeError:
            raise ValueError(f"malformed braid letter {letter!r}") from None
        size = len(letter)
        if size == 3:
            tag, i, e = letter
            ok = (type(i) is int and type(e) is int and i >= 1
                  and (tag == "t" or (tag == "s" and (e == 1 or e == -1))))
        else:
            ok = size == 2 and letter[0] == "x" and type(letter[1]) is int and letter[1] >= 1
        if not ok:
            raise ValueError(f"malformed braid letter {letter!r}")
        out.append(letter)
    return tuple(out)


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
    """A word in the braid / framed braid / singular braid monoid on n strands.

    Its kind is read off its letters: singular with a tau letter, framed with
    a framing letter, classical otherwise.
    """

    n: int
    letters: tuple[Letter, ...]
    kind: str

    def __init__(self, letters: Iterable[Letter], n: int | None = None):
        letters = _checked(letters)
        need = _min_strands(letters)
        if n is None:
            n = need
        elif type(n) is not int:
            raise ValueError(f"strand count must be an int, got n={n!r}")
        elif n < need:
            noun = "strand" if need == 1 else "strands"
            raise ValueError(f"word needs at least {need} {noun}, got n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "kind", _infer_kind(letters))

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
        return BraidWord(self.letters + other.letters, n=max(self.n, other.n))

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
        return BraidWord(inv, n=self.n)

    def embed(self, n: int) -> "BraidWord":
        if n < self.n:
            raise ValueError("cannot embed into fewer strands")
        return BraidWord(self.letters, n=n)

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
    r"^(?:(?P<header>n=(?P<n>0|[1-9]\d*))|(?P<neg>-)?s(?P<si>[1-9]\d*)"
    r"|t(?P<tj>[1-9]\d*)(?:\^(?P<tk>0|-?[1-9]\d*))?|x(?P<xi>[1-9]\d*))$")


def parse_braid(text: str) -> BraidWord:
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
    return BraidWord(letters, n=header_n)


# ---------------------------------------------------------------------------
# Markov moves
# ---------------------------------------------------------------------------


def conjugate(b: BraidWord, by: BraidWord) -> BraidWord:
    """by b by^-1 on max(b.n, by.n) strands; by must have no tau letters."""
    return BraidWord(by.letters + b.letters + by.inverse().letters, n=max(b.n, by.n))


def stabilize(b: BraidWord, sign: int) -> BraidWord:
    """b sigma_n^sign on one extra strand, sign +1 or -1."""
    return BraidWord(b.letters + (("s", b.n, sign),), n=b.n + 1)


def framing_shift(b: BraidWord, j: int, d: int) -> BraidWord:
    """b t_j^d: the framing of strand j moves by d, which is trivial modulo d."""
    if b.kind == SINGULAR:
        raise ValueError("framing_shift does not apply to singular words")
    return BraidWord(b.letters + (("t", j, d),), n=b.n)
