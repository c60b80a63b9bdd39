"""Braid word grammar, Markov moves, and writhe bookkeeping."""
from __future__ import annotations

import random
import re

import pytest

import framelink
from framelink.braids import (
    BraidWord,
    conjugate,
    framing,
    framing_shift,
    parse_braid,
    sigma,
    stabilize,
    tau,
)
from framelink.cli import _random_word


def test_parse_simple_words():
    b = parse_braid("s1 s2 s1")
    assert b.n == 3
    assert b.kind == "classical"
    assert b.letters == (("s", 1, 1), ("s", 2, 1), ("s", 1, 1))


def test_parse_negative_and_framings():
    b = parse_braid("-s1 t2^3 t1")
    assert b.kind == "framed"
    assert b.letters == (("s", 1, -1), ("t", 2, 3), ("t", 1, 1))
    assert b.n == 2


def test_parse_singular():
    b = parse_braid("s1 x2")
    assert b.kind == "singular"
    assert b.n == 3


def test_header_widens_strand_count():
    b = parse_braid("n=4 s1")
    assert b.n == 4
    assert parse_braid("s1").n == 2


def test_header_must_lead():
    with pytest.raises(ValueError):
        parse_braid("s1 n=4")


def test_reject_garbage():
    # indices count from 1: an index 0 is a bad token like any other
    # numbers are written as render writes them: no leading zero, no -0
    for bad in ("q1", "s0", "-s0", "t0", "t0^2", "s01", "s1x2", "t1^", "x0",
                "n=03", "n=00", "t1^007", "t1^00", "t1^-0", "t1^-07", "t01^2"):
        with pytest.raises(ValueError, match=f"^bad braid token '{re.escape(bad)}'$"):
            parse_braid(bad)


def test_exponents_zero_and_one_parse():
    assert parse_braid("t1^0").letters == (("t", 1, 0),)
    assert parse_braid("t1^1").letters == (("t", 1, 1),)
    assert parse_braid("n=10 t10^-10").n == 10
    with pytest.raises(ValueError, match="^word needs at least 1 strand, got n=0$"):
        parse_braid("n=0")
    with pytest.raises(ValueError, match="^word needs at least 2 strands, got n=1$"):
        parse_braid("n=1 s1")


def test_empty_word_is_unknot():
    b = parse_braid("")
    assert b.n == 1 and b.letters == () and b.kind == "classical"
    assert parse_braid("n=2").n == 2


def test_render_roundtrip():
    for text in ("s1 s2 s1", "-s1 t2^3 t1", "n=4 s1 x2", "n=2 t1^-1", "s1 s1 s1"):
        b = parse_braid(text)
        assert parse_braid(b.render()) == b
        assert b.render() == text


def test_epsilon_counts_crossings():
    assert parse_braid("s1 s1 s1").epsilon() == 3
    assert parse_braid("s1 -s2 t1^5").epsilon() == 0
    assert parse_braid("s1 x2 x1").epsilon() == 3


def test_kind_mixing_rules():
    with pytest.raises(ValueError):
        BraidWord((("t", 1, 1), ("x", 1)), n=2)
    both = parse_braid("s1").concat(parse_braid("t1"))
    assert both.kind == "framed"


def test_inverse():
    b = parse_braid("s1 t2^3 -s2")
    assert b.concat(b.inverse()).epsilon() == 0
    assert b.inverse().letters == (("s", 2, 1), ("t", 2, -3), ("s", 1, -1))
    with pytest.raises(ValueError):
        parse_braid("x1").inverse()


def test_conjugate_move():
    b = parse_braid("s1 s1 s1")
    c = parse_braid("s2")
    out = conjugate(b, c)
    assert out.n == 3
    assert out.letters[0] == ("s", 2, 1)
    assert out.letters[-1] == ("s", 2, -1)
    assert out.epsilon() == b.epsilon()


def test_stabilize_moves():
    b = parse_braid("s1 s1 s1")
    up = stabilize(b, 1)
    assert up.n == 3 and up.letters[-1] == ("s", 2, 1)
    dn = stabilize(b, -1)
    assert dn.n == 3 and dn.letters[-1] == ("s", 2, -1)
    assert up.epsilon() == b.epsilon() + 1
    assert dn.epsilon() == b.epsilon() - 1


def test_framing_shift_needs_d():
    b = parse_braid("s1")
    with pytest.raises(TypeError):
        framing_shift(b, 1)
    out = framing_shift(b, 1, 3)
    assert out.letters[-1] == ("t", 1, 3)


def test_letter_constructors():
    assert sigma(1) == ("s", 1, 1)
    assert sigma(2, -1) == ("s", 2, -1)
    assert framing(3, 2) == ("t", 3, 2)
    assert tau(1) == ("x", 1)
    word = BraidWord([sigma(1), framing(2, -1)])
    assert word.kind == "framed" and word.n == 2
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        sigma(1, 2)
    # the constructors follow BraidWord's letter rule: int fields, no bool
    for make in (lambda: sigma(1.5), lambda: sigma(True), lambda: framing(1, 0.5),
                 lambda: tau(2.0)):
        with pytest.raises(ValueError, match="malformed braid letter"):
            make()


def test_embed():
    b = parse_braid("s1")
    wide = b.embed(4)
    assert wide.n == 4 and wide.letters == b.letters
    with pytest.raises(ValueError):
        b.embed(1)


@pytest.mark.parametrize("letter", [
    (), ("s",), ("s", "1", 1), ("t", 1, 1.5), ("s", 1, 2), ("x", 1, 1),
    ("q", 1), ("s", 1, True), ("s", 0, 1), ("t", 1.0, 1), 5,
])
def test_malformed_letters_are_refused(letter):
    with pytest.raises(ValueError, match="malformed braid letter"):
        BraidWord([letter])


def test_header_below_the_letters_is_refused():
    with pytest.raises(ValueError, match="needs at least 3 strands"):
        parse_braid("n=2 s2")
    with pytest.raises(ValueError):
        framing_shift(parse_braid("s1"), 3, 2)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"], ids=repr)
def test_strand_count_must_be_an_int(n):
    # a float header would break the render -> parse round trip
    with pytest.raises(ValueError, match="strand count must be an int") as exc:
        BraidWord([("s", 1, 1)], n=n)
    assert len(str(exc.value).splitlines()) == 1


def test_kind_comes_from_the_letters():
    assert BraidWord([("s", 1, 1)], n=2) == parse_braid("s1")
    assert BraidWord([("t", 1, 0)]).kind == "framed"
    assert parse_braid("x1").concat(parse_braid("s1")).kind == "singular"
    with pytest.raises(TypeError):
        BraidWord([("s", 1, 1)], n=2, kind="framed")
    with pytest.raises(ValueError):
        parse_braid("x1").concat(parse_braid("t1"))
    with pytest.raises(ValueError):
        framing_shift(parse_braid("x1"), 1, 2)
    with pytest.raises(ValueError):
        conjugate(parse_braid("s1"), parse_braid("x1"))


def test_words_survive_render_and_parse():
    rng = random.Random(2024)
    for family in ("framed", "classical", "singular"):
        for d in (1, 2, 3):
            for _ in range(20):
                n = rng.randint(2, 4)
                w = _random_word(rng, n, rng.randrange(0, 7), family, d)
                by = _random_word(rng, n, rng.randrange(0, 3), "classical", d)
                moved = [conjugate(w, by), stabilize(w, 1), stabilize(w, -1)]
                if family != "singular":
                    moved.append(framing_shift(w, rng.randint(1, n), d))
                for word in [w] + moved:
                    assert parse_braid(word.render()) == word, word.render()


def test_package_exports_resolve():
    assert len(framelink.__all__) == len(set(framelink.__all__))
    for name in framelink.__all__:
        assert hasattr(framelink, name), name
