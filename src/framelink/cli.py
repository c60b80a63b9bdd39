"""Command-line surface: parse inputs, run computations, cache results.

Subcommands:

* ``esystem``      list or build the subset solutions for a modulus d
* ``invariant``    evaluate the framed / classical / singular invariant
* ``homflypt``     classical invariant at d = 1
* ``jones``        Homflypt specialized at z = -1/(u+1)
* ``framed-jones`` framed invariant at z = -1/((u+1)|D|)
* ``verify``       run a named verification suite (relations, skein,
                   markov, quotients); exits 1 on any failure
* ``compare``      evaluate one invariant on two braids; exits 1 when the
                   values differ, like cmp(1)
* ``batch``        one braid per input line, JSON-lines output

Invariant values can be cached in an append-only JSON-lines file given by
``--cache`` or the FRAMELINK_CACHE environment variable.  Records are keyed
by (command, family, d, D, canonical braid text, tool version); a cache hit
renders identically to recomputation.  Exit status: 0 success, 1
verification failure or difference, 2 usage error.
"""
from __future__ import annotations

import argparse
import fcntl
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .algebra import verify_relation
from .braids import BraidWord, MarkovMove, apply_move, parse_braid, sigma
from .esystem import build_solution, check_modulus, enumerate_solutions
from .invariants import (
    FAMILIES,
    InvariantRequest,
    compare_links,
    framed_jones,
    homflypt,
    invariant,
    jones,
    verify_skein,
)
from .quotients import QuotientCheck, admissible, trace_vanishes_on_ideal
from .scalars import U, RatFunc

CACHE_ENV = "FRAMELINK_CACHE"
# Each step in d multiplies the cost of `verify --what quotients`: --d 3
# takes ~5-6 s and --d 4 ~28 s (2 vCPU, Python 3.11), so --d is capped.
MAX_QUOTIENT_VERIFY_D = 3
RELATION_NAMES = ("cubic", "cubic_factorization", "gipi", "quadratic_p",
                  "eta_relations", "bmw_quintic_factorization")


# -- cache -------------------------------------------------------------------


def _cache_key(command: str, family: str, d: int, D, braid_text: str) -> dict:
    return {"command": command, "family": family, "d": d, "D": list(D),
            "braid": braid_text, "tool": __version__}


def cache_get(path: str, key: dict):
    """Last record with this exact key, or None; cache trouble is not fatal.
    A line that is torn, not UTF-8, not JSON, or not a record whose value is
    an object with a string "value" is skipped."""
    try:
        hit = None
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    rec = json.loads(line.decode("utf-8"))
                except ValueError:  # UnicodeDecodeError is one too
                    continue
                if isinstance(rec, dict) and rec.get("key") == key:
                    value = rec.get("value")
                    if isinstance(value, dict) and isinstance(value.get("value"), str):
                        hit = value
        return hit
    except FileNotFoundError:
        return None
    except OSError as exc:
        print(f"cache read failed: {exc}", file=sys.stderr)
        return None


def cache_put(path: str, key: dict, value: dict) -> None:
    """Append one record under an exclusive lock.  A torn last line (a crash
    mid-write) is ended first, so it cannot swallow this record."""
    line = json.dumps({"key": key, "value": value}, sort_keys=True) + "\n"
    try:
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after the flush
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
    except OSError as exc:
        print(f"cache write failed: {exc}", file=sys.stderr)


def _cached_eval(cache_path, command, family, d, D, braid_text, compute):
    """compute() -> InvariantValue; returns the JSON record, via cache."""
    key = _cache_key(command, family, d, D, braid_text)
    if cache_path:
        hit = cache_get(cache_path, key)
        if hit is not None:
            return hit
    record = compute().to_json()
    if cache_path:
        cache_put(cache_path, key, record)
    return record


# -- argument plumbing -------------------------------------------------------


def _parse_subset(text: str):
    if not text.strip():
        raise ValueError("subset must list at least one residue")
    return tuple(int(p) for p in text.split(","))


def _add_braid_opts(sub):
    sub.add_argument("--braid", required=True,
                     help='braid word, e.g. "s1 s1 s1" or "t2^3 -s1 x2"')
    sub.add_argument("--cache", help=f"JSON-lines cache path (default ${CACHE_ENV})")
    sub.add_argument("--json", action="store_true", help="emit the JSON record")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared.  It holds no
    environment values: main() reads FRAMELINK_CACHE on every call."""
    ap = argparse.ArgumentParser(
        prog="framelink",
        description="Exact link invariants from the Yokonuma-Hecke algebra.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("esystem", help="subset solutions of the E-system")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--subset", help="comma-separated residues of one subset")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invariant", help="framed / classical / singular invariant")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--subset", default="0")
    _add_braid_opts(p)

    p = sub.add_parser("homflypt", help="classical invariant at d=1")
    _add_braid_opts(p)

    p = sub.add_parser("jones", help="Homflypt at z = -1/(u+1)")
    _add_braid_opts(p)

    p = sub.add_parser("framed-jones", help="framed invariant at z = -1/((u+1)|D|)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--subset", default="0")
    _add_braid_opts(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--what", choices=("relations", "skein", "markov", "quotients"),
                   required=True)
    p.add_argument("--d", type=int, help="largest modulus (default 2)")
    p.add_argument("--n", type=int, help="strand budget for random words (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, help="random samples per combination")

    p = sub.add_parser("compare", help="same invariant value on two braids?")
    p.add_argument("--family", choices=FAMILIES, default="classical")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--subset", default="0")
    p.add_argument("--braid-a", required=True)
    p.add_argument("--braid-b", required=True)

    p = sub.add_parser("batch", help="one braid per line, JSON-lines out")
    p.add_argument("--file", required=True)
    p.add_argument("--family", choices=FAMILIES, default="classical")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--subset", default="0")
    p.add_argument("--cache", help=f"JSON-lines cache path (default ${CACHE_ENV})")

    return ap


# -- subcommands -------------------------------------------------------------


def _run_esystem(args) -> int:
    if args.subset:
        sols = [build_solution(args.d, _parse_subset(args.subset))]
    else:
        sols = enumerate_solutions(args.d)
    if args.json:
        out = {"d": args.d, "solutions": [
            {"D": list(s.D), "x": [str(v) for v in s.x]} for s in sols]}
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"d={args.d}: {len(sols)} solution(s)")
        for s in sols:
            xs = ", ".join(str(v) for v in s.x)
            print("D={" + ",".join(str(k) for k in s.D) + "}  x = (" + xs + ")")
    return 0


def _emit_value(args, record) -> int:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(record["value"])
    return 0


def _run_invariant(args) -> int:
    D = _parse_subset(args.subset)
    b = parse_braid(args.braid)
    record = _cached_eval(
        args.cache, "invariant", args.family, args.d, D, b.render(),
        lambda: invariant(InvariantRequest(b, args.family, args.d, D)))
    return _emit_value(args, record)


def _run_homflypt(args) -> int:
    b = parse_braid(args.braid)
    record = _cached_eval(args.cache, "homflypt", "classical", 1, (0,),
                          b.render(), lambda: homflypt(b))
    return _emit_value(args, record)


def _run_jones(args) -> int:
    b = parse_braid(args.braid)
    record = _cached_eval(args.cache, "jones", "classical", 1, (0,),
                          b.render(), lambda: jones(b))
    return _emit_value(args, record)


def _run_framed_jones(args) -> int:
    D = _parse_subset(args.subset)
    b = parse_braid(args.braid)
    record = _cached_eval(args.cache, "framed-jones", "framed", args.d, D,
                          b.render(), lambda: framed_jones(b, args.d, D))
    return _emit_value(args, record)


def _run_compare(args) -> int:
    D = _parse_subset(args.subset)
    a = parse_braid(args.braid_a)
    b = parse_braid(args.braid_b)
    same = compare_links(a, b, args.family, args.d, D)
    print("equal" if same else "different")
    return 0 if same else 1


def _run_batch(args) -> int:
    D = _parse_subset(args.subset)
    with open(args.file, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]

    for line in lines:
        b = parse_braid(line)
        record = dict(_cached_eval(
            args.cache, "invariant", args.family, args.d, D, b.render(),
            lambda: invariant(InvariantRequest(b, args.family, args.d, D))),
            braid=b.render())
        print(json.dumps(record, sort_keys=True))
    return 0


# -- verification suites -----------------------------------------------------


def _random_word(rng: random.Random, n: int, length: int, family: str,
                 d: int) -> BraidWord:
    kind = {"framed": "framed", "singular": "singular",
            "classical": "classical"}[family]
    letters = []
    for _ in range(length):
        roll = rng.random()
        if kind == "framed" and roll < 0.3:
            letters.append(("t", rng.randrange(1, n + 1), rng.randrange(d)))
        elif kind == "singular" and roll < 0.25:
            letters.append(("x", rng.randrange(1, n)))
        else:
            letters.append(("s", rng.randrange(1, n), rng.choice((1, -1))))
    return BraidWord(letters, n=n, kind=kind)


def _verify_relations(args) -> list[str]:
    failures = []
    for d in range(1, (args.d or 3) + 1):
        bad = [name for name in RELATION_NAMES if not verify_relation(name, d)]
        status = "ok" if not bad else "FAIL " + ",".join(bad)
        print(f"relations d={d}: {len(RELATION_NAMES) - len(bad)}"
              f"/{len(RELATION_NAMES)} {status}")
        failures.extend(f"relations d={d} {name}" for name in bad)
    return failures


def _verify_skein(args) -> list[str]:
    rng = random.Random(args.seed)
    n = args.n or 3
    samples = args.samples or 3
    failures = []
    kind_family = {"framed": "framed", "cubic": "classical",
                   "singular": "singular"}
    for d in range(1, (args.d or 2) + 1):
        for sol in enumerate_solutions(d):
            before = len(failures)
            for kind, family in kind_family.items():
                for _ in range(samples):
                    base = _random_word(rng, n, rng.randrange(0, 5), family, d)
                    i = rng.randrange(1, n)
                    if not verify_skein(kind, base, i, d, sol.D):
                        failures.append(
                            f"skein {kind} d={d} D={sol.D} base={base.render()!r} i={i}")
            print(f"skein d={d} D={{{','.join(map(str, sol.D))}}}: "
                  f"{'ok' if len(failures) == before else 'FAIL'}")
    return failures


def _verify_markov(args) -> list[str]:
    rng = random.Random(args.seed)
    n = args.n or 3
    samples = args.samples or 10
    d = args.d or 2
    failures = []
    for family in FAMILIES:
        D = (0,) if d == 1 else (0, 1)
        before = len(failures)
        for _ in range(samples):
            base = _random_word(rng, n, rng.randrange(1, 7), family, d)
            moved = base
            for _ in range(rng.randrange(1, 4)):
                choice = rng.randrange(4 if family == "framed" else 3)
                if choice == 0:
                    by = _random_word(rng, moved.n, rng.randrange(1, 4),
                                      "classical", d)
                    moved = apply_move(moved, MarkovMove.conjugate(by))
                elif choice == 1:
                    moved = apply_move(moved, MarkovMove.stabilize_pos())
                elif choice == 2:
                    moved = apply_move(moved, MarkovMove.stabilize_neg())
                else:
                    moved = apply_move(
                        moved, MarkovMove.framing_shift(rng.randrange(1, moved.n + 1)),
                        d=d)
            va = invariant(InvariantRequest(base, family, d, D))
            vb = invariant(InvariantRequest(moved, family, d, D))
            if va != vb:
                failures.append(
                    f"markov {family} base={base.render()!r} moved={moved.render()!r}")
        print(f"markov {family} d={d}: {samples} sequence(s) "
              f"{'ok' if len(failures) == before else 'FAIL'}")
    return failures


def _quotient_grid(d_max: int):
    """Deterministic mix of conforming and non-conforming parameter sets."""
    z_tl = -(U + 1) ** -1
    for d in range(1, d_max + 1):
        for sol in enumerate_solutions(d):
            xs = tuple(sol.x[1:])
            m = sol.size()
            if m <= 2:
                for z in (z_tl, -1) if m == 1 else (Fraction(-1, 2),):
                    yield QuotientCheck("ytl", d, z, xs)
            yield QuotientCheck("ytl", d, Fraction(1, 3), xs)
            for z in (Fraction(-1, m), -((U + 1) * m) ** -1, 5):
                yield QuotientCheck("ftl", d, z, xs)
            for z in (RatFunc.const(Fraction(-1, m)) if 0 in sol.D else RatFunc.const(2),
                      -((U + 1) * m) ** -1 if 0 in sol.D else RatFunc.const(Fraction(-3, 7)),
                      RatFunc.const(1)):
                yield QuotientCheck("ctl", d, z, xs)


def _verify_quotients(args) -> list[str]:
    d_max = args.d or 2
    if d_max > MAX_QUOTIENT_VERIFY_D:
        raise ValueError(f"verify --what quotients --d {d_max} exceeds the budget "
                         f"of --d <= {MAX_QUOTIENT_VERIFY_D}")
    failures = []
    counts = {}
    failed_kinds = set()
    for check in _quotient_grid(d_max):
        closed = admissible(check)
        scanned = trace_vanishes_on_ideal(check)
        counts[check.kind] = counts.get(check.kind, 0) + 1
        if closed != scanned:
            failed_kinds.add(check.kind)
            failures.append(
                f"quotients {check.kind} d={check.d} z={check.zval.render()}"
                f" closed={closed} scan={scanned}")
    for kind in sorted(counts):
        print(f"quotients {kind}: {counts[kind]} parameter set(s) "
              f"{'FAIL' if kind in failed_kinds else 'ok'}")
    return failures


def _run_verify(args) -> int:
    for flag, value, least in (("--d", args.d, 1), ("--n", args.n, 2),
                               ("--samples", args.samples, 1)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    if args.d is not None:
        check_modulus(args.d)
    suite = {"relations": _verify_relations, "skein": _verify_skein,
             "markov": _verify_markov, "quotients": _verify_quotients}[args.what]
    failures = suite(args)
    if failures:
        for f in failures:
            print("FAIL", f)
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "cache") and args.cache is None:
        args.cache = os.environ.get(CACHE_ENV)
    runner = {
        "esystem": _run_esystem,
        "invariant": _run_invariant,
        "homflypt": _run_homflypt,
        "jones": _run_jones,
        "framed-jones": _run_framed_jones,
        "verify": _run_verify,
        "compare": _run_compare,
        "batch": _run_batch,
    }[args.command]
    try:
        return runner(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
