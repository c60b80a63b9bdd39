"""The three benchmark workloads: seeded inputs, one request, output checks.

Every workload draws its requests from a seeded deck.  A deck holds a fixed
number of requests per input cell and is dealt out with each stratum of
cells (similar cost) spread evenly over it, so any stretch of requests
holds about the same mix whatever the seed; the seed fills in the braid
letters, subsets D, parameter values and the order inside each stratum.

Checks never compare strings, except that a ``cli`` cache hit must print
byte for byte what its miss printed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import tempfile
from collections import Counter
from fractions import Fraction

from framelink import algebra, braids, cli, esystem, invariants, quotients, scalars

U = scalars.U
Z_JONES = scalars.RatFunc.const(-1) / (U + 1)

# Longest word per (d, n).  Costs grow about twofold per inverse crossing
# and have a heavy tail inside every cell; at these lengths single requests
# still take up to ~2 s.  Longer words at d = 3 on 3 or 4 strands take 2 to
# 35 s each, so a handful of them would decide a 15 s run on their own.
MAX_LENGTH = {(1, 2): 8, (1, 3): 8, (1, 4): 8,
              (2, 2): 8, (2, 3): 7, (2, 4): 5,
              (3, 2): 8, (3, 3): 4, (3, 4): 3}
# requests per (d, n, length) in one deck
COPIES = {1: 2, 2: 1, 3: 1}
INVARIANT_OPS = {1: ("homflypt", "jones", "framed_jones", "classical", "framed", "singular"),
                 2: ("framed_jones", "classical", "framed", "singular"),
                 3: ("framed_jones", "classical", "framed", "singular")}
FAMILY = {"homflypt": "classical", "jones": "classical", "framed_jones": "framed"}
# one in CONJUGATE_EVERY of the d >= 2 requests without another exact check
# is also checked against its conjugate word (every such request at d = 1)
CONJUGATE_EVERY = 3
# streams of set-up work, the same for every seed
SETUP_STREAMS = ("warmup", "pristine")


def _subsets(d: int) -> list[tuple[int, ...]]:
    return [c for k in range(1, d + 1) for c in itertools.combinations(range(d), k)]


def _render(letters, n: int) -> str:
    parts = [f"n={n}"]
    for letter in letters:
        if letter[0] == "s":
            parts.append(f"s{letter[1]}" if letter[2] > 0 else f"-s{letter[1]}")
        elif letter[0] == "t":
            parts.append(f"t{letter[1]}^{letter[2]}")
        else:
            parts.append(f"x{letter[1]}")
    return " ".join(parts)


def _special_letters(family: str, length: int) -> int:
    return {"framed": round(0.3 * length), "singular": round(0.25 * length)}.get(family, 0)


def random_letters(rng: random.Random, n: int, length: int, family: str, d: int,
                   inverses: int | None = None):
    """A word of the given family and length.

    Framed words get round(0.3 * length) framing letters, singular words
    round(0.25 * length) tau letters, and the rest are crossings, of which
    ``inverses`` (default: a random number) are inverse crossings.  The
    seeded choices are the positions, strands, signs and exponents.
    """
    special = _special_letters(family, length)
    crossings = length - special
    if inverses is None:
        inverses = sum(rng.random() < 0.5 for _ in range(crossings))
    signs = [-1] * inverses + [1] * (crossings - inverses)
    rng.shuffle(signs)
    letters = [("s", rng.randint(1, n - 1), sign) for sign in signs]
    for _ in range(special):
        if family == "framed":
            letter = ("t", rng.randint(1, n), rng.randint(1, max(1, d - 1)))
        else:
            letter = ("x", rng.randint(1, n - 1))
        letters.insert(rng.randint(0, len(letters)), letter)
    return tuple(letters)


def spread_out(items: list, key, rng: random.Random) -> list:
    """Items in an order that spreads every key's group evenly: item j of a
    group of n lands near position (j + jitter) / n."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    placed = []
    for group in groups.values():
        rng.shuffle(group)
        placed += [((j + rng.random()) / len(group), item) for j, item in enumerate(group)]
    placed.sort(key=lambda t: t[0])
    return [item for _, item in placed]


class Workload:
    """Interface shared by the workloads; the runner calls these in order."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def deck(self, rng: random.Random) -> list:
        raise NotImplementedError

    def rng(self, stream: str) -> random.Random:
        """The random stream of that name.  The set-up streams take no seed,
        so set-up is the same work for every seed."""
        if stream in SETUP_STREAMS:
            return random.Random(f"{self.name}/{stream}")
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    def requests(self, stream: str):
        """Endless requests from the named stream."""
        rng = self.rng(stream)
        while True:
            yield from self.deck(rng)

    def warm_up(self) -> None:
        for req in self.deck(self.rng("warmup")):
            self.execute(req)

    def execute(self, req):
        raise NotImplementedError

    def check(self, req, out) -> str | None:
        """None when the output is right, else why it is wrong."""
        raise NotImplementedError

    def cell(self, req) -> tuple:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- invariant_mix -------------------------------------------------------------


class InvariantMix(Workload):
    """Single invariant values through the library, d <= 3, n <= 4.

    A deck holds COPIES[d] requests per (d, n, length).  Which operation
    each asks for, and how many of its crossings are inverse (half, rounding
    up or down), rotate from deck to deck in the same way for every seed:
    the count of inverse crossings alone explains up to 80% of the spread
    in cost between words of one cell.
    """

    name = "invariant_mix"

    def __init__(self, seed: int, oracle):
        super().__init__(seed)
        self.oracle = oracle
        self._decks = 0

    def deck(self, rng):
        k = self._decks
        self._decks += 1
        out = []
        for (d, n), max_len in MAX_LENGTH.items():
            ops = INVARIANT_OPS[d]
            for length in range(1, max_len + 1):
                for copy in range(COPIES[d]):
                    op = ops[(k + n + length + 3 * copy) % len(ops)]
                    req = self._request(rng, d, n, length, op, k)
                    req["conjugate"] = length > 1 and not self._exact(req) and (
                        d == 1 or (k + n + length + copy) % CONJUGATE_EVERY == 0)
                    out.append(req)
        return spread_out(out, lambda r: (r["d"], r["n"]), rng)

    @staticmethod
    def _request(rng, d, n, length, op, k):
        family = FAMILY.get(op, op)
        crossings = length - _special_letters(family, length)
        letters = random_letters(rng, n, length, family, d, (crossings + k % 2) // 2)
        D = (0,) if op in ("homflypt", "jones") else rng.choice(_subsets(d))
        return {"op": op, "family": family, "d": d, "D": D, "n": n,
                "letters": letters, "text": _render(letters, n)}

    @staticmethod
    def _exact(req) -> bool:
        """Whether check() compares the value with an independent one."""
        op = req["op"]
        return (op == "jones" or (op == "framed_jones" and req["d"] == 1)
                or (op in ("homflypt", "classical") and req["d"] == 1 and req["n"] <= 3))

    @staticmethod
    def _value(req, text: str):
        b = braids.parse_braid(text)
        op = req["op"]
        if op == "homflypt":
            return invariants.homflypt(b)
        if op == "jones":
            return invariants.jones(b)
        if op == "framed_jones":
            return invariants.framed_jones(b, req["d"], req["D"])
        return invariants.invariant(
            invariants.InvariantRequest(b, req["family"], req["d"], req["D"]))

    def execute(self, req):
        return self._value(req, req["text"])

    def check(self, req, out):
        d, n, letters = req["d"], req["n"], req["letters"]
        eps = sum(l[2] if l[0] == "s" else 1 for l in letters if l[0] != "t")
        if (out.d, out.D, out.n, out.epsilon) != (d, tuple(sorted(req["D"])), n, eps):
            return "metadata differs from the request"
        op = req["op"]
        if op in ("jones", "framed_jones"):
            base = U
        else:
            base = invariants.lambda_d(d, len(req["D"]))
        if not out.value.base == base:
            return "half-power base is not lambda_D"
        if op in ("homflypt", "classical") and d == 1 and n <= 3:
            want, half = self.oracle.homflypt_value(letters, n)
            if out.value.half != half or not out.value.value == want:
                return "differs from the Hecke oracle"
        if op == "jones" or (op == "framed_jones" and d == 1):
            # at d = 1 every framing letter is trivial
            plain = braids.BraidWord([l for l in letters if l[0] == "s"], n=n)
            if op == "jones":
                want = invariants.homflypt(plain).value.substitute({"z": Z_JONES})
                if not out.value == want:
                    return "jones differs from homflypt at z = -1/(u+1)"
            elif not out.value == invariants.jones(plain).value:
                return "framed jones at d = 1 differs from jones"
        if req["conjugate"]:
            # moving the first letter to the end conjugates the braid, so the
            # closure is the same link and the trace gives the same value
            rotated = _render(letters[1:] + letters[:1], n)
            if not out.value == self._value(req, rotated).value:
                return "differs from the value of the conjugate word"
        return None

    def cell(self, req):
        return (req["d"], req["n"], len(req["letters"]))


# -- quotient_grid -------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


class QuotientGrid(Workload):
    """Closed form and ideal scan of the YTL / FTL / CTL passing criteria.

    A deck sweeps (kind, d, conforming or not), each on the next E-system
    solution in turn, plus the d <= 2 inclusion chain.  Each point carries
    the verdict its construction implies: the conforming families of the
    closed-form characterization pass, and a positive rational z never
    equals one of the negative passing values.
    """

    name = "quotient_grid"
    # CTL stops at d = 2: its d = 3 generic scan alone takes ~18 s of set-up,
    # and a run sets up three times
    KINDS_AT = {1: quotients.KINDS, 2: quotients.KINDS, 3: ("ytl", "ftl")}
    # points per deck for each (d, conforming), else 1.  Costs fall into
    # clusters: d = 3 scans ~0.6 s, d = 2 scans and inclusions ~0.1 s, the
    # rest (early exits, d = 1) a few ms.  These counts put the 90th
    # percentile among the d = 3 scans and the median among the d = 2 ones,
    # each inside a cluster rather than on the edge between two
    COPIES = {(2, True): 6, (3, True): 4}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.solutions = {d: esystem.enumerate_solutions(d) for d in self.KINDS_AT}
        self.counts = Counter()
        self.inclusions = []
        for d in (1, 2):
            gen = {k: algebra.quotient_generator(k, d, 3, 1) for k in quotients.KINDS}
            self.inclusions.append(((gen["ftl"], gen["ytl"], d), True))
            self.inclusions.append(((gen["ctl"], gen["ftl"], d), True))
        self.inclusions.append(((algebra.AlgebraElement.unit(1, 3),
                                 algebra.quotient_generator("ytl", 1, 3, 1), 1), False))
        self._sweep = 0

    def _point(self, rng, kind, d, conforming, sweep):
        """One check of kind at d and its expected verdict.

        ``sweep`` picks the solution and, once per pass over the solutions,
        which family of z (or x) values is used, the same way for every
        seed: their scans differ in cost up to tenfold.  The seed draws the
        values themselves.
        """
        sols = self.solutions[d]
        if kind == "ytl" and conforming:
            sols = [s for s in sols if s.size() <= 2]
        elif kind == "ctl" and not conforming:
            sols = [s for s in sols if 0 in s.D]
        sol = sols[sweep % len(sols)]
        turn = sweep // len(sols)
        m, xs = sol.size(), sol.x[1:]
        check = quotients.QuotientCheck
        if not conforming:
            if kind == "ytl" and d > 1 and turn % 2:
                xs = tuple(rng.randint(2, 5) for _ in range(d - 1))
                return check(kind, d, -1, xs), False
            return check(kind, d, _rational(rng), xs), False
        if kind == "ytl":
            if m == 2:
                return check(kind, d, Fraction(-1, 2), xs), True
            return check(kind, d, (-(U + 1) ** -1, -1)[turn % 2], xs), True
        if kind == "ctl" and 0 not in sol.D:
            return check(kind, d, _rational(rng) * rng.choice((1, -1)), xs), True
        if kind == "ftl" and d < 3 and turn % 3 == 2:
            # a block assignment: x values rational in u make the substitutions
            # several times slower; at d = 3 one such scan takes ~4 s
            assign = [rng.randrange(3) for _ in range(d)]
            if not any(assign):
                assign[rng.randrange(d)] = rng.randint(1, 2)
            z = scalars.RatFunc.const(-1) / (assign.count(1) + (U + 1) * assign.count(2))
            y = [-d * z * ((U + 1) if a == 2 else 1) if a else 0 for a in assign]
            return check(kind, d, z, esystem.inverse_fourier(y)[1:]), True
        return check(kind, d, (Fraction(-1, m), -((U + 1) * m) ** -1)[turn % 2], xs), True

    def deck(self, rng):
        out = []
        for d, kinds in self.KINDS_AT.items():
            for kind in kinds:
                for conforming in (True, False):
                    copies = self.COPIES.get((d, conforming), 1)
                    for copy in range(copies):
                        check, expect = self._point(rng, kind, d, conforming,
                                                    self._sweep * copies + copy)
                        out.append(("point", check, expect))
        out += [("inclusion",) + inc for inc in self.inclusions]
        self._sweep += 1
        return spread_out(out, lambda r: (r[0], r[2], self.cell(r)[1]), rng)

    def warm_up(self):
        """One check per (kind, d): fills the process-lifetime generic scans
        and conjugation certificates, so requests measure warm checks."""
        rng = self.rng("warmup")
        for d, kinds in self.KINDS_AT.items():
            for kind in kinds:
                check, _ = self._point(rng, kind, d, False, 0)
                quotients.admissible(check)
                quotients.trace_vanishes_on_ideal(check)

    def execute(self, req):
        what, arg, _ = req
        if what == "inclusion":
            return quotients.ideal_inclusion(*arg)
        return quotients.admissible(arg), quotients.trace_vanishes_on_ideal(arg)

    def check(self, req, out):
        what, _, expect = req
        if what == "inclusion":
            return None if out is expect else f"inclusion gave {out}, expected {expect}"
        closed, scanned = out
        self.counts["checks"] += 1
        self.counts["agree"] += closed is scanned
        if closed is not scanned:
            return f"closed form {closed} != scan {scanned}"
        if closed is not expect:
            return f"verdict {closed}, expected {expect}"
        return None

    def cell(self, req):
        what, arg, _ = req
        return ("inclusion", arg[2]) if what == "inclusion" else (arg.kind, arg.d)


# -- cli_cache -----------------------------------------------------------------


class CliCache(Workload):
    """In-process ``framelink`` commands on cheap d = 1 words with --cache.

    Each run copies a pristine cache file of PRISTINE_RECORDS stale records
    (written by earlier tool versions, so they never match) into a private
    directory.  Half of the requests repeat an earlier key and hit; the rest
    are new keys that miss, compute and append a record, so the file grows
    as the run goes on.
    """

    name = "cli_cache"
    PRISTINE_RECORDS = 1500
    HITS = 10
    COMMANDS = ("homflypt", "jones", "invariant")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        os.environ.pop(cli.CACHE_ENV, None)
        self.dir = tempfile.mkdtemp(prefix="cli_cache-", dir=workdir)
        self.pristine = os.path.join(self.dir, "pristine.jsonl")
        self.cache = os.path.join(self.dir, "cache.jsonl")
        self._write_pristine(self.rng("pristine"))
        shutil.copyfile(self.pristine, self.cache)
        self.first_output: dict[tuple, str] = {}
        self.expected: dict[tuple, object] = {}

    def _write_pristine(self, rng):
        versions = [f"0.0.{k}" for k in range(1, 7)]
        with open(self.pristine, "w", encoding="utf-8") as fh:
            for _ in range(self.PRISTINE_RECORDS // len(versions)):
                n = rng.randint(2, 3)
                b = braids.parse_braid(_render(
                    random_letters(rng, n, rng.randint(1, 6), "classical", 1), n))
                value = invariants.homflypt(b).to_json()
                for version in versions:
                    key = {"command": "homflypt", "family": "classical", "d": 1,
                           "D": [0], "braid": b.render(), "tool": version}
                    fh.write(json.dumps({"key": key, "value": value}, sort_keys=True) + "\n")

    @classmethod
    def _argv(cls, rng):
        command = rng.choice(cls.COMMANDS)
        n = rng.randint(2, 3)
        family = rng.choice(("classical", "singular")) if command == "invariant" else "classical"
        letters = random_letters(rng, n, rng.randint(1, 6), family, 1)
        argv = [command]
        if command == "invariant":
            argv += ["--family", family, "--d", "1", "--subset", "0"]
        return argv + ["--braid", _render(letters, n), "--json", "--cache"]

    def requests(self, stream):
        """Decks of HITS new and HITS repeated keys, spread evenly."""
        rng = self.rng(stream)
        seen: list[list[str]] = []
        while True:
            for repeat in spread_out([False, True] * self.HITS, bool, rng):
                if repeat and seen:
                    argv = rng.choice(seen)
                else:
                    argv = self._argv(rng)
                    seen.append(argv)
                yield argv

    def warm_up(self):
        cache = self.cache
        self.cache = os.path.join(self.dir, "warmup.jsonl")
        shutil.copyfile(self.pristine, self.cache)
        try:
            for argv in itertools.islice(self.requests("warmup"), 2 * self.HITS):
                self.execute(argv)
        finally:
            os.remove(self.cache)
            self.cache = cache
            self.first_output.clear()

    def execute(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + [self.cache])
        return code, buf.getvalue()

    def check(self, argv, out):
        code, text = out
        if code != 0:
            return f"exit status {code}"
        key = tuple(argv)
        first = self.first_output.setdefault(key, text)
        if text.encode() != first.encode():
            return "a cache hit printed other bytes than its miss"
        record = json.loads(text)
        want = self.expected.get(key)
        if want is None:
            b = braids.parse_braid(argv[argv.index("--braid") + 1])
            if argv[0] == "homflypt":
                want = invariants.homflypt(b)
            elif argv[0] == "jones":
                want = invariants.jones(b)
            else:
                family = argv[argv.index("--family") + 1]
                want = invariants.invariant(invariants.InvariantRequest(b, family, 1, (0,)))
            self.expected[key] = want
        value, sep, _ = record["value"].partition(" * sqrt(lambda_D)")
        if bool(sep) != bool(want.value.half):
            return "half-power flag differs from the library"
        if not scalars.parse_ratfunc(value) == want.value.value:
            return "cached value differs from the library value"
        if (record["n"], record["epsilon"]) != (want.n, want.epsilon):
            return "record metadata differs from the library"
        return None

    def cell(self, argv):
        text = argv[argv.index("--braid") + 1]
        tokens = text.split()
        return (1, int(tokens[0][2:]), len(tokens) - 1)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
