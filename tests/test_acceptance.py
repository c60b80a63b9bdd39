"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one "criterion NN [label]: PASS|FAIL" line and, on
failure, raises with the first collected counterexamples.  Everything is
zero-tolerance symbolic equality; no floats are involved anywhere.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle_hecke as oracle
from helpers import random_braid, random_element
from framelink.algebra import (
    AlgebraElement,
    gen_g,
    gen_t,
    idempotent_e,
    inverse_g,
    quotient_generator,
    verify_relation,
)
from framelink.braids import (
    BraidWord,
    conjugate,
    framing_shift,
    parse_braid,
    sigma,
    stabilize,
)
from framelink.esystem import (
    e_d_value,
    enumerate_solutions,
    esystem_residual,
    inverse_fourier,
)
from framelink.invariants import (
    InvariantRequest,
    framed_jones,
    homflypt,
    invariant,
    jones,
    lambda_d,
    verify_skein,
)
from framelink.quotients import (
    QuotientCheck,
    admissible,
    ideal_inclusion,
    trace_vanishes_on_ideal,
)
from framelink.scalars import RatFunc, RATFUNC_ONE, U, Z, x_var
from framelink.trace import Tracer

RELATION_NAMES = ("cubic", "cubic_factorization", "gipi", "quadratic_p",
                  "eta_relations", "bmw_quintic_factorization")
Z_TL = -(U + 1) ** -1


def report(num: int, label: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{label}]: {verdict}")
    assert not failures, (f"criterion {num:02d} [{label}] FAIL: "
                          + "; ".join(str(f) for f in failures[:10]))


def test_criterion_01_algebra_relations():
    failures = []
    for d in (1, 2, 3):
        failures.extend(f"named {name} d={d}" for name in RELATION_NAMES
                        if not verify_relation(name, d))
        for n in (2, 3, 4):
            unit = AlgebraElement.unit(d, n)
            gs = {i: gen_g(d, n, i) for i in range(1, n)}
            ts = {j: gen_t(d, n, j) for j in range(1, n + 1)}
            for i in gs:
                for j in gs:
                    if j - i > 1 and gs[i] * gs[j] != gs[j] * gs[i]:
                        failures.append(f"distant braid d={d} n={n} ({i},{j})")
                if i + 1 in gs and (gs[i] * gs[i + 1] * gs[i]
                                    != gs[i + 1] * gs[i] * gs[i + 1]):
                    failures.append(f"adjacent braid d={d} n={n} i={i}")
                ei = idempotent_e(d, n, i)
                quad = unit + ei.scale(U - 1) + (ei * gs[i]).scale(U - 1)
                if gs[i] * gs[i] != quad:
                    failures.append(f"quadratic d={d} n={n} i={i}")
                if gs[i] * inverse_g(d, n, i) != unit:
                    failures.append(f"inverse d={d} n={n} i={i}")
                for j in ts:
                    s = {i: i + 1, i + 1: i}.get(j, j)
                    if ts[j] * gs[i] != gs[i] * ts[s]:
                        failures.append(f"t-g d={d} n={n} i={i} j={j}")
            for j in ts:
                power = ts[j]
                for _ in range(d - 1):
                    power = power * ts[j]
                if power != unit:
                    failures.append(f"t order d={d} n={n} j={j}")
                for j2 in ts:
                    if ts[j] * ts[j2] != ts[j2] * ts[j]:
                        failures.append(f"t commute d={d} n={n} ({j},{j2})")
    report(1, "defining and named relations", failures)


def test_criterion_02_trace_rules():
    failures = []
    for d in (1, 2, 3):
        tracer = Tracer(d)
        xs = (RATFUNC_ONE,) + tuple(x_var(m) for m in range(1, d))
        for n in (2, 3, 4):
            rng = random.Random(1000 * d + n)
            for _ in range(200):
                a = random_element(rng, d, n)
                ta = tracer.value(a)
                up = a.embed(n + 1)
                if tracer.value(up * gen_g(d, n + 1, n)) != Z * ta:
                    failures.append(f"rule2 d={d} n={n}")
                m = rng.randrange(d)
                if tracer.value(up * gen_t(d, n + 1, n + 1, m)) != xs[m] * ta:
                    failures.append(f"rule3 d={d} n={n} m={m}")
                i = rng.randint(1, n - 1)
                if tracer.value(gen_g(d, n, i) * a * inverse_g(d, n, i)) != ta:
                    failures.append(f"rule1 d={d} n={n} i={i}")
    # d=1 recursion against the brute-force expansion oracle on H_3 products
    tracer1 = Tracer(1)
    frm = (0, 0, 0)
    for p in oracle.left_words(3):
        for q in oracle.left_words(3):
            mine = tracer1.value(AlgebraElement.from_word(1, 3, frm, p)
                                 * AlgebraElement.from_word(1, 3, frm, q))
            ref = oracle.trace(oracle.product(oracle.basis_elem(p),
                                              oracle.basis_elem(q), 3), 3)
            if mine != ref:
                failures.append(f"oracle product {p} {q}")
    report(2, "trace rules and d=1 oracle", failures)


def test_criterion_03_esystem():
    failures = []
    for d in range(1, 9):
        sols = enumerate_solutions(d)
        if len(sols) != 2 ** d - 1:
            failures.append(f"count d={d}: {len(sols)}")
        for sol in sols:
            if any(not r == r * 0 for r in esystem_residual(sol.x)):
                failures.append(f"residual d={d} D={sol.D}")
    for d in range(1, 5):
        for sol in enumerate_solutions(d):
            tracer = Tracer(d, sol.x[1:])
            want = RatFunc.const(e_d_value(sol))
            if tracer.value(idempotent_e(d, 2, 1)) != want:
                failures.append(f"tr_D(e_1) d={d} D={sol.D}")
    # specialized traces absorb a top-strand idempotent as the factor E_D
    for d in (2, 3):
        for sol in enumerate_solutions(d):
            tracer = Tracer(d, sol.x[1:])
            e_val = RatFunc.const(e_d_value(sol))
            rng = random.Random(50 + d)
            for n in (2, 3):
                for _ in range(5):
                    a = random_element(rng, d, n)
                    lhs = tracer.value(a.embed(n + 1) * idempotent_e(d, n + 1, n))
                    if lhs != e_val * tracer.value(a):
                        failures.append(f"E-condition d={d} D={sol.D} n={n}")
    report(3, "E-system solutions and E-condition", failures)


def test_criterion_04_markov_invariance():
    failures = []
    for family, seed in (("framed", 41), ("classical", 42), ("singular", 43)):
        rng = random.Random(seed)
        for case in range(50):
            d = rng.choice((1, 2, 3))
            D = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
            n = rng.randint(2, 4)
            base = random_braid(rng, n, rng.randint(1, 8), kind=family, d=d)
            moved = base
            for _ in range(rng.randint(1, 3)):
                pick = rng.randrange(4 if family == "framed" else 3)
                if pick == 0:
                    by = random_braid(rng, moved.n, rng.randint(1, 2))
                    moved = conjugate(moved, by)
                elif pick == 1:
                    moved = stabilize(moved, 1)
                elif pick == 2:
                    moved = stabilize(moved, -1)
                else:
                    moved = framing_shift(moved, rng.randint(1, moved.n), d)
            va = invariant(InvariantRequest(base, family, d, D))
            vb = invariant(InvariantRequest(moved, family, d, D))
            if va != vb:
                failures.append(f"{family} case={case} base={base.render()!r}")
    report(4, "Markov move invariance", failures)


def test_criterion_05_specialization_chain():
    failures = []
    rng = random.Random(5)
    zval = RatFunc.const(-1) / (U + 1)
    for case in range(30):
        b = random_braid(rng, rng.randint(2, 3), rng.randint(0, 6))
        mine = homflypt(b)
        want_value, want_half = oracle.homflypt_value(b.letters, b.n)
        if mine.value.half != want_half or mine.value.value != want_value:
            failures.append(f"homflypt case={case} braid={b.render()!r}")
        jv = jones(b)
        sub = mine.value.substitute({"z": zval})
        if jv.value != sub:
            failures.append(f"jones case={case}")
        fj = framed_jones(b, 1, (0,))
        if fj.value != jv.value:
            failures.append(f"framed-jones case={case}")
    for d in (1, 2, 3):
        for m in range(1, d + 1):
            lam = lambda_d(d, m)
            if lam.substitute({"z": RatFunc.const(Fraction(-1, m)) / (U + 1)}) != U:
                failures.append(f"lambda d={d} |D|={m}")
    report(5, "specialization chain and oracle agreement", failures)


def test_criterion_06_skein_relations():
    failures = []
    # each relation reduces to a base-independent identity in Y_{d,3}(u),
    # so checking the identity covers every base word at once
    for d in (1, 2, 3):
        for i in (1, 2):
            g, e = gen_g(d, 3, i), idempotent_e(d, 3, i)
            bracket = g + (e + e * g).scale(U ** -1 - 1)
            if inverse_g(d, 3, i) != bracket:
                failures.append(f"framed bracket d={d} i={i}")
        if not verify_relation("cubic", d):
            failures.append(f"classical bracket d={d}")
        if not verify_relation("gipi", d):
            failures.append(f"singular bracket d={d}")
    # exhaustive short classical bases at d=1
    alphabet = [sigma(1), sigma(1, -1), sigma(2), sigma(2, -1)]
    for length in (0, 1, 2):
        for combo in itertools.product(alphabet, repeat=length):
            base = BraidWord(combo, n=3)
            for kind in ("framed", "cubic", "singular"):
                for i in (1, 2):
                    if not verify_skein(kind, base, i, 1, (0,)):
                        failures.append(f"exhaustive {kind} {base.render()!r} i={i}")
    # sampled length <= 6 bases over every (d, D) pair and every relation
    for d in (1, 2, 3):
        for sol in enumerate_solutions(d):
            rng = random.Random(60 + 10 * d + sum(sol.D))
            for kind, bkind in (("framed", "framed"), ("cubic", "classical"),
                                ("singular", "singular")):
                for _ in range(4):
                    base = random_braid(rng, 3, rng.randint(0, 6), bkind, d)
                    i = rng.randint(1, 2)
                    if not verify_skein(kind, base, i, d, sol.D):
                        failures.append(
                            f"sampled {kind} d={d} D={sol.D} {base.render()!r} i={i}")
    report(6, "skein relations for all three invariants", failures)


def test_criterion_07_quotient_grids():
    failures = []
    counts = {k: [0, 0] for k in ("ytl", "ftl", "ctl")}
    seen = {}

    def grid_point(check, expect):
        key = (check.kind, check.d, check.zval.render(),
               tuple(v.render() for v in check.xs))
        if key in seen:
            verdict = seen[key]
        else:
            verdict = admissible(check)
            if trace_vanishes_on_ideal(check) != verdict:
                failures.append(f"equiv {check.kind} d={check.d}"
                                f" z={check.zval.render()}")
            seen[key] = verdict
        if expect is not None and verdict != expect:
            failures.append(f"expect {check.kind} d={check.d}"
                            f" z={check.zval.render()} got {verdict}")
        counts[check.kind][0 if verdict else 1] += 1

    # ytl: the conforming family is complete (16 parameter sets for d <= 3)
    ytl_conf = 0
    for d in (1, 2, 3):
        for sol in enumerate_solutions(d):
            xs = tuple(sol.x[1:])
            if sol.size() == 1:
                zs = (Z_TL, RatFunc.const(-1))
            elif sol.size() == 2:
                zs = (RatFunc.const(Fraction(-1, 2)),)
            else:
                zs = ()
            for z in zs:
                grid_point(QuotientCheck("ytl", d, z, xs), True)
                ytl_conf += 1
            grid_point(QuotientCheck("ytl", d, Fraction(1, 5), xs), False)
            grid_point(QuotientCheck("ytl", d, 3, xs), False)
    if ytl_conf != 16:
        failures.append(f"ytl conforming family size {ytl_conf} != 16")
    grid_point(QuotientCheck("ytl", 2, -1, (2,)), False)
    grid_point(QuotientCheck("ytl", 3, -1, (2, 2)), False)

    # ftl: every disjoint block assignment conforms (36 for d <= 3), and
    # doubling z off the characterized value never does
    ftl_conf = 0
    for d in (1, 2, 3):
        for assign in itertools.product((0, 1, 2), repeat=d):
            if not any(assign):
                continue
            n1 = assign.count(1)
            n2 = assign.count(2)
            z = RatFunc.const(-1) / (RatFunc.const(n1) + (U + 1) * n2)
            y = [RatFunc.const(-d) * z if a == 1
                 else RatFunc.const(-d) * z * (U + 1) if a == 2
                 else RatFunc.const(0) for a in assign]
            xs = tuple(inverse_fourier(y)[1:])
            grid_point(QuotientCheck("ftl", d, z, xs), True)
            ftl_conf += 1
    if ftl_conf != 36:
        failures.append(f"ftl conforming grid size {ftl_conf} != 36")
    for d in (2, 3):
        for sol in enumerate_solutions(d):
            xs = tuple(sol.x[1:])
            m = sol.size()
            grid_point(QuotientCheck("ftl", d, Fraction(-2, m), xs), False)
            grid_point(QuotientCheck("ftl", d, 7, xs), False)
    # pure solution support always passes, at either closed-form z
    for d in (1, 2, 3):
        for sol in enumerate_solutions(d):
            m = sol.size()
            grid_point(QuotientCheck("ftl", d, Fraction(-1, m),
                                     tuple(sol.x[1:])), True)
            grid_point(QuotientCheck("ftl", d, -((U + 1) * m) ** -1,
                                     tuple(sol.x[1:])), True)

    # ctl: support avoiding 0 passes at any z; support containing 0 passes
    # exactly at the two roots
    for d in (2, 3):
        for sol in enumerate_solutions(d):
            if 0 in sol.D:
                continue
            xs = tuple(sol.x[1:])
            for z in (Fraction(3, 2), -1, 5, Z_TL):
                grid_point(QuotientCheck("ctl", d, z, xs), True)
    for d in (1, 2, 3):
        for sol in enumerate_solutions(d):
            if 0 not in sol.D:
                continue
            xs = tuple(sol.x[1:])
            e_val = Fraction(-1, sol.size())
            grid_point(QuotientCheck("ctl", d, e_val, xs), True)
            grid_point(QuotientCheck("ctl", d, RatFunc.const(e_val) * (U + 1) ** -1,
                                     xs), True)
            grid_point(QuotientCheck("ctl", d, 2 * e_val, xs), False)
            grid_point(QuotientCheck("ctl", d, 3, xs), False)
            grid_point(QuotientCheck("ctl", d,
                                     RatFunc.const(e_val) * (U + 1) ** -2,
                                     xs), False)
    grid_point(QuotientCheck("ctl", 1, Fraction(1, 3)), False)
    grid_point(QuotientCheck("ctl", 1, Fraction(-1, 2)), False)
    grid_point(QuotientCheck("ctl", 2, -1, (3,)), None)
    grid_point(QuotientCheck("ctl", 3, -1, (2, 3)), None)

    # d=1: on a 100-point rational z sample only z = -1 kills the ideal,
    # and the u-dependent Jones value does as well
    sample = [Fraction(k - 50, 17) for k in range(100)]
    vanishing = [z for z in sample
                 if trace_vanishes_on_ideal(QuotientCheck("ytl", 1, z))]
    if vanishing != [Fraction(-1, 1)]:
        failures.append(f"d=1 rational sample vanishing set {vanishing}")
    if not trace_vanishes_on_ideal(QuotientCheck("ytl", 1, Z_TL)):
        failures.append("d=1 z=-1/(u+1) should vanish")

    for kind, (conf, nonconf) in sorted(counts.items()):
        floor = 16 if kind == "ytl" else 20
        if conf < floor:
            failures.append(f"{kind} conforming count {conf} < {floor}")
        if nonconf < 20:
            failures.append(f"{kind} non-conforming count {nonconf} < 20")
    report(7, "quotient passing criteria, closed form == ideal scan", failures)


def test_criterion_08_ideal_chain():
    failures = []
    for d in (1, 2):
        g = quotient_generator("ytl", d, 3, 1)
        r = quotient_generator("ftl", d, 3, 1)
        c = quotient_generator("ctl", d, 3, 1)
        if not ideal_inclusion(r, g, d):
            failures.append(f"r in <g> d={d}")
        if not ideal_inclusion(c, r, d):
            failures.append(f"c in <r> d={d}")
    if ideal_inclusion(AlgebraElement.unit(1, 3),
                       quotient_generator("ytl", 1, 3, 1), 1):
        failures.append("unit inside the d=1 ideal")
    report(8, "ideal inclusion chain", failures)


def test_criterion_09_closed_identities():
    failures = []
    if not verify_relation("bmw_quintic_factorization", 1):
        failures.append("quintic factorization")
    if not verify_relation("cubic_factorization", 1):
        failures.append("cubic factorization")
    report(9, "closed polynomial identities", failures)


def test_criterion_10_distinguishing_power():
    failures = []
    # the unknot enters as the closure of a single crossing so that the
    # expansion oracle (which starts at two strands) can price it too
    words = {"unknot": "s1", "trefoil": "s1 s1 s1", "figure-eight": "s1 -s2 s1 -s2"}
    values = {}
    for name, text in words.items():
        b = parse_braid(text)
        got = homflypt(b)
        want_value, want_half = oracle.homflypt_value(b.letters, b.n)
        if got.value.half != want_half or got.value.value != want_value:
            failures.append(f"{name} disagrees with the expansion oracle")
        values[name] = got.value
    for a, b in itertools.combinations(values, 2):
        if values[a] == values[b]:
            failures.append(f"{a} and {b} not distinguished")
    report(10, "unknot / trefoil / figure-eight distinguished", failures)
