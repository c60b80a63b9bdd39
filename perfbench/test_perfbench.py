"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import itertools
import json
import os
import re
import time

import pytest

import oracle_hecke
import run
import tracing
import workloads
from framelink import invariants, quotients, scalars

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _first(wl, k, stream="run0"):
    return [req for req in itertools.islice(wl.requests(stream), k)]


def _plain(reqs):
    """Requests as comparable plain data (QuotientCheck holds RatFuncs)."""
    out = []
    for req in reqs:
        if isinstance(req, tuple) and req[0] == "point":
            c = req[1]
            req = (c.kind, c.d, c.zval.render(), tuple(x.render() for x in c.xs), req[2])
        elif isinstance(req, tuple):
            req = (req[0], req[1][2], req[2])
        out.append(json.dumps(req, sort_keys=True, default=str))
    return out


@pytest.fixture
def cli_cache(tmp_path):
    wl = workloads.CliCache(3, str(tmp_path))
    yield wl
    wl.close()


def test_invariant_requests_are_determined_by_the_seed():
    a = _first(workloads.InvariantMix(7, oracle_hecke), 60)
    b = _first(workloads.InvariantMix(7, oracle_hecke), 60)
    c = _first(workloads.InvariantMix(8, oracle_hecke), 60)
    assert a == b
    assert a != c
    warm = _first(workloads.InvariantMix(7, oracle_hecke), 60, stream="warmup")
    assert warm != a
    # set-up work does not depend on the seed
    assert warm == _first(workloads.InvariantMix(8, oracle_hecke), 60, stream="warmup")


def test_quotient_and_cli_requests_are_determined_by_the_seed(cli_cache, tmp_path):
    q = [_plain(_first(workloads.QuotientGrid(s), 30)) for s in (7, 7, 8)]
    assert q[0] == q[1] != q[2]
    same, other = workloads.CliCache(3, str(tmp_path)), workloads.CliCache(4, str(tmp_path))
    try:
        assert _first(cli_cache, 50) == _first(same, 50) != _first(other, 50)
        with open(cli_cache.pristine, "rb") as fh, open(other.pristine, "rb") as gh:
            assert fh.read() == gh.read()
    finally:
        same.close()
        other.close()


def test_invariant_decks_hold_the_same_cells_for_every_seed():
    def cells(seed):
        wl = workloads.InvariantMix(seed, oracle_hecke)
        size = sum(m * workloads.COPIES[d] for (d, _), m in workloads.MAX_LENGTH.items())
        return sorted((r["op"], r["d"], r["n"], len(r["letters"]),
                       sum(l[0] == "s" and l[2] < 0 for l in r["letters"]))
                      for r in _first(wl, 2 * size))
    assert cells(1) == cells(2)


def _measure(wl, limit):
    return run.measure(wl, "run0", 0, 0, deadline=time.time() + 60, limit=limit)


def test_correct_outputs_pass():
    res = _measure(workloads.InvariantMix(5, oracle_hecke), 30)
    assert res["ok"] == 30 and not res["failures"]


def test_corrupted_invariant_is_counted_as_failed():
    wl = workloads.InvariantMix(5, oracle_hecke)
    execute = wl.execute

    def corrupt(req):
        out = execute(req)
        # adding 1 changes every value, 0 too
        bad = scalars.HalfPowerValue(out.value.value + 1, out.value.half, out.value.base)
        return invariants.InvariantValue(bad, out.family, out.d, out.D, out.n, out.epsilon)

    wl.execute = corrupt
    res = _measure(wl, 30)
    checked = [r for r in _first(workloads.InvariantMix(5, oracle_hecke), 30)
               if (r["d"] == 1 and r["n"] <= 3 and r["op"] in ("homflypt", "classical"))
               or r["op"] == "jones" or (r["op"] == "framed_jones" and r["d"] == 1)
               or r["conjugate"]]
    assert any(r["d"] > 1 and r["conjugate"] for r in checked)
    assert len(res["failures"]) == len(checked)
    assert res["ok"] == 30 - len(checked)


def test_wrong_quotient_verdict_is_counted_as_failed():
    wl = workloads.QuotientGrid(5)
    execute = wl.execute

    def flip(req):
        out = execute(req)
        if req[0] == "point":
            return out[0], not out[1]
        return out

    wl.execute = flip
    res = _measure(wl, 15)
    points = sum(1 for r in _first(workloads.QuotientGrid(5), 15) if r[0] == "point")
    assert points and len(res["failures"]) == points


def test_corrupted_cache_record_is_counted_as_failed(cli_cache):
    argv = _first(cli_cache, 1)[0]
    code, text = cli_cache.execute(argv)
    record = json.loads(text)
    record["value"] = "0"
    corrupted = json.dumps(record, sort_keys=True) + "\n"
    assert "differs from the library" in cli_cache.check(argv, (code, corrupted))


def test_cache_hit_must_repeat_the_bytes_of_its_miss(cli_cache):
    argv = _first(cli_cache, 1)[0]
    code, text = cli_cache.execute(argv)
    assert cli_cache.check(argv, (code, text)) is None
    reordered = json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    assert reordered != text
    assert cli_cache.check(argv, (code, reordered)) is not None


def test_about_half_of_cli_requests_hit(cli_cache):
    res = _measure(cli_cache, 60)
    assert res["ok"] == 60
    with open(cli_cache.cache, encoding="utf-8") as fh:
        records = sum(1 for _ in fh)
    misses = records - workloads.CliCache.PRISTINE_RECORDS
    assert 20 <= misses <= 32


def test_tracing_counts_and_restores():
    original = invariants.invariant
    rec = tracing.Recorder()
    wl = workloads.InvariantMix(2, oracle_hecke)
    req = next(r for r in _first(wl, 40) if r["op"] == "framed_jones" and r["d"] > 1)
    with tracing.installed(rec):
        wl.execute(req)
    assert invariants.invariant is original
    assert quotients.admissible.__module__ == "framelink.quotients"
    assert rec.calls["invariants.invariant"] == 1
    assert rec.calls["algebra.map"] == 1 and rec.calls["braids.parse"] == 1
    assert rec.calls["scalars.ratfunc_mul"] > 0
    assert 0 <= rec.self_s["invariants.invariant"] < rec.total_s["invariants.invariant"]
    names = {span[1] for span in rec.spans}
    assert {"invariants.invariant", "algebra.map", "trace.trace"} <= names


def test_metric_names_and_units_follow_the_contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    layers = run._layer_metrics(tracing.Recorder(), None)
    layers["perfbench.trace_overhead_frac"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}


def test_spread_out_keeps_every_stretch_proportional():
    rng = workloads.random.Random(4)
    items = ["slow"] * 6 + ["fast"] * 38
    order = workloads.spread_out(items, str, rng)
    assert sorted(order) == sorted(items)
    for m in range(1, len(order) + 1):
        assert abs(order[:m].count("slow") - m * 6 / 44) <= 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_fails_without_metrics(monkeypatch, capsys, trace):
    part = {"latencies": [0.01] * 5, "busy_s": 0.05, "ok": 5, "failures": [], "cells": [],
            "setup_s": 1.0, "peak_rss_mb": 20.0, "layers": {}, "spans_file": "x"}
    monkeypatch.setattr(run, "_spawn", lambda *args, **kwargs: part)
    argv = ["--workload", "invariant_mix", "--seed", "1", "--seconds", "1", "--trace", trace]
    assert run.main(argv) == 1
    assert '"metrics"' not in capsys.readouterr().out
