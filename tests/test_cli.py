"""Command-line behavior: outputs, exit codes, caching, determinism."""

import json
import sys
import threading

import pytest

from framelink.braids import parse_braid
from framelink.cli import _cache_key, build_parser, cache_get, cache_put, main
from framelink.esystem import MAX_MODULUS
from framelink.invariants import homflypt


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_jones_empty_braid_is_one(capsys):
    code, out, _ = run(capsys, "jones", "--braid", "")
    assert code == 0
    assert out == "1\n"


def test_trefoil_invariant(capsys):
    code, out, _ = run(capsys, "invariant", "--family", "classical",
                       "--d", "1", "--subset", "0", "--braid", "s1 s1 s1")
    assert code == 0
    expected = homflypt(parse_braid("s1 s1 s1")).value.render()
    assert out.strip() == expected


def test_jones_trefoil_value(capsys):
    code, out, _ = run(capsys, "jones", "--braid", "s1 s1 s1")
    assert code == 0
    assert out.strip() == "-u^4 + u^3 + u"


def test_framed_jones_matches_jones_at_d1(capsys):
    code, out, _ = run(capsys, "framed-jones", "--d", "1", "--subset", "0",
                       "--braid", "s1 s1 s1")
    assert code == 0
    assert out.strip() == "-u^4 + u^3 + u"


def test_esystem_listing(capsys):
    code, out, _ = run(capsys, "esystem", "--d", "2")
    assert code == 0
    assert "3 solution(s)" in out
    assert "D={0,1}  x = (1, 0)" in out

    code, out, _ = run(capsys, "esystem", "--d", "2", "--subset", "0,1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec == {"d": 2, "solutions": [{"D": [0, 1], "x": ["1", "0"]}]}


def test_esystem_irrational_outputs_pinned(capsys):
    _, out, _ = run(capsys, "esystem", "--d", "3")
    assert out == (
        "d=3: 7 solution(s)\n"
        "D={0}  x = (1, 1, 1)\n"
        "D={1}  x = (1, zeta3, -1 - zeta3)\n"
        "D={2}  x = (1, -1 - zeta3, zeta3)\n"
        "D={0,1}  x = (1, 1/2 + 1/2*zeta3, -1/2*zeta3)\n"
        "D={0,2}  x = (1, -1/2*zeta3, 1/2 + 1/2*zeta3)\n"
        "D={1,2}  x = (1, -1/2, -1/2)\n"
        "D={0,1,2}  x = (1, 0, 0)\n")
    _, out, _ = run(capsys, "esystem", "--d", "4", "--subset", "0,1", "--json")
    assert out == ('{"d": 4, "solutions": [{"D": [0, 1], "x": '
                   '["1", "1/2 + 1/2*zeta4", "0", "1/2 - 1/2*zeta4"]}]}\n')
    _, out, _ = run(capsys, "esystem", "--d", "6", "--subset", "1,2", "--json")
    assert out == ('{"d": 6, "solutions": [{"D": [1, 2], "x": '
                   '["1", "-1/2 + zeta6", "-1/2", "0", "-1/2", "1/2 - zeta6"]}]}\n')


def test_invariant_json_record(capsys):
    code, out, _ = run(capsys, "homflypt", "--braid", "s1 s1 s1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["family"] == "classical" and rec["d"] == 1 and rec["D"] == [0]
    assert rec["n"] == 2 and rec["epsilon"] == 3


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--what", "relations", "--d", "2")
    assert code == 0
    assert "all checks passed" in out


def test_verify_markov_deterministic(capsys):
    argv = ("verify", "--what", "markov", "--d", "1", "--samples", "2",
            "--seed", "7")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all checks passed" in out1


def test_verify_quotients_d1(capsys):
    code, out, _ = run(capsys, "verify", "--what", "quotients", "--d", "1")
    assert code == 0
    assert "all checks passed" in out


def test_verify_skein_small(capsys):
    code, out, _ = run(capsys, "verify", "--what", "skein", "--d", "1",
                       "--samples", "1", "--seed", "5")
    assert code == 0


def _status_lines(out, prefix):
    return {line.split(":")[0]: line.split()[-1]
            for line in out.splitlines() if line.startswith(prefix)}


def test_verify_status_lines_count_only_their_own_checks(capsys, monkeypatch):
    import framelink.cli as cli

    monkeypatch.setattr(cli, "verify_skein",
                        lambda kind, base, i, d, D: (d, D) != (2, (0,)))
    code, out, _ = run(capsys, "verify", "--what", "skein", "--d", "2",
                       "--samples", "1")
    assert code == 1
    assert _status_lines(out, "skein") == {
        "skein d=1 D={0}": "ok", "skein d=2 D={0}": "FAIL",
        "skein d=2 D={1}": "ok", "skein d=2 D={0,1}": "ok"}

    # a fresh object per framed value, so every framed sequence differs
    monkeypatch.setattr(cli, "invariant",
                        lambda req: object() if req.family == "framed" else 0)
    code, out, _ = run(capsys, "verify", "--what", "markov", "--samples", "2")
    assert code == 1
    assert _status_lines(out, "markov") == {
        "markov framed d=2": "FAIL", "markov classical d=2": "ok",
        "markov singular d=2": "ok"}

    monkeypatch.setattr(cli, "admissible", lambda check: check.kind != "ctl")
    monkeypatch.setattr(cli, "trace_vanishes_on_ideal", lambda check: True)
    code, out, _ = run(capsys, "verify", "--what", "quotients", "--d", "2")
    assert code == 1
    assert _status_lines(out, "quotients") == {
        "quotients ctl": "FAIL", "quotients ftl": "ok", "quotients ytl": "ok"}


def test_compare_exit_codes(capsys):
    code, out, _ = run(capsys, "compare", "--braid-a", "s1 s1 s1",
                       "--braid-b", "-s1 s1 s1 s1 s1")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "compare", "--braid-a", "s1 s1 s1",
                       "--braid-b", "")
    assert code == 1 and out.strip() == "different"


def test_batch_order_and_shape(tmp_path, capsys):
    src = tmp_path / "braids.txt"
    src.write_text("s1 s1 s1\n\ns1 -s2 s1 -s2\n")
    code, out, _ = run(capsys, "batch", "--file", str(src))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert [r["braid"] for r in records] == ["s1 s1 s1", "", "s1 -s2 s1 -s2"]
    assert records[1]["value"] == "1"


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    key = _cache_key("invariant", "classical", 1, (0,), "s1 s1 s1")
    assert cache_get(path, key) is None
    cache_put(path, key, {"value": "v"})
    assert cache_get(path, key) == {"value": "v"}
    bumped = dict(key, tool="9.9.9")
    assert cache_get(path, bumped) is None


def test_cache_put_ends_a_torn_line(tmp_path):
    # a crash mid-write leaves a last line without its newline
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": {"command": "jon')
    key = _cache_key("jones", "classical", 1, (0,), "s1")
    cache_put(str(path), key, {"value": "v"})
    assert cache_get(str(path), key) == {"value": "v"}
    assert path.read_text().splitlines()[0] == '{"key": {"command": "jon'


_JONES_KEY = _cache_key("jones", "classical", 1, (0,), "s1 s1 s1")


@pytest.mark.parametrize("content", [
    b"[1, 2]\n",
    b'"x"\n',
    json.dumps({"key": _JONES_KEY, "value": "oops"}).encode() + b"\n",
    json.dumps({"key": _JONES_KEY, "value": {"n": 2}}).encode() + b"\n",
    b'\x80\x81{"key": 1}\n',
], ids=["list", "string", "value-not-object", "value-without-value", "not-utf8"])
def test_cache_lines_that_are_not_records_are_skipped(tmp_path, capsys, content):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(content)
    for extra in ((), ("--json",)):
        argv = ("jones", "--braid", "s1 s1 s1", *extra)
        expected = run(capsys, *argv)
        assert expected[0] == 0
        assert run(capsys, *argv, "--cache", str(path))[:2] == expected[:2]


def test_cache_concurrent_writers(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    keys = [[_cache_key("jones", "classical", 1, (0,), f"w{w} {i}")
             for i in range(40)] for w in range(6)]

    def writer(mine):
        for key in mine:
            cache_put(path, key, {"value": key["braid"]})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(mine,)) for mine in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 240
    assert {json.loads(line)["value"]["value"] for line in lines} == {
        key["braid"] for mine in keys for key in mine}


def test_cache_hit_renders_identically(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    argv = ("homflypt", "--braid", "s1 s1 s1", "--cache", path)
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # the second run was a hit: no second record was appended
    with open(path) as fh:
        assert sum(1 for _ in fh) == 1


def test_cache_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so it must not freeze the
    # variable; drop the built one so the first call below builds it anew
    build_parser.cache_clear()
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path, braid in zip(paths, ("s1 s1 s1", "s1")):
        monkeypatch.setenv("FRAMELINK_CACHE", str(path))
        assert run(capsys, "homflypt", "--braid", braid)[0] == 0
    # an explicit empty --cache still means no cache
    assert run(capsys, "homflypt", "--braid", "s1 s1", "--cache", "")[0] == 0
    for path, braid in zip(paths, ("s1 s1 s1", "s1")):
        with open(path) as fh:
            assert [json.loads(line)["key"]["braid"] for line in fh] == [braid]
    assert sorted(tmp_path.iterdir()) == paths


def test_cache_write_failure_is_not_fatal(tmp_path, capsys):
    code, out, err = run(capsys, "jones", "--braid", "s1 s1 s1",
                         "--cache", str(tmp_path))
    assert code == 0
    assert out.strip() == "-u^4 + u^3 + u"
    assert "cache" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "invariant", "--family", "classical",
                       "--d", "1", "--braid", "q9")
    assert code == 2 and "q9" in err
    code, _, err = run(capsys, "invariant", "--family", "classical",
                       "--d", "1", "--subset", "", "--braid", "s1")
    assert code == 2
    code, _, err = run(capsys, "esystem", "--d", "2", "--subset", "0,0")
    assert code == 2
    # singular letters are not classical links
    code, _, err = run(capsys, "homflypt", "--braid", "x1")
    assert code == 2
    # the modulus d must be >= 1: one line on stderr, no traceback
    code, _, err = run(capsys, "invariant", "--family", "framed",
                       "--d", "0", "--braid", "s1")
    assert code == 2 and len(err.splitlines()) == 1 and "d must be >= 1" in err
    code, out, err = run(capsys, "esystem", "--d", "0")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    code, _, err = run(capsys, "framed-jones", "--d", "0", "--braid", "s1")
    assert code == 2 and len(err.splitlines()) == 1
    # oversized braids are refused by the strand budget, not the stack
    for braid in ("s1500", "n=3000 s1"):
        code, out, err = run(capsys, "homflypt", "--braid", braid)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "budget" in err
    # enumerating 2^40 subsets is refused by the enumeration budget
    code, out, err = run(capsys, "esystem", "--d", "40")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "budget" in err
    # the quotient suite is capped in d: each step multiplies its cost
    code, out, err = run(capsys, "verify", "--what", "quotients", "--d", "4")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "budget" in err and "--d" in err
    # repeated residues are refused by every subcommand, framed-jones too
    code, out, err = run(capsys, "framed-jones", "--d", "2", "--subset", "0,2",
                         "--braid", "s1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "repeated residues" in err
    # verify sizes are checked before any work starts
    for what, flag, value in (("markov", "--n", "1"), ("skein", "--n", "1"),
                              ("markov", "--samples", "0"),
                              ("skein", "--samples", "-3"),
                              ("relations", "--d", "0"),
                              ("quotients", "--d", "0")):
        code, out, err = run(capsys, "verify", "--what", what, flag, value)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert flag in err


def test_modulus_budget(tmp_path, capsys):
    # every --d path reaches the one modulus budget and ends at once with
    # one line naming it; without it the first three ran for minutes
    big = str(MAX_MODULUS + 1)
    src = tmp_path / "braids.txt"
    src.write_text("s1\n")
    for argv in (("invariant", "--family", "framed", "--d", "100000",
                  "--subset", "0", "--braid", "n=2 s1"),
                 ("esystem", "--d", "4096", "--subset", "0"),
                 ("esystem", "--d", big),
                 ("verify", "--what", "relations", "--d", "4096"),
                 ("verify", "--what", "markov", "--d", big),
                 ("framed-jones", "--d", big, "--braid", "s1"),
                 ("compare", "--family", "framed", "--d", big,
                  "--braid-a", "s1", "--braid-b", "s1"),
                 ("batch", "--file", str(src), "--family", "framed", "--d", big)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert f"budget of d <= {MAX_MODULUS}" in err, argv
    code, out, _ = run(capsys, "esystem", "--d", str(MAX_MODULUS), "--subset", "0")
    assert code == 0 and "1 solution(s)" in out


def test_missing_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["jones"])
    assert exc.value.code == 2
