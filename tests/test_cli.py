"""Command-line behavior: outputs, exit codes, caching, determinism."""

import json
import pathlib
import random
import re
import sys
import threading
import time

import pytest

from framelink import __version__, algebra, trace
from framelink.braids import parse_braid
from framelink.cli import (MAX_VERIFY_D, MAX_VERIFY_SAMPLES, _cache_key, build_parser,
                           cache_get, cache_put, main)
from framelink.esystem import MAX_MODULUS
from framelink.invariants import MAX_LAMBDA_EXPONENT, InvariantRequest, homflypt, invariant
from framelink.scalars import RatFunc, U, parse_ratfunc


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


@pytest.mark.parametrize("argv,want", [
    (("jones", "--braid", "s1 s1"), "(-u^2 - 1) * sqrt(lambda_D)"),
    (("homflypt", "--braid", "s1 s1"), "(u*z + u - z)/z * sqrt(lambda_D)"),
    (("homflypt", "--braid", "s1 -s1"), "-u/(u - z - 1) * sqrt(lambda_D)"),
], ids=["sum", "quotient", "one-term"])
def test_half_power_renders(capsys, argv, want):
    # a sum times sqrt(lambda_D) is bracketed, or it reads as a - b * sqrt(...)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want + "\n"


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


def test_verify_relations_default_d_is_3(capsys):
    code, out, _ = run(capsys, "verify", "--what", "relations")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == \
        ["relations d=1", "relations d=2", "relations d=3"]


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


@pytest.mark.parametrize("argv,key", [
    (("invariant", "--family", "singular", "--d", "2", "--subset", "0,1",
      "--braid", "x1  s1"), ("invariant", "singular", 2, (0, 1), "x1 s1")),
    (("homflypt", "--braid", "n=3 s1 s1"), ("homflypt", "classical", 1, (0,), "n=3 s1 s1")),
    (("jones", "--braid", "s1  -s1", "--json"), ("jones", "classical", 1, (0,), "s1 -s1")),
    (("framed-jones", "--d", "2", "--subset", "1", "--braid", "t1^2 s1 t2"),
     ("framed-jones", "framed", 2, (1,), "t1^2 s1 t2")),
    (("batch", "--family", "framed", "--d", "3", "--subset", "0,2"),
     ("invariant", "framed", 3, (0, 2), "t1 s1")),
], ids=["invariant", "homflypt", "jones", "framed-jones", "batch"])
def test_cache_key_of_each_value_command(tmp_path, capsys, argv, key):
    # the key each command writes, read back from the file; a rerun hits it
    path = tmp_path / "cache.jsonl"
    if argv[0] == "batch":
        src = tmp_path / "braids.txt"
        src.write_text("t1  s1\n")
        argv += ("--file", str(src))
    for _ in range(2):
        code, out, err = run(capsys, *argv, "--cache", str(path))
        assert code == 0 and out and err == ""
    [line] = path.read_text().splitlines()
    assert json.loads(line)["key"] == _cache_key(*key)


@pytest.mark.parametrize("d,first,second", [("2", "0,1", "1,0"), ("3", "0,1", "0,4")],
                         ids=["reordered", "unreduced"])
def test_cache_keys_the_subset_in_canonical_form(tmp_path, capsys, d, first, second):
    # the second subset names the same D, so it hits the first record
    path = tmp_path / "cache.jsonl"
    outs = []
    for subset in (first, second):
        code, out, err = run(capsys, "invariant", "--family", "framed", "--d", d,
                             "--subset", subset, "--braid", "t1 s1", "--json",
                             "--cache", str(path))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(path.read_text().splitlines()) == 1


def test_cache_tool_version_is_the_package_version():
    # cache keys carry __version__; a release bumps both or stale records hit
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__


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
    # an index 0 is a bad token like any other, not an internal letter tuple
    for token in ("s0", "-s0", "t0^2", "x0"):
        code, out, err = run(capsys, "jones", f"--braid={token}")
        assert (code, out, err) == (2, "", f"error: bad braid token {token!r}\n")
    # a leading zero or -0 is a bad token too; t1^0 and t1^1 are letters
    for braid, token in (("n=03 s1", "n=03"), ("t1^007", "t1^007"), ("t1^-0", "t1^-0")):
        code, out, err = run(capsys, "framed-jones", "--d", "2", f"--braid={braid}")
        assert (code, out, err) == (2, "", f"error: bad braid token {token!r}\n")
    for braid in ("t1^0", "t1^1"):
        code, out, _ = run(capsys, "framed-jones", "--d", "2", f"--braid={braid}")
        assert code == 0 and out.strip()
    code, out, err = run(capsys, "jones", "--braid=n=0")
    assert (code, out, err) == (2, "", "error: word needs at least 1 strand, got n=0\n")
    code, _, err = run(capsys, "invariant", "--family", "classical",
                       "--d", "1", "--subset", "", "--braid", "s1")
    assert code == 2
    code, _, err = run(capsys, "esystem", "--d", "2", "--subset", "0,0")
    assert code == 2
    # a header below the largest index is refused, in one line
    code, out, err = run(capsys, "homflypt", "--braid", "n=2 s2")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
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
    # the quotient and skein suites are capped in d: each step multiplies
    # their cost
    assert MAX_VERIFY_D == {"quotients": 3, "skein": 4}
    for what, cap in MAX_VERIFY_D.items():
        code, out, err = run(capsys, "verify", "--what", what, "--d", str(cap + 1))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err == (f"error: verify --what {what} --d {cap + 1} exceeds the budget "
                       f"of --d <= {cap}\n")
    # repeated residues are refused by every subcommand, framed-jones too
    code, out, err = run(capsys, "framed-jones", "--d", "2", "--subset", "0,2",
                         "--braid", "s1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "repeated residues" in err
    # verify sizes are checked before any work starts
    assert MAX_VERIFY_SAMPLES == {"markov": 100, "skein": 10}
    for what, flag, value in (("markov", "--n", "1"), ("skein", "--n", "1"),
                              ("markov", "--samples", "0"),
                              ("skein", "--samples", "-3"),
                              ("markov", "--samples", "101"),
                              ("skein", "--samples", "11"),
                              ("relations", "--d", "0"),
                              ("quotients", "--d", "0")):
        code, out, err = run(capsys, "verify", "--what", what, flag, value)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert flag in err


@pytest.mark.parametrize("content", ["", None], ids=["empty-file", "missing-file"])
def test_batch_checks_the_subset_before_the_file(tmp_path, capsys, content):
    src = tmp_path / "braids.txt"
    if content is not None:
        src.write_text(content)
    code, out, err = run(capsys, "batch", "--file", str(src), "--subset", "")
    assert code == 2 and out == ""
    assert err == "error: subset must list at least one residue\n"


@pytest.mark.parametrize("argv", [
    ["esystem", "--d", "1"],
    ["invariant", "--family", "framed", "--d", "1", "--braid", ""],
    ["homflypt", "--braid", ""],
    ["jones", "--braid", ""],
    ["framed-jones", "--d", "1", "--braid", ""],
    ["verify", "--what", "skein"],
    ["compare", "--braid-a", "", "--braid-b", ""],
    ["batch", "--file", "f"],
], ids=lambda argv: argv[0])
def test_each_subcommand_names_its_runner(capsys, argv):
    assert main([argv[0], "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: framelink {argv[0]} ")
    assert callable(build_parser().parse_args(argv).run)


def test_lambda_exponent_budget(capsys):
    # a long word on few strands is refused before its lambda power is built
    word = " ".join(["s1"] * (2 * MAX_LAMBDA_EXPONENT + 3))
    for argv in (("homflypt", "--braid", word), ("jones", "--braid", word),
                 ("invariant", "--family", "singular", "--d", "3", "--subset", "0,2",
                  "--braid", word)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert f"budget of {MAX_LAMBDA_EXPONENT}" in err and "Traceback" not in err


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


def test_image_term_budget(capsys, monkeypatch):
    # map_to_algebra counts the image terms of all its letter steps and
    # refuses the word past the budget, with one line that names it
    monkeypatch.setattr(algebra, "MAX_IMAGE_TERMS", 50)
    code, out, err = run(capsys, "invariant", "--family", "framed", "--d", "3",
                         "--subset", "0,1", "--braid", "n=4 s1 -s2 s3 t1 -s1 s2")
    assert code == 2 and out == ""
    assert err == "error: the image of the braid word exceeds the budget of 50 image terms\n"


def test_image_term_budget_at_its_real_size(capsys):
    # a word over the real budget ends after a few seconds with one line;
    # `verify --what markov --d 6`, whose words reach 6 strands, stays far
    # inside it and passes
    word = "n=7 t1 " + " ".join(["-s1 s2 -s3 s4 -s5 s6"] * 3)
    code, out, err = run(capsys, "framed-jones", "--d", "2", "--braid", word)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert f"budget of {algebra.MAX_IMAGE_TERMS} image terms" in err
    code, out, err = run(capsys, "verify", "--what", "markov", "--d", "6")
    assert code == 0 and err == "" and out.endswith("all checks passed\n")


def test_trace_product_budget_at_its_real_size(capsys):
    # the long framed word maps within the image-term budget; at d = 4,
    # D = {0,1} its trace needs ~6.4M coefficient products, and the trace's
    # product budget ends it after a few seconds with one line
    word = "n=6 " + " ".join(["-s1 s2 -s3 s4 -s5 s1 -s2 s3 -s4 s5"] * 2) + " t1 t2"
    start = time.perf_counter()
    code, out, err = run(capsys, "framed-jones", "--d", "4", "--subset", "0,1",
                         "--braid", word)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err == ("error: the trace exceeds the budget of "
                   f"{trace.MAX_TRACE_PRODUCTS} coefficient products\n")


def test_long_word_at_zero_x_is_answered(capsys):
    # at D = Z/4 every x_m is 0, and a branch that strips one is dropped, so
    # the long framed word is answered at d = 4 without a coefficient product
    word = "n=6 " + " ".join(["-s1 s2 -s3 s4 -s5 s1 -s2 s3 -s4 s5"] * 2) + " t1 t2"
    code, out, err = run(capsys, "framed-jones", "--d", "4", "--subset", "0,1,2,3",
                         "--braid", word)
    assert (code, out, err) == (0, "0 * sqrt(lambda_D)\n", "")


def test_trace_budget_passes_five_strands(capsys):
    # the largest trace call here makes 89,437 int products, far inside the
    # budget that the long framed word passes at d = 3
    code, out, err = run(capsys, "verify", "--what", "markov", "--d", "3", "--n", "5")
    assert code == 0 and err == "" and out.endswith("all checks passed\n")


def test_missing_argument_exits_2(capsys):
    assert main(["jones"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


# -- seeded fuzz at the command line ---------------------------------------------

_FUZZ_CROSSINGS = ("s1", "-s1", "s2", "-s2", "s3", "-s3")
_FUZZ_EXTRA = ((), ("t1", "t2^2", "t3^5", "t1^-1", "t4^3"), ("x1", "x2"))
_FUZZ_MALFORMED = ("s0", "s", "q1", "t1^", "-t1", "s1^2", "x0", "n=0", "n=-1", "n=2",
                   "s65", "t1^99999999999999", "t0", "x99", "s1e3", "--", "-", "é")
_SQRT = " * sqrt(lambda_D)"


def _fuzz_word(rng):
    """Crossings, plus framing or tau letters for some words; one token in
    twelve is malformed."""
    pool = _FUZZ_CROSSINGS + rng.choice(_FUZZ_EXTRA)
    tokens = ["n=4"] if rng.random() < 0.2 else []
    for _ in range(rng.randint(0, 5)):
        tokens.append(rng.choice(_FUZZ_MALFORMED if rng.random() < 1 / 12 else pool))
    return " ".join(tokens)


def _fuzz_argv(rng, tmp_path):
    command = rng.choice(("jones", "framed-jones", "invariant", "homflypt", "batch"))
    d = rng.choice((0, 33, 1, 2, 2, 3, 3))
    argv = [command]
    if command in ("framed-jones", "invariant", "batch"):
        subset = rng.choice(("", "-1", "0,0", "1,1", str(d + 1), "0", "0", "0,1", "0,1",
                             "1,2", "0,1,2", "0,,1", "a", "--"))
        argv += ["--d", "x" if rng.random() < 0.05 else str(d), f"--subset={subset}"]
    if command in ("invariant", "batch"):
        argv += ["--family", rng.choice(("classical", "framed", "singular"))]
    if command == "batch":
        src = tmp_path / "words.txt"
        src.write_bytes(b"\xff s1\n" if rng.random() < 0.1 else
                        "\n".join(_fuzz_word(rng) for _ in range(3)).encode("utf-8"))
        argv += ["--file", str(src)]
    else:
        # a word given without "=" that starts with "-" is a usage error
        word = _fuzz_word(rng)
        braid = [f"--braid={word}"] if rng.random() < 0.5 else ["--braid", word]
        argv += braid + (["--json"] if rng.random() < 2 / 3 else [])
    if rng.random() < 0.3:
        argv += ["--cache", str(tmp_path / "cache.jsonl")]
    return argv


def _fuzz_other_argv(rng):
    """esystem, verify or compare with random, sometimes invalid, flags;
    every valid choice is a cheap run."""
    command = rng.choice(("esystem", "verify", "compare"))
    argv = [command]
    d = rng.choice((None, 0, 33, "x", 1, 2, 2, 3))
    if command == "esystem":
        argv += ["--d", str(d if d is not None else 2)]
        if rng.random() < 0.5:
            argv.append("--subset=" + rng.choice(("0", "0,1", "1,2", "5", "a", "")))
        if rng.random() < 0.5:
            argv.append("--json")
    elif command == "verify":
        argv += ["--what", rng.choice(("relations", "skein", "markov", "quotients",
                                       "nosuch"))]
        if d is not None and d != 3:
            argv += ["--d", str(d)]
        for flag, values in (("--n", (1, 2, 3)), ("--samples", (0, 1, 2)),
                             ("--seed", (0, 7, -3))):
            if rng.random() < 0.4:
                argv += [flag, str(rng.choice(values))]
    else:
        argv += ["--family", rng.choice(("classical", "framed", "singular"))]
        if d is not None:
            argv += ["--d", str(d), "--subset=" + rng.choice(("0", "0,1", "1", "--", "a"))]
        for flag in ("--braid-a", "--braid-b"):
            word = (_fuzz_word(rng) if rng.random() < 0.4 else
                    " ".join(rng.choice(_FUZZ_CROSSINGS) for _ in range(rng.randint(0, 4))))
            argv.append(f"{flag}={word}")
    return argv


def _substitution_route(record):
    """The record's value by the z-substitution route, built in the test."""
    family = "framed" if record["family"] == "framed" else "classical"
    D = tuple(record["D"])
    formal = invariant(InvariantRequest(parse_braid(record["braid"]), family,
                                        record["d"], D))
    zval = RatFunc.const(-1) / ((U + 1) * RatFunc.const(len(D)))
    return formal.value.substitute({"z": zval})


def test_seeded_cli_fuzz(tmp_path, capsys):
    # random and malformed words, subsets and moduli end with exit 0, 1 or 2
    # and no traceback; exit 2 is one line on stderr, and every --json Jones
    # value parses back to the value of the z-substitution route
    rng = random.Random(1502)
    fixed = [["jones", "--braid=--"], ["framed-jones", "--d=--", "--braid=s1"],
             ["invariant", "--family", "framed", "--d", "2", "--subset=--",
              "--braid", "s1"], ["batch", "--file=--"],
             ["jones", "--braid", "-s1"], ["framed-jones", "--d", "x", "--braid", "s1"],
             ["invariant"], ["invariant", "--family", "framed", "--braid", "s1"],
             ["compare", "--braid-a", "s1"], ["verify", "--what"], ["nosuch"], []]
    codes, checked = [], 0
    for argv in fixed + [_fuzz_argv(rng, tmp_path) for _ in range(400)]:
        code, out, err = run(capsys, *argv)
        codes.append(code)
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        if code == 2:
            assert len(err.splitlines()) == 1, argv
        if code == 0 and argv[0] in ("jones", "framed-jones") and "--json" in argv:
            record = json.loads(out)
            record["braid"] = next(
                a[8:] if a.startswith("--braid=") else argv[k + 1]
                for k, a in enumerate(argv) if a.startswith("--braid"))
            text, half = record["value"], record["value"].endswith(_SQRT)
            if half:
                text = text[: -len(_SQRT)]
            want = _substitution_route(record)
            assert parse_ratfunc(text) == want.value and int(half) == want.half, argv
            assert record["value"] == want.render(), argv
            checked += 1
    assert all(code == 2 for code in codes[: len(fixed)])
    assert codes.count(0) > 50 and codes.count(2) > 50 and checked > 30


def test_seeded_cli_fuzz_other_commands(capsys):
    # esystem and verify end with exit 0 or 2, compare also with 1 when the
    # values differ; exit 2 is one line on stderr, and nothing prints a traceback
    rng = random.Random(1503)
    codes = {}
    for argv in [_fuzz_other_argv(rng) for _ in range(80)]:
        code, out, err = run(capsys, *argv)
        codes.setdefault(argv[0], []).append(code)
        assert code in ((0, 1, 2) if argv[0] == "compare" else (0, 2)), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert len(err.splitlines()) == 1 and out == "", argv
        if code == 0 and argv[0] == "verify":
            assert out.endswith("all checks passed\n"), argv
    for command in ("esystem", "verify", "compare"):
        assert {0, 2} <= set(codes[command]), (command, codes[command])
    assert 1 in codes["compare"]
