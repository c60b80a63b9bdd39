#!/usr/bin/env python3
"""framelink benchmark: one closed-loop client against one workload.

Usage, from the root of a framelink checkout:

    python3 perfbench/run.py --workload invariant_mix --seed 1 --seconds 15 --trace 0

Workloads: invariant_mix, quotient_grid, cli_cache (see workloads.py).
The client is single-threaded and sends its next request only after the
previous one returned.  The library is imported from ``src/``; nothing is
built or installed.

With ``--trace 0`` a run starts PARTS fresh Python processes one after the
other.  Each sets the workload up and then sends requests from its own
seeded stream until ``--seconds`` / PARTS of request time have passed and it
sent at least MIN_REQUESTS / PARTS requests.  The run reports the median
set-up time and the metrics of all requests pooled, so one measurement is
spread over the whole run.  With ``--trace 1`` it sends the first
TRACE_REQUESTS requests of one stream twice, each time from a fresh
process: untraced, and then with every public library function wrapped.
It reports the per-layer metrics and the tracing overhead on those
requests, and writes the spans to ``perfbench/out/``.  A run that cannot
send MIN_REQUESTS (untraced) or TRACE_REQUESTS (traced) requests before
its deadline fails with exit status 1 and prints no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("invariant_mix", "quotient_grid", "cli_cache")
PARTS = 3
MIN_REQUESTS = 100
TRACE_REQUESTS = 100
RUN_LIMIT_S = 170.0


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("measure", "reference", "traced"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--parts", type=int, default=1, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child process: one workload ------------------------------------------------


def _make_workload(name: str, seed: int):
    import oracle_hecke
    import workloads
    if name == "invariant_mix":
        return workloads.InvariantMix(seed, oracle_hecke)
    if name == "quotient_grid":
        return workloads.QuotientGrid(seed)
    os.makedirs(OUT, exist_ok=True)
    return workloads.CliCache(seed, OUT)


def _send(wl, req, failures: list):
    """Time one request; returns (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        out = wl.execute(req)
    except Exception as exc:  # a failed request is counted, not fatal
        dt = time.perf_counter() - t0
        failures.append(f"{wl.cell(req)}: raised {exc!r}")
        return dt, False
    dt = time.perf_counter() - t0
    try:
        why = wl.check(req, out)
    except Exception as exc:
        why = f"check raised {exc!r}"
    if why is not None:
        failures.append(f"{wl.cell(req)}: {why}")
    return dt, why is None


def measure(wl, stream: str, seconds: float, min_requests: int, deadline: float,
            limit: int | None = None) -> dict:
    """Closed loop over one seeded stream of the workload.

    Without ``limit``: until ``seconds`` of request time have passed and
    ``min_requests`` were sent.  With ``limit``: exactly that many requests.
    Either way it stops at ``deadline`` (time.time()).
    """
    latencies, failures, cells = [], [], {}
    busy = 0.0
    ok_count = 0
    for req in wl.requests(stream):
        dt, ok = _send(wl, req, failures)
        latencies.append(dt)
        busy += dt
        ok_count += ok
        cell = wl.cell(req)
        cells[cell] = cells.get(cell, 0) + 1
        if limit is not None:
            if len(latencies) >= limit:
                break
        elif busy >= seconds and len(latencies) >= min_requests:
            break
        if time.time() > deadline:
            print(f"warning: stopped at the deadline after {len(latencies)} requests",
                  file=sys.stderr)
            break
    return {"latencies": latencies, "busy_s": busy, "ok": ok_count,
            "failures": failures, "cells": cells}


def _layer_metrics(rec, wl) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    calls, total, own, cnt = rec.calls, rec.total_s, rec.self_s, rec.counters
    hits, misses = cnt["algebra.word_product_hits"], cnt["algebra.word_product_misses"]
    checks = getattr(wl, "counts", {})
    return {
        "scalars.ratfunc_mul_calls": (calls["scalars.ratfunc_mul"], "count"),
        "scalars.ratfunc_add_calls": (calls["scalars.ratfunc_add"], "count"),
        "scalars.ratfunc_s": (own["scalars.ratfunc_mul"] + own["scalars.ratfunc_add"], "s"),
        "scalars.substitute_calls": (calls["scalars.substitute"], "count"),
        "scalars.substitute_s": (total["scalars.substitute"], "s"),
        "algebra.map_calls": (calls["algebra.map"], "count"),
        "algebra.map_s": (total["algebra.map"], "s"),
        "algebra.mul_calls": (calls["algebra.mul"], "count"),
        "algebra.image_terms": (cnt["algebra.image_terms"], "count"),
        "algebra.word_product_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "trace.trace_calls": (calls["trace.trace"], "count"),
        "trace.trace_s": (total["trace.trace"], "s"),
        "trace.strip_entries": (cnt["trace.strip_entries"], "count"),
        "esystem.solution_calls": (calls["esystem.solution"], "count"),
        "esystem.solution_s": (total["esystem.solution"], "s"),
        "braids.parse_calls": (calls["braids.parse"], "count"),
        "braids.parse_s": (total["braids.parse"], "s"),
        "invariants.invariant_calls": (calls["invariants.invariant"], "count"),
        "invariants.invariant_self_s": (own["invariants.invariant"], "s"),
        "quotients.checks": (checks.get("checks", 0), "count"),
        "quotients.admissible_s": (total["quotients.admissible"], "s"),
        "quotients.scan_s": (total["quotients.scan"], "s"),
        "quotients.inclusion_s": (total["quotients.inclusion"], "s"),
        "quotients.agree_ratio": (ratio(checks.get("agree", 0), checks.get("checks", 0)),
                                  "ratio"),
        "cli.calls": (calls["cli.main"], "count"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.cache_get_s": (total["cli.cache_get"], "s"),
        "cli.cache_put_s": (total["cli.cache_put"], "s"),
        "cli.cache_hit_ratio": (ratio(cnt["cli.cache_hits"], cnt["cli.cache_lookups"]),
                                "ratio"),
        "cli.cache_bytes_read": (cnt["cli.cache_bytes_read"], "B"),
    }


def child(args) -> dict:
    """Set the workload up and run one phase; returns the JSON result."""
    sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    wl = _make_workload(args.workload, args.seed)
    try:
        wl.warm_up()
        result = {"setup_s": time.perf_counter() - T_START}
        if args.phase == "measure":
            result.update(measure(wl, f"run{args.part}", args.seconds / args.parts,
                                  -(-MIN_REQUESTS // args.parts), args.deadline))
        elif args.phase == "reference":
            result.update(measure(wl, "run0", 0, 0, args.deadline, limit=TRACE_REQUESTS))
        elif args.phase == "traced":
            from framelink import algebra, trace
            import tracing
            rec = tracing.Recorder()
            cnt = rec.counters

            def traced(req):
                # cache growth is read around the request alone, so the library
                # calls of the output checks between requests do not count
                info, strip = algebra._word_product.cache_info(), len(trace._STRIP)
                try:
                    with tracing.installed(rec):
                        return execute(req)
                finally:
                    after = algebra._word_product.cache_info()
                    cnt["algebra.word_product_hits"] += after.hits - info.hits
                    cnt["algebra.word_product_misses"] += after.misses - info.misses
                    cnt["trace.strip_entries"] += len(trace._STRIP) - strip
                    rec.request += 1

            execute, wl.execute = wl.execute, traced
            result.update(measure(wl, "run0", 0, 0, args.deadline, limit=TRACE_REQUESTS))
            layers = _layer_metrics(rec, wl)
            result["layers"] = {k: [v, unit] for k, (v, unit) in layers.items()}
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            rec.write_spans(spans)
            result["spans_file"] = os.path.relpath(spans, ROOT)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["cells"] = [[list(k), v] for k, v in result.get("cells", {}).items()]
        return result
    finally:
        wl.close()


# -- parent process ---------------------------------------------------------------


def _spawn(args, phase: str, deadline: float, part: int = 0, parts: int = 1) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("FRAMELINK_CACHE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--phase", phase, "--part", str(part), "--parts", str(parts),
           "--deadline", repr(deadline - 10)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.time()), check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} process for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _pool(results: list[dict]) -> dict:
    cells: dict = {}
    for res in results:
        for cell, count in res["cells"]:
            cells[tuple(cell)] = cells.get(tuple(cell), 0) + count
    return {
        "latencies": [t for res in results for t in res["latencies"]],
        "busy_s": sum(res["busy_s"] for res in results),
        "ok": sum(res["ok"] for res in results),
        "failures": [f for res in results for f in res["failures"]],
        "cells": sorted(cells.items()),
    }


def _summary(args, res: dict) -> None:
    n = len(res["latencies"])
    print(f"workload {args.workload} seed {args.seed}: {n} requests, "
          f"{res['busy_s']:.3f} s of request time, closed loop, 1 client")
    print("requests per cell: " + ", ".join(
        f"{cell}={count}" for cell, count in res["cells"]))
    for line in res["failures"][:10]:
        print(f"FAILED {line}")


def parent(args) -> int:
    deadline = time.time() + RUN_LIMIT_S
    if args.trace == 0:
        parts = [_spawn(args, "measure", deadline, part, PARTS) for part in range(PARTS)]
        res = _pool(parts)
        setups = [p["setup_s"] for p in parts]
        _summary(args, res)
        lat = res["latencies"]
        attempted, failed = len(lat), len(lat) - res["ok"]
        if attempted < MIN_REQUESTS:
            raise RuntimeError(f"only {attempted} of {MIN_REQUESTS} requests before the deadline")
        cuts = statistics.quantiles(lat, n=10)
        metrics = {
            "throughput_rps": (res["ok"] / res["busy_s"], "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (cuts[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        }
        print(f"latency samples: {attempted} ({attempted - int(0.9 * attempted)} beyond p90)")
        print(f"failed_frac: {failed / attempted} ({failed}/{attempted})")
        print("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups))
    else:
        ref = _spawn(args, "reference", deadline)
        traced = _spawn(args, "traced", deadline)
        res = _pool([traced])
        _summary(args, res)
        k = min(len(ref["latencies"]), len(res["latencies"]))
        if k < TRACE_REQUESTS:
            raise RuntimeError(f"only {k} of {TRACE_REQUESTS} requests before the deadline")
        attempted = len(ref["latencies"]) + len(res["latencies"])
        failed = attempted - ref["ok"] - res["ok"]
        overhead = sum(res["latencies"]) / sum(ref["latencies"]) - 1
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["perfbench.trace_overhead_frac"] = (overhead, "ratio")
        print(f"tracing overhead on the first {k} requests: {overhead:.2%}; "
              f"spans in {traced['spans_file']}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.phase is not None:
        print(json.dumps(child(args)))
        return 0
    missing = [p for p in ("src/framelink/__init__.py", "tests/oracle_hecke.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a framelink checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        return parent(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
