#!/usr/bin/env python3
"""Self-check of the benchmark harness.

Run from the repository root:

    python3 bench/selfcheck.py

Every workload runs at a tiny size, untraced and traced.  The check asserts
that the result line carries exactly the metrics BENCHMARK.json names, each
with its unit; that the results are correct; and that the traced layer self
times account for the traced wall time.  It then injects a wrong expected
value and asserts that the miss is counted, checks that the seeded inputs
repeat for a seed and change with it, checks the speed-probe arithmetic
and that pool workers' probes reach the parent, and checks that the
benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def invoke(spec: dict, cwd: Path, workload: str, trace: int, *extra: str):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
    return r


def check_workload(spec: dict, workload: str) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        r = result(invoke(spec, ROOT, workload, trace, "--tiny"))
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: {got} != {want}"
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
        if trace:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            # layer self times plus harness time between calls make up the
            # traced wall time; the harness share must stay small
            harness = m["trace.unattributed_s"]
            assert harness <= 0.05 * m["trace.wall_s"] + 1e-3, m
        else:
            assert r["metrics"]["ok_ratio"]["value"] == 1.0, r

    r = result(invoke(spec, ROOT, workload, 0, "--tiny", "--inject-fault"))
    assert not r["correct"] and r["failed"] > 0, r
    assert r["metrics"]["ok_ratio"]["value"] < 1.0, r
    print(f"ok  {workload}: metrics and units, traced self times, "
          f"injected miss counted (fail_ratio {r['failed'] / r['attempted']:.3f})")


def check_seeded_inputs() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run
    d = {"states": 3, "alphabet": ["a", "b"], "initial": 0, "finals": [2],
         "transitions": {"a": [1, 2, 2], "b": [0, 0, 2]}}
    one = run.relabel(d, random.Random(1))
    assert one == run.relabel(d, random.Random(1))
    assert any(run.relabel(d, random.Random(s)) != one for s in range(2, 6))
    print("ok  seeded relabelling repeats per seed and changes with it")


def check_speedometer() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run
    meter = run.Speedometer(ROOT / ".bench_out")
    meter.samples = [(1.0, 1.0)] * run.MIN_PROBES
    since = meter.mark()
    # probes inside the section at half the reference speed; the earlier
    # ones are ignored, as the section holds enough of its own
    n = run.MIN_PROBES
    meter.samples += [(2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S)] * n
    wall, cpu, speed = meter.normalise(since, 1.0, 1.5)
    probes = 2 * n * run.PROBE_REF_S
    assert abs(speed - 0.5) < 1e-12, speed
    assert abs(wall - (1.0 - probes) / 2) < 1e-12, wall
    assert abs(cpu - (1.5 - probes) / 2) < 1e-12, cpu
    record = json.loads((ROOT / ".bench_out" /
                         "tables-long-seed7-trace0-tiny.json").read_text())
    assert record["probes"] and record["worker_probes"], "no probe samples"
    print(f"ok  speed probe: normalisation arithmetic, "
          f"{len(record['worker_probes'])} pool-worker probes collected")


def check_stripped(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "stripped"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(spec, bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  stripped directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_workload(spec, w["name"])
    check_seeded_inputs()
    check_speedometer()
    check_stripped(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
