#!/usr/bin/env python3
"""Benchmark for syncomp: exhaustive searches, big closures and the tables.

Run from the repository root:

    python3 bench/run.py --workload search-right --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed or built.  Each workload is a fixed list of operations on the
public API, run as one closed loop in a single process (only
``tables-long`` starts a 2-process pool, inside the library):

  search-right  search_max_sigma on right (5,2) and right (4,3), jobs=1.
                Canonical relabel filter, minimality test and the search's
                private closure dominate, so search pruning shows here.
  search-ideal  left (4,2), two-sided (4,3) and left (3,4), jobs=1.  The
                semantic left-ideal test (automata: left_ideal_closure,
                determinize, minimize, equivalent) dominates; it is nearly
                absent from search-right.
  analyze-n7    ``syncomp analyze --format json`` on seeded relabellings of
                the 7-state right, left and two-sided witnesses: a few huge
                closures instead of the search's many tiny ones.
  tables-long   run_table(t, include_long=True, jobs=2) for t in 2, 4, 5;
                the only path through tables, witnesses and pool sharding.

The seed shuffles the order of the operations in every iteration and, for
analyze-n7, permutes the witness states (the initial state moves along)
and renames the letters.  Neither changes sigma or mu, so the hand-written
expected values below hold for every seed.

One run sets up several times, then repeats the whole workload for about
``--seconds`` and reports medians over the iterations.  ``--trace 0``
prints the end-to-end metrics:

  setup_s      importing syncomp afresh and building the inputs (median)
  wall_s       wall time of one iteration of the workload (median)
  cpu_s        user + system CPU of the process and its reaped pool
               workers during one iteration (median)
  peak_rss_mb  high-water RSS of this process plus that of the largest
               pool worker
  ok_ratio     operations whose result matched the expected value, over
               operations attempted (fail_ratio = 1 - ok_ratio)

The three times are in reference-speed seconds. On a shared host a core's
speed changes from second to second (on a 2-vCPU x86-64 VM it switched
between two states about 1.6x apart), which moved raw times by 25 % or
more from one run to the next. So while ``--trace 0`` runs, a timer signal
interrupts the program every PROBE_INTERVAL_S and times a small fixed
closure (the probe) on the CPU clock of the running thread; pool workers
probe themselves the same way. Each operation is reported as its raw time,
less the probes run inside it, scaled by PROBE_REF_S over the mean probe
CPU time seen while it ran (without the slowest tenth of the probes): the
time it would take on a core where the probe takes PROBE_REF_S. The probe
is the same kind of work as the program (tuple composition and hashing),
so a change to the program moves these figures as it moves the raw ones,
while most of a change of machine speed cancels; least so for analyze-n7,
whose large working set slows differently from the small probe. Raw medians are printed on a comment line and written with the
samples to ``.bench_out/``.

``--trace 1`` alternates an untraced iteration with a traced one, in which
every public function of the layer modules is wrapped at every module
binding that holds it.  It prints the per-layer metrics (self time = span
time minus child spans; ``trace.overhead_s`` = traced minus untraced wall
time) and writes the spans of the last traced iteration to
``.bench_out/``.  Spans inside pool workers (tables-long) are not
captured; their work shows as ``search.child_cpu_s``.  Every run also
writes its metadata (host, nproc, Python, git SHA, seed) and raw samples
there.

Every operation's result is compared with the expected value; after the
timed section a seeded sample of each search cell's witnesses is
re-checked with the independent word-BFS oracle.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import multiprocessing.util
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

LAYERS = ("search", "automata", "semigroup", "classify", "witnesses",
          "tables", "cli")
WORKLOADS = ("search-right", "search-ideal", "analyze-n7", "tables-long")
ROOT_SPAN = "bench"  # one per traced iteration; its self time is the harness
SETUP_REPEATS = 15
MIN_ITERATIONS = 3
# Machine-speed probe: the closure of the full transformation monoid T4
# (256 elements), every PROBE_INTERVAL_S; it costs about 4 % of the run.
# PROBE_REF_S is about its median CPU time inside runs of this benchmark on
# a 2-vCPU x86-64 VM with CPython 3.11, so reported times are close to raw
# times there; it only sets the scale of the reported times.
PROBE_GENS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0008
MIN_PROBES = 5  # sections shorter than this many probes use the latest ones
# The slowest tenth of a section's probes is left out of its speed: a probe
# hit by a host interrupt or preemption takes several times its usual CPU
# time, and the program does not slow in proportion.
PROBE_TRIM = 0.1
# word_bfs_sigma takes ~0.7 s per right (5,2) witness and ~0.08 s per right
# (4,3) witness, so all 372 of them would cost about a minute per run.
ORACLE_SAMPLE = 8

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
_AUTOMATA_FNS = ("minimize", "determinize", "equivalent",
                 "left_ideal_closure", "reachable_trim")
PER_LAYER_UNITS = {
    "search.calls": "count",
    "search.self_s": "s",
    "search.candidates": "count",
    "search.pruned": "count",
    "search.pruned_ratio": "ratio",
    "search.candidates_per_s": "1/s",
    "search.witnesses": "count",
    "search.child_cpu_s": "s",
    "search.parallel_efficiency": "ratio",
    "automata.self_s": "s",
    **{f"automata.{fn}.{m}": u for fn in _AUTOMATA_FNS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "automata.equivalent.true_ratio": "ratio",
    "semigroup.transition_semigroup.calls": "count",
    "semigroup.transition_semigroup.self_s": "s",
    "semigroup.sigma_of_language.calls": "count",
    "semigroup.elements": "count",
    "semigroup.elements_per_s": "1/s",
    "classify.calls": "count",
    "classify.self_s": "s",
    "witnesses.calls": "count",
    "witnesses.self_s": "s",
    "tables.self_s": "s",
    "tables.cells": "count",
    "tables.cells_exhaustive": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layers_self_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

# ---------------------------------------------------------------------------
# Hand-written expected values

# (family, n, k, max sigma, number of witnesses).  Right (5,2) and (4,3) are
# tight cells of the bundled right-ideal table; left (4,2) = 17 matches the
# bundled achievability value, two-sided (4,3) = 19 exceeds the bundled 16
# (both confirmed by the word-BFS oracle).
SEARCH_CELLS = {
    "search-right": [("right", 5, 2, 167, 48), ("right", 4, 3, 61, 324)],
    "search-ideal": [("left", 4, 2, 17, 3), ("two_sided", 4, 3, 19, 7),
                     ("left", 3, 4, 11, 24)],
}
TINY_SEARCH_CELLS = {
    "search-right": [("right", 3, 2, 7, 4), ("right", 3, 3, 9, 8)],
    "search-ideal": [("left", 3, 2, 7, 2), ("two_sided", 3, 2, 5, 1),
                     ("left", 2, 3, 3, 1)],
}

# table id -> {(n, k): exhaustive search maximum}.  Every searched cell is
# expected to finish exhaustively and every table to pass.  Two-sided (4,2)
# reaches 14 against the bundled 11 (not tight, so the verdict holds).
_UNARY = {(n, 1): max(1, n - 1) for n in range(1, 6)}
TABLES = {
    2: {**_UNARY, (2, 2): 2, (3, 2): 7, (4, 2): 31, (5, 2): 167,
        (3, 3): 9, (4, 3): 61},
    4: {**_UNARY, (2, 2): 2, (3, 2): 7, (4, 2): 17, (2, 3): 3,
        (3, 3): 9, (3, 4): 11},
    5: {**_UNARY, (2, 2): 2, (3, 2): 5, (4, 2): 14, (3, 3): 6},
}
TINY_TABLES = (5,)
TABLE_JOBS = 2


def closed_form_sigma(family: str, n: int) -> int:
    """sigma of the full-alphabet witness, from the paper's closed forms."""
    return {"right": n ** (n - 1),
            "left": n ** (n - 1) + n - 1,
            "two_sided": n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1}[family]


# Each witness has a cycle letter (a permutation), a power of which is the
# identity, so mu = sigma for all three families.
ANALYZE_N = 7
TINY_ANALYZE_N = 4
_FAMILY_FLAG = {"right": "is_right_ideal", "left": "is_left_ideal",
                "two_sided": "is_two_sided_ideal"}


# ---------------------------------------------------------------------------
# Workload construction


@dataclass
class Op:
    """One timed operation: run() is timed, observe() turns its result into
    the tuple compared with expect, outside the timed section."""

    label: str
    run: Callable[[], object]
    observe: Callable[[object], tuple]
    expect: tuple


@dataclass
class Workload:
    ops: list[Op]
    # search op label -> expected sigma, for the oracle re-check of witnesses
    oracle_cells: dict[str, int]


def _import_syncomp() -> dict:
    for name in [m for m in sys.modules
                 if m == "syncomp" or m.startswith("syncomp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("syncomp")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"syncomp imported from {pkg.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"syncomp.{layer}")
            for layer in LAYERS}
    mods["oracles"] = importlib.import_module("syncomp.oracles")
    return mods


def _search_workload(sc, cells) -> Workload:
    search = sc["search"]
    ops = []
    for family, n, k, sigma, count in cells:
        task = search.SearchTask(family, n, k)
        ops.append(Op(
            f"{family}({n},{k})",
            lambda task=task: search.search_max_sigma(task),
            lambda r: (r.max_sigma, len(r.witnesses), r.exhaustive),
            (sigma, count, True)))
    return Workload(ops, {op.label: op.expect[0] for op in ops})


def relabel(d: dict, rng: random.Random) -> dict:
    """Seeded state permutation (initial state moves along) and letter
    renaming of a DFA in the JSON interchange format."""
    n = d["states"]
    perm = rng.sample(range(n), n)
    names = rng.sample("abcdefghijklmnopqrstuvwxyz", len(d["alphabet"]))
    rename = dict(zip(d["alphabet"], names))
    transitions = {}
    for a, row in d["transitions"].items():
        new = [0] * n
        for q, r in enumerate(row):
            new[perm[q]] = perm[r]
        transitions[rename[a]] = new
    alphabet = [rename[a] for a in d["alphabet"]]
    rng.shuffle(alphabet)
    return {"states": n, "alphabet": alphabet, "transitions": transitions,
            "initial": perm[d["initial"]],
            "finals": sorted(perm[f] for f in d["finals"])}


def _analyze_workload(sc, n, rng, work: Path) -> Workload:
    w, automata, cli = sc["witnesses"], sc["automata"], sc["cli"]
    build = {"right": w.right_ideal_witness, "left": w.left_ideal_witness,
             "two_sided": w.two_sided_witness}
    ops = []
    for family, make in build.items():
        d = json.loads(automata.emit_dfa_json(make(n)))
        path = work / f"{family}{n}.json"
        path.write_text(json.dumps(relabel(d, rng)))
        sigma = closed_form_sigma(family, n)

        def run(path=path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["analyze", str(path), "--format", "json"])
            return rc, out.getvalue()

        def observe(r, flag=_FAMILY_FLAG[family]):
            rc, text = r
            p = json.loads(text)
            return p["sigma"], p["mu"], p["kappa"], p[flag], rc

        ops.append(Op(f"analyze-{family}{n}", run, observe,
                      (sigma, sigma, n, True, 0)))
    return Workload(ops, {})


def _tables_workload(sc, table_ids) -> Workload:
    tables = sc["tables"]
    ops = []
    for t in table_ids:
        def observe(r):
            searched = {(c.n, c.k): c.search_max for c in r.rows
                        if c.search_max is not None}
            exhaustive = sum(c.status == "exhaustive" for c in r.rows)
            return r.ok, exhaustive, sorted(searched.items())

        ops.append(Op(
            f"table{t}",
            lambda t=t: tables.run_table(t, include_long=True,
                                         jobs=TABLE_JOBS),
            observe,
            (True, len(TABLES[t]), sorted(TABLES[t].items()))))
    return Workload(ops, {})


def setup(workload: str, seed: int, tiny: bool, work: Path):
    """Import syncomp afresh and build the workload's inputs."""
    sc = _import_syncomp()
    rng = random.Random(f"{seed}-inputs")
    if workload in SEARCH_CELLS:
        cells = (TINY_SEARCH_CELLS if tiny else SEARCH_CELLS)[workload]
        wl = _search_workload(sc, cells)
    elif workload == "analyze-n7":
        wl = _analyze_workload(sc, TINY_ANALYZE_N if tiny else ANALYZE_N,
                               rng, work)
    else:
        wl = _tables_workload(sc, TINY_TABLES if tiny else sorted(TABLES))
    return sc, wl


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans around every public function of the layer modules.

    install() replaces each such function at every syncomp module binding
    that holds it (the modules import them by name), so calls between
    modules and inside a module are both recorded.  Spans are kept in
    memory as (id, name, start, end, parent id).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        hook = _OUTCOME_HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if hook is not None:
                hook(counts, args, result, end - start)
            return result

        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"syncomp.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(fn, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "syncomp" and not modname.startswith("syncomp."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in targets:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, targets[val])

    def uninstall(self):
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for the whole iteration."""
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, -1))


def _on_search(counts, args, result, dur):
    counts["search.candidates"] += result.candidates_examined
    counts["search.pruned"] += result.candidates_pruned
    counts["search.witnesses"] += len(result.witnesses)
    if args[0].jobs > 1:
        counts["search.pooled_job_s"] += args[0].jobs * dur


def _on_equivalent(counts, args, result, dur):
    counts["automata.equivalent.true"] += bool(result)


def _on_semigroup(counts, args, result, dur):
    counts["semigroup.elements"] += result.sigma


def _on_table(counts, args, result, dur):
    counts["tables.cells"] += len(result.rows)
    counts["tables.cells_exhaustive"] += sum(
        getattr(c, "status", None) == "exhaustive" for c in result.rows)


_OUTCOME_HOOKS = {
    "search.search_max_sigma": _on_search,
    "automata.equivalent": _on_equivalent,
    "semigroup.transition_semigroup": _on_semigroup,
    "tables.run_table": _on_table,
}


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float,
                  child_cpu: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (one root span)."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_fn: dict[str, float] = defaultdict(float)
    self_layer: dict[str, float] = defaultdict(float)
    incl_fn: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent in tracer.spans:
        own = end - start - child_time[sid]
        calls[name] += 1
        self_fn[name] += own
        incl_fn[name] += end - start
        self_layer[name.split(".")[0]] += own

    def layer_calls(layer):
        return sum(c for name, c in calls.items()
                   if name.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    m = {
        "search.calls": layer_calls("search"),
        "search.self_s": self_layer["search"],
        "search.candidates": c["search.candidates"],
        "search.pruned": c["search.pruned"],
        "search.pruned_ratio": ratio(c["search.pruned"],
                                     c["search.candidates"]),
        "search.candidates_per_s": ratio(
            c["search.candidates"], incl_fn["search.search_max_sigma"]),
        "search.witnesses": c["search.witnesses"],
        "search.child_cpu_s": child_cpu,
        "search.parallel_efficiency": ratio(child_cpu,
                                            c["search.pooled_job_s"]),
        "automata.self_s": self_layer["automata"],
        "automata.equivalent.true_ratio": ratio(
            c["automata.equivalent.true"], calls["automata.equivalent"]),
        "semigroup.transition_semigroup.calls":
            calls["semigroup.transition_semigroup"],
        "semigroup.transition_semigroup.self_s":
            self_fn["semigroup.transition_semigroup"],
        "semigroup.sigma_of_language.calls":
            calls["semigroup.sigma_of_language"],
        "semigroup.elements": c["semigroup.elements"],
        "semigroup.elements_per_s": ratio(
            c["semigroup.elements"],
            self_fn["semigroup.transition_semigroup"]),
        "classify.calls": layer_calls("classify"),
        "classify.self_s": self_layer["classify"],
        "witnesses.calls": layer_calls("witnesses"),
        "witnesses.self_s": self_layer["witnesses"],
        "tables.self_s": self_layer["tables"],
        "tables.cells": c["tables.cells"],
        "tables.cells_exhaustive": c["tables.cells_exhaustive"],
        "cli.self_s": self_layer["cli"],
    }
    for fn in _AUTOMATA_FNS:
        m[f"automata.{fn}.calls"] = calls[f"automata.{fn}"]
        m[f"automata.{fn}.self_s"] = self_fn[f"automata.{fn}"]
    layers_self = sum(self_layer[layer] for layer in LAYERS)
    m.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.layers_self_s": layers_self,
        "trace.unattributed_s": self_layer[ROOT_SPAN],
        "trace.spans": len(tracer.spans),
    })
    return m


# ---------------------------------------------------------------------------
# Machine speed


def probe_kernel() -> int:
    """Fixed work of the same kind as the program's closures."""
    seen = set(PROBE_GENS)
    queue = list(PROBE_GENS)
    for t in queue:
        for g in PROBE_GENS:
            u = tuple(g[i] for i in t)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen)


class Speedometer:
    """Times probe_kernel on a timer signal while the benchmark runs.

    Samples are (wall, cpu) of each probe.  Pool workers forked while the
    meter runs probe themselves too and leave their samples in ``spool``
    when they exit.  normalise() turns the raw time of a section into
    reference-speed seconds from the probes run during it.
    """

    def __init__(self, spool: Path):
        self.spool = spool
        self.samples: list[tuple[float, float]] = []
        self.child_samples: list[tuple[float, float]] = []
        self._old = None
        self._active = False
        multiprocessing.util.register_after_fork(self, Speedometer._in_child)

    def _probe(self, *_):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        probe_kernel()
        self.samples.append((time.perf_counter() - t0,
                             time.thread_time() - c0))

    def _start(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _in_child(self):
        if not self._active:
            return
        self.samples = []
        path = self.spool / f"probes-{os.getpid()}.json"
        # multiprocessing runs finalizers just before a worker exits
        multiprocessing.util.Finalize(
            None, lambda: path.write_text(json.dumps(self.samples)),
            exitpriority=0)
        self._start()

    def __enter__(self):
        for _ in range(MIN_PROBES):  # warm-up; also the first sections' speed
            self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._active = True
        self._start()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._active = False

    def _collect(self):
        for path in sorted(self.spool.glob("probes-*.json")):
            self.child_samples.extend(map(tuple, json.loads(path.read_text())))
            path.unlink()

    def mark(self) -> tuple[int, int]:
        self._collect()
        return len(self.samples), len(self.child_samples)

    def normalise(self, since: tuple[int, int], wall: float,
                  cpu: float = 0.0) -> tuple[float, float, float]:
        """(wall, cpu, speed) of the section that began at mark ``since``.

        speed = PROBE_REF_S / mean probe CPU time during the section, in
        this process and its pool workers, leaving out the slowest
        PROBE_TRIM of the probes.  wall less this process's probes and cpu
        less all probes are multiplied by speed.
        """
        self._collect()
        own = list(self.samples)
        inside = own[since[0]:]
        kids = self.child_samples[since[1]:]
        recent = own[min(since[0], len(own) - MIN_PROBES):] + kids
        cpus = sorted(c for _, c in recent)
        kept = cpus[:len(cpus) - int(len(cpus) * PROBE_TRIM)]
        speed = PROBE_REF_S / statistics.fmean(kept)
        return ((wall - sum(w for w, _ in inside)) * speed,
                (cpu - sum(c for _, c in inside + kids)) * speed,
                speed)


# ---------------------------------------------------------------------------
# Running and checking


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


@dataclass
class Iteration:
    wall: float  # raw seconds
    cpu: float
    child_cpu: float
    results: dict[str, object]
    ref_wall: float = 0.0  # reference-speed seconds (raw when not probed)
    ref_cpu: float = 0.0
    speed: float = 1.0  # mean over the operations


def run_iteration(ops: list[Op], rng: random.Random,
                  tracer: Tracer | None = None,
                  meter: Speedometer | None = None) -> Iteration:
    """Run every operation once, in seeded order.  Each operation is timed
    and, when probed, normalised on its own, so the speed applied to it is
    the speed seen while it ran."""
    order = list(ops)
    rng.shuffle(order)
    it = Iteration(0.0, 0.0, 0.0, {})
    speeds = []
    with tracer.root(ROOT_SPAN) if tracer else contextlib.nullcontext():
        for op in order:
            since = meter.mark() if meter else None
            own0 = _cpu(resource.RUSAGE_SELF)
            kids0 = _cpu(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            try:
                it.results[op.label] = op.run()
            except Exception as exc:  # a failed operation is counted
                it.results[op.label] = exc
            wall = time.perf_counter() - t0
            kids = _cpu(resource.RUSAGE_CHILDREN) - kids0
            cpu = _cpu(resource.RUSAGE_SELF) - own0 + kids
            it.wall += wall
            it.cpu += cpu
            it.child_cpu += kids
            if meter:
                wall, cpu, speed = meter.normalise(since, wall, cpu)
                speeds.append(speed)
            it.ref_wall += wall
            it.ref_cpu += cpu
    if speeds:
        it.speed = statistics.fmean(speeds)
    return it


def check(ops: list[Op], it: Iteration) -> list[str]:
    """Labels of the operations whose result differs from the expected."""
    bad = []
    for op in ops:
        r = it.results[op.label]
        try:
            ok = not isinstance(r, Exception) and op.observe(r) == op.expect
        except (KeyError, ValueError, TypeError, AttributeError):
            ok = False
        if not ok:
            bad.append(f"{op.label}: {r!r}" if isinstance(r, Exception)
                       else op.label)
    return bad


def oracle_check(sc, wl: Workload, it: Iteration,
                 rng: random.Random) -> tuple[int, list[str]]:
    """Re-check a seeded sample of each cell's witnesses with word-BFS."""
    attempted, bad = 0, []
    for label, sigma in wl.oracle_cells.items():
        result = it.results[label]
        if isinstance(result, Exception):
            continue  # already counted as a failed operation
        sample = list(result.witnesses)
        rng.shuffle(sample)
        for w in sample[:ORACLE_SAMPLE]:
            attempted += 1
            if sc["oracles"].word_bfs_sigma(w.as_dfa()) != sigma:
                bad.append(f"oracle {label} {w.sort_key()}")
    return attempted, bad


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest reaped
    # pool worker's high-water mark.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(args) -> dict:
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": _git_sha(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def _loop(seconds: float, body: Callable[[], float], least: int) -> None:
    """Call body, which returns its own duration, at least ``least`` times
    and then while one more call still fits in ``seconds``."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < least or time.perf_counter() - start + last <= seconds:
        last = body()
        done += 1


def bench(args) -> dict:
    """Run one benchmark invocation and return the result record."""
    work = OUT / f"inputs-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # traced runs are not probed: the probes would land inside the spans
    meter = None if args.trace else Speedometer(work)
    try:
        with meter or contextlib.nullcontext():
            setups, raw_setups = [], []
            for _ in range(SETUP_REPEATS):
                since = meter.mark() if meter else None
                t0 = time.perf_counter()
                sc, wl = setup(args.workload, args.seed, args.tiny, work)
                raw = time.perf_counter() - t0
                raw_setups.append(raw)
                setups.append(meter.normalise(since, raw)[0] if meter
                              else raw)
            if args.inject_fault:
                first = wl.ops[0]
                first.expect = (first.expect[0] + 1,) + first.expect[1:]
            order_rng = random.Random(f"{args.seed}-order")
            failures: list[str] = []
            attempted = 0
            plain: list[Iteration] = []
            traced: list[dict[str, float]] = []
            last_spans: list[tuple] = []

            def one_plain() -> float:
                nonlocal attempted
                it = run_iteration(wl.ops, order_rng, meter=meter)
                attempted += len(wl.ops)
                failures.extend(check(wl.ops, it))
                plain.append(it)
                return it.wall

            def one_pair() -> float:
                nonlocal attempted, last_spans
                first = one_plain()
                tracer = Tracer()
                tracer.install()
                try:
                    it = run_iteration(wl.ops, order_rng, tracer)
                finally:
                    tracer.uninstall()
                attempted += len(wl.ops)
                failures.extend(check(wl.ops, it))
                traced.append(layer_metrics(tracer, it.wall, plain[-1].wall,
                                            it.child_cpu))
                last_spans = tracer.spans
                return first + it.wall

            if args.trace:
                _loop(args.seconds, one_pair, 1)
            else:
                _loop(args.seconds, one_plain, MIN_ITERATIONS)
        peak = _peak_rss_mb()

        n_oracle, bad = oracle_check(sc, wl, plain[-1],
                                     random.Random(f"{args.seed}-oracle"))
        attempted += n_oracle
        failures.extend(bad)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {name: statistics.median(m[name] for m in traced)
                  for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(it.ref_wall for it in plain),
            "cpu_s": statistics.median(it.ref_cpu for it in plain),
            "peak_rss_mb": peak,
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        units = E2E_UNITS
    record = {
        "meta": metadata(args),
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "setup_samples": setups,
        "wall_samples": [it.ref_wall for it in plain],
        "cpu_samples": [it.ref_cpu for it in plain],
        "raw_setup_samples": raw_setups,
        "raw_wall_samples": [it.wall for it in plain],
        "raw_cpu_samples": [it.cpu for it in plain],
        "speed_samples": [it.speed for it in plain],
        "probes": meter.samples if meter else [],
        "worker_probes": meter.child_samples if meter else [],
        "failures": failures,
        "attempted": attempted,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    if args.trace:
        record["spans"] = [list(s) for s in last_spans]
    return record


def _write_out(record: dict, args) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                  f"{'-tiny' if args.tiny else ''}.json")
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the harness self-check")
    p.add_argument("--inject-fault", action="store_true",
                   help="make one expected value wrong (self-check)")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        _import_syncomp()
    except ImportError as exc:
        print(f"error: cannot import syncomp from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    record = bench(args)
    path = _write_out(record, args)
    failed = len(record["failures"])
    for label in record["failures"][:20]:
        print(f"# mismatch: {label}")
    print(f"# {json.dumps(record['meta'])}")
    print(f"# iterations={record['iterations']} traced="
          f"{record['traced_iterations']} fail_ratio="
          f"{failed / record['attempted']} record={path.relative_to(ROOT)}")
    if not args.trace:
        print(f"# raw medians: setup_s="
              f"{statistics.median(record['raw_setup_samples']):.4f} wall_s="
              f"{statistics.median(record['raw_wall_samples']):.4f} cpu_s="
              f"{statistics.median(record['raw_cpu_samples']):.4f} speed="
              f"{statistics.median(record['speed_samples']):.4f}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": record["attempted"],
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
