"""Exhaustive search cells, pruning soundness, budgets and sharding."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from operator import or_
from pathlib import Path

import pytest

from conftest import binary_3_sweep, dfa
from syncomp import (SearchTask, Transformation, classify, minimize,
                     search_max_sigma, sigma_of_language, small_witness,
                     transition_semigroup)
from syncomp import search
from syncomp.automata import _reachable
from syncomp.classify import (_is_left_ideal, _is_right_ideal,
                              _left_ideal_pairs, _orbit)
from syncomp.oracles import canonical_count, word_bfs_sigma
from syncomp.orders import quotient_orders
from syncomp.semigroup import _closure, _encode
from syncomp.search import _minimal_finals


def _spaces(task: SearchTask) -> list:
    """The spaces of the task's cell in visit order, each built: those
    search_max_sigma walks."""
    return [build() for _, build in search._chain(task)]


def _canonical_count(task: SearchTask) -> int:
    """The canonical candidates of the task's cell as search_max_sigma
    walks it: canonical_count summed over its spaces."""
    return sum(canonical_count(space, task.k) for space in _spaces(task))


@pytest.fixture
def relabeled(monkeypatch):
    """A function of the _Space a search builds: per relabeling of the
    space, the pool index of each pool letter's image, each letter
    conjugated directly (_conjugate)."""
    tables = {}

    class Recorded(search._Space):
        def __init__(self, *args):
            super().__init__(*args)
            index = {t: i for i, t in enumerate(self.pool)}
            tables[id(self)] = [[index[_conjugate(g, t)] for t in self.pool]
                                for g in self.relabelings]

    monkeypatch.setattr(search, "_Space", Recorded)
    return lambda space: tables[id(space)]

# _cell_counts options: the pruned search, and the brute force over every
# ordered candidate, which prunes nothing
PRUNED, UNPRUNED = {}, {"prune": False}


# ---------------------------------------------------------------------------
# exhaustive cell values


@pytest.mark.parametrize("family, n, k, expected", [
    ("right", 2, 2, 2),
    ("right", 3, 2, 7),
    ("right", 3, 3, 9),
    ("right", 4, 2, 31),
    ("right", 4, 3, 61),
    ("left", 2, 1, 1),
    ("left", 2, 2, 2),
    ("left", 2, 3, 3),
    ("left", 3, 2, 7),
    ("left", 3, 3, 9),
    ("left", 3, 4, 11),
    ("two_sided", 3, 2, 5),
    ("two_sided", 3, 3, 6),
    ("two_sided", 4, 2, 14),
    ("left", 4, 2, 17),
])
def test_cell_maxima(family, n, k, expected):
    result = search_max_sigma(SearchTask(family, n, k))
    assert result.max_sigma == expected
    assert result.exhaustive
    assert result.witnesses
    assert result.candidates_examined > 0


@pytest.mark.parametrize("family", ["right", "left", "two_sided"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unary_cells(family, n):
    result = search_max_sigma(SearchTask(family, n, 1))
    assert result.max_sigma == n - 1
    assert result.exhaustive


@pytest.mark.parametrize("n, k, expected", [
    (2, 2, 4), (3, 2, 24), (3, 3, 27),
])
def test_unrestricted_family_reaches_the_generic_ceiling(n, k, expected):
    result = search_max_sigma(SearchTask("all", n, k))
    assert result.max_sigma == expected
    assert result.max_sigma <= n ** n


def test_right_5_2_long_cell():
    result = search_max_sigma(SearchTask("right", 5, 2))
    assert result.max_sigma == 167
    assert result.exhaustive
    # the least witness is the second recorded small witness for this cell
    least = result.witnesses[0]
    recorded = small_witness("right", 5, 2, variant=1)
    assert [t.images for t in least.letters] == \
        [recorded.delta[a].images for a in recorded.alphabet]
    assert least.finals == recorded.finals


def _cell_counts(family: str, n: int, k: int, prune: bool = True) -> tuple:
    """(max sigma, witness count, candidates examined, candidates pruned)
    of a cell, by the search or, unpruned, by the brute force over every
    ordered candidate, which examines the whole order."""
    if not prune:
        best, witnesses, order = _brute(family, n, k)
        return best, len(witnesses), order, 0
    result = search_max_sigma(SearchTask(family, n, k))
    return (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned)


@pytest.mark.parametrize("family, n, k, prune, expected", [
    ("right", 4, 3, PRUNED, (61, 324, 45760, 22708)),
    # left and two-sided cells are searched one quotient order at a time:
    # five orders in left (4,2), two in two-sided (4,3) and left (3,4)
    ("left", 4, 2, PRUNED, (17, 3, 27_880, 16_040)),
    ("two_sided", 4, 3, PRUNED, (19, 7, 4465, 1420)),
    ("left", 3, 4, PRUNED, (11, 24, 4433, 1477)),
    ("all", 3, 2, PRUNED, (24, 108, 2268, 1116)),
    ("right", 4, 2, UNPRUNED, (31, 36, 4096, 0)),
    ("left", 3, 2, UNPRUNED, (7, 8, 2187, 0)),
    ("two_sided", 3, 3, UNPRUNED, (6, 6, 729, 0)),
    ("two_sided", 5, 2, PRUNED, (31, 1, 25_777, 12_793)),
])
def test_cell_counts_are_pinned(family, n, k, prune, expected):
    # the witness count and the candidate counters change if the canonical
    # representatives or the enumeration order change; the search's
    # canonical count is also predicted without searching
    counts = _cell_counts(family, n, k, **prune)
    assert counts == expected
    if prune is PRUNED:
        assert _canonical_count(SearchTask(family, n, k)) == \
            counts[2] - counts[3]


@pytest.mark.slow
@pytest.mark.parametrize("family, n, k, expected", [
    ("left", 4, 3, (34, 63, 527_132, 344_295)),
    ("two_sided", 4, 4, (23, 64, 29_330, 10_100)),
    ("left", 5, 2, (59, 9, 4_695_277, 3_690_836)),
    ("two_sided", 4, 5, (25, 128, 161_259, 59_002)),
    ("two_sided", 5, 3, (73, 5, 997_612, 581_537)),
    ("left", 4, 4, (64, 2268, 8_079_404, 5_754_263)),
    ("two_sided", 4, 6, (25, 2304, 770_875, 295_910)),
    ("left", 5, 3, (180, 672, 743_004_775, 661_543_469)),
    ("two_sided", 5, 4, (108, 1944, 31_468_177, 20_603_197)),
    ("right", 5, 3, (545, 6912, 40_885_625, 34_056_580)),
])
def test_frontier_cell_counts_are_pinned(family, n, k, expected):
    # the table cells up to about fifteen seconds long at jobs=1: left
    # (4,3), left (5,2), two-sided (5,3), left (5,3) and two-sided (5,4)
    # are above the bundled 25, 34, 47, 65 and 90, two-sided (4,4) and
    # (4,5), left (4,4) and right (5,3) equal the bundled 23, 25, 64 and
    # 545, and two-sided (4,6) has none; k = 5 walks chains of four prefix
    # nodes.  All but right (5,3) are searched one quotient order at a
    # time
    task = SearchTask(family, n, k)
    result = search_max_sigma(task)
    assert result.exhaustive
    assert (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned) == expected
    assert _canonical_count(task) == \
        result.candidates_examined - result.candidates_pruned


@pytest.mark.slow
def test_budgeted_right_5_3_is_pinned():
    # the cell where the rank bound skips the most closure work, cut by a
    # budget to under a second of its exhaustive run (about 13 s at
    # jobs=1, pinned in test_frontier_cell_counts_are_pinned)
    result = search_max_sigma(SearchTask("right", 5, 3, budget=1_000_000))
    assert not result.exhaustive
    assert (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned) == \
        (377, 288, 1_000_000, 582_178)


@pytest.mark.parametrize("family, n, k, budget, expected", [
    pytest.param("right", 6, 2, None, (1518, 120, 30_236_976, 28_956_366),
                 marks=pytest.mark.slow),
    pytest.param("two_sided", 6, 2, None, (120, 1, 2_220_867, 1_484_134),
                 marks=pytest.mark.slow),
    ("right", 6, 2, 400_000, (1518, 4, 400_000, 317_609)),
])
def test_six_state_cells_are_pinned(family, n, k, budget, expected):
    # the n = 6 cells, where a prefix's batch holds thousands of leaves
    # and the pool 23 relabelings besides the identity.  A budget's
    # prefix has no count without searching, so only the exhaustive runs
    # are held against canonical_count
    task = SearchTask(family, n, k, **({"budget": budget} if budget else {}))
    result = search_max_sigma(task)
    assert result.exhaustive == (budget is None)
    assert (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned) == expected
    if budget is None:
        assert _canonical_count(task) == \
            result.candidates_examined - result.candidates_pruned


@pytest.mark.slow
@pytest.mark.parametrize("family, n, k, budget, expected", [
    ("two_sided", 7, 2, None, (324, 1, 311_127_048, 246_195_296)),
    # the default budget, 10^9, ends inside the first (antichain) order
    ("left", 6, 2, 2_000_000_000, (166, 13, 1_311_058_122, 1_188_784_470)),
])
def test_two_letter_cells_searched_by_order_are_pinned(family, n, k, budget,
                                                       expected):
    # k = 2 cells whose whole candidate order fits a budget once they are
    # searched one quotient order at a time: two-sided (7,2) over 63
    # orders (3.1e9 candidates over its family space) and left (6,2) over
    # 63 (7.2e9).  Two-sided (7,2)'s witness is confirmed by the word BFS
    # oracle
    task = SearchTask(family, n, k, **({"budget": budget} if budget else {}))
    result = search_max_sigma(task)
    assert result.exhaustive
    assert (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned) == expected
    assert _canonical_count(task) == \
        result.candidates_examined - result.candidates_pruned
    if family == "two_sided":
        assert word_bfs_sigma(result.witnesses[0].as_dfa()) == 324


@pytest.mark.parametrize("family, n, k, budget, expected", [
    ("right", 7, 2, 100_000, (41, 1, 100_000, 98_760)),
    # the antichain order comes first, and its first 5,000,000 candidates
    # hold no minimal two-sided ideal
    ("two_sided", 7, 2, 10_000_000, (41, 16, 10_000_000, 9_288_045)),
], ids=["right-7-2-expected0", "two_sided-7-2-expected1"])
def test_seven_state_budget_prefixes_are_pinned(family, n, k, budget,
                                                expected):
    # budget prefixes of the n = 7 cells: right (7,2)'s pool holds 117,649
    # letters under 120 relabelings, and the first order of two-sided
    # (7,2) 16,968 under 120
    result = search_max_sigma(SearchTask(family, n, k, budget=budget))
    assert not result.exhaustive
    assert (result.max_sigma, len(result.witnesses),
            result.candidates_examined, result.candidates_pruned) == expected


@pytest.mark.slow
def test_seven_state_search_stays_small():
    # the orbit table grows as the pool plus heads * relabelings, so a
    # million candidates of right (7,2) fit well under 120 MB (per-letter
    # relabel tables had taken it past 200 MB).  The search runs in a
    # child of a fresh interpreter, whose children are the search alone
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], "
             "check=True, stdout=subprocess.DEVNULL); print(resource."
             "getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "syncomp.cli",
         "search", "--family", "right", "--n", "7", "--k", "2",
         "--budget", "1000000"],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    peak_mb = int(out.stdout) / 1024  # ru_maxrss is in kB on Linux
    assert peak_mb < 120, peak_mb


@pytest.mark.parametrize("family, n, k, expected", [
    ("right", 6, 2, 1_280_610),
    # over their orders; their family spaces alone hold 648,861 and
    # 20,623,533
    ("two_sided", 6, 2, 736_733),
    ("left", 4, 4, 2_325_141),
], ids=["right-6-2-1280610",
        # named as first pinned, over the family space
        "two_sided-6-2-648861", "left-4-4-20623533"])
def test_canonical_count_of_minute_scale_cells(family, n, k, expected):
    # examined - pruned of exhaustive runs that take seconds to minutes
    # (ROADMAP "Measurements")
    assert _canonical_count(SearchTask(family, n, k)) == expected


# ---------------------------------------------------------------------------
# witnesses and bookkeeping


def test_witnesses_are_verified_extremal_automata():
    result = search_max_sigma(SearchTask("left", 3, 2))
    for w in result.witnesses:
        d = w.as_dfa()
        assert minimize(d).n == 3
        assert sigma_of_language(d) == 7
        assert classify(d).is_left_ideal
    keys = [w.sort_key() for w in result.witnesses]
    assert keys == sorted(keys)


def test_found_witness_as_dfa_letters():
    result = search_max_sigma(SearchTask("right", 3, 2))
    d = result.witnesses[0].as_dfa()
    assert d.alphabet == ("a", "b")
    assert d.initial == 0


@pytest.mark.parametrize("letters, expect_sigma, message", [
    # state 0 never leaves itself: one state once minimized
    ([(0, 0, 2), (0, 1, 2)], 1, "not minimal with 3 states"),
    # right_ideal_witness(3, "ad"), whose sigma is 7
    ([(1, 0, 2), (0, 2, 2)], 8, "sigma mismatch"),
    # small_witness("left", 3, 2): minimal with sigma 7, not a right ideal
    ([(0, 0, 1), (1, 2, 2)], 7, "not in class right"),
    # right_ideal_witness(3, "ad") is not a left ideal, so not two-sided
    ([(1, 0, 2), (0, 2, 2)], 7, "not in class left"),
    ([(1, 0, 2), (0, 2, 2)], 7, "not in class two_sided"),
    # small_witness("left", 3, 2) is not two-sided either
    ([(0, 0, 1), (1, 2, 2)], 7, "not in class two_sided"),
])
def test_reverification_refuses_what_it_cannot_confirm(letters, expect_sigma,
                                                       message):
    # a class row's family is the one its message names; the others are
    # right-family rows
    family = (message.rpartition(" ")[2] if message.startswith("not in class")
              else "right")
    w = search.FoundWitness(tuple(map(Transformation, letters)),
                            frozenset({2}))
    with pytest.raises(AssertionError, match=message):
        search._reverify(SearchTask(family, 3, 2), w, expect_sigma)


_FAMILIES = ("right", "left", "two_sided", "all")


@pytest.mark.parametrize("family, n, k",
                         [(family, n, k) for family in _FAMILIES
                          for n in (1, 2, 3) for k in (1, 2, 3)]
                         + [("right", 4, 3)])
def test_reverification_agrees_with_classify(family, n, k):
    # each witness of the cell, put to the re-verification of every
    # family, with its own sigma and one more, and with one state more:
    # it passes exactly where classify's kappa, sigma and flag say it holds
    result = search_max_sigma(SearchTask(family, n, k))
    for w in result.witnesses:
        report = classify(w.as_dfa())
        assert (report.kappa, report.sigma) == (n, result.max_sigma), w
        for other in _FAMILIES:
            task = SearchTask(other, n, k)
            holds = (other == "all"
                     or getattr(report, f"is_{other}_ideal"))
            if holds:
                search._reverify(task, w, report.sigma)
            else:
                with pytest.raises(AssertionError, match="not in class"):
                    search._reverify(task, w, report.sigma)
            with pytest.raises(AssertionError, match="sigma mismatch"):
                search._reverify(task, w, report.sigma + 1)
        with pytest.raises(AssertionError, match="not minimal"):
            search._reverify(SearchTask(family, n + 1, k), w, report.sigma)


@pytest.mark.parametrize("family, right, left", [
    ("right", 1, 0), ("left", 0, 1), ("two_sided", 1, 1), ("all", 0, 0),
])
def test_reverification_runs_only_the_checks_it_states(monkeypatch, family,
                                                       right, left):
    # one witness of the family's (3,2) cell: the class tests of its own
    # family only, and none of classify's complement-side tests
    w = search_max_sigma(SearchTask(family, 3, 2)).witnesses[0]
    calls = []
    classify_module = importlib.import_module("syncomp.classify")

    def counted(name, real):
        def run(*args):
            calls.append(name)
            return real(*args)
        return run

    for module in (search, classify_module):
        for name in ("_is_right_ideal", "_is_left_ideal"):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
    monkeypatch.setattr(classify_module, "complement",
                        counted("complement", classify_module.complement))
    search._reverify(SearchTask(family, 3, 2), w,
                     transition_semigroup(w.as_dfa()).sigma)
    assert sorted(calls) == ["_is_left_ideal"] * left + \
        ["_is_right_ideal"] * right


def test_one_state_cell_is_trivial():
    # the general search: the only 1-state ideal is Σ*
    for family in ("right", "left", "two_sided", "all"):
        for k in (1, 2, 3):
            result = search_max_sigma(SearchTask(family, 1, k))
            case = (family, k)
            assert result.max_sigma == 1, case
            assert [(tuple(t.images for t in w.letters), w.finals)
                    for w in result.witnesses] == \
                [(((0,),) * k, frozenset({0}))], case
            assert (result.candidates_examined,
                    result.candidates_pruned) == (1, 0), case
            assert result.exhaustive, case
            assert result.witnesses[0].as_dfa().n == 1, case


def test_task_validation():
    with pytest.raises(ValueError):
        SearchTask("outer", 3, 2)
    with pytest.raises(ValueError):
        SearchTask("right", 0, 2)
    with pytest.raises(ValueError):
        SearchTask("right", 3, 0)
    with pytest.raises(ValueError):
        SearchTask("right", 3, 2, jobs=0)
    # no DFA has sigma 0, so a search must examine at least one candidate
    for budget in (0, -1):
        with pytest.raises(ValueError):
            SearchTask("right", 3, 2, budget=budget)
    SearchTask("right", 3, 2, budget=1)
    # the pool of all n^n letters is refused from n = 8, before it is built
    with pytest.raises(ValueError):
        SearchTask("left", 8, 2)
    SearchTask("left", 7, 2)
    # witnesses name their letters a..z
    with pytest.raises(ValueError):
        SearchTask("right", 2, 27)
    SearchTask("right", 2, 26)


# ---------------------------------------------------------------------------
# pruning soundness: the brute force over every ordered candidate reports
# the same maximum


@pytest.mark.parametrize("family, n, k, expected", [
    ("right", 3, 2, 7),
    ("left", 3, 2, 7),
    ("two_sided", 3, 3, 6),
])
def test_pruning_does_not_change_the_maximum(family, n, k, expected):
    result = search_max_sigma(SearchTask(family, n, k))
    assert result.max_sigma == _brute(family, n, k)[0] == expected
    assert result.exhaustive


def test_pruning_reduces_work():
    pruned = search_max_sigma(SearchTask("left", 3, 2))
    best, _, order = _brute("left", 3, 2)
    assert pruned.candidates_examined < order
    assert pruned.candidates_pruned > 0
    assert pruned.max_sigma == best


def test_canonical_filter_removes_relabeled_duplicates():
    with_filter = search_max_sigma(SearchTask("left", 3, 2))
    best, without, _ = _brute("left", 3, 2)
    assert best == with_filter.max_sigma
    assert len(without) > len(with_filter.witnesses)
    # the filters keep one representative of each witness, never a new one
    kept = {(gens, tuple(sorted(f))) for gens, f in without}
    assert {w.sort_key() for w in with_filter.witnesses} <= kept


# ---------------------------------------------------------------------------
# pruning soundness: the walk's stream and the letter-level tests


def _stream(space, k: int, shards: int = 1) -> list[tuple]:
    """Every canonical candidate the prefix walk of a space with k letters
    yields, over all shards, as (letter image tuples, sorted finals),
    checking that each batch lists its leaves in increasing order and
    that what it keeps for a leaf is a nonempty part of the finals
    options, in their order."""
    pool, opts, stream = space.pool, space.options, []
    for shard in range(shards):
        for up, leaves, keep in search._walk(space, k, SearchTask.budget,
                                             shard, shards):
            assert leaves == sorted(set(leaves)) and set(keep) <= set(leaves)
            for c in leaves:
                kept = keep.get(c, opts)
                assert kept and kept == [f for f in opts if f in kept], kept
                letters = tuple(pool[i] for i in up.idx + (c,))
                stream.extend((letters, tuple(sorted(f))) for f in kept)
    return stream


def _node(space, idx):
    """The walk's prefix node of the pool indices idx, made one letter at
    a time from the root, as the walk makes it, with no relabelings."""
    node = search._Prefix.root(space)
    for c in idx:
        node = search._Prefix(node, c)
    return node


@pytest.mark.parametrize("family, n, k", [
    *((family, n, k) for family in ("right", "left", "two_sided", "all")
      for n in (1, 2, 3) for k in (1, 2)),
    ("right", 4, 2),
    # three letters: prefixes below the head are pruned too
    ("right", 3, 3), ("left", 3, 3), ("all", 2, 3), ("two_sided", 4, 3),
    # leaves that meet relabelings past the orbit filter (see
    # test_leaves_meet_only_relabelings_onto_the_first_letter)
    ("all", 3, 3), ("left", 3, 4), ("right", 4, 3),
])
def test_stream_yields_each_orbit_minimum_once(family, n, k):
    # orbits of (letter multiset, finals) under relabelings of the free
    # states, found by applying every permutation to every candidate
    task = SearchTask(family, n, k)
    free = range(1, n - 1 if family in ("right", "two_sided") else n)
    relabelings = [(0, *p, *range(1 + len(free), n))
                   for p in permutations(free)]

    def image(pm, letters, finals):
        inv = sorted(range(n), key=pm.__getitem__)
        return (tuple(sorted(tuple(pm[g[q]] for q in inv) for g in letters)),
                tuple(sorted(pm[q] for q in finals)))

    space = search._space(task)
    minima = {min(image(pm, letters, finals) for pm in relabelings)
              for letters in combinations_with_replacement(space.pool, k)
              for finals in space.options}
    stream = _stream(space, k)
    assert len(stream) == len(set(stream))
    assert set(stream) == minima
    assert sorted(_stream(space, k, shards=2)) == sorted(stream)


def test_search_minimality_test_agrees_with_minimize():
    # the search's tuple-level filters share minimize's refinement but test
    # reachability once per letter tuple, as search calls them: the first
    # letter's prefix node and the second letter's pool index, all six
    # finals options at once; cover minimal and non-minimal DFAs alike
    sweep = binary_3_sweep()
    options = [d.finals for d in sweep[:6]]
    space = search._space(SearchTask("all", 3, 2))
    index = {g: c for c, g in enumerate(space.pool)}
    kept = 0
    for i in range(0, len(sweep), 6):
        group = sweep[i:i + 6]
        gens = tuple(group[0].delta[a].images for a in group[0].alphabet)
        assert [d.finals for d in group] == options
        expected = [d.finals for d in group if minimize(d).n == 3]
        up = _node(space, [index[gens[0]]])
        reached = options if up.reaches_all(index[gens[1]]) else []
        assert _minimal_finals(gens, 3, reached) == expected, gens
        kept += len(expected)
    assert kept == 2056


# ---------------------------------------------------------------------------
# budgets and parallelism


def test_budget_exhaustion_is_reported():
    result = search_max_sigma(SearchTask("right", 4, 2, budget=100))
    assert not result.exhaustive
    assert result.candidates_examined == 100
    assert result.max_sigma <= 31


def test_parallel_run_is_deterministic():
    serial = search_max_sigma(SearchTask("right", 4, 2, jobs=1))
    parallel = search_max_sigma(SearchTask("right", 4, 2, jobs=3))
    assert parallel.max_sigma == serial.max_sigma
    assert parallel.witnesses == serial.witnesses
    assert parallel.candidates_examined == serial.candidates_examined
    assert parallel.exhaustive


def test_budget_is_the_same_prefix_at_any_job_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # really use two shards
    serial, parallel = (
        search_max_sigma(SearchTask("right", 4, 3, budget=3000, jobs=jobs))
        for jobs in (1, 2))
    assert parallel.witnesses == serial.witnesses
    assert parallel.candidates_examined == serial.candidates_examined == 3000
    assert parallel.candidates_pruned == serial.candidates_pruned
    assert parallel.max_sigma == serial.max_sigma
    assert not parallel.exhaustive and not serial.exhaustive


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("family, n, k, budget, expected", [
    ("right", 5, 2, 1, (1, 0, 0, 0)),
    ("right", 5, 2, 500, (500, 400, 19, 1)),
    ("right", 5, 2, 1500, (1500, 747, 52, 2)),
    ("right", 5, 2, 5000, (5000, 2629, 167, 4)),
    # named as first pinned, with budgets in the family space's order
    pytest.param("left", 4, 2, 4100, (4100, 2442, 6, 4),
                 id="left-4-2-2500-expected4"),
    pytest.param("left", 4, 2, 21_300, (21_300, 13_576, 15, 5),
                 id="left-4-2-3000-expected5"),
    ("right", 4, 3, 280, (280, 61, 24, 3)),
    ("right", 4, 3, 6140, (6140, 1157, 61, 72)),
    pytest.param("two_sided", 4, 3, 100, (100, 19, 11, 2),
                 id="two_sided-4-3-220-expected8"),
    pytest.param("two_sided", 4, 3, 930, (930, 201, 19, 4),
                 id="two_sided-4-3-4050-expected9"),
])
def test_head_skipping_keeps_budgeted_counts(monkeypatch, jobs, family, n, k,
                                             budget, expected):
    # examined, pruned, max sigma and witness count of a budget prefix.
    # The right (5,2) budget 1500 ends inside the candidates of pool head
    # 2, which a relabeling maps lower ((0,0,0,2,4), candidates
    # 1249-1871), so the skip must count a partial head; so do the left
    # (4,2) budgets, inside root child 9 of the first order (candidates
    # 3969-4374) and root child 8 of the third (21214-21341).  The (4,3)
    # budgets end inside the candidates of a two-letter prefix that a
    # relabeling maps lower under a head it does not: pool indices (0, 4)
    # and (3, 4), candidates 250-309 and 6110-6169 in right (4,3), 94-114
    # and 923-943 in the first order of two-sided (4,3), under heads of
    # shards 0 and 1.  Their expected values come from enumerating every
    # candidate of the order up to the budget and deciding the canonical
    # ones in full, so they do not rest on the prefix walk.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = search_max_sigma(SearchTask(family, n, k, budget=budget,
                                         jobs=jobs))
    assert (result.candidates_examined, result.candidates_pruned,
            result.max_sigma, len(result.witnesses)) == expected
    assert not result.exhaustive


def _group(family: str, n: int) -> list[tuple[int, ...]]:
    """The relabelings of the free states, built from the permutations of
    the states in lexicographic order: those fixing 0, and n-1 as well
    where every letter fixes the sink."""
    fixed = {0, n - 1} if family in ("right", "two_sided") else {0}
    return [p for p in permutations(range(n))
            if all(p[q] == q for q in fixed)]


def _conjugate(pm: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Letter t under relabeling pm, pm t pm^-1: state pm(q) goes to
    pm(t(q))."""
    image = [0] * len(t)
    for q, x in enumerate(t):
        image[pm[q]] = pm[x]
    return tuple(image)


@pytest.mark.parametrize("family, n, k, tested", [
    ("right", 4, 3, 25_298),
    # named as first pinned, over the family space
    pytest.param("two_sided", 4, 3, 3_249, id="two_sided-4-3-13602"),
    pytest.param("left", 4, 2, 3_250, id="left-4-2-3031"),
    ("right", 3, 4, None),
])
def test_relabel_filter_never_sees_a_non_canonical_prefix(monkeypatch,
                                                          relabeled, family,
                                                          n, k, tested):
    # a proper prefix some relabeling maps lower is stepped over whole,
    # before the canonical test sees any child of it; tested counts the
    # tuples that reach the test as leaves, under prefixes of k - 1
    # letters, over the cell's spaces.  A node's meet holds exactly the
    # identity and the relabelings that take a letter of its prefix to
    # its first letter.  Both are checked against every relabeling of the
    # node's space, each letter conjugated directly
    task = SearchTask(family, n, k)
    real = search._canonical_children
    seen = []

    def checked(node, kids):
        idx, group = node.idx, relabeled(node.space)
        for d in range(1, len(idx) + 1):
            prefix = idx[:d]
            assert all(tuple(sorted(g[i] for i in prefix)) >= prefix
                       for g in group), idx
        assert node.meet == tuple(
            a for a, g in enumerate(group)
            if a == 0 or idx and idx[0] in (g[i] for i in idx)), idx
        if len(idx) == k - 1:
            seen.extend(idx + (c,) for c in kids)
        return real(node, kids)

    monkeypatch.setattr(search, "_canonical_children", checked)
    result = search_max_sigma(task)
    assert seen and result.exhaustive
    assert tested is None or len(seen) == tested


@pytest.mark.parametrize("family, n, k, met", [
    ("right", 5, 2, 23_374),
    ("all", 3, 3, 741),
    # named as first pinned, over the family space
    pytest.param("left", 3, 4, 298, id="left-3-4-1166"),
    ("right", 4, 3, 5_104),
    pytest.param("two_sided", 4, 3, 564, id="two_sided-4-3-3214"),
    pytest.param("left", 4, 2, 1_069, id="left-4-2-2337"),
    ("right", 3, 3, 0),
    ("all", 2, 3, 0),
])
def test_leaves_meet_only_relabelings_onto_the_first_letter(
        monkeypatch, relabeled, family, n, k, met):
    # a leaf t = idx + (c,) whose last letter's orbit reaches below t0 is
    # dropped by the orbit filter, and meets no relabeling.  Any other
    # meets those of node.meet and, for c in t0's orbit, those taking c
    # to t0, the identity aside.  met counts these (leaf, relabeling)
    # pairs over the leaves under prefixes of k - 1 letters, over the
    # cell's spaces; they are recounted as the relabelings of the leaf's
    # space that take some letter of t to t0, each letter conjugated
    # directly
    task = SearchTask(family, n, k)
    real = search._canonical_children
    walked = recounted = 0

    def counted(node, kids):
        nonlocal walked, recounted
        idx, space = node.idx, node.space
        group = relabeled(space)
        if len(idx) == k - 1:
            p0 = idx[0]
            for c in kids:
                least = space.least[c]
                assert least == min(g[c] for g in group)
                if least < p0:
                    continue
                meets = set(node.meet)
                if least == p0:
                    meets.update(space.sending(c))
                meets.discard(0)
                expected = {a for a, g in enumerate(group)
                            if a and p0 in (g[i] for i in idx + (c,))}
                assert meets == expected, (idx, c)
                walked += len(meets)
                recounted += len(expected)
        return real(node, kids)

    monkeypatch.setattr(search, "_canonical_children", counted)
    search_max_sigma(task)
    assert walked == recounted == met


_SMALL_CELLS = [(family, n, k) for family in ("right", "left", "two_sided",
                                              "all")
                for n in (1, 2, 3) for k in (1, 2, 3)]


@pytest.mark.parametrize("family", ["right", "left", "two_sided", "all"])
@pytest.mark.parametrize("n", range(1, 6))
def test_relabelings_fix_the_skeleton(family, n):
    # the relabelings that the canonical filter and canonical_count share:
    # every permutation of the states fixing 0, and n-1 as well where
    # every letter fixes the sink, in lexicographic order, so the
    # identity comes first.  Up to n = 3 the family space's pool is
    # closed under composition, so its size bounds every tuple's sigma,
    # and its sink, the e of the rank bound, is 1 exactly where every
    # letter fixes n-1: in right and two-sided spaces, and at n = 1, where
    # either e gives the same rank bounds
    fixed = {0, n - 1} if family in ("right", "two_sided") else {0}
    relabelings = search._relabelings(SearchTask(family, n, 1))
    assert relabelings == _group(family, n)
    assert relabelings[0] == tuple(range(n))
    assert len(relabelings) == math.factorial(n - len(fixed))
    if n > 3:
        return
    space = search._space(SearchTask(family, n, 1))
    assert _compositions(space.pool) <= set(space.pool)
    assert space.sink == (n == 1 or family in ("right", "two_sided"))
    if n == 1:
        for ranks in ((), (1,), (1, 1)):
            assert search._rank_bounds(1, 0, ranks) == \
                search._rank_bounds(1, 1, ranks) == [0, 1]


@pytest.mark.parametrize("family, n, order", [
    *(pytest.param(family, n, None, id=f"{family}-{n}")
      for family in ("right", "left", "two_sided", "all")
      for n in range(1, 6)),
    pytest.param("right", 6, None, id="right-6"),
    pytest.param("two_sided", 6, None, id="two_sided-6"),
    # the order spaces that left and two-sided cells walk (_chain)
    *(pytest.param(family, n, i, id=f"{family}-{n}-order{i}")
      for family in ("left", "two_sided") for n in range(2, 6)
      for i in range((1, 1, 2, 5, 16)[n - 1 - (family == "two_sided")])),
])
def test_orbit_table_matches_every_relabeling(family, n, order):
    # the family space of the cell, or the order-th of its order spaces:
    # for every pool letter c and relabeling g of the space, the orbit
    # table's g(c), read through c's head, equals c conjugated by g
    # directly; least[c] is the least index of c's orbit, the heads are
    # the letters that are their own least, each head's stored
    # stabilizer is the relabelings that fix it, sending(c) is those that
    # take c to least[c], and each relabeling's finals table maps an
    # option to its image
    task = SearchTask(family, n, 1)
    if order is None:
        space = search._space(task)
        assert space.relabelings == _group(family, n)
    else:
        space = search._chain(task)[order][1]()
    pool, options = space.pool, space.options
    index = {t: i for i, t in enumerate(pool)}
    relabeled = [[index[_conjugate(pm, t)] for t in pool]
                 for pm in space.relabelings]
    for c in range(len(pool)):
        images = [g[c] for g in relabeled]
        assert [space.image(a, c) for a in range(len(relabeled))] == \
            images, c
        assert space.least[c] == min(images), c
    heads = [c for c, least in enumerate(space.least) if least == c]
    assert heads == sorted({min(g[c] for g in relabeled)
                            for c in range(len(pool))})
    assert [c for c, row in enumerate(space.rows) if row] == heads
    assert [c for c, stab in enumerate(space.stabs) if stab] == heads
    for c in heads:
        assert space.stabs[c] == tuple(
            a for a, g in enumerate(relabeled) if g[c] == c), c
    for c, least in enumerate(space.least):
        assert sorted(space.sending(c)) == [
            a for a, g in enumerate(relabeled) if g[c] == least], c
    option = {f: i for i, f in enumerate(options)}
    assert space.finals == [
        [option[frozenset(pm[q] for q in f)] for f in options]
        for pm in space.relabelings]


@pytest.mark.parametrize("family, n, k", _SMALL_CELLS)
def test_canonical_count_matches_the_search(family, n, k):
    task = SearchTask(family, n, k)
    result = search_max_sigma(task)
    assert result.exhaustive
    assert _canonical_count(task) == \
        result.candidates_examined - result.candidates_pruned


# ---------------------------------------------------------------------------
# left and two-sided cells, one quotient order at a time


# (max sigma, witness count, least and greatest witness key) of cells too
# long for a reference that decides every candidate: those the walk over
# the family's space found, with a left-ideal test per tuple, before
# these cells were searched one quotient order at a time
_FAMILY_SPACE_WITNESSES = {
    ("left", 4, 3): (
        34, 63, (((0, 0, 1, 3), (0, 2, 3, 1), (1, 1, 1, 1)), (1,)),
        (((0, 0, 3, 2), (0, 2, 3, 1), (3, 3, 3, 3)), (3,))),
    ("left", 4, 4): (
        64, 2268,
        (((0, 0, 1, 2), (0, 1, 1, 2), (0, 2, 3, 1), (1, 1, 1, 1)), (1,)),
        (((0, 0, 3, 2), (0, 2, 3, 1), (0, 3, 3, 2), (3, 3, 3, 3)), (3,))),
    ("two_sided", 4, 4): (
        23, 64,
        (((0, 0, 1, 3), (0, 1, 3, 3), (0, 2, 1, 3), (1, 1, 1, 3)), (3,)),
        (((0, 0, 2, 3), (0, 2, 1, 3), (0, 3, 2, 3), (2, 3, 3, 3)), (3,))),
    ("two_sided", 4, 5): (
        25, 128,
        (((0, 0, 1, 3), (0, 1, 1, 3), (0, 1, 3, 3), (0, 2, 1, 3),
          (1, 1, 1, 3)), (3,)),
        (((0, 0, 2, 3), (0, 2, 1, 3), (0, 2, 2, 3), (0, 3, 2, 3),
          (2, 3, 3, 3)), (3,))),
    ("two_sided", 5, 3): (
        73, 5, (((0, 0, 1, 2, 4), (0, 2, 3, 2, 4), (1, 3, 3, 4, 4)), (4,)),
        (((0, 0, 1, 3, 4), (0, 3, 4, 2, 4), (1, 2, 2, 2, 4)), (4,))),
    ("left", 5, 2): (
        59, 9, (((0, 0, 1, 2, 4), (1, 3, 4, 3, 3)), (1, 2, 3, 4)),
        (((0, 0, 1, 2, 4), (1, 3, 4, 3, 3)), (4,))),
    ("two_sided", 6, 2): (
        120, 1, (((0, 0, 1, 2, 3, 5), (1, 4, 3, 5, 4, 5)), (5,)),
        (((0, 0, 1, 2, 3, 5), (1, 4, 3, 5, 4, 5)), (5,))),
}


@pytest.mark.parametrize("family, n, k", [
    *((family, n, 3) for family in ("left", "two_sided") for n in (1, 2, 3)),
    ("two_sided", 4, 3), ("left", 3, 4), ("two_sided", 4, 2), ("left", 4, 2),
    *(pytest.param(*cell, marks=pytest.mark.slow)
      for cell in _FAMILY_SPACE_WITNESSES),
])
def test_order_spaces_find_what_the_family_space_finds(family, n, k):
    # the same maximum and the same witnesses, each the least relabeling
    # of its orbit, as deciding every candidate of the family's space in
    # full (_reference), or as the pins of the longer cells
    result = search_max_sigma(SearchTask(family, n, k))
    assert result.exhaustive
    keys = [w.sort_key() for w in result.witnesses]
    if (family, n, k) in _FAMILY_SPACE_WITNESSES:
        assert (result.max_sigma, len(keys), keys[0], keys[-1]) == \
            _FAMILY_SPACE_WITNESSES[family, n, k]
    else:
        assert (result.max_sigma, tuple(keys)) == _reference(family, n, k)


def _compositions(pool: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every map f then g for f and g in pool, as image tuples."""
    return {tuple(g[q] for q in f) for f in pool for g in pool}


def _end_brute(n: int, leq: set, top: bool) -> list[tuple[int, ...]]:
    """The maps of n states, n-1 fixed if top, that preserve the order
    whose pairs p <= q are leq, in lexicographic order."""
    return [f for f in product(range(n), repeat=n)
            if (not top or f[-1] == n - 1)
            and all((f[p], f[q]) in leq for p, q in leq)]


def _labelled_orders(family: str, n: int) -> list[frozenset]:
    """Every partial order on n states with 0 least, and n-1 greatest in
    two-sided cells, as its set of pairs p <= q: the antisymmetric,
    transitive sets of strict pairs of free states, with the pairs
    through 0 (and n-1)."""
    top = family == "two_sided"
    free = range(1, n - top)
    strict = [(p, q) for p in free for q in free if p != q]
    fixed = {(q, q) for q in range(n)} | {(0, q) for q in range(n)}
    fixed |= {(q, n - 1) for q in range(n)} if top else set()
    orders = []
    for mask in range(1 << len(strict)):
        pairs = {strict[i] for i in range(len(strict)) if mask >> i & 1}
        if any((q, p) in pairs for p, q in pairs) or any(
                (p, r) not in pairs for p, q in pairs for q2, r in pairs
                if q == q2 and p != r):
            continue
        orders.append(frozenset(pairs | fixed))
    return orders


@pytest.mark.parametrize("family", ["left", "two_sided"])
@pytest.mark.parametrize("n", range(2, 7))
def test_orders_are_the_partial_orders_up_to_relabeling(family, n):
    # one order per isomorphism class of the labelled orders, in visit
    # order (|End| descending), the first reaching the paper's bound; up
    # to n = 4 each |End| and pool is that of every map tested directly,
    # the pool is closed under composition, so its size bounds every
    # tuple's sigma, its sink is 1 exactly in two-sided orders, and the
    # labelled orders fall into as many classes as there are orders
    top = family == "two_sided"
    orders = quotient_orders(n, top)
    assert len(orders) == (1, 1, 2, 5, 16, 63)[n - 1 - top]
    caps = [order.cap for order in orders]
    assert caps == sorted(caps, reverse=True)
    assert caps[0] == (n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1 if top
                       else n ** (n - 1) + n - 1)
    if n > 4:
        return
    group = _group(family, n)
    classes = {min(tuple(sorted((g[p], g[q]) for p, q in leq)) for g in group)
               for leq in _labelled_orders(family, n)}
    assert len(classes) == len(orders)
    for order in orders:
        leq = {(p, q) for p in range(n) for q in range(n)
               if order.ups[p] >> q & 1}
        space = search._order_space(order)
        assert space.pool == _end_brute(n, leq, top)
        assert order.cap == len(space.pool)
        assert _compositions(space.pool) <= set(space.pool)
        assert space.sink == order.top
        assert space.relabelings == [
            g for g in group
            if {(g[p], g[q]) for p, q in leq} == leq]
        up_sets = [frozenset(f) for f in sorted(
            f for size in range(1, n) for f in combinations(range(1, n), size)
            if all(q in f for p, q in leq if p in f))]
        assert space.options == ([frozenset({n - 1})] if top else up_sets)


@pytest.mark.parametrize("family, n, k", [
    *((family, n, k) for family in ("left", "two_sided") for n in (2, 3)
      for k in (1, 2, 3)),
    ("two_sided", 4, 3), ("left", 3, 4),
])
def test_order_spaces_count_the_orbits_of_labelled_orders(family, n, k):
    # a second count of the canonical candidates of a cell searched one
    # order at a time: the orbits of the family's relabelings on the
    # triples (labelled order, letter multiset, finals), each letter from
    # the maps that preserve the order and each finals a nonempty up-set
    # avoiding 0 ({n-1} in two-sided cells), found by relabeling every
    # triple, not by Burnside's lemma
    top = family == "two_sided"
    group = _group(family, n)
    minima = set()
    for leq in _labelled_orders(family, n):
        pool = _end_brute(n, leq, top)
        ups = [frozenset(q for q in range(n) if (p, q) in leq)
               for p in range(n)]
        options = [(n - 1,)] if top else [
            f for size in range(1, n) for f in combinations(range(1, n), size)
            if all(ups[q] <= set(f) for q in f)]
        for letters in combinations_with_replacement(pool, k):
            for finals in options:
                minima.add(min(
                    (tuple(sorted((g[p], g[q]) for p, q in leq)),
                     tuple(sorted(_conjugate(g, t) for t in letters)),
                     tuple(sorted(g[q] for q in finals))) for g in group))
    task = SearchTask(family, n, k)
    assert sum(canonical_count(space, k)
               for space in _spaces(task)) == len(minima)


def test_tuples_before_a_child_match_enumeration():
    # where the walk places child c of a node: the letter tuples of the
    # node's subtree whose first letter comes before c, counted from the
    # tuples themselves, in pools of up to 8 letters with up to 3 letters
    # after the child (k <= 4), for every node's first child and every c
    # from it up to the pool's end
    for letters in range(1, 9):
        for more in range(4):
            for first in range(letters):
                heads = [t[0] for t in combinations_with_replacement(
                    range(first, letters), more + 1)]
                for c in range(first, letters + 1):
                    assert search._tuples_before(letters, first, c, more) \
                        == sum(h < c for h in heads), (letters, more, first, c)


def _stream_positions(task: SearchTask) -> tuple:
    """The positions in the candidate order (the spaces in turn, in each
    sorted letter tuples of pool indices, then finals) of the canonical
    candidates _stream yields, sorted, the (start, options) of the letter
    tuples that it keeps with some but not all of their space's options,
    and the size of the whole order."""
    positions, partial, offset = [], [], 0
    for space in _spaces(task):
        pool, opts = space.pool, space.options
        index = {g: i for i, g in enumerate(pool)}
        option = {tuple(sorted(f)): i for i, f in enumerate(opts)}
        order = {t: i for i, t in enumerate(
            combinations_with_replacement(range(len(pool)), task.k))}
        kept = {}
        for letters, finals in _stream(space, task.k):
            start = offset + order[tuple(index[g] for g in letters)] * len(
                opts)
            positions.append(start + option[finals])
            kept[start] = kept.get(start, 0) + 1
        partial += [(s, len(opts)) for s, m in kept.items() if m < len(opts)]
        offset += len(order) * len(opts)
    return sorted(positions), partial, offset


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("family, n, k", _SMALL_CELLS)
def test_budgeted_canonical_counts_match_the_stream(serial_pool, jobs,
                                                    family, n, k):
    # budgets through the whole order, every 7th in orders of up to 500
    # candidates, every 49th up to 3,000 and every 427th in all (3,3);
    # each step leaves 1 over a multiple of the finals options, so cuts
    # fall inside batches at every offset into a leaf's options.
    # examined - pruned must be the number of canonical candidates before
    # the budget, counted by their positions in the unbudgeted stream.
    # In left and all cells with n = 3, the only ones with both a
    # relabeling and more than one option, some budgets cut a leaf that a
    # relabeling fixes, which keeps only part of its options.  In a cell
    # searched one quotient order at a time a budget cuts across the
    # chain of order spaces
    task = SearchTask(family, n, k)
    positions, partial, total = _stream_positions(task)
    step = 7 if total <= 500 else 49 if total <= 3000 else 427
    cuts = 0
    for budget in range(1, total + step, step):
        result = search_max_sigma(SearchTask(family, n, k, budget=budget,
                                             jobs=jobs))
        assert result.candidates_examined == min(budget, total)
        assert result.exhaustive == (budget >= total)
        assert result.candidates_examined - result.candidates_pruned \
            == bisect_left(positions, budget), budget
        cuts += any(s < budget < s + m for s, m in partial)
    assert (cuts > 0) == (family in ("left", "all") and n == 3), cuts


def _lemma8_space(task: SearchTask):
    """The family space of the task's cell, its pool cut by lemma 8 in
    left and two-sided cells: only a letter whose orbit of state 0 ends
    in a fixed point acts in the semigroup of a left ideal."""
    space = search._space(task)
    if not search._FAMILIES[task.family][1]:
        return space
    return search._Space(space.n, [t for t in space.pool
                                   if _orbit(t, 0)[2] == 1],
                         space.relabelings, space.options)


@functools.cache
def _reference(family: str, n: int, k: int) -> tuple:
    """The maximum sigma and the sorted witness keys of a cell, over every
    candidate the prefix walk yields on the family's space with lemma 8
    cutting its pool (_lemma8_space), not one quotient order at a time:
    minimality decided by minimize, class by classify, sigma by
    transition_semigroup, none of them inherited or bounded."""
    best, witnesses = 0, []
    for letters, finals in _stream(_lemma8_space(SearchTask(family, n, k)),
                                   k):
        d = dfa(letters, finals)
        sigma = transition_semigroup(d).sigma
        if minimize(d).n == n and (
                family == "all" or getattr(classify(d), f"is_{family}_ideal")):
            if sigma > best:
                best, witnesses = sigma, []
            if sigma == best:
                witnesses.append((letters, finals))
    return best, tuple(sorted(witnesses))


@functools.cache
def _brute(family: str, n: int, k: int) -> tuple:
    """The maximum sigma, the witnesses and the size of the order of a cell
    over every ordered candidate: each k-tuple of the n-state letters of
    the family's skeleton (those fixing n-1 in right and two-sided cells;
    no lemma-8 filter) with each finals option.  Minimality is decided by
    minimize, class by the ideal tests of the family, and sigma by
    transition_semigroup; none of the search's walk, filters, inherited
    facts or bounds is used."""
    right, left = search._FAMILIES[family]
    letters = [t for t in product(range(n), repeat=n)
               if not right or t[-1] == n - 1]
    options = search._space(SearchTask(family, n, k)).options
    best, witnesses = 0, []
    for gens in product(letters, repeat=k):
        for f in options:
            md = minimize(dfa(gens, f))
            if (md.n < n or right and not _is_right_ideal(md)
                    or left and not _is_left_ideal(md)):
                continue
            sigma = transition_semigroup(md).sigma
            if sigma > best:
                best, witnesses = sigma, []
            if sigma == best:
                witnesses.append((gens, f))
    return best, witnesses, len(letters) ** k * len(options)


@pytest.mark.parametrize("family, n, k, expected", [
    ("right", 1, 1, (1, 1, 1)), ("right", 1, 2, (1, 1, 1)),
    ("right", 1, 3, (1, 1, 1)), ("right", 2, 1, (1, 1, 2)),
    ("right", 2, 2, (2, 2, 4)), ("right", 2, 3, (2, 6, 8)),
    ("right", 3, 1, (2, 1, 9)), ("right", 3, 2, (7, 8, 81)),
    ("right", 3, 3, (9, 48, 729)), ("right", 4, 2, (31, 36, 4096)),
    ("left", 1, 1, (1, 1, 1)), ("left", 1, 2, (1, 1, 1)),
    ("left", 1, 3, (1, 1, 1)), ("left", 2, 1, (1, 1, 4)),
    ("left", 2, 2, (2, 4, 16)), ("left", 2, 3, (3, 6, 64)),
    ("left", 3, 1, (2, 2, 81)), ("left", 3, 2, (7, 8, 2187)),
    ("two_sided", 1, 1, (1, 1, 1)), ("two_sided", 1, 2, (1, 1, 1)),
    ("two_sided", 1, 3, (1, 1, 1)), ("two_sided", 2, 1, (1, 1, 2)),
    ("two_sided", 2, 2, (2, 2, 4)), ("two_sided", 2, 3, (2, 6, 8)),
    ("two_sided", 3, 1, (2, 1, 9)), ("two_sided", 3, 2, (5, 2, 81)),
    ("two_sided", 3, 3, (6, 6, 729)), ("two_sided", 4, 2, (14, 4, 4096)),
    ("all", 1, 1, (1, 1, 1)), ("all", 1, 2, (1, 1, 1)),
    ("all", 1, 3, (1, 1, 1)), ("all", 2, 1, (2, 2, 8)),
    ("all", 2, 2, (4, 8, 32)), ("all", 2, 3, (4, 60, 128)),
    ("all", 3, 1, (3, 12, 162)), ("all", 3, 2, (24, 432, 4374)),
])
def test_search_matches_a_brute_force_over_every_ordered_candidate(
        family, n, k, expected):
    # (max sigma, witness count, order size) of the brute force; the
    # search's maximum is the brute maximum, and its witnesses are the
    # brute witnesses' orbit minima under the relabelings of the free
    # states, each image's letters sorted (the letter-renaming symmetry)
    best, witnesses, order = _brute(family, n, k)
    assert (best, len(witnesses), order) == expected
    minima = {min((tuple(sorted(_conjugate(pm, t) for t in gens)),
                   tuple(sorted(pm[q] for q in f)))
                  for pm in _group(family, n))
              for gens, f in witnesses}
    result = search_max_sigma(SearchTask(family, n, k))
    assert result.max_sigma == best
    assert [w.sort_key() for w in result.witnesses] == sorted(minima)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("family, n, k",
                         [*_SMALL_CELLS, ("right", 4, 3), ("left", 4, 2)])
def test_search_matches_a_reference_over_every_candidate(serial_pool, jobs,
                                                         family, n, k):
    # the search skips the Moore refinement where a tuple's closure is
    # below its shard's best; the maximum and the witnesses must still be
    # those of deciding every yielded candidate in full
    result = search_max_sigma(SearchTask(family, n, k, jobs=jobs))
    assert serial_pool == ([2] if jobs == 2 else [])
    assert (result.max_sigma,
            tuple(w.sort_key() for w in result.witnesses)) == \
        _reference(family, n, k)


@pytest.mark.parametrize("family, n, k", [*_SMALL_CELLS, ("right", 4, 2)])
def test_rank_bound_holds_for_every_letter_tuple(family, n, k):
    # every letter tuple over the skeleton's letters, its ranks handed
    # down through prefix nodes as the search does, against the size of
    # its closure by the plain BFS.  Prefix nodes with the same sorted
    # ranks hold one bounds list, not equal copies
    space = search._space(SearchTask(family, n, k))
    e = int(family in ("right", "two_sided"))
    rows = {}  # sorted ranks -> the bounds of the first node with them
    for idx in product(range(len(space.pool)), repeat=k):
        gens = tuple(space.pool[c] for c in idx)
        up = _node(space, idx[:-1])
        assert rows.setdefault(up.ranks, up.bounds) is up.bounds, idx
        last = space.ranks[idx[-1]]
        ranks = tuple(sorted(up.ranks + (last,)))
        assert ranks == tuple(sorted(len(set(g)) for g in gens))
        bound = search._rank_bound(n, e, ranks)
        assert up.bounds[last] == bound
        sigma = len(_closure([_encode(g) for g in gens], n, None)[0])
        assert sigma <= bound, gens


def _pairs(ranks, e):
    """The per-pair rank bound that the strata are held against: the sum
    over ordered pairs (f, l) of the ranks of r(l) ** (r(f) - e)."""
    return sum(l ** (f - e) for f in ranks for l in ranks)


def test_rank_bound_holds_for_every_sorted_letter_tuple_of_right_4_3():
    # the cell whose maximum, 61 of 64, is near the stratum totals: the
    # bound falls below 61 on most of its tuples, the sum over pairs of
    # r(l) ** (r(f) - 1) on fewer, and never below a tuple's closure
    space = search._space(SearchTask("right", 4, 3))
    below = pairs_below = 0
    for gens in combinations_with_replacement(space.pool, 3):
        ranks = tuple(sorted(len(set(g)) for g in gens))
        sigma = len(_closure([_encode(g) for g in gens], 4, None)[0])
        bound = search._rank_bound(4, 1, ranks)
        assert sigma <= bound, gens
        below += bound < 61
        pairs_below += _pairs(ranks, 1) < 61
    assert (below, pairs_below) == (36_256, 25_784)


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("n", range(1, 8))
def test_rank_strata_add_up(n, e):
    # per pair of a first letter of rank a and a last of rank b, the
    # strata count every map of the a - e free kernel classes into the
    # image; the strata of all maps count the n^(n-e) maps (those of rank
    # rho by brute force where n <= 5); a tuple of permutations has at
    # most (n - e)! elements; and for every rank tuple of up to four
    # letters the bound is at most the sum over pairs and keyed by the
    # ranks' multiset alone
    K, I, M = search._strata(n, e)
    for a, b in product(range(1, n + 1), repeat=2):
        assert sum(K[a][rho] * I[b][rho] for rho in range(n + 1)) == \
            b ** (a - e), (a, b)
    assert sum(M) == n ** (n - e)
    if n <= 5:
        maps = [t for t in product(range(n), repeat=n)
                if not e or t[-1] == n - 1]
        assert M == [sum(len(set(t)) == rho for t in maps)
                     for rho in range(n + 1)]
    for k in range(1, 5):
        assert search._rank_bound(n, e, (n,) * k) == math.factorial(n - e)
        for ranks in product(range(1, n + 1), repeat=k):
            bound = search._rank_bound(n, e, ranks)
            assert bound == search._rank_bound(n, e, tuple(sorted(ranks))), \
                ranks
            assert bound <= _pairs(ranks, e), ranks


@pytest.mark.parametrize("family, n, k", _SMALL_CELLS)
def test_reach_masks_agree_with_the_walk(family, n, k):
    # every letter tuple over the skeleton's letters, its reached states
    # handed down through prefix nodes as the search builds them: each
    # node's mask holds the states automata._reachable finds
    # from 0, and a tuple's reachability test by its last letter's pool
    # index passes iff that walk reaches every state
    space = search._space(SearchTask(family, n, k))
    root = search._Prefix.root(space)
    assert root.reach == 1
    nodes = {(): root}
    for idx in product(range(len(space.pool)), repeat=k):
        gens = tuple(space.pool[c] for c in idx)
        for i in range(1, k):
            if idx[:i] not in nodes:
                up = search._Prefix(nodes[idx[:i - 1]], idx[i - 1])
                assert up.reach == sum(1 << q for q in _reachable(gens[:i], 0))
                nodes[idx[:i]] = up
        assert nodes[idx[:-1]].reaches_all(idx[-1]) == \
            (len(_reachable(gens, 0)) == n), gens


@pytest.mark.parametrize("n", range(1, 8))
def test_mask_table_entries_are_image_sets(n):
    # entry m of a letter's mask table is the mask of the images of the
    # states in mask m, on the identity, a constant and sampled letters
    rng = random.Random(n)
    letters = [tuple(range(n)), (n - 1,) * n,
               *(tuple(rng.randrange(n) for _ in range(n)) for _ in range(30))]
    for g in letters:
        table = search._image_masks(g)
        assert len(table) == 1 << n
        for m in range(1 << n):
            assert table[m] == functools.reduce(
                or_, (1 << g[q] for q in range(n) if m >> q & 1), 0), (g, m)


@pytest.mark.parametrize("family, n, k", [*_SMALL_CELLS, ("right", 4, 3),
                                          ("left", 3, 4)])
def test_inherited_facts_never_change_a_verdict(monkeypatch, family, n, k):
    # the reachability test spreads a prefix's reached states: it must
    # give the verdict of the plain walk (automata._reachable) of the
    # whole tuple.  Replaying the walks of the cell's spaces in turn,
    # their batches and each batch's tuples in order: every tuple of a
    # space whose pool is smaller than the best sigma so far meets no test
    # and is not closed (in left (3,4), the order with 10 maps after the
    # best reached 11).  A tuple whose rank bound is below the best sigma
    # so far meets no test and is not closed, and its closure is below
    # that best; every other one meets the reachability test.  One that
    # reaches every state is closed once, right after it, unless its last
    # letter is in the closure of an earlier tuple of its batch that came
    # out below the best: then its own closure (built afresh) is inside
    # that one and below the best.  In left and two-sided cells a tuple
    # that reaches every state is a left ideal with every option of its
    # space (classify._left_ideal_pairs built afresh), so no left-ideal
    # test is needed.  The Moore refinement then runs on every option of
    # a closed tuple's kept list if its closure reaches the best so far,
    # and on nothing else
    real_reach, real_extend, real_moore = (
        search._Prefix.reaches_all, search._extend, search._moore_classes)
    calls = []

    def compared(up, c):
        reached = real_reach(up, c)
        gens = tuple(up.space.pool[i] for i in up.idx + (c,))
        assert reached == (len(_reachable(gens, 0)) == n), gens
        calls.append(("tested", gens, reached))
        return reached

    def recorded(codes, n_, base):
        elements = real_extend(codes, n_, base)
        if len(codes) == k:  # a letter tuple, not a prefix of one
            calls.append(("closed", tuple(codes), elements))
        return elements

    def refined(gens, finals):
        classes = real_moore(gens, finals)
        calls.append(("moore", gens, finals, max(classes) == n - 1))
        return classes

    monkeypatch.setattr(search._Prefix, "reaches_all", compared)
    monkeypatch.setattr(search, "_extend", recorded)
    monkeypatch.setattr(search, "_moore_classes", refined)
    task = SearchTask(family, n, k)
    result = search_max_sigma(task)
    left = search._FAMILIES[family][1]
    best, at, dead, skipped = 0, 0, 0, 0
    for space in _spaces(task):
        batches = [(tuple(space.pool[i] for i in up.idx),
                    [(space.pool[c], keep.get(c, space.options))
                     for c in leaves])
                   for up, leaves, keep in search._walk(space, k, task.budget,
                                                        0, 1)]
        if len(space.pool) < best:
            dead += 1
            continue
        for prefix, leaves in batches:
            below = []  # the closures of earlier tuples below the best
            for last, options in leaves:
                gens = prefix + (last,)
                fresh = set(_closure([_encode(g) for g in gens], n, None)[0])
                if search._rank_bound(n, space.sink,
                                      tuple(len(set(g)) for g in gens)) < best:
                    assert len(fresh) < best, gens
                    continue
                assert calls[at][:2] == ("tested", gens), (calls[at], gens)
                reached = calls[at][2]
                at += 1
                if not reached:
                    continue
                assert not left or all(_left_ideal_pairs(gens, n, 0, f)
                                       for f in space.options), gens
                holder = next((s for s in below if bytes(last) in s), None)
                if holder is not None:
                    assert fresh <= holder and len(fresh) < best, gens
                    skipped += 1
                    continue
                closed = calls[at]
                at += 1
                assert closed[:2] == ("closed", tuple(map(_encode, gens))), \
                    gens
                assert closed[2] == fresh, gens
                if len(fresh) < best:
                    below.append(fresh)
                    continue
                refinements = calls[at:at + len(options)]
                assert [c[:3] for c in refinements] == \
                    [("moore", gens, f) for f in options], gens
                at += len(options)
                if any(c[3] for c in refinements):
                    best = len(fresh)
    assert at == len(calls)
    # every cell here with n, k >= 3 skips some closure by a sibling's
    assert skipped or min(n, k) < 3
    assert result.witnesses and best == result.max_sigma
    assert dead == ((family, n, k) == ("left", 3, 4))


@pytest.mark.parametrize("family, n, k, tuples, tested",
                         [("right", 5, 2, 33_285, 8_043),
                          ("right", 4, 3, 23_052, 4_952),
                          ("two_sided", 4, 3, 3_045, 2_432),
                          ("left", 4, 2, 2_666, 1_968),
                          ("left", 3, 4, 1_240, 478),
                          ("two_sided", 5, 2, 12_984, 9_129)],
                         # each case keeps the name it was first pinned
                         # under, which also gives its count under an
                         # earlier, looser rank bound, and for left and
                         # two-sided cells over the family space
                         ids=["right-5-2-33285-8416", "right-4-3-23052-10657",
                              "two_sided-4-3-12550-6780",
                              "left-4-2-1767-1525", "left-3-4-2465-1980",
                              "two_sided-5-2-19141-13321"])
def test_letter_tests_follow_the_rank_bound(monkeypatch, family, n, k,
                                            tuples, tested):
    # the canonical letter tuples the walk yields, counted over the leaves
    # of its batches, and those that meet the reachability test
    # (_Prefix.reaches_all) at jobs=1: only the tuples whose rank bound
    # reaches the best sigma so far, in a space whose cap reaches it
    real_walk, real_reach = search._walk, search._Prefix.reaches_all
    walked, seen = [], []

    def counted_walk(*args):
        for batch in real_walk(*args):
            walked.extend(batch[1])
            yield batch

    def counted_reach(up, c):
        seen.append(up.idx + (c,))
        return real_reach(up, c)

    monkeypatch.setattr(search, "_walk", counted_walk)
    monkeypatch.setattr(search._Prefix, "reaches_all", counted_reach)
    task = SearchTask(family, n, k)
    search_max_sigma(task)
    assert (len(walked), len(seen)) == (tuples, tested)
    # one leaf per orbit of letter multisets: the canonical count of each
    # space with one finals option that every relabeling fixes
    assert tuples == sum(
        canonical_count(search._Space(space.n, space.pool,
                                      space.relabelings, [frozenset()]), k)
        for space in _spaces(task))


@pytest.mark.parametrize("family, n, k, closures, refinements",
                         [("right", 5, 2, 1_263, 54),
                          ("right", 4, 3, 1_046, 343),
                          ("left", 4, 2, 93, 42),
                          ("two_sided", 4, 3, 427, 18),
                          ("left", 3, 4, 119, 90)],
                         # named as first pinned (see above)
                         ids=["right-5-2-2189-54", "right-4-3-6171-343",
                              "left-4-2-245-47", "two_sided-4-3-819-15",
                              "left-3-4-740-102"])
def test_closure_and_moore_counts_are_pinned(monkeypatch, family, n, k,
                                             closures, refinements):
    # the letter tuples closed (every one that reaches every state, whose
    # rank bound reaches the best so far and whose last letter is in no
    # closure of an earlier tuple of its batch below the best, once
    # whatever number of finals options it keeps) and the Moore
    # refinements run (one per kept option of a tuple whose closure
    # reaches the best so far) at jobs=1
    real_extend, real_moore = search._extend, search._moore_classes
    closed, refined = [], []

    def counted_extend(codes, n_, base):
        if len(codes) == k:
            closed.append(codes)
        return real_extend(codes, n_, base)

    def counted_moore(gens, finals):
        refined.append((gens, finals))
        return real_moore(gens, finals)

    monkeypatch.setattr(search, "_extend", counted_extend)
    monkeypatch.setattr(search, "_moore_classes", counted_moore)
    search_max_sigma(SearchTask(family, n, k))
    assert (len(closed), len(refined)) == (closures, refinements)


@pytest.mark.parametrize("family, n, k, nodes, closures",
                         [("right", 4, 3, 1_108, 1_046),
                          ("right", 5, 2, 130, 1_263),
                          ("left", 4, 2, 138, 93),
                          ("two_sided", 4, 3, 420, 427)],
                         # named as first pinned (see above)
                         ids=["right-4-3-1108-6171", "right-5-2-130-2189",
                              "left-4-2-138-129", "two_sided-4-3-420-905"])
def test_each_letter_is_encoded_once_for_the_closure(monkeypatch, family, n,
                                                     k, nodes, closures):
    # a prefix node encodes its own last letter when it is made, and a
    # letter tuple its last letter only when it is closed: the others are
    # its prefix's, encoded once however many tuples below it are closed.
    # Left (4,2) and two-sided (4,3) make their nodes over five and two
    # quotient orders
    real_encode, real_extend = search._encode, search._extend
    encoded, made, closed = [], [], []

    class Counted(search._Prefix):
        __slots__ = ()

        def __init__(self, up, c):
            made.append(up.idx + (c,))
            super().__init__(up, c)

    def counted_encode(g):
        encoded.append(g)
        return real_encode(g)

    def counted_extend(codes, n_, base):
        if len(codes) == k:
            closed.append(codes)
        return real_extend(codes, n_, base)

    monkeypatch.setattr(search, "_Prefix", Counted)
    monkeypatch.setattr(search, "_encode", counted_encode)
    monkeypatch.setattr(search, "_extend", counted_extend)
    search_max_sigma(SearchTask(family, n, k))
    assert (len(made), len(closed), len(encoded)) == \
        (nodes, closures, nodes + closures)


def test_witnesses_share_letter_and_finals_objects():
    # one Transformation per distinct letter and one frozenset per distinct
    # finals set, however many witnesses use them
    result = search_max_sigma(SearchTask("right", 4, 3))
    letters = [t for w in result.witnesses for t in w.letters]
    assert len(result.witnesses) == 324
    assert len({id(t) for t in letters}) == len({t.images for t in letters}) \
        == 35
    assert len({id(w.finals) for w in result.witnesses}) == 1


def test_jobs_are_clamped_to_the_cpu_count(serial_pool):
    workers = serial_pool
    serial = search_max_sigma(SearchTask("right", 4, 2, jobs=1))
    assert workers == []
    huge = search_max_sigma(SearchTask("right", 4, 2, jobs=10 ** 6))
    assert workers == [2]
    assert huge.max_sigma == serial.max_sigma
    assert huge.witnesses == serial.witnesses
    assert huge.candidates_examined == serial.candidates_examined
    assert huge.candidates_pruned == serial.candidates_pruned


def test_serial_search_builds_the_pool_once(monkeypatch):
    # the --jobs clamp needs no pool: only the one shard builds it, the
    # family's pool in a right cell, and each order's in a left cell
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda arg: calls.append(name) or real(arg))

    counted(search, "_space")
    counted(importlib.import_module("syncomp.orders"), "endomorphisms")
    search_max_sigma(SearchTask("right", 3, 2, jobs=1))
    search_max_sigma(SearchTask("left", 3, 2, jobs=1))
    assert calls == ["_space"] + ["endomorphisms"] * len(
        quotient_orders(3, False))


@pytest.mark.parametrize("family", ["right", "left", "two_sided", "all"])
@pytest.mark.parametrize("n", [1, 2])
def test_shards_without_heads_change_nothing(serial_pool, family, n):
    # at n=1 the pool holds one letter, so the second shard gets no head
    # and returns an empty part
    serial, parallel = (search_max_sigma(SearchTask(family, n, 2, jobs=jobs))
                        for jobs in (1, 2))
    assert serial_pool == [2]
    assert dataclasses.replace(parallel, task=serial.task) == serial


def test_maximum_grows_with_alphabet():
    values = [search_max_sigma(SearchTask("right", 3, k)).max_sigma
              for k in (1, 2, 3, 4)]
    assert values == sorted(values)
    assert values[-1] == values[2] == 9  # three letters already saturate n=3


@pytest.mark.parametrize("n, k", [*product((1, 2, 3), repeat=2), (4, 2)])
def test_class_inclusion_orders_the_maxima(n, k):
    # a two-sided ideal is a left and a right ideal, and every ideal is a
    # regular language, so the maxima of exhaustive cells follow the
    # classes: two-sided <= min(left, right) and right, left <= all
    sigma = {}
    for family in _FAMILIES:
        result = search_max_sigma(SearchTask(family, n, k))
        assert result.exhaustive
        sigma[family] = result.max_sigma
    assert sigma["two_sided"] <= min(sigma["left"], sigma["right"])
    assert max(sigma["left"], sigma["right"]) <= sigma["all"]
