"""run_table: the cells on one worker pool, and the table-wide checks."""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from syncomp import run_table, search, tables


def real_pool(monkeypatch, method: str) -> None:
    """Two CPUs and process pools whose workers start by `method`."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        "syncomp.search.ProcessPoolExecutor",
        functools.partial(ProcessPoolExecutor,
                          mp_context=multiprocessing.get_context(method)))


# ---------------------------------------------------------------------------
# one pool per table


@pytest.mark.parametrize("table_id", [2, 4, 5])
def test_rows_are_the_same_at_any_job_count(monkeypatch, table_id):
    real_pool(monkeypatch, "fork")
    serial, parallel = (run_table(table_id, jobs=jobs) for jobs in (1, 2))
    assert len(parallel.rows) == len(serial.rows)
    for p, s in zip(parallel.rows, serial.rows):
        assert p == s
    assert parallel.ok and serial.ok


def test_cells_reach_spawned_workers_as_specs(monkeypatch):
    # a spawned worker imports the tables afresh and is sent each cell's
    # spec, plain data that pickles
    real_pool(monkeypatch, "spawn")
    assert run_table(5, jobs=2) == run_table(5, jobs=1)


@pytest.mark.parametrize("table_id", [2, 4, 5])
def test_one_pool_per_table_and_none_per_search(serial_pool, table_id):
    # the stand-in runs every cell in this process, so a search that
    # opened a pool of its own would be recorded too
    assert run_table(table_id, jobs=2).ok
    assert serial_pool == [2]


def test_table_jobs_are_clamped_to_the_cpu_count(serial_pool):
    assert run_table(5, jobs=10 ** 6).ok
    assert serial_pool == [2]


@pytest.mark.parametrize("table_id", [2, 3, 4, 5])
@pytest.mark.parametrize("jobs", [0, -1])
def test_nonpositive_jobs_are_refused_before_any_pool(serial_pool, table_id,
                                                      jobs):
    with pytest.raises(ValueError, match="jobs must be positive"):
        run_table(table_id, jobs=jobs)
    assert serial_pool == []


def test_a_failed_reverification_in_a_worker_surfaces(monkeypatch):
    real_pool(monkeypatch, "fork")
    parent = os.getpid()

    def fail(task, w, expect_sigma):
        raise AssertionError(f"witness rejected in process {os.getpid()}")

    monkeypatch.setattr(search, "_reverify", fail)
    with pytest.raises(AssertionError, match="witness rejected") as info:
        run_table(5, jobs=2)
    assert f"process {parent}" not in str(info.value)


def test_an_unknown_table_id_is_refused_before_any_pool(serial_pool):
    with pytest.raises(ValueError, match="unknown table id 7"):
        run_table(7, jobs=2)
    assert serial_pool == []


# ---------------------------------------------------------------------------
# the cells


def no_search(monkeypatch) -> list:
    """Stub out the cells' searches; the list records each searched (n, k)."""
    searched = []

    def fake(task):
        searched.append((task.n, task.k))
        return types.SimpleNamespace(max_sigma=0, exhaustive=True)

    monkeypatch.setattr(tables, "search_max_sigma", fake)
    return searched


@pytest.mark.parametrize("table_id", [2, 4, 5])
def test_every_cell_witness_has_k_letters(monkeypatch, table_id):
    no_search(monkeypatch)
    built = []
    monkeypatch.setattr(tables, "sigma_of_language",
                        lambda d: built.append(d) or 0)
    report = run_table(table_id, include_long=True)
    assert [(d.n, len(d.alphabet)) for d in built] == \
        [(r.n, r.k) for r in report.rows]


_UNARY = [(n, 1) for n in range(1, 6)]


@pytest.mark.parametrize("table_id, include_long, searched", [
    (2, False, _UNARY + [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]),
    (2, True, _UNARY + [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]),
    (4, False, _UNARY + [(2, 2), (3, 2), (2, 3), (3, 3), (3, 4)]),
    (4, True, _UNARY + [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 4)]),
    (5, False, _UNARY + [(2, 2), (3, 2), (4, 2), (3, 3)]),
    (5, True, _UNARY + [(2, 2), (3, 2), (4, 2), (3, 3)]),
])
def test_searched_cells_are_pinned(monkeypatch, table_id, include_long,
                                   searched):
    # the cells the benchmark's tables-long workload expects searched: a
    # cell moved to another search level must change these pins too
    recorded = no_search(monkeypatch)
    run_table(table_id, include_long=include_long)
    assert recorded == searched


# ---------------------------------------------------------------------------
# table-wide checks


def fake_search(monkeypatch, cell, max_sigma, exhaustive=True):
    """The real search, except that `cell` (n, k) reports max_sigma."""
    real = tables.search_max_sigma

    def fake(task):
        result = real(task)
        if (task.n, task.k) == cell:
            result = dataclasses.replace(result, max_sigma=max_sigma,
                                         exhaustive=exhaustive)
        return result

    monkeypatch.setattr(tables, "search_max_sigma", fake)


def failed_cells(report):
    return [(r.n, r.k) for r in report.rows if not r.ok]


def fake_construction(monkeypatch, cell, sigma):
    """The real table, except that the construction of `cell` (n, k)
    measures sigma and the cell's reference agrees with it."""
    family, specs = tables._COMPLEXITY_TABLES[5]
    specs = [dataclasses.replace(s, reference=sigma)
             if (s.n, s.k) == cell else s for s in specs]
    monkeypatch.setitem(tables._COMPLEXITY_TABLES, 5, (family, specs))
    real = tables.sigma_of_language
    monkeypatch.setattr(tables, "sigma_of_language", lambda d: (
        sigma if (d.n, len(d.alphabet)) == cell else real(d)))


@pytest.mark.parametrize("fake, sigma, failed", [
    (fake_search, 26, [(4, 2)]), (fake_search, 25, []),
    (fake_construction, 26, [(4, 2)])])
def test_a_search_maximum_above_the_closed_form_bound_fails(monkeypatch,
                                                            fake, sigma,
                                                            failed):
    # two-sided (4,2) is not tight, and the faked construction matches its
    # reference, so only the bound n^(n-2) + (n-2)*2^(n-2) + 1 = 25 can
    # reject either value
    fake(monkeypatch, (4, 2), sigma)
    report = run_table(5, jobs=1)
    assert failed_cells(report) == failed
    assert report.ok == (not failed)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_an_exhaustive_maximum_below_the_one_at_k_minus_1_fails(monkeypatch,
                                                               exhaustive):
    # two-sided (3,3) is not tight; (3,2) reaches 5.  A budgeted maximum is
    # only a lower bound, so it may fall below
    fake_search(monkeypatch, (3, 3), 4, exhaustive)
    report = run_table(5, jobs=1)
    assert failed_cells(report) == ([(3, 3)] if exhaustive else [])
    assert report.ok == (not exhaustive)
