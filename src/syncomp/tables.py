"""Reproduction of the bundled maximal-complexity reference tables.

Table ids follow the reference numbering: 2 = right ideals, 3 = counts of
transformations ruled out by the aperiodicity condition, 4 = left ideals,
5 = two-sided ideals.  Each complexity cell carries an achievability
construction (a witness whose sigma must equal the cell), and desk-scale
cells also re-derive the maximum by exhaustive search.  Cells marked tight
in the source are asserted against the search maximum; for the others the
search maximum is reported without being part of the pass/fail verdict
(the source claims achievability only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable

from .automata import Dfa
from .classify import ruled_out_count_brute, ruled_out_count_formula
from .search import SearchTask, _worker_map, search_max_sigma
from .semigroup import sigma_of_language
from .witnesses import (closed_form_bound, left_ideal_witness,
                        right_ideal_witness, small_witness, two_sided_witness)

__all__ = ["CellReport", "RuledOutRow", "TableReport", "run_table", "TABLE_IDS"]

TABLE_IDS = (2, 3, 4, 5)

# search effort levels
_FAST = "fast"      # runs in any `tables` invocation
_LONG = "long"      # only with include_long
_NONE = None        # beyond desk scale; achievability only


@dataclass(frozen=True)
class _CellSpec:
    n: int
    k: int
    reference: int
    tight: bool
    build: Callable[[], Dfa]
    search: str | None


@dataclass(frozen=True)
class CellReport:
    n: int
    k: int
    reference: int
    tight: bool
    measured: int               # sigma of the achievability construction
    search_max: int | None      # exhaustive maximum, when computed
    search_exhaustive: bool | None
    status: str                 # "exhaustive" | "achievability-only"
    ok: bool


@dataclass(frozen=True)
class RuledOutRow:
    n: int
    reference: int
    formula: int
    brute: int
    ok: bool


@dataclass(frozen=True)
class TableReport:
    table_id: int
    rows: tuple
    ok: bool


def _right(n, letters=None):
    return lambda: right_ideal_witness(n, letters)


def _left(n, letters=None):
    return lambda: left_ideal_witness(n, letters)


def _two(n, letters=None):
    return lambda: two_sided_witness(n, letters)


def _small(family, n, k):
    return lambda: small_witness(family, n, k)


def _unary_cells(family) -> list[_CellSpec]:
    return [_CellSpec(n, 1, max(1, n - 1), True, _small(family, n, 1), _FAST)
            for n in range(1, 6)]


_TABLE2 = _unary_cells("right") + [
    _CellSpec(2, 2, 2, True, _small("right", 2, 2), _FAST),
    _CellSpec(3, 2, 7, True, _right(3, "ad"), _FAST),
    _CellSpec(4, 2, 31, True, _small("right", 4, 2), _FAST),
    _CellSpec(5, 2, 167, True, _small("right", 5, 2), _LONG),
    _CellSpec(3, 3, 9, True, _right(3, "acd"), _FAST),
    _CellSpec(4, 3, 61, True, _right(4, "acd"), _FAST),
    _CellSpec(5, 3, 545, True, _small("right", 5, 3), _NONE),
    _CellSpec(4, 4, 64, True, _right(4), _NONE),
    _CellSpec(5, 4, 625, True, _right(5), _NONE),
]

_TABLE4 = _unary_cells("left") + [
    _CellSpec(2, 2, 2, True, _small("left", 2, 2), _FAST),
    _CellSpec(3, 2, 7, True, _small("left", 3, 2), _FAST),
    _CellSpec(4, 2, 17, False, _small("left", 4, 2), _LONG),
    _CellSpec(5, 2, 34, False, _small("left", 5, 2), _NONE),
    _CellSpec(2, 3, 3, True, _small("left", 2, 3), _FAST),
    _CellSpec(3, 3, 9, True, _left(3, "bde"), _FAST),
    _CellSpec(4, 3, 25, False, _left(4, "ade"), _NONE),
    _CellSpec(5, 3, 65, False, _left(5, "ade"), _NONE),
    _CellSpec(3, 4, 11, True, _left(3, "bcde"), _FAST),
    _CellSpec(4, 4, 64, False, _left(4, "acde"), _NONE),
    _CellSpec(5, 4, 453, False, _left(5, "acde"), _NONE),
    _CellSpec(4, 5, 67, False, _left(4), _NONE),
    _CellSpec(5, 5, 629, False, _left(5), _NONE),
]

_TABLE5 = _unary_cells("two_sided") + [
    _CellSpec(2, 2, 2, True, _small("two_sided", 2, 2), _FAST),
    _CellSpec(3, 2, 5, False, _small("two_sided", 3, 2), _FAST),
    _CellSpec(4, 2, 11, False, _small("two_sided", 4, 2), _FAST),
    _CellSpec(5, 2, 19, False, _small("two_sided", 5, 2), _NONE),
    _CellSpec(3, 3, 6, False, _small("two_sided", 3, 3), _FAST),
    _CellSpec(4, 3, 16, False, _two(4, "aef"), _NONE),
    _CellSpec(5, 3, 47, False, _two(5, "aef"), _NONE),
    _CellSpec(4, 4, 23, False, _two(4, "adef"), _NONE),
    _CellSpec(5, 4, 90, False, _two(5, "adef"), _NONE),
    _CellSpec(4, 5, 25, False, _two(4, "acdef"), _NONE),
    _CellSpec(5, 5, 147, False, _two(5, "acdef"), _NONE),
    _CellSpec(5, 6, 150, False, _two(5), _NONE),
]

_COMPLEXITY_TABLES: dict[int, tuple[str, list[_CellSpec]]] = {
    2: ("right", _TABLE2),
    4: ("left", _TABLE4),
    5: ("two_sided", _TABLE5),
}

# Transformations whose behavior from state 0 has period >= 2.  At n=4 the
# orbit of 0 visits j distinct states in (n-1)!/(n-j)! orders, the last one
# maps back to one of j-1 earlier ones, and the other n-j states map freely:
# j=2..4 gives 48 + 48 + 18 = 114 (period 1 gives 142; 114 + 142 = 4^4).
# The row used to read 162 at n=4, which neither the formula nor the
# enumeration of all 256 transformations gives.
_RULED_OUT_REFERENCE = {2: 1, 3: 10, 4: 114, 5: 1556}


def _run_cell(table_id: int, index: int, include_long: bool) -> CellReport:
    """Cell `index` of a complexity table, computed in this process.  A pool
    worker is sent the cell's position, not its spec, whose build lambda
    cannot be pickled."""
    family, specs = _COMPLEXITY_TABLES[table_id]
    spec = specs[index]
    measured = sigma_of_language(spec.build())
    do_search = spec.search == _FAST or (spec.search == _LONG and include_long)
    search_max = search_exhaustive = None
    if do_search:
        result = search_max_sigma(SearchTask(family, spec.n, spec.k))
        search_max, search_exhaustive = result.max_sigma, result.exhaustive
    status = ("exhaustive" if do_search and search_exhaustive
              else "achievability-only")
    ok = measured == spec.reference
    if spec.tight and search_max is not None:
        ok = ok and search_max == spec.reference
    if spec.n >= 2:  # never exceed the family's proven bound
        ok = ok and measured <= closed_form_bound(family, spec.n)
    return CellReport(spec.n, spec.k, spec.reference, spec.tight, measured,
                      search_max, search_exhaustive, status, ok)


def _table_checks(family: str, rows: list[CellReport]) -> tuple:
    """Fail the rows that break a table-wide fact; either failure is a bug.

    No search maximum exceeds the family's closed-form bound, and exhaustive
    maxima never decrease in k: duplicating a letter keeps the family,
    minimality and sigma, so the maximum at k-1 is reached at k too.
    """
    exhaustive = {(r.n, r.k): r.search_max for r in rows
                  if r.search_exhaustive}
    checked = []
    for r in rows:
        above = (r.search_max is not None and r.n >= 2
                 and r.search_max > closed_form_bound(family, r.n))
        drops = (r.search_exhaustive
                 and r.search_max < exhaustive.get((r.n, r.k - 1), 0))
        checked.append(replace(r, ok=False) if above or drops else r)
    return tuple(checked)


def run_table(table_id: int, include_long: bool = False,
              jobs: int = 1) -> TableReport:
    """Recompute one reference table and compare cell by cell.

    With jobs > 1 the cells run on one pool of up to `jobs` worker
    processes (capped by the CPU count), each cell's search in one worker;
    the rows and verdict are the same at any job count.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if table_id == 3:
        rows = []
        for n, ref in _RULED_OUT_REFERENCE.items():
            formula = ruled_out_count_formula(n)
            brute = ruled_out_count_brute(n)
            rows.append(RuledOutRow(n, ref, formula, brute,
                                    formula == brute == ref))
        return TableReport(3, tuple(rows), all(r.ok for r in rows))
    if table_id not in _COMPLEXITY_TABLES:
        raise ValueError(f"unknown table id {table_id}; have {TABLE_IDS}")
    family, specs = _COMPLEXITY_TABLES[table_id]
    with _worker_map(jobs) as (_, run):
        cells = list(run(_run_cell, repeat(table_id), range(len(specs)),
                         repeat(include_long)))
    rows = _table_checks(family, cells)
    return TableReport(table_id, rows, all(r.ok for r in rows))
