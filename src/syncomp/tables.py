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

from .classify import ruled_out_count_brute, ruled_out_count_formula
from .search import SearchTask, _worker_map, search_max_sigma
from .semigroup import sigma_of_language
from .witnesses import closed_form_bound, family_witness, small_witness

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
    letters: str | None  # restricts the family witness; None: small_witness
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


_UNARY_CELLS = [_CellSpec(n, 1, max(1, n - 1), True, None, _FAST)
                for n in range(1, 6)]


_TABLE2 = _UNARY_CELLS + [
    _CellSpec(2, 2, 2, True, None, _FAST),
    _CellSpec(3, 2, 7, True, "ad", _FAST),
    _CellSpec(4, 2, 31, True, None, _FAST),
    _CellSpec(5, 2, 167, True, None, _LONG),
    _CellSpec(3, 3, 9, True, "acd", _FAST),
    _CellSpec(4, 3, 61, True, "acd", _FAST),
    _CellSpec(5, 3, 545, True, None, _NONE),
    _CellSpec(4, 4, 64, True, "abcd", _NONE),
    _CellSpec(5, 4, 625, True, "abcd", _NONE),
]

_TABLE4 = _UNARY_CELLS + [
    _CellSpec(2, 2, 2, True, None, _FAST),
    _CellSpec(3, 2, 7, True, None, _FAST),
    _CellSpec(4, 2, 17, False, None, _LONG),
    _CellSpec(5, 2, 34, False, None, _NONE),
    _CellSpec(2, 3, 3, True, None, _FAST),
    _CellSpec(3, 3, 9, True, "bde", _FAST),
    _CellSpec(4, 3, 25, False, "ade", _NONE),
    _CellSpec(5, 3, 65, False, "ade", _NONE),
    _CellSpec(3, 4, 11, True, "bcde", _FAST),
    _CellSpec(4, 4, 64, False, "acde", _NONE),
    _CellSpec(5, 4, 453, False, "acde", _NONE),
    _CellSpec(4, 5, 67, False, "abcde", _NONE),
    _CellSpec(5, 5, 629, False, "abcde", _NONE),
]

_TABLE5 = _UNARY_CELLS + [
    _CellSpec(2, 2, 2, True, None, _FAST),
    _CellSpec(3, 2, 5, False, None, _FAST),
    _CellSpec(4, 2, 11, False, None, _FAST),
    _CellSpec(5, 2, 19, False, None, _NONE),
    _CellSpec(3, 3, 6, False, None, _FAST),
    _CellSpec(4, 3, 16, False, "aef", _NONE),
    _CellSpec(5, 3, 47, False, "aef", _NONE),
    _CellSpec(4, 4, 23, False, "adef", _NONE),
    _CellSpec(5, 4, 90, False, "adef", _NONE),
    _CellSpec(4, 5, 25, False, "acdef", _NONE),
    _CellSpec(5, 5, 147, False, "acdef", _NONE),
    _CellSpec(5, 6, 150, False, "abcdef", _NONE),
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


def _run_cell(family: str, spec: _CellSpec, include_long: bool) -> CellReport:
    """One cell of the family's complexity table, computed in this process."""
    witness = (small_witness(family, spec.n, spec.k) if spec.letters is None
               else family_witness(family, spec.n, spec.letters))
    measured = sigma_of_language(witness)
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
    return CellReport(spec.n, spec.k, spec.reference, spec.tight, measured,
                      search_max, search_exhaustive, status, ok)


def _table_checks(family: str, rows: list[CellReport]) -> tuple:
    """Fail the rows that break a table-wide fact; either failure is a bug.

    No construction's sigma or search maximum exceeds the family's
    closed-form bound, and exhaustive maxima never decrease in k:
    duplicating a letter keeps the family, minimality and sigma, so the
    maximum at k-1 is reached at k too.
    """
    exhaustive = {(r.n, r.k): r.search_max for r in rows
                  if r.search_exhaustive}
    checked = []
    for r in rows:
        above = (r.n >= 2 and max(r.measured, r.search_max or 0)
                 > closed_form_bound(family, r.n))
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
        cells = list(run(_run_cell, repeat(family), specs,
                         repeat(include_long)))
    rows = _table_checks(family, cells)
    return TableReport(table_id, rows, all(r.ok for r in rows))
