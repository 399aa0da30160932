"""Shared helpers and fixtures for the test suite."""

from __future__ import annotations

import os
from itertools import product

import pytest
from hypothesis import strategies as st

from syncomp import Dfa, Transformation, minimize


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run the long exhaustive-search tests too")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="long search; opt in with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def dfa(rows, finals, alphabet=None, initial=0) -> Dfa:
    """Build a complete DFA from one image row per letter."""
    alphabet = tuple(alphabet) if alphabet else tuple("abcdef"[: len(rows)])
    delta = {a: Transformation(tuple(r)) for a, r in zip(alphabet, rows)}
    return Dfa(len(rows[0]), alphabet, delta, initial, frozenset(finals))


def binary_3_sweep() -> list[Dfa]:
    """Every DFA with 3 states, letters a/b and initial state 0 whose finals
    are one of the six nonempty proper subsets: 3^3 * 3^3 * 6 of them,
    minimal or not."""
    out = []
    for ra, rb in product(product(range(3), repeat=3), repeat=2):
        delta = {"a": Transformation(ra), "b": Transformation(rb)}
        for mask in range(1, 7):
            finals = frozenset(q for q in range(3) if mask >> q & 1)
            out.append(Dfa(3, ("a", "b"), delta, 0, finals))
    return out


def random_dfas(max_n=4, min_k=2, max_k=2, min_n=2):
    """Hypothesis strategy: DFAs with min_n..max_n states, min_k..max_k
    letters, initial state 0 and any finals."""
    def build(n, rows, finals_mask):
        return dfa([row[:n] for row in rows],
                   [q for q in range(n) if finals_mask >> q & 1])
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(
            build, st.just(n),
            st.lists(st.tuples(*[st.integers(0, n - 1)] * n),
                     min_size=min_k, max_size=max_k),
            st.integers(0, 2 ** n - 1)))


@pytest.fixture(scope="session")
def minimal_binary_3() -> list[Dfa]:
    """Every minimal DFA with 3 states, letters a/b, initial state 0.

    The binary_3_sweep is filtered for minimality (2056 survivors); a
    language with three quotients cannot have empty or full finals, so this
    covers every such language, some more than once.
    """
    out = [d for d in binary_3_sweep() if minimize(d).n == 3]
    assert len(out) == 2056
    return out


@pytest.fixture
def serial_pool(monkeypatch):
    """Two CPUs and a serial stand-in for ProcessPoolExecutor; returns the
    list of the worker counts asked for, one entry per pool opened."""
    workers = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: no process, serial map."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("syncomp.search.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return workers
