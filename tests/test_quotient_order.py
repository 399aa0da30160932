"""The quotient order lemma, checked on the witnesses of searched cells.

Write p <= q iff L_p is a subset of L_q, L_p being the language accepted
from state p.  In a minimal DFA this is a partial order, every element of
the transition semigroup preserves it, and the finals are an up-set of
it, so sigma is at most the number of maps that preserve it (ROADMAP,
"The quotient order").  The order is computed here from each witness's
DFA alone; of the search only the results are used.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from syncomp import SearchTask, search_max_sigma, transition_semigroup


def _quotient_order(rows: list[tuple[int, ...]], n: int,
                    finals: frozenset[int]) -> set[tuple[int, int]]:
    """The pairs p <= q such that no word takes p into the finals and q
    out of them: all pairs, less those from which a letter leads to a
    pair already ruled out, starting from the pairs that the empty word
    rules out."""
    out = {(p, q) for p in finals for q in range(n) if q not in finals}
    grown = True
    while grown:
        grown = False
        for p, q in product(range(n), repeat=2):
            if (p, q) not in out and any((t[p], t[q]) in out for t in rows):
                out.add((p, q))
                grown = True
    return set(product(range(n), repeat=2)) - out


def _preserving(n: int, leq: set[tuple[int, int]], sink: bool) -> int:
    """The maps of n states, n-1 fixed where sink, that preserve leq."""
    return sum(all((f[p], f[q]) in leq for p, q in leq)
               for f in product(range(n), repeat=n)
               if not sink or f[-1] == n - 1)


@pytest.mark.parametrize("family, n, k, ends", [
    ("left", 1, 3, {1: 1}),
    ("left", 2, 3, {3: 1}),
    ("left", 3, 3, {11: 12, 10: 8}),
    ("left", 3, 4, {11: 24}),
    ("two_sided", 1, 3, {1: 1}),
    ("two_sided", 2, 3, {2: 2}),
    ("two_sided", 3, 3, {6: 1}),
    ("two_sided", 4, 3, {25: 4, 20: 3}),
    # two letters: save in two-sided (3,2), whose one order is the
    # antichain, no witness lies under the antichain (11 maps in left
    # (3,2), 67 in left (4,2), 25 in two-sided (4,2) and 150 in (5,2))
    ("left", 3, 2, {10: 2}),
    ("left", 4, 2, {35: 3}),
    ("two_sided", 3, 2, {6: 1}),
    ("two_sided", 4, 2, {20: 1}),
    ("two_sided", 5, 2, {86: 1}),
    pytest.param("left", 5, 2, {221: 9}, marks=pytest.mark.slow),
    pytest.param("two_sided", 6, 2, {521: 1}, marks=pytest.mark.slow),
    pytest.param("left", 4, 3, {67: 63}, marks=pytest.mark.slow),
    pytest.param("left", 4, 4, {67: 2268}, marks=pytest.mark.slow),
    pytest.param("two_sided", 4, 4, {25: 64}, marks=pytest.mark.slow),
    pytest.param("two_sided", 4, 5, {25: 128}, marks=pytest.mark.slow),
    pytest.param("two_sided", 5, 3, {96: 5}, marks=pytest.mark.slow),
])
def test_witnesses_preserve_their_quotient_order(family, n, k, ends):
    # ends counts the witnesses by the number of maps preserving their
    # quotient order (n-1 fixed in two-sided cells): the antichain above
    # 0 (and below n-1) has the most, n^(n-1)+n-1 in left cells and
    # n^(n-2)+(n-2)2^(n-2)+1 in two-sided ones.  In every witness 0 is
    # least, as in every left ideal, and in two-sided cells n-1 greatest
    result = search_max_sigma(SearchTask(family, n, k))
    sink = family == "two_sided"
    found = Counter()
    for w in result.witnesses:
        d = w.as_dfa()
        leq = _quotient_order([t.images for t in w.letters], n, w.finals)
        # a partial order: reflexive, antisymmetric (the DFA is minimal)
        # and transitive
        assert all((q, q) in leq for q in range(n)), w
        assert all(p == q or (q, p) not in leq for p, q in leq), w
        assert all((p, r) in leq for p, q in leq for q2, r in leq if q == q2)
        assert all((0, q) in leq for q in range(n)), w
        assert not sink or all((q, n - 1) in leq for q in range(n)), w
        assert all(q in w.finals for p, q in leq if p in w.finals), w
        elements = transition_semigroup(d).elements
        assert all((t.images[p], t.images[q]) in leq
                   for t in elements for p, q in leq), w
        end = _preserving(n, leq, sink)
        assert len(elements) == result.max_sigma <= end, w
        found[end] += 1
    assert found == ends
