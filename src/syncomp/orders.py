"""Quotient orders of left and two-sided ideals, up to relabeling.

In a minimal DFA write p <= q iff L_p is a subset of L_q, L_p being the
language accepted from state p.  This is a partial order, every letter
preserves it (L_p in L_q gives a^-1 L_p in a^-1 L_q), so every element
of the transition semigroup lies in End(<=), and the finals are an
up-set.  In a left ideal the initial state 0 is least, since L is in
u^-1 L for every word u; in a two-sided ideal the sink n-1, whose
quotient is every word, is also greatest, and every letter fixes it.
Conversely, letters preserving such an order with an up-set of finals
avoiding 0 make a left ideal, and each of them passes lemma 8: 0 <= 0t
<= 0t^2 <= ... is a chain that ends in a fixed point (Brzozowski &
Szykuła, "Upper bounds on syntactic complexity of left and two-sided
ideals", DLT 2014).  So sigma is at most |End(P)| for the quotient order
P of the DFA, and max_P |End(P)| is the family's bound.

This module lists those orders P on n states up to relabeling of the
free states (those other than 0, and n-1 in two-sided cells), and
counts and lists End(P), the maps preserving P (fixing n-1 in two-sided
cells).  It imports nothing from the rest of the package.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, permutations, product
from typing import NamedTuple

__all__ = ["Order", "quotient_orders", "endomorphisms"]


class Order(NamedTuple):
    """A partial order P on states 0..n-1 with 0 least, and, where top,
    n-1 greatest.  below is the order of the free states 1.. as the
    masks of their strict down-sets (free state i + 1 being element i),
    in the least relabeling _canonical gives, which lists every element
    after those below it; ups[q] is the mask of the states at or above
    q.  cap = |End(P)|, and finals lists P's nonempty up-sets avoiding 0
    ({n-1} where top), in the order of their sorted tuples."""

    top: bool
    below: tuple[int, ...]
    ups: tuple[int, ...]
    cap: int
    finals: list[frozenset[int]]


def _canonical(below: tuple[int, ...]) -> tuple[int, ...]:
    """The least relabeling of a partial order on m elements, given as the
    masks of its elements' strict down-sets.  Only the relabelings that
    list the elements by a relabeling-invariant key are tried: the sizes
    of an element's down- and up-set, then those of the elements below
    and above it.  The key lists each element after those below it, so
    the least relabeling does too."""
    m = len(below)
    above = [sum(1 << j for j in range(m) if below[j] >> i & 1)
             for i in range(m)]
    sizes = [(below[i].bit_count(), above[i].bit_count()) for i in range(m)]
    key = [(sizes[i],
            tuple(sorted(sizes[j] for j in range(m) if below[i] >> j & 1)),
            tuple(sorted(sizes[j] for j in range(m) if above[i] >> j & 1)))
           for i in range(m)]
    classes = [[i for i in range(m) if key[i] == k] for k in sorted(set(key))]

    def code(parts: tuple) -> tuple[int, ...]:
        order = list(chain.from_iterable(parts))
        new = [0] * m
        for a, old in enumerate(order):
            new[old] = a
        return tuple(sum(1 << new[j] for j in range(m) if below[old] >> j & 1)
                     for old in order)
    return min(map(code, product(*map(permutations, classes))))


@cache
def _posets(m: int) -> tuple[tuple[int, ...], ...]:
    """The partial orders on m elements up to relabeling, each in its least
    relabeling (_canonical), sorted.  Each order on m > 0 elements is one on
    m - 1 elements with a maximal element added above some down-set."""
    if not m:
        return ((),)
    found = set()
    for below in _posets(m - 1):
        for d in range(1 << (m - 1)):
            if all(below[i] | d == d for i in range(m - 1) if d >> i & 1):
                found.add(_canonical(below + (d,)))
    return tuple(sorted(found))


def _ranges(ups: tuple[int, ...], q: int, x: int, rest: tuple) -> tuple:
    """The ranges of the states after q, rest, once q goes to x: those
    above q must go to states above x."""
    return tuple(r & ups[x] if ups[q] >> p & 1 else r
                 for p, r in enumerate(rest, q + 1))


def _start(n: int, top: bool) -> tuple[int, ...]:
    """The range of each state before any is mapped: every state, save
    n-1 where top, which goes to itself."""
    full = (1 << n) - 1
    return (full,) * (n - 1) + ((1 << n - 1) if top else full,)


def _count(ups: tuple[int, ...], top: bool) -> int:
    """|End(P)|, by the backtracking of endomorphisms, each branch counted
    once per distinct tuple of ranges left to the states after it."""
    n = len(ups)

    @cache
    def number(q: int, rest: tuple) -> int:
        if q == n - 1:
            return rest[0].bit_count()
        return sum(number(q + 1, _ranges(ups, q, x, rest[1:]))
                   for x in range(n) if rest[0] >> x & 1)
    return number(0, _start(n, top))


def endomorphisms(order: Order) -> list[tuple[int, ...]]:
    """End(P) in lexicographic order: the maps f with f(p) <= f(q) wherever
    p <= q, and f(n-1) = n-1 where top, as image tuples.  By backtracking
    over the states in order, each state's image ranging over the up-sets
    of its predecessors' images."""
    ups, n, maps = order.ups, len(order.ups), []

    def grow(q: int, image: tuple, rest: tuple):
        for x in range(n):
            if rest[0] >> x & 1:
                if q == n - 1:
                    maps.append(image + (x,))
                else:
                    grow(q + 1, image + (x,), _ranges(ups, q, x, rest[1:]))
    grow(0, (), _start(n, order.top))
    return maps


@cache
def quotient_orders(n: int, top: bool) -> tuple[Order, ...]:
    """The orders P on n >= 2 states with 0 least, and n-1 greatest where
    top, up to relabeling of the free states: those a minimal n-state left
    ideal, or two-sided ideal where top, can have as its quotient order.
    By decreasing |End(P)|, then by below."""
    found = []
    for below in _posets(n - 1 - top):
        ups = [(1 << n) - 1]
        ups += [(1 << i + 1) | (top << n - 1) | sum(
            1 << j + 1 for j in range(len(below)) if below[j] >> i & 1)
            for i in range(len(below))]
        ups += [1 << n - 1] * top
        if top:
            finals = [frozenset({n - 1})]
        else:
            finals = [frozenset(q for q in range(n) if f >> q & 1)
                      for f in range(2, 1 << n, 2)
                      if all(ups[q] | f == f for q in range(n) if f >> q & 1)]
            finals.sort(key=lambda f: tuple(sorted(f)))
        ups = tuple(ups)
        found.append(Order(top, below, ups, _count(ups, top), finals))
    found.sort(key=lambda o: (-o.cap, o.below))
    return tuple(found)
