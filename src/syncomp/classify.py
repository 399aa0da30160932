"""Ideal and closed-class classification of regular languages.

Everything here works on the minimal DFA, and the ideal tests on the
image rows of a minimal DFA: (rows, n, initial, finals).  Right- and
left-ideal membership are each decided twice, structurally on the rows
and semantically via a language equation (L = LΣ*, L = Σ*L), and one twin
rule, _twins, asserts that the two answers agree; both semantic tests are
one product walk, _walk_agrees, with the automaton of LΣ* or Σ*L.  Prefix-
and suffix-closure are the same two rules on the complement's rows, the
same rows with the other finals.  The reported
`bound` is the tightest provable sigma upper bound implied by the detected
special quotients and unique-reachability flags; it is always sound
(sigma <= bound), see _tightest_bound for the exact rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import factorial
from typing import Callable, Iterator, NamedTuple

from .automata import (Dfa, Semiautomaton, _moore_classes, _reachable,
                       complement, minimize)
from .errors import SizeMismatchError
from .semigroup import SemigroupResult, transition_semigroup
from .transform import Transformation
from .witnesses import left_ideal_witness

__all__ = [
    "ClassReport",
    "classify",
    "Behavior",
    "behavior_of",
    "all_behaviors_aperiodic",
    "ruled_out_count_formula",
    "ruled_out_count_brute",
    "Theorem9Report",
    "verify_theorem9_pairing",
    "UniformMinimalityReport",
    "pair_graph_uniformity",
    "uniformly_minimal",
]


# ---------------------------------------------------------------------------
# Behaviors (orbit of the initial state under one transformation)


@dataclass(frozen=True)
class Behavior:
    """Orbit q0, t(q0), t²(q0), ... up to the first repeat.

    orbit holds the distinct states visited; the repeat re-enters orbit at
    loop_entry, and period = len(orbit) - loop_entry.  Aperiodic = period 1.
    """

    orbit: tuple[int, ...]
    loop_entry: int
    period: int


def _orbit(images: tuple[int, ...], start: int) -> tuple[tuple, int, int]:
    """Behavior fields (orbit, loop_entry, period) of start, on tuples."""
    pos: dict[int, int] = {}
    q = start
    while q not in pos:
        pos[q] = len(pos)
        q = images[q]
    entry = pos[q]
    return tuple(pos), entry, len(pos) - entry


def behavior_of(d: Dfa, t: Transformation) -> Behavior:
    if t.n != d.n:
        raise SizeMismatchError(f"transformation on {t.n} states, DFA has {d.n}")
    return Behavior(*_orbit(t.images, d.initial))


def all_behaviors_aperiodic(d: Dfa) -> bool:
    """True iff every word's action has an aperiodic behavior from d.initial.

    Checking the transition semigroup's elements suffices: every word acts
    as one of them.
    """
    result = transition_semigroup(d)
    return all(_orbit(t, d.initial)[2] == 1 for t in result.image_set)


# ---------------------------------------------------------------------------
# Counting the transformations excluded by the aperiodicity condition


def ruled_out_count_formula(n: int) -> int:
    """Closed form: sum over j=2..n of (n-1)!/(n-j)! * (j-1) * n^(n-j).

    Counts transformations of {0..n-1} whose behavior from state 0 has
    period >= 2 (exact big-integer arithmetic).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(factorial(n - 1) // factorial(n - j) * (j - 1) * n ** (n - j)
               for j in range(2, n + 1))


def ruled_out_count_brute(n: int) -> int:
    """Direct enumeration of all n^n transformations (refused for n > 8)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 8:
        raise ValueError(f"brute enumeration of {n}^{n} transformations refused")
    return sum(1 for _ in _ruled_out(n))


def _ruled_out(n: int) -> Iterator[tuple[int, ...]]:
    """The image tuples whose behavior from state 0 has period >= 2."""
    return (t for t in product(range(n), repeat=n) if _orbit(t, 0)[2] >= 2)


# ---------------------------------------------------------------------------
# The n=3 left-ideal exclusion argument, reconstructed mechanically


class Theorem9Report(NamedTuple):
    """Partition of all 27 transformations of a 3-set: those ruled out by
    the aperiodicity condition, those realized by the n=3 left witness, and
    the six excluded because composing them with a realized partner lands
    in the ruled-out set."""

    ruled_out: tuple[Transformation, ...]
    realized: tuple[Transformation, ...]
    excluded: tuple[Transformation, ...]
    pairings: tuple[tuple[Transformation, Transformation, Transformation], ...]
    partners_distinct: bool
    products_all_ruled_out: bool
    partition_ok: bool

    @property
    def ok(self) -> bool:
        return (self.partners_distinct and self.products_all_ruled_out
                and self.partition_ok)


_PAIRING: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((1, 1, 0), (0, 2, 2)),
    ((1, 1, 2), (0, 2, 0)),
    ((1, 2, 2), (0, 1, 0)),
    ((2, 0, 2), (0, 1, 1)),
    ((2, 1, 1), (0, 0, 2)),
    ((2, 1, 2), (0, 0, 1)),
)


def verify_theorem9_pairing() -> Theorem9Report:
    ruled = set(_ruled_out(3))
    realized = set(map(tuple, transition_semigroup(
        left_ideal_witness(3, "bcde")).image_set))
    excluded = set(product(range(3), repeat=3)) - ruled - realized
    paired, partners = zip(*_PAIRING)
    products = [tuple(p[i] for i in t) for t, p in _PAIRING]
    partition_ok = (len(ruled) == 10 and len(realized) == 11
                    and len(excluded) == 6 and excluded == set(paired)
                    and len(ruled) + len(realized) + len(excluded) == 27)
    return Theorem9Report(
        *(tuple(map(Transformation, sorted(s)))
          for s in (ruled, realized, excluded)),
        pairings=tuple(tuple(map(Transformation, row))
                       for row in zip(paired, partners, products)),
        partners_distinct=len(set(partners)) == len(partners),
        products_all_ruled_out=(set(products) <= ruled
                                and set(partners) <= realized),
        partition_ok=partition_ok,
    )


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class ClassReport:
    """Class membership flags, special-quotient flags, a sound bound, and
    mu (sigma, plus one unless a nonempty word acts as the identity), read
    from semigroup, the transition semigroup of the minimal DFA."""

    kappa: int
    sigma: int
    is_right_ideal: bool
    is_left_ideal: bool
    is_two_sided_ideal: bool
    is_prefix_closed: bool
    is_suffix_closed: bool
    is_factor_closed: bool
    has_empty_q: bool
    has_sigma_star_q: bool
    has_epsilon_q: bool
    has_sigma_plus_q: bool
    l_uniquely_reachable: bool
    some_la_uniquely_reachable: bool
    bound: int
    mu: int
    semigroup: SemigroupResult = field(compare=False, repr=False)

    def as_dict(self) -> dict:
        """The scalar fields in order, leaving out the semigroup."""
        return {k: v for k, v in vars(self).items() if k != "semigroup"}


def _is_sink(rows: tuple[tuple[int, ...], ...], q: int) -> bool:
    return all(g[q] == q for g in rows)


def _special_quotients(rows: tuple[tuple[int, ...], ...], n: int,
                       finals: frozenset[int], final: bool
                       ) -> tuple[bool, bool]:
    """Whether the minimal DFA of the image rows has a sink quotient of
    the given finality, and whether it has a quotient of the other
    finality that every letter sends into that sink: (Σ*, Σ⁺) when final,
    (∅, ε) when not."""
    sink = next((q for q in range(n)
                 if (q in finals) == final and _is_sink(rows, q)), None)
    if sink is None:
        return False, False
    return True, any((q in finals) != final
                     and all(g[q] == sink for g in rows)
                     for q in range(n))


def _walk_agrees(rows: tuple[tuple[int, ...], ...], initial: int,
                 finals: frozenset[int], start: int,
                 step: Callable[[tuple[int, ...], int], int],
                 accepts: Callable[[int], bool]) -> bool:
    """Walk the pairs (state of the DFA given by the image rows, state s
    of a second automaton that moves to step(g, s) under the row g and
    accepts when accepts(s)) from (initial, start), and fail at the first
    pair whose acceptance differs."""
    first = (initial, start)
    seen = {first}
    stack = [first]
    while stack:
        p, s = stack.pop()
        if (p in finals) != accepts(s):
            return False
        for g in rows:
            nxt = (g[p], step(g, s))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def _twins(kind: str, rows: tuple[tuple[int, ...], ...], n: int,
           initial: int, finals: frozenset[int],
           structural: Callable[..., bool],
           semantic: Callable[..., bool]) -> bool:
    """The one twin rule: the DFA of the image rows, which must be those
    of a minimal DFA, is in the class iff the structural test says so,
    and the semantic test must agree.  Both are called as test(rows, n,
    initial, finals).  The empty language is in no ideal class, and
    neither test runs on it."""
    if n == 1 and not finals:
        return False
    args = (rows, n, initial, finals)
    verdict = structural(*args)
    if semantic(*args) != verdict:
        raise AssertionError(f"{kind} checks disagree: structural={verdict}, "
                             f"semantic={not verdict}")
    return verdict


def _right_ideal_walk(rows: tuple[tuple[int, ...], ...], n: int,
                      initial: int, finals: frozenset[int]) -> bool:
    """Semantic right-ideal test on image rows: the walk agrees with the
    DFA of L·Σ*, the DFA with a fresh accepting state n that it locks into
    once it enters a final state."""
    lock = n

    def step(g, q):
        return lock if q == lock or g[q] in finals else g[q]

    return _walk_agrees(rows, initial, finals,
                        lock if initial in finals else initial, step,
                        lambda q: q == lock)


def _is_right_ideal(rows: tuple[tuple[int, ...], ...], n: int,
                    initial: int, finals: frozenset[int]) -> bool:
    """The image rows must be those of a minimal DFA md.  The structural
    test asks for exactly one final state, a sink; the semantic walk must
    agree (_twins).

    The semantic walk decides L = LΣ*.  Let E be md with a fresh state n:
    E moves as md does until md would enter a final state, and then (or at
    once, if the initial state is final) sits in n for good, the only
    final state of E.  By induction on w, E reaches n iff some prefix of w,
    ε and w included, is in L, so E accepts exactly LΣ*.  The pairs the
    walk visits are exactly the pairs (md(w), E(w)) over all words w, so
    it meets a pair whose acceptance differs iff some word is in one of L
    and LΣ* but not the other.
    """
    return _twins("right-ideal", rows, n, initial, finals,
                  lambda rows, n, initial, finals: len(finals) == 1
                  and _is_sink(rows, next(iter(finals))),
                  _right_ideal_walk)


def _left_ideal_pairs(rows: tuple[tuple[int, ...], ...], n: int,
                      initial: int, finals: frozenset[int]) -> bool:
    """Structural left-ideal test on image rows; every state must be
    reachable, and the language is assumed nonempty.

    L = Σ*L iff L is contained in each of its quotients, i.e. L(initial) ⊆
    L(q) for every reachable q.  That fails iff some pair reachable from
    (initial, q) has its first state final and its second not.  The walk
    marks the pairs it meets in one bitmask seen[p] of second states per
    first state p, and leaves out diagonal pairs: their successors are
    diagonal too, and none of them fails.
    """
    seen = [0] * n
    seen[initial] = (1 << n) - 1 ^ 1 << initial
    stack = [(initial, q) for q in range(n) if q != initial]
    while stack:
        p, q = stack.pop()
        if p in finals and q not in finals:
            return False
        for g in rows:
            a, b = g[p], g[q]
            if a != b and not seen[a] >> b & 1:
                seen[a] |= 1 << b
                stack.append((a, b))
    return True


def _left_ideal_walk(rows: tuple[tuple[int, ...], ...], n: int,
                     initial: int, finals: frozenset[int]) -> bool:
    """Semantic left-ideal test on image rows: the walk agrees with the
    subset DFA of Σ*L, whose states are bitmasks over the n states."""
    home = 1 << initial
    final_mask = sum(1 << f for f in finals)

    def step(g, s):
        t = home
        while s:
            low = s & -s
            t |= 1 << g[low.bit_length() - 1]
            s ^= low
        return t

    return _walk_agrees(rows, initial, finals, home, step,
                        lambda s: bool(s & final_mask))


def _is_left_ideal(rows: tuple[tuple[int, ...], ...], n: int,
                   initial: int, finals: frozenset[int]) -> bool:
    """The image rows must be those of a minimal DFA md.  The structural
    test is _left_ideal_pairs; the semantic walk must agree (_twins).

    The semantic walk decides L = Σ*L.  For a word w let S(w) be the set
    of states md reaches from the initial state by the suffixes of w.
    Then S(ε) = {initial} and S(wa) = a(S(w)) ∪ {initial}, since the
    suffixes of wa are ε and va for the suffixes v of w: S is the subset
    automaton of Σ*L, and w ∈ Σ*L iff some suffix of w is in L iff S(w)
    holds a final state.  The pairs the walk visits are exactly the pairs
    (md(w), S(w)) over all words w, so it meets a pair whose acceptance
    differs iff some word is in one of L and Σ*L but not the other.
    """
    return _twins("left-ideal", rows, n, initial, finals, _left_ideal_pairs,
                  _left_ideal_walk)


def _tightest_bound(n: int, pins: int, l_ur: bool, la_ur: bool) -> int:
    """Minimum of the provable sigma bounds.

    Each detected special quotient (∅, Σ*, ε, Σ⁺) pins one coordinate of
    every semigroup element, giving n^(n-pins).  If no nonempty word leads
    back to the initial state, images also avoid it: (n-1)^(n-pins).  If
    additionally some letter a gives delta(q0,a) exactly one incoming edge,
    every element except the action of a also avoids that state:
    1 + (n-2)^(n-pins).
    """
    candidates = [n ** (n - pins)]
    if l_ur:
        candidates.append((n - 1) ** (n - pins))
    if la_ur and n >= 2:
        candidates.append(1 + (n - 2) ** (n - pins))
    return min(candidates)


def classify(d: Dfa, cap: int | None = None) -> ClassReport:
    """Minimize d, then report class membership, quotients, sigma, bound."""
    md = minimize(d)
    # the cap stops an oversized DFA before the quadratic ideal tests run
    semigroup = transition_semigroup(md, cap=cap)
    rows = tuple(md.delta[a].images for a in md.alphabet)
    n, initial, finals = md.n, md.initial, md.finals
    is_universal = n == 1 and bool(finals)

    has_empty_q, has_epsilon_q = _special_quotients(rows, n, finals, False)
    has_sigma_star_q, has_sigma_plus_q = _special_quotients(rows, n, finals,
                                                            True)

    right = _is_right_ideal(rows, n, initial, finals)
    left = _is_left_ideal(rows, n, initial, finals)
    two_sided = right and left

    if is_universal:
        prefix = suffix = factor = True
    else:
        # the complement of a minimal DFA is minimal, on the same rows
        co_finals = complement(md).finals
        prefix = _is_right_ideal(rows, n, initial, co_finals)
        suffix = _is_left_ideal(rows, n, initial, co_finals)
        factor = prefix and suffix

    incoming = [0] * n
    for g in rows:
        for q in range(n):
            incoming[g[q]] += 1
    l_ur = incoming[initial] == 0
    la_ur = l_ur and any(incoming[g[initial]] == 1 for g in rows)

    pins = sum((has_empty_q, has_sigma_star_q, has_epsilon_q, has_sigma_plus_q))
    bound = _tightest_bound(n, pins, l_ur, la_ur)

    return ClassReport(
        kappa=n, sigma=semigroup.sigma,
        is_right_ideal=right, is_left_ideal=left, is_two_sided_ideal=two_sided,
        is_prefix_closed=prefix, is_suffix_closed=suffix,
        is_factor_closed=factor,
        has_empty_q=has_empty_q, has_sigma_star_q=has_sigma_star_q,
        has_epsilon_q=has_epsilon_q, has_sigma_plus_q=has_sigma_plus_q,
        l_uniquely_reachable=l_ur, some_la_uniquely_reachable=la_ur,
        bound=bound, mu=semigroup.mu, semigroup=semigroup,
    )


# ---------------------------------------------------------------------------
# Uniform minimality via the pair graph


@dataclass(frozen=True)
class UniformMinimalityReport:
    """Pair-graph analysis of a sink semiautomaton.

    uniform is the verdict; the other fields explain a negative one.
    bad_pairs lists non-sink pairs with no path to a pair containing the
    sink.  A letter collapsing a pair (equal images) contributes no edge.
    These are exactly the pairs p < q that Moore refinement with finals
    {sink} leaves in one class: see pair_graph_uniformity.
    """

    uniform: bool
    strongly_connected: bool
    sink_reachable: bool
    bad_pairs: tuple[tuple[int, int], ...]


def pair_graph_uniformity(s: Semiautomaton, sink: int) -> UniformMinimalityReport:
    """Decide whether every acceptor built on s (any non-sink initial
    state, any nonempty non-sink finals) is minimal.

    The sink is absorbing, so a path that enters it never leaves: the
    non-sink states are strongly connected iff each of them reaches all
    the others.  A pair p < q is good (not in bad_pairs) iff a word w sends
    exactly one of p, q into the sink.  Such a w is a pair-graph path: no
    prefix of w collapses the pair, since the rest of w would then send
    both to one state.  Conversely a path to a pair holding the sink with
    distinct images is such a word.  That is exactly Moore separation with
    finals {sink}, so the bad pairs are the pairs left in one class.
    """
    if not 0 <= sink < s.n:
        raise ValueError(f"sink {sink} out of range")
    rows = tuple(s.delta[a].images for a in s.alphabet)
    if not _is_sink(rows, sink):
        raise ValueError(f"state {sink} is not absorbing")
    others = [q for q in range(s.n) if q != sink]
    if not others:
        raise ValueError("need at least one non-sink state")

    strongly_connected = all(set(others) <= set(_reachable(rows, p))
                             for p in others)
    sink_reachable = any(row[q] == sink for q in others for row in rows)
    cls = _moore_classes(rows, frozenset({sink}))
    bad = tuple((p, q) for p in range(s.n) for q in range(p + 1, s.n)
                if cls[p] == cls[q])

    return UniformMinimalityReport(
        uniform=strongly_connected and sink_reachable and not bad,
        strongly_connected=strongly_connected,
        sink_reachable=sink_reachable,
        bad_pairs=bad,
    )


def uniformly_minimal(s: Semiautomaton, sink: int) -> bool:
    """True iff every acceptor (initial in P, nonempty finals in P) built on
    s is minimal, decided by the pair-graph criterion."""
    return pair_graph_uniformity(s, sink).uniform
