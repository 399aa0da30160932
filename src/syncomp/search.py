"""Enumeration of n-state, k-letter DFAs maximizing syntactic complexity.

The searcher enumerates letter-action tuples inside a structural normal
form, filters to minimal in-class automata, and tracks the maximum
semigroup size.  Output is deterministic regardless of job count: the
maximum, then the lexicographically least witnesses.

Normal forms (initial state always 0), decided in _FAMILIES:
  right      final sink fixed at n-1, finals {n-1}
  two_sided  same skeleton, letters and finals by quotient order
  left       letters and finals by quotient order, finals avoiding 0
  all        any letters, finals ranging over nonempty proper subsets
At n=1 every family takes finals {0}: Σ*, the only 1-state ideal (for
all, ∅ ties with it at sigma 1).

State-relabeling symmetry (on the states the skeleton leaves free) and
letter-renaming symmetry never change sigma or class membership, so the
canonical filters below only discard duplicates of languages that are kept
elsewhere.

A cell is searched as a list of spaces (_Space: a pool, a group of
relabelings, finals options), in turn, each seeded with its shard's best
so far; one rule (_merge) takes the parts of spaces and shards together.
Right and all cells, and every cell with n = 1, have the family's space
alone: the letters of its skeleton.  Left and two-sided cells with n >= 2
have one space per quotient order P up to relabeling
(orders.quotient_orders): pool End(P), options P's up-sets and
relabelings Aut(P), the family's relabelings that preserve P.  Every
tuple of such a space that reaches all states makes a left ideal with
each option (see orders), so no left-ideal test runs.
Every pool is closed under composition, so its size bounds the sigma of
each of its tuples.  The spaces are visited by decreasing |End(P)|, and
one whose pool is smaller than the best so far is walked only for its
count.  A DFA may preserve several orders, so each witness is mapped to
its least image under the family's relabelings and duplicates are
dropped.  The candidate order is the spaces' orders one after another,
and a budget cuts across them.

The candidate order of a space is walked as a tree of letter prefixes,
depth first (orderly generation, McKay 1998), every level alike.  A
prefix that some relabeling maps lower is stepped over with its whole
subtree.  The pool's orbits under the relabelings are one table of the
space (_Space): each letter's orbit head, its least index, and each
head's images and stabilizer.  The root's children are the heads.
Below a prefix with first letter p0, a child whose orbit reaches below
p0 is dropped in one pass, and each of the others meets only the
relabelings that take one of its letters to p0, few of all, every one
judged by the same test: it compares the child's last letter's image
with one bound fixed per prefix, and builds the child's image only on a
tie.  One closed form places each child in the order.
The leaves under a prefix of k - 1 letters reach the search as one
batch: the pool indices of their canonical last letters, and finals
lists for the few leaves that do not keep every option.  Each tuple's
set of states reached from 0 and its closure element set extend its
prefix's by the last letter (Froidure & Pin 1997) instead of starting
afresh.  The reached states are a bitmask, spread through per-letter
tables of image masks.  Each prefix also keeps its letters in the
closure's encoding, so a letter is encoded once for its prefix node,
and a tuple's last letter only when the tuple is closed.  Each step of
the walk makes one prefix node (_Prefix), its parent plus one pool
index, which holds all of the above for its prefix.  The orbit table
and a letter's rank and mask table are built once per shard and space,
by the space itself, and read by pool index, by nodes and leaves
alike.

Sigma depends only on the letters, so a tuple whose closure is smaller
than the best found so far cannot be a witness: an exact
branch-and-bound with sigma itself as the bound.  Sigma is at most a
bound read off the multiset of the ranks of the tuple's letters
(_rank_bound): the count behind the paper's n^(n-1), of maps through a
first letter's kernel classes and into a last letter's image, taken one
rank rho of an element at a time.  An element of rank rho is a word over
the letters of rank rho or more, so each rank contributes the smaller of
the number of maps of that rank and the count over the ordered pairs of
such letters, and nothing below rank n where those letters are all
permutations.  Summed over the ranks, a pair's count is
r(l) ** (r(f) - e), r the rank of a letter and e = 1 where every letter
fixes the sink, so the bound is never above the sum of those over the
pairs, and below it where the cell's maximum is near the number of maps
of some rank.  Each prefix holds the bound for every rank of a last
letter, one cached list per multiset of its ranks (_rank_bounds), so it
costs a tuple two list lookups, and it comes before the reachability
test: each leaf is held against the best once, before its letter tuple
is built, and one whose bound is below the best meets no further test.
A tuple (P, c) that reaches every state is closed, unless c is an
element of the closure <P, c'> of a tuple closed before it in its batch
that came out below the best: that closure is closed under composition
and holds P and c, so it holds <P, c>, whose sigma is below the best as
well.  The Moore refinement that decides minimality runs only on the
finals options of a tuple whose closure reaches the best.  Every
witness is then re-verified on its image rows, by the package's single
implementations: kappa by the reachability walk and the Moore
refinement of automata, sigma by the closure of semigroup, and class by
the ideal tests of its family alone, not by the whole of classify.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, permutations, product, repeat
from math import comb
from operator import or_

from .automata import Dfa, _is_minimal, _moore_classes
from .classify import _is_left_ideal, _is_right_ideal
from .semigroup import _encode, _extend, _sigma
from .transform import Transformation

__all__ = [
    "SearchTask",
    "FoundWitness",
    "SearchResult",
    "search_max_sigma",
]

# family -> (right, left), the two decisions behind its normal form.
# right: every pool letter fixes the final sink n-1, the finals are {n-1},
# no relabeling moves n-1, and the rank bound takes e = 1 (_rank_bound).
# left: a cell with n > 1 is searched one quotient order at a time
# (_chain), and its witnesses are mapped to their least relabeling.  So
# the family space of a left or two-sided cell serves only n = 1, where
# the finals are {0}, and the tests' family-space references, whose
# finals avoid state 0.
_FAMILIES = {"right": (True, False), "left": (False, True),
             "two_sided": (True, True), "all": (False, False)}


@dataclass(frozen=True)
class SearchTask:
    """One (family, n, k) cell.

    The search enumerates the letter tuples over the letters of the
    family's skeleton with every finals option, under four filters, none
    of which changes the maximum or drops the least representative of a
    witness:
      - quotient orders (left and two-sided families, n >= 2): the pool is
        End(P) and the finals P's up-sets, one quotient order P at a time
        (orders.quotient_orders).  Every minimal left ideal preserves its
        quotient order, with its finals an up-set, and every tuple of
        End(P) that reaches all states makes a left ideal with each
        up-set, so no ideal is lost and none needs a left-ideal test;
      - letter tuples are enumerated as sorted multisets, since renaming
        letters changes neither sigma nor class membership;
      - a candidate is dropped if a relabeling of the free states (of
        those preserving P, in the space of an order P) maps it to
        a smaller one, comparing the re-sorted letter tuple and then, on a
        tie, the finals: the relabeled DFA has the same sigma and class and
        is enumerated itself.  A tuple whose last letter's orbit reaches
        below its first letter is mapped lower by some relabeling; of the
        others' relabelings only those taking a letter of the tuple to
        its first letter can map it lower or fix it, and each of those
        compares the last letter's image with one bound fixed per
        prefix, building the whole image only where the two are equal;
      - a letter prefix that some relabeling maps lower is skipped whole,
        with every tuple under it: the re-sorted image of each of them is
        lower too.
    """

    family: str
    n: int
    k: int
    budget: int = 10 ** 9
    jobs: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        # the candidate pool holds all n^n image tuples: 823,543 at n=7,
        # about 16.8 M (gigabytes) at n=8
        if self.n > 7:
            raise ValueError("searches are limited to n <= 7 states")
        # FoundWitness.as_dfa names the letters a..z
        if self.k > 26:
            raise ValueError("searches are limited to k <= 26 letters")


@dataclass(frozen=True, slots=True)
class FoundWitness:
    letters: tuple[Transformation, ...]
    finals: frozenset[int]

    def as_dfa(self) -> Dfa:
        alph = tuple("abcdefghijklmnopqrstuvwxyz"[:len(self.letters)])
        return Dfa(self.letters[0].n, alph,
                   dict(zip(alph, self.letters)), 0, self.finals)

    def sort_key(self):
        return tuple(t.images for t in self.letters), tuple(sorted(self.finals))


@dataclass(frozen=True)
class SearchResult:
    """candidates_examined counts the (letters, finals) pairs of one fixed
    candidate order that the search reached: the whole order, or the
    budget's prefix of it, whatever the job count.  The order is that of
    the cell's spaces one after another, each (letters, finals): the
    family's space, or one space per quotient order (_chain).  The
    canonical candidates are those the prefix walks yield, the ones no
    relabeling of a space maps lower; candidates_pruned is
    examined - canonical.  exhaustive=False means the budget ran out and
    max_sigma is only a lower bound for the cell."""

    task: SearchTask
    max_sigma: int
    witnesses: tuple[FoundWitness, ...]
    candidates_examined: int
    candidates_pruned: int
    exhaustive: bool


# ---------------------------------------------------------------------------
# Tuple-level helpers (hot path: plain image tuples, no wrapper objects)


def _relabelings(task: SearchTask) -> list[tuple[int, ...]]:
    """The relabelings of the free states, as image tuples, the identity
    first: every permutation of the states that fixes 0, and n-1 as well
    in right and two-sided cells."""
    free = range(1, task.n - _FAMILIES[task.family][0])
    return [(0, *p, *range(len(p) + 1, task.n)) for p in permutations(free)]


class _Space:
    """What one walk searches: every multiset of k pool letters (image
    tuples, sorted) with every finals option (sorted as sorted tuples),
    one per orbit under relabelings, a group of state permutations, the
    identity first, that maps pool and options to themselves.  Every pool
    is closed under composition, the maps of a family's skeleton or
    End(P), so it holds the transition semigroup of each of its tuples,
    and no tuple's sigma is above len(pool).

    The rest is built from those, once per space, and read by the walk's
    nodes and leaves by pool index.  A list entry costs a pointer where a
    dict entry would cost a hash slot as well, which matters at n=7, where
    a right cell's pool holds 117,649 letters and the antichain order's of
    a left cell 117,655.
      - ranks lists the letters' ranks (image sizes), built at once since
        every leaf reads one, and sink is the e of the rank bounds
        (_rank_bounds): 1 where every pool letter fixes n-1;
      - masks(c) is letter c's mask table (_image_masks), built when a
        node or leaf first needs it;
      - the orbit table, each relabeling g acting on a letter t as
        g t g^-1, is built in one pass over the pool in index order: the
        first letter met of each orbit is its head, its least pool index.
        least[c] is the head of c's orbit, and via[c] the index of a
        relabeling that takes least[c] to c (0, the identity, at a head).
        rows[c] lists the images of head c under every relabeling, the
        identity first, and stabs[c] the relabelings that fix c, in
        order, the identity first (both None where c is no head).
        mul[a][b] is the index of relabeling a after b, and inverse[a]
        that of a's inverse.  finals[a] maps a finals option's index to
        that of its image under relabeling a.
    So g takes letter c to rows[least[c]][mul[g][via[c]]] (image): three
    list lookups, where the tables grow as the pool plus heads *
    relabelings, not as the pool times the relabelings.  The pool and the
    options are sorted and closed under relabeling, so indices compare as
    the items do."""

    __slots__ = ("n", "pool", "relabelings", "options", "ranks", "sink",
                 "_masks", "least", "via", "rows", "stabs", "mul", "inverse",
                 "finals")

    def __init__(self, n: int, pool: list[tuple[int, ...]],
                 relabelings: list[tuple[int, ...]],
                 options: list[frozenset[int]]):
        self.n, self.pool = n, pool
        self.relabelings, self.options = relabelings, options
        self.ranks = list(map(len, map(set, pool)))
        self.sink = int(all(t[n - 1] == n - 1 for t in pool))
        self._masks: list[bytes | None] = [None] * len(pool)
        at = {g: a for a, g in enumerate(relabelings)}
        self.mul = [[at[tuple(map(g.__getitem__, h))] for h in relabelings]
                    for g in relabelings]
        self.inverse = [row.index(0) for row in self.mul]
        option = {f: i for i, f in enumerate(options)}
        self.finals = [[option[frozenset(map(g.__getitem__, f))]
                        for f in options] for g in relabelings]
        # g t g^-1 takes state q to g(t(g^-1(q)))
        acts = [(g, sorted(range(n), key=g.__getitem__)) for g in relabelings]
        index = {t: i for i, t in enumerate(pool)}
        least: list[int | None] = [None] * len(pool)
        self.least, self.via = least, [0] * len(pool)
        self.rows: list[list[int] | None] = [None] * len(pool)
        self.stabs: list[tuple[int, ...] | None] = [None] * len(pool)
        for c, t in enumerate(pool):
            if least[c] is not None:
                continue
            row = self.rows[c] = [
                index[tuple(map(g.__getitem__, map(t.__getitem__, inv)))]
                for g, inv in acts]
            stab = []
            for a, d in enumerate(row):
                if least[d] is None:
                    least[d], self.via[d] = c, a
                if d == c:
                    stab.append(a)
            self.stabs[c] = tuple(stab)

    def masks(self, c: int) -> bytes:
        table = self._masks[c]
        if table is None:
            table = self._masks[c] = _image_masks(self.pool[c])
        return table

    def image(self, g: int, c: int) -> int:
        """The pool index of letter c under relabeling g."""
        return self.rows[self.least[c]][self.mul[g][self.via[c]]]

    def sending(self, c: int) -> list[int]:
        """The relabelings that take letter c to its head least[c]: s
        after the inverse of via[c], for s in the head's stabilizer, so
        the stabilizer itself, in order, where c is a head."""
        back = self.inverse[self.via[c]]
        return [self.mul[s][back] for s in self.stabs[self.least[c]]]


def _space(task: SearchTask) -> _Space:
    """The family space of the task's cell: the letters of the family's
    skeleton, its finals options and the relabelings of its free
    states."""
    n, (right, left) = task.n, _FAMILIES[task.family]
    every = product(range(n), repeat=n)  # in lexicographic order
    pool = [t for t in every if t[n - 1] == n - 1] if right else list(every)
    subsets = (frozenset(q for q in range(n) if mask >> q & 1)
               for mask in range(1, 1 << n))
    # a left ideal accepting ε is Σ*, minimal only at n=1; otherwise
    # all-final is Σ*, never minimal with n > 1 states
    options = [frozenset({n - 1})] if right else sorted(
        (f for f in subsets
         if n == 1 or not (0 in f if left else len(f) == n)), key=sorted)
    return _Space(n, pool, _relabelings(task), options)


def _order_space(order, relabelings: list[tuple[int, ...]]) -> _Space:
    """The space of a quotient order P (orders.Order): pool End(P),
    options P's up-sets and relabelings Aut(P), those g of the family's
    relabelings that preserve P: ups[g(q)] is the image of ups[q] under g
    for every state q."""
    from .orders import endomorphisms
    ups, n = order.ups, len(order.ups)
    return _Space(n, endomorphisms(order), [
        g for g in relabelings
        if all(ups[g[q]] == sum(1 << g[p] for p in range(n) if ups[q] >> p & 1)
               for q in range(n))], order.finals)


def _candidates(letters: int, options: int, k: int) -> int:
    """The size of the candidate order of a space: its sorted k-tuples of
    letters, each with every finals option."""
    return options * _tuples_before(letters, 0, letters, k - 1)


def _chain(task: SearchTask) -> list[tuple]:
    """The spaces of the task's cell in visit order, as pairs (size of the
    space's candidate order, a call that builds the space): one space per
    quotient order in left and two-sided cells with n >= 2, each built
    only when its walk starts, and the family space alone in the others.
    orders is imported only by the cells searched by order."""
    if not _FAMILIES[task.family][1] or task.n == 1:
        space = _space(task)
        return [(_candidates(len(space.pool), len(space.options), task.k),
                 lambda: space)]
    from .orders import quotient_orders
    relabelings = _relabelings(task)
    return [(_candidates(order.cap, len(order.finals), task.k),
             partial(_order_space, order, relabelings))
            for order in quotient_orders(task.n, task.family == "two_sided")]


def _insert(image: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The sorted tuple image with x inserted."""
    i = bisect_right(image, x)
    return image[:i] + (x,) + image[i:]


def _test(space: _Space, idx: tuple[int, ...], g: int) -> tuple:
    """The test of relabeling g on the children of prefix idx that
    _canonical_children judges: (mul[g], finals[g], P, rise), P being the
    sorted image of idx and rise the letter of idx at the first position
    where P differs from it, or None where g fixes idx."""
    image = tuple(sorted(map(space.image, repeat(g), idx)))
    return (space.mul[g], space.finals[g], image,
            next((p for p, q in zip(idx, image) if p != q), None))


def _canonical_children(node: _Prefix,
                        kids) -> tuple[list[int], list[tuple[int, list]]]:
    """The pool indices c in kids, in order, such that no relabeling maps
    t = idx + (c,) lower, idx being node's prefix, and (c, finals tables
    of the relabelings other than the identity that fix t) for the few c
    that some such relabeling fixes: where t is a whole letter tuple,
    (t, finals i) is canonical iff none of those tables maps i lower.  A
    shorter t mapped lower has every tuple extending it mapped lower,
    since adding letters only lowers each order statistic of the image,
    so its subtree is pruned.

    idx is a sorted prefix that no relabeling maps lower, and every c in
    kids is at least idx[-1], so that t is sorted.  Let t0 be t's first
    letter: p0 = idx[0], or c itself at the root.  A relabeling takes c
    into c's orbit, whose least index is least[c]: if least[c] < t0 the
    image of t starts below t0, and c is dropped (at the root, c is kept
    iff it heads its orbit).  For the others every letter of every image
    of t is at least t0, so an image that takes no letter of t to t0
    starts above t0 and is above t.  So c meets only the relabelings
    that take one of its letters to t0: node.meet, those that take a
    letter of idx to p0, and for c in t0's orbit (least[c] = t0)
    sending(c), those that take c to t0.  Every relabeling that fixes t
    is among them, and each is judged by one test (_test).

    For such a relabeling g let P be the sorted image of p = idx
    (P >= p), x = g(c), and T the image of t: P with x inserted.
      - P = p (g fixes the prefix).  If x < c, x goes in at some i, before
        which T and t agree, and T_i = x is below t_i (p_i, or c if x goes
        last), so T < t; if x = c, T = t; if x > c, T = p + (x,) > t.
      - P > p.  Let j be the first position with P_j > p_j.  If x < p_j, x
        goes in at some i <= j, where T and t agree before i and
        T_i = x < p_i = t_i, so T < t.  If x > p_j, x goes in at or after
        j, since p_l <= p_j for l < j; T agrees with t before j and
        T_j (x or P_j) > p_j = t_j, so T > t.  Only x = p_j, a tie, leaves
        T to be built and compared.
    So a test is one comparison of x with a bound fixed per node (c where
    g fixes the prefix, or p_j), and only a tie builds T: a tie with c
    builds T = t, so g is recorded as fixing t.  A g in sending(c) but
    not in node.meet takes every letter of p above p0, so j = 0 and
    p_j = p0 = x: it always ties.  At the root P = p = () and sending(c)
    is c's stabilizer, whose relabelings all fix t."""
    space = node.space
    least, rows, via = space.least, space.rows, space.via
    idx, meet = node.idx, node.meet
    if idx:
        p0 = idx[0]
        kids = [c for c in kids if least[c] >= p0]
        if len(meet) == 1 and all(least[c] != p0 for c in kids):
            return kids, []
    else:  # the root: t = (c,) is canonical iff c heads its orbit
        p0 = None
        kids = [c for c in kids if least[c] == c]
    # the identity, meet[0], never maps lower
    tests = [_test(space, idx, g) for g in meet[1:]]
    children, fixed = [], []
    for c in kids:
        row, v = rows[least[c]], via[c]
        met, fixing = tests, []
        if least[c] == p0 or not idx:  # c is in t0's orbit, as heads are
            met = chain(tests, (_test(space, idx, g)
                                for g in space.sending(c) if g not in meet))
        for mg, fin, image, rise in met:
            x, bound = row[mg[v]], c if rise is None else rise
            if x <= bound:
                if x < bound:
                    break
                whole, child = _insert(image, x), idx + (c,)
                if whole < child:
                    break
                if whole == child:
                    fixing.append(fin)
        else:
            children.append(c)
            if fixing:
                fixed.append((c, fixing))
    return children, fixed


def _tuples_before(letters: int, first: int, c: int, more: int) -> int:
    """The letter tuples under a node before those under its child c, in a
    pool of letters letters, the node's children starting at first and
    more letters following the child's.  Child c' heads
    C(letters - c' + more - 1, more) sorted tuples, summed over
    first <= c' < c by the hockey-stick identity.  first = 0,
    c = letters and more = k - 1 count the whole order."""
    return (comb(letters - first + more, more + 1)
            - comb(letters - c + more, more + 1))


# _ADD_STATE[q] maps a mask byte m to m | 1 << q
_ADD_STATE = [bytes(m | 1 << q for m in range(256)) for q in range(8)]


def _image_masks(g: tuple[int, ...]) -> bytes:
    """The mask table of letter g, whose states fit in a byte (n <= 8):
    entry m is the mask of the images under g of the states in mask m.
    The entries with top state q are those below 1 << q with g(q) added,
    so the table doubles once per state."""
    table = b"\0"
    for x in g:
        table += table.translate(_ADD_STATE[x])
    return table


def _spread(reach: int, union: bytes, last: bytes) -> int:
    """The mask of the states reached from those in mask reach by words
    over some letters, the OR of whose mask tables is union, and one more
    letter with mask table last: reach grown by one step of every letter
    until it stops growing, after at most n steps."""
    while True:
        grown = reach | union[reach] | last[reach]
        if grown == reach:
            return reach
        reach = grown


class _Prefix:
    """A node of the walk: a prefix of pool indices, facts that hold for
    every letter tuple extending it, and the partial results its tuples
    extend by their further letters (Froidure & Pin 1997).  A node is its
    parent up plus pool index c, and reads c's letter, rank, mask table
    and orbit off the shard's space (_Space), shared by every node.
      - idx holds the pool indices, whose letters a tuple reads only if
        its closure reaches the best (_run_shard).  meet lists the
        identity and the relabelings that take some letter of the prefix
        to its first letter p0, in order: its parent's, with those taking
        c to p0 (_Space.sending) where c is in p0's orbit, as every root
        child is (_canonical_children reads them); the identity alone at
        the root.
      - reach is the mask of the states its letters reach from 0, and
        union the byte-wise OR of their mask tables (_image_masks): a
        node spreads its parent's reach by its parent's union and its own
        last letter's table (_spread), and a tuple below it spreads reach
        by union and the tuple's last letter's table.
      - The closure's element set of a tuple is its prefix's, extended
        by the last letter, decided at most once and only when asked.
        The root, with no letters, reaches state 0 alone, and its
        closure is empty.
      - codes holds the letters in the closure's encoding
        (semigroup._encode): a node encodes its own last letter when it
        is made, and a tuple below it its last letter only when it is
        closed.
      - ranks holds the ranks of the letters, sorted, and bounds[r] the
        rank bound (_rank_bound) of the node's letters and one more
        letter of rank r, for r = 1..n (no letter has rank 0, so
        bounds[0] only fills the place): the list _rank_bounds caches
        for those ranks, shared by every node that has them, read when
        the node is made, so a tuple's bound is one list index."""

    __slots__ = ("up", "space", "idx", "meet", "codes", "ranks", "bounds",
                 "reach", "union", "_closed")

    def __init__(self, up: _Prefix, c: int):
        space = self.space = up.space
        g, own = space.pool[c], space.masks(c)
        self.up, self.idx, self.meet = up, up.idx + (c,), up.meet
        if space.least[c] == self.idx[0]:
            self.meet = tuple(sorted({*up.meet, *space.sending(c)}))
        self.codes = up.codes + (_encode(g),)
        self.reach = _spread(up.reach, up.union, own)
        self.union = bytes(map(or_, up.union, own))
        self.ranks = _insert(up.ranks, space.ranks[c])
        self.bounds = _rank_bounds(space.n, space.sink, self.ranks)
        self._closed = None

    @classmethod
    def root(cls, space: _Space) -> _Prefix:
        """The node of the empty prefix, whose image is () under every
        relabeling."""
        node = cls.__new__(cls)
        node.up, node.space = None, space
        node.meet = (0,)  # the identity alone
        node.idx = node.codes = ()
        node.reach, node.union = 1, bytes(1 << space.n)
        node.ranks, node.bounds = (), _rank_bounds(space.n, space.sink, ())
        node._closed = frozenset()
        return node

    def reaches_all(self, c: int) -> bool:
        """Whether this prefix's letters and pool letter c reach every
        state from 0."""
        full = (1 << self.space.n) - 1
        return self.reach == full or _spread(
            self.reach, self.union, self.space.masks(c)) == full

    def close(self, c: int) -> set:
        """The closure's element set of this prefix's letters and pool
        letter c."""
        return _extend(self.codes + (_encode(self.space.pool[c]),),
                       self.space.n, self.closure())

    def closure(self) -> set | frozenset:
        if self._closed is None:
            self._closed = _extend(self.codes, self.space.n,
                                   self.up.closure())
        return self._closed


@cache
def _strata(n: int, e: int) -> tuple[list[list[int]], list[list[int]],
                                     list[int]]:
    """The tables behind _rank_bound on n states, e = 1 where every map
    fixes the sink n-1 and 0 otherwise, each indexed by rank rho = 0..n:
      - K[a][rho] = sum_i (-1)^i C(rho-e, i) (rho-i)^(a-e), the maps of
        rank rho that are constant on the kernel classes of a letter of
        rank a, for one fixed image of rho states (the sink among them
        where e = 1, the sink's class going to the sink): maps of the a-e
        free classes into those states that reach all rho-e free ones;
      - I[b][rho] = C(b-e, rho-e), the images of rho states inside the
        image of a letter of rank b, the sink among them where e = 1;
      - M[rho] = C(n-e, rho-e) K[n][rho], the maps of rank rho.
    Rank 0 has no map, so its entries are 0."""
    def onto(a: int, rho: int) -> int:
        return sum((-1) ** i * comb(rho - e, i) * (rho - i) ** (a - e)
                   for i in range(rho - e + 1))

    ranks, zero = range(1, n + 1), [0] * (n + 1)
    K = [zero, *([0, *(onto(a, rho) for rho in ranks)] for a in ranks)]
    I = [zero, *([0, *(comb(b - e, rho - e) for rho in ranks)]
                 for b in ranks)]
    M = [0, *(comb(n - e, rho - e) * K[n][rho] for rho in ranks)]
    return K, I, M


def _rank_bound(n: int, e: int, ranks: tuple[int, ...]) -> int:
    """B, an upper bound on the sigma of a letter tuple on n states whose
    letters have ranks ranks (image sizes, also their numbers of kernel
    classes), in any order: B depends on their multiset alone.  With
    e = 1 where every letter of the pool fixes state n-1 (right and
    two-sided cells) and 0 otherwise, and the tables K, I, M of _strata,
    B is the sum over ranks rho of min(M[rho], S_rho), where
    S_rho = (sum over letters f of K[r(f)][rho]) * (sum over letters l of
    I[r(l)][rho]), a repeated letter once per position, save that
    S_rho = 0 where rho < n and every letter of rank rho or more is a
    permutation.

    A nonempty word g1 ... gm (g1 applied first, as translate composes)
    is constant on each kernel class of g1 and maps into the image of gm;
    where every letter fixes n-1, so does the word, which then maps the
    class of n-1 to n-1.  Its rank is at most that of each letter, so an
    element of rank rho has a word over letters of rank rho or more, and
    one of permutations alone is a permutation.  So at most
    K[r(f)][rho] * I[r(l)][rho] elements of rank rho have a word with
    first letter f and last letter l (0 where r(f) or r(l) is below rho),
    and at most M[rho] elements have rank rho.  Summed over rho the pair's
    count is r(l) ** (r(f) - e), so B is never above the sum of those
    over the ordered pairs of letters."""
    K, I, M = _strata(n, e)
    # the highest rank of a letter that is no permutation
    top = max((r for r in ranks if r < n), default=0)
    return sum(min(M[rho], sum(K[r][rho] for r in ranks)
                   * sum(I[r][rho] for r in ranks))
               for rho in (*range(1, top + 1), n))


@cache
def _rank_bounds(n: int, e: int, ranks: tuple[int, ...]) -> list[int]:
    """[0, B(ranks + (1,)), ..., B(ranks + (n,))] for sorted ranks, B
    being _rank_bound(n, e, ...): one list shared by every prefix node
    with those ranks, since there are few rank multisets and many
    prefixes."""
    return [0, *(_rank_bound(n, e, _insert(ranks, r))
                 for r in range(1, n + 1))]


def _walk(space: _Space, k: int, budget: int, shard: int, shards: int):
    """Walk the candidate order (letter tuple, then finals) of the space
    given, with k letters, as a tree of letter prefixes, depth first,
    and yield one batch (prefix node, leaves, keep) per prefix of k - 1
    letters with any canonical leaf under the root's children shard,
    shard + shards, ... in the order's first budget candidates.  leaves
    lists, in order, the pool
    indices of the last letters that make canonical letter tuples with
    the prefix.  Each such tuple is canonical with every finals option
    save where keep, a dict from pool index to finals list, says
    otherwise: for the leaf the budget cuts, and for leaves that some
    relabeling fixes, where only the options that no such relabeling
    maps lower are kept.  The least finals option is always kept, so no
    list in keep is empty.
    Each node takes the same steps: its children inside the budget, the
    canonical ones among them (_canonical_children), then the batch or a
    visit to each, placed in the order by _tuples_before.  The canonical
    children of the root are the orbit heads of the space's orbit table
    (_Space).  Below it, a batch is the children whose orbits reach no
    lower than the prefix's first letter p0, less those that a relabeling
    taking one of their letters to p0 maps lower.  Where no such relabeling but the identity
    exists, the batch is the orbit filter's survivors as they are."""
    letters, options = len(space.pool), len(space.options)
    # a tuple, not a range: its slices share ints instead of making new ones
    indices = tuple(range(letters))

    def visit(node: _Prefix, pos: int):
        # the children of node, the first starting at position pos; the
        # root's children are dealt out to the shards
        idx = node.idx
        more = k - len(idx) - 1
        first = idx[-1] if idx else 0

        def start(c: int) -> int:
            return pos + options * _tuples_before(letters, first, c, more)

        # the children before end start inside the budget, bisected at a cut
        end = (letters if start(letters) <= budget
               else bisect_left(indices, budget, first, letters, key=start))
        kids, fixed = _canonical_children(
            node, indices[first:end] if idx else indices[shard:end:shards])
        if more:
            for c in kids:
                yield from visit(_Prefix(node, c), start(c))
            return
        # the budget leaves leaf end - 1 its first cut options only
        cut = budget - start(end - 1)
        keep = ({end - 1: space.options[:cut]}
                if cut < options and kids and kids[-1] == end - 1 else {})
        for c, fixing in fixed:
            keep[c] = [f for fi, f in enumerate(keep.get(c, space.options))
                       if not any(t[fi] < fi for t in fixing)]
        if kids:
            yield node, kids, keep

    yield from visit(_Prefix.root(space), 0)


def _minimal_finals(gens: tuple[tuple[int, ...], ...], n: int,
                    options: list[frozenset[int]]) -> list[frozenset[int]]:
    """The finals among options with which gens, reaching every state from
    0, is minimal: the Moore refinement splits all n states."""
    return [f for f in options if max(_moore_classes(gens, f)) == n - 1]


def _run_shard(space: _Space, k: int, budget: int, shard: int, shards: int,
               best: int) -> tuple:
    """Search the space under the root's children shard, shard + shards,
    ..., in the budget's prefix of its candidate order, seeded with best:
    the part (best sigma, witnesses found here at it, canonical count) for
    _merge, which is (best, [], count) where no tuple reaches the seed.

    The walk hands over one batch of leaves per prefix (_walk).  Its
    canonical candidates are counted from the batch's length and the few
    finals lists it holds, without visiting a leaf.  Where the space's
    pool is smaller than the best, every batch is then dropped, as no
    tuple of the space can reach the best.  A letter tuple whose rank
    bound (_rank_bounds, read off its prefix node by its last letter's
    rank) is below the shard's best so far is dropped next: each leaf is
    held against the best once, before its letter tuple is built.  The
    others meet the reachability test (_Prefix.reaches_all), and one
    that reaches every state is closed once, whatever number of options
    it keeps.  A tuple whose closure is smaller than the best is then
    dropped before any Moore refinement: sigma depends only on the
    letters, and the shard's best never exceeds the maximum of the cell
    (or of the budget's prefix of it), so no witness is lost.  Such a
    closure's elements join below, the batch's set of them, and a later
    leaf whose letter is in below is dropped unclosed: the closure it
    came from holds the prefix and that letter and is closed under
    composition, so it holds the leaf's whole closure, which is below
    the best as well (the best never falls).  A tuple dropped by its
    bound or by below is dropped by the same argument, since its sigma
    is at most the bound or below the best, whether or not it reaches
    every state; so the tuples closed are the same whatever the order of
    the three tests.  Only the options of the other tuples, those in
    keep for a leaf with its own list and every option for the others,
    are tested for minimality, and only a minimal one raises the best."""
    pool, rank, finals_opts = space.pool, space.ranks, space.options
    options = len(finals_opts)
    dead = len(pool) < best
    wits, canonical = [], 0
    for up, leaves, keep in _walk(space, k, budget, shard, shards):
        canonical += len(leaves) * options + sum(
            len(kept) - options for kept in keep.values())
        if dead:
            continue
        bounds, below = up.bounds, set()
        for c in leaves:
            if (bounds[rank[c]] < best or not up.reaches_all(c)
                    or bytes(pool[c]) in below):
                continue
            closed = up.close(c)
            s = len(closed)
            if s < best:
                below |= closed
                continue
            letters = tuple(map(pool.__getitem__, up.idx + (c,)))
            finals = _minimal_finals(letters, space.n,
                                     keep.get(c, finals_opts))
            if not finals:
                continue
            if s > best:
                best, wits = s, []
            wits.extend((letters, tuple(sorted(f))) for f in finals)
    return best, wits, canonical


def _merge(parts: list[tuple]) -> tuple:
    """The parts (best sigma, witnesses, canonical count) taken together:
    the top sigma, the witnesses at it in part order, the counts summed."""
    best = max(p[0] for p in parts)
    return (best, [w for p in parts if p[0] == best for w in p[1]],
            sum(p[2] for p in parts))


def _run_cell(task: SearchTask, shard: int, shards: int) -> tuple:
    """Search the cell's spaces (_chain) in turn under the root's
    children shard, shard + shards, ...: the shard's part (_merge) and the
    size of the whole candidate order.  Each space is seeded with the best
    of those before it, and its walk gets what they leave of the budget,
    its part merged into theirs; a space past the budget is never built."""
    part, start = (0, [], 0), 0
    for size, build in _chain(task):
        if start < task.budget:
            part = _merge([part, _run_shard(build(), task.k,
                                            task.budget - start, shard,
                                            shards, part[0])])
        start += size
    return part, start


@contextmanager
def _worker_map(jobs: int):
    """Yield (workers, map) for running calls on up to `jobs` workers.

    The executor starts every worker at once, so `jobs` is capped by the CPU
    count.  At one worker `map` is the builtin and the calls run in this
    process; otherwise it is the map of one process pool, which yields the
    results in call order and re-raises a worker's exception here.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        yield 1, map
        return
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        yield jobs, ex.map


def search_max_sigma(task: SearchTask) -> SearchResult:
    """Maximum sigma over the task's family cell, with extremal witnesses.

    The shards' parts are merged as each shard's spaces are (_merge).
    Every witness is re-verified (minimal, in class, sigma equal to the
    maximum) before the result is returned.
    """
    # one shard per worker; a shard left without heads returns an empty
    # part, so the clamp needs no pool and only the shards build one
    with _worker_map(task.jobs) as (jobs, run):
        shards = list(run(_run_cell, repeat(task), range(jobs), repeat(jobs)))

    best, raw, canonical = _merge([part for part, _ in shards])
    if _FAMILIES[task.family][1]:
        # a witness of an order space is canonical under that order's
        # relabelings, and may be met under several orders (at n = 1 the
        # family space's relabeling is the identity alone)
        raw = set(map(_least_relabeling, repeat(_relabelings(task)), raw))
    # a raw pair (letters, sorted finals) is its witness's sort_key
    witnesses = tuple(FoundWitness(tuple(map(_letter, letters)),
                                   _finals_set(finals))
                      for letters, finals in sorted(raw))
    total = shards[0][1]  # every shard counts the whole candidate order
    examined = min(total, task.budget)
    # each examined candidate is under the head of exactly one shard, which
    # yields it or prunes it
    pruned = examined - canonical

    for w in witnesses:
        _reverify(task, w, best)
    return SearchResult(task, best, witnesses, examined, pruned,
                        total <= task.budget)


# The witnesses of a process's searches share one object per distinct
# letter and one per distinct finals set: a cell's witnesses draw on few of
# either, and so do repeated searches of a cell.  At most 2^7 finals sets
# exist; the letters kept are the last 4,096 met.
_letter = lru_cache(maxsize=4096)(Transformation)
_finals_set = cache(frozenset)


def _least_relabeling(group: list[tuple[int, ...]], witness: tuple) -> tuple:
    """The least image of witness (letters, sorted finals) under the
    relabelings group, each image's letters sorted: the one candidate of
    its orbit that the family space keeps."""
    letters, finals = witness
    images = []
    for g in group:
        inverse = sorted(range(len(g)), key=g.__getitem__)
        images.append((tuple(sorted(tuple(g[t[q]] for q in inverse)
                                    for t in letters)),
                       tuple(sorted(g[q] for q in finals))))
    return min(images)


def _reverify(task: SearchTask, w: FoundWitness, expect_sigma: int) -> None:
    """Confirm what a search result states of a witness, on its image rows
    with initial state 0, from the single implementations: it is minimal
    with n states (each row has n entries, each final is a state, and
    automata._is_minimal: the reachability walk reaches all n states and
    the Moore refinement splits them all), its sigma is the maximum (the
    closure, semigroup._sigma), and it is in the task's class
    (_is_right_ideal and/or _is_left_ideal, each of which decides its
    ideal twice and asserts that the two agree).  A minimal DFA with n
    states is its own minimal DFA up to renumbering, so no copy is built.
    classify would also decide the complement's classes, the other ideal
    and the special quotients, none of which a search result states."""
    rows, n, finals = tuple(t.images for t in w.letters), task.n, w.finals
    if not (all(len(g) == n for g in rows) and all(0 <= f < n for f in finals)
            and _is_minimal(rows, n, 0, finals)):
        raise AssertionError(f"witness not minimal with {n} states: {w}")
    if _sigma(rows, n) != expect_sigma:
        raise AssertionError(f"witness sigma mismatch: {w}")
    right, left = _FAMILIES[task.family]
    if (right and not _is_right_ideal(rows, n, 0, finals)
            or left and not _is_left_ideal(rows, n, 0, finals)):
        raise AssertionError(f"witness not in class {task.family}: {w}")
