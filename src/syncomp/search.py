"""Enumeration of n-state, k-letter DFAs maximizing syntactic complexity.

The searcher enumerates letter-action tuples inside a per-family structural
normal form, filters to minimal in-class automata, and tracks the maximum
semigroup size.  Output is deterministic regardless of job count: the
maximum, then the lexicographically least witnesses.

Normal forms (initial state always 0):
  right      final sink fixed at n-1, finals {n-1}
  two_sided  same skeleton, plus the left-ideal checks
  left       any letters, finals ranging over nonempty subsets avoiding 0
  all        any letters, finals ranging over nonempty proper subsets

State-relabeling symmetry (on the states the skeleton leaves free) and
letter-renaming symmetry never change sigma or class membership, so the
canonical filters below only discard duplicates of languages that are kept
elsewhere.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations, product
from typing import Iterable, NamedTuple

from .automata import (Dfa, _moore_classes, determinize, equivalent,
                       left_ideal_closure, minimize, reverse)
from .classify import _orbit, classify
from .semigroup import _closure, sigma_of_language, transition_semigroup
from .transform import Transformation
from .witnesses import (left_ideal_witness, right_ideal_witness,
                        two_sided_witness)

__all__ = [
    "PruneFlags",
    "SearchTask",
    "FoundWitness",
    "SearchResult",
    "search_max_sigma",
    "Theorem9Report",
    "verify_theorem9_pairing",
    "ReversalRow",
    "reversal_sweep",
]

_SEARCH_FAMILIES = ("right", "left", "two_sided", "all")


@dataclass(frozen=True)
class PruneFlags:
    """lemma8_filter: drop letters with periodic behavior from state 0
    (left/two-sided families only; such letters cannot occur in a left
    ideal's semigroup).  canonical_first_letter: keep only the least state
    relabeling of each candidate (BFS/letter-order driven, hence the name).
    dedupe_letter_multisets: enumerate sorted letter tuples only."""

    lemma8_filter: bool = True
    canonical_first_letter: bool = True
    dedupe_letter_multisets: bool = True


@dataclass(frozen=True)
class SearchTask:
    family: str
    n: int
    k: int
    prune: PruneFlags = field(default_factory=PruneFlags)
    budget: int = 10 ** 9
    jobs: int = 1

    def __post_init__(self):
        if self.family not in _SEARCH_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass(frozen=True)
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
    """candidates_examined counts (letters, finals) pairs evaluated;
    candidates_pruned counts those discarded by the canonical-relabeling
    filter (pool-level letter filtering shrinks the space before
    enumeration and is not counted).  exhaustive=False means the budget ran
    out and max_sigma is only a lower bound for the cell."""

    task: SearchTask
    max_sigma: int
    witnesses: tuple[FoundWitness, ...]
    candidates_examined: int
    candidates_pruned: int
    exhaustive: bool


# ---------------------------------------------------------------------------
# Tuple-level helpers (hot path: plain image tuples, no wrapper objects)


def _is_minimal(gens: tuple[tuple[int, ...], ...], n: int,
                finals: frozenset[int]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        q = stack.pop()
        for g in gens:
            r = g[q]
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return len(seen) == n and max(_moore_classes(gens, finals)) == n - 1


def _has_nonfinal_sink(gens, n, finals) -> bool:
    return any(q not in finals and all(g[q] == q for g in gens)
               for q in range(n))


def _is_left_ideal_semantic(gens, n, finals) -> bool:
    d = Dfa(n, tuple(str(i) for i in range(len(gens))),
            {str(i): Transformation(g) for i, g in enumerate(gens)},
            0, finals)
    return equivalent(d, left_ideal_closure(d))


def _pool(task: SearchTask) -> list[tuple[int, ...]]:
    n = task.n
    every = product(range(n), repeat=n)
    if task.family in ("right", "two_sided"):
        cands = [t for t in every if t[n - 1] == n - 1]
    else:
        cands = list(every)
    if task.prune.lemma8_filter and task.family in ("left", "two_sided"):
        cands = [t for t in cands if _orbit(t, 0)[2] == 1]
    return cands  # product() already yields lexicographic order


def _finals_options(task: SearchTask) -> list[frozenset[int]]:
    n = task.n
    if task.family in ("right", "two_sided"):
        return [frozenset({n - 1})]
    opts = []
    for mask in range(1, 1 << n):
        f = frozenset(q for q in range(n) if mask >> q & 1)
        if task.family == "left" and 0 in f:
            continue
        if task.family == "all" and len(f) == n and n > 1:
            continue  # all-final is Σ*, never minimal with n > 1 states
        opts.append(f)
    opts.sort(key=lambda f: tuple(sorted(f)))
    return opts


def _free_states(task: SearchTask) -> tuple[int, ...]:
    # states the normal form does not pin; relabelings permute exactly these
    if task.family in ("right", "two_sided"):
        return tuple(range(1, task.n - 1))
    return tuple(range(1, task.n))


def _relabel(g: tuple[int, ...], pm: dict[int, int]) -> tuple[int, ...]:
    new = [0] * len(g)
    for q, img in enumerate(g):
        new[pm[q]] = pm[img]
    return tuple(new)


def _canonical_key(letters, finals, pm, sort_letters: bool):
    relabeled = tuple(_relabel(g, pm) for g in letters)
    if sort_letters:
        relabeled = tuple(sorted(relabeled))
    return relabeled, tuple(sorted(pm[f] for f in finals))


def _is_canonical(letters, finals, task: SearchTask,
                  perms: list[dict[int, int]]) -> bool:
    sort_letters = task.prune.dedupe_letter_multisets
    own = (tuple(sorted(letters)) if sort_letters else tuple(letters),
           tuple(sorted(finals)))
    for pm in perms:
        if _canonical_key(letters, finals, pm, sort_letters) < own:
            return False
    return True


def _relabel_perms(task: SearchTask) -> list[dict[int, int]]:
    free = _free_states(task)
    perms = []
    for p in permutations(free):
        pm = {q: q for q in range(task.n)}
        pm.update(dict(zip(free, p)))
        perms.append(pm)
    return perms


def _run_shard(task: SearchTask, shard: int, shards: int,
               allotment: int) -> tuple:
    pool = _pool(task)
    finals_opts = _finals_options(task)
    perms = (_relabel_perms(task)
             if task.prune.canonical_first_letter else [])
    needs_left = task.family in ("left", "two_sided")
    cap = task.n ** task.n
    best = 0
    wits: list[tuple] = []
    examined = pruned = 0
    exhausted = False

    for first in range(shard, len(pool), shards):
        head = pool[first]
        if task.prune.dedupe_letter_multisets:
            rest_iter = combinations_with_replacement(pool[first:], task.k - 1)
        else:
            rest_iter = product(pool, repeat=task.k - 1)
        for rest in rest_iter:
            letters = (head,) + rest
            for finals in finals_opts:
                if examined >= allotment:
                    exhausted = True
                    break
                examined += 1
                if perms and not _is_canonical(letters, finals, task, perms):
                    pruned += 1
                    continue
                if not _is_minimal(letters, task.n, finals):
                    continue
                if needs_left:
                    if _has_nonfinal_sink(letters, task.n, finals):
                        continue
                    if not _is_left_ideal_semantic(letters, task.n, finals):
                        continue
                s = len(_closure(letters, cap)[0])
                if s > best:
                    best = s
                    wits = [(letters, tuple(sorted(finals)))]
                elif s == best:
                    wits.append((letters, tuple(sorted(finals))))
            if exhausted:
                break
        if exhausted:
            break
    return best, wits, examined, pruned, exhausted


def _trivial_one_state(task: SearchTask) -> SearchResult:
    # the only 1-state ideal is Σ*; for family=all, ∅ ties at sigma 1
    ident = Transformation((0,))
    wit = FoundWitness((ident,) * task.k, frozenset({0}))
    return SearchResult(task, 1, (wit,), 1, 0, True)


def search_max_sigma(task: SearchTask) -> SearchResult:
    """Maximum sigma over the task's family cell, with extremal witnesses.

    Every witness is re-verified (minimal, in class, sigma equal to the
    maximum) before the result is returned.
    """
    if task.n == 1:
        return _trivial_one_state(task)

    shards = task.jobs
    base, extra = divmod(task.budget, shards)
    allotments = [base + (1 if i < extra else 0) for i in range(shards)]
    if shards == 1:
        parts = [_run_shard(task, 0, 1, allotments[0])]
    else:
        with ProcessPoolExecutor(max_workers=shards) as ex:
            parts = list(ex.map(_run_shard, [task] * shards, range(shards),
                                [shards] * shards, allotments))

    best = max(p[0] for p in parts)
    raw = [w for p in parts if p[0] == best for w in p[1]]
    witnesses = tuple(sorted(
        (FoundWitness(tuple(Transformation(g) for g in letters),
                      frozenset(finals))
         for letters, finals in raw),
        key=FoundWitness.sort_key))
    examined = sum(p[2] for p in parts)
    pruned = sum(p[3] for p in parts)
    exhaustive = not any(p[4] for p in parts)

    for w in witnesses:
        _reverify(task, w, best)
    return SearchResult(task, best, witnesses, examined, pruned, exhaustive)


def _reverify(task: SearchTask, w: FoundWitness, expect_sigma: int) -> None:
    d = w.as_dfa()
    if minimize(d).n != task.n:
        raise AssertionError(f"witness not minimal with {task.n} states: {w}")
    if sigma_of_language(d) != expect_sigma:
        raise AssertionError(f"witness sigma mismatch: {w}")
    if task.family != "all":
        report = classify(d)
        flag = {"right": report.is_right_ideal,
                "left": report.is_left_ideal,
                "two_sided": report.is_two_sided_ideal}[task.family]
        if not flag:
            raise AssertionError(f"witness not in class {task.family}: {w}")


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


def _wrap_sorted(ts) -> tuple[Transformation, ...]:
    return tuple(Transformation(t) for t in sorted(ts))


def verify_theorem9_pairing() -> Theorem9Report:
    ruled = {t for t in product(range(3), repeat=3) if _orbit(t, 0)[2] >= 2}
    witness = left_ideal_witness(3, "bcde")
    realized = {t.images for t in
                transition_semigroup(witness, track_words=False).elements}
    excluded = set(product(range(3), repeat=3)) - ruled - realized

    pairings = []
    products_ok = True
    for t, partner in _PAIRING:
        prod = tuple(partner[i] for i in t)
        if prod not in ruled or partner not in realized:
            products_ok = False
        pairings.append((Transformation(t), Transformation(partner),
                         Transformation(prod)))
    partners = [p for _, p in _PAIRING]
    partition_ok = (len(ruled) == 10 and len(realized) == 11
                    and len(excluded) == 6
                    and excluded == {t for t, _ in _PAIRING}
                    and len(ruled) + len(realized) + len(excluded) == 27)
    wrap = _wrap_sorted
    return Theorem9Report(
        ruled_out=wrap(ruled), realized=wrap(realized), excluded=wrap(excluded),
        pairings=tuple(pairings),
        partners_distinct=len(set(partners)) == len(partners),
        products_all_ruled_out=products_ok,
        partition_ok=partition_ok,
    )


# ---------------------------------------------------------------------------
# Reversal sweep over the designated witness restrictions


class ReversalRow(NamedTuple):
    n: int
    measured: int
    expected: int


_REVERSAL_SETUP = {
    "right": (right_ideal_witness, "ad", lambda n: 2 ** (n - 1)),
    "left": (left_ideal_witness, "acde", lambda n: 2 ** (n - 1) + 1),
    "two_sided": (two_sided_witness, "adef", lambda n: 2 ** (n - 2) + 1),
}


def reversal_sweep(family: str, n_range: Iterable[int]) -> list[ReversalRow]:
    """kappa of the reversed witness restriction for each n, next to the
    closed-form value it should equal."""
    if family not in _REVERSAL_SETUP:
        raise ValueError(f"no reversal witness for family {family!r}")
    build, letters, expect = _REVERSAL_SETUP[family]
    rows = []
    for n in n_range:
        d = build(n, letters)
        measured = minimize(determinize(reverse(d))).n
        rows.append(ReversalRow(n, measured, expect(n)))
    return rows
