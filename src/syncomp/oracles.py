"""Slow, independent cross-check oracles.

These deliberately avoid the closure machinery in semigroup.py: the sigma
oracle enumerates words level by level and refolds every word's action from
its letters, so agreement with transition_semigroup is meaningful evidence.
The canonical-count oracle counts the orbits that search's canonical filter
keeps one candidate of, by Burnside's lemma, without running that filter.
"""

from __future__ import annotations

__all__ = ["word_bfs_sigma", "canonical_count"]


def word_bfs_sigma(d, max_words: int = 1_000_000) -> int:
    """Count distinct word actions of d, an automata.Dfa, by plain
    breadth-first word enumeration.

    Stops after the first word length that contributes no new action.  Work
    grows like |alphabet|^depth; max_words bounds the total number of words
    examined (RuntimeError beyond that).
    """
    rows = {a: d.delta[a].images for a in d.alphabet}
    seen: set[tuple[int, ...]] = set()
    level: list[tuple[str, ...]] = [()]
    examined = 0
    while True:
        nxt = []
        fresh = 0
        for w in level:
            for a in d.alphabet:
                wa = w + (a,)
                examined += 1
                if examined > max_words:
                    raise RuntimeError(
                        f"word-BFS oracle exceeded {max_words} words")
                images = tuple(range(d.n))
                for letter in wa:  # refold from scratch on purpose
                    row = rows[letter]
                    images = tuple(row[i] for i in images)
                if images not in seen:
                    seen.add(images)
                    fresh += 1
                nxt.append(wa)
        if fresh == 0:
            return len(seen)
        level = nxt


def canonical_count(space, k: int) -> int:
    """The number of canonical candidates of a cell space (a
    search._Space) with k letters, the examined minus the pruned count of
    its exhaustive walk, counted without searching.

    A candidate is a multiset of k pool letters with a finals option,
    and the canonical ones are one per orbit under the space's
    relabelings g (g t g^-1 on letter t).
    Burnside's lemma: the orbits number the mean over g of the candidates
    g fixes, (k-multisets g fixes) * (finals options g fixes).  A multiset
    is fixed iff its multiplicities are constant on each cycle of g on the
    pool, so its count is the coefficient of x^k in the product of
    1/(1 - x^c) over those cycle lengths c.  The pool and the options are
    closed under the relabelings: a family space's pool is every letter
    of its skeleton, and its relabelings fix the states the skeleton
    fixes; the space of an order P keeps the family's relabelings that
    preserve P, Aut(P), which map End(P) and P's up-sets to themselves.
    """
    pool, options, n = space.pool, space.options, space.n
    group = space.relabelings
    index = {t: i for i, t in enumerate(pool)}
    total = 0
    for g in group:
        moved = []
        for t in pool:
            image = [0] * n
            for q in range(n):
                image[g[q]] = g[t[q]]
            moved.append(index[tuple(image)])
        # coefficients of x^0 .. x^k in the product over the cycles of g
        coef = [1] + [0] * k
        seen = [False] * len(pool)
        for i in range(len(pool)):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j], j, length = True, moved[j], length + 1
            for d in range(length, k + 1):
                coef[d] += coef[d - length]
        fixed = sum(frozenset(g[q] for q in f) == f for f in options)
        total += coef[k] * fixed
    count, rest = divmod(total, len(group))
    if rest:
        raise AssertionError(f"Burnside sum {total} is not a multiple of "
                             f"{len(group)} relabelings")
    return count
