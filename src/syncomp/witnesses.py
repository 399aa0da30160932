"""Extremal witness automata for the three ideal families, their closed-form
sigma bounds, and the kappa of their reversed designated restrictions.

Each family is a fixed semiautomaton on {0..n-1} with letters labeled
"a".."f"; restrictions are specified by label.  Where two labels act
identically at small n (right/left at n=3, two-sided at n=4) both labels
are kept so the API stays uniform.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .automata import Dfa, Semiautomaton, determinize, minimize, reverse
from .transform import (Transformation, constant, cycle, singular,
                        transposition)

__all__ = [
    "FAMILIES",
    "right_ideal_witness",
    "left_ideal_witness",
    "two_sided_witness",
    "family_witness",
    "left_witness_semiautomaton",
    "left_witness_core",
    "small_witness",
    "closed_form_bound",
    "ReversalRow",
    "reversal_sweep",
]


def _letters_right(n: int) -> dict[str, Transformation]:
    return {
        "a": cycle(n, 0, n - 2),
        "b": transposition(n, 0, 1),
        "c": singular(n, n - 2, 0),
        "d": singular(n, n - 2, n - 1),
    }


def _letters_left(n: int) -> dict[str, Transformation]:
    return {
        "a": cycle(n, 1, n - 1),
        "b": transposition(n, 1, 2),
        "c": singular(n, n - 1, 1),
        "d": singular(n, n - 1, 0),
        "e": constant(n, 1),
    }


def _letters_two_sided(n: int) -> dict[str, Transformation]:
    # e sends every state to 1 except n-1, which stays put (none of the named
    # constructor forms; built from its image list).
    e = Transformation(tuple(1 if q != n - 1 else n - 1 for q in range(n)))
    return {
        "a": cycle(n, 1, n - 2),
        "b": transposition(n, 1, 2),
        "c": singular(n, n - 2, 1),
        "d": singular(n, n - 2, 0),
        "e": e,
        "f": singular(n, 1, n - 1),
    }


class _Family(NamedTuple):
    letters: Callable[[int], dict[str, Transformation]]
    least_n: int          # the least n the witness takes
    finals_move: bool     # whether its finals may be overridden
    bound: Callable[[int], int]
    bound_least_n: int    # the least n the bound takes
    designated: str       # the reversal row: the restriction reversed ...
    kappa: Callable[[int], int]  # ... and the kappa of its reversal


# One row per family.  Each witness has initial 0 and default finals {n-1};
# any nonempty finals avoiding 0 keep the left witness minimal.
_FAMILY_ROWS = {
    "right": _Family(_letters_right, 3, False,
                     lambda n: n ** (n - 1), 1,
                     "ad", lambda n: 2 ** (n - 1)),
    "left": _Family(_letters_left, 3, True,
                    lambda n: n ** (n - 1) + n - 1, 1,
                    "acde", lambda n: 2 ** (n - 1) + 1),
    "two_sided": _Family(_letters_two_sided, 4, False,
                         lambda n: n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1,
                         2, "adef", lambda n: 2 ** (n - 2) + 1),
}

FAMILIES = tuple(_FAMILY_ROWS)


def _row(family: str) -> _Family:
    try:
        return _FAMILY_ROWS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def family_witness(family: str, n: int, letters: Iterable[str] | None = None,
                   finals: Iterable[int] | None = None) -> Dfa:
    """The family's witness on n states, restricted to letters (all of them
    when None); its sigma is closed_form_bound(family, n) for the full
    alphabet.  finals overrides the finals of the left witness, the one
    family whose finals may move."""
    row = _row(family)
    if n < row.least_n:
        raise ValueError(
            f"the {family} witness needs n >= {row.least_n}; below that, "
            f"use small_witness (witness --small K on the command line)")
    if finals is None:
        finals = (n - 1,)
    elif not row.finals_move:
        raise ValueError(f"the {family} witness takes no finals override")
    finals = frozenset(finals)
    if not finals or not all(0 < q < n for q in finals):
        raise ValueError(f"finals must be a nonempty set of states 1..{n - 1}"
                         f", got {sorted(finals)}")
    full = row.letters(n)
    d = Dfa(n, tuple(full), full, 0, finals)
    return d if letters is None else d.restrict(letters)


def right_ideal_witness(n: int, letters: Iterable[str] | None = None) -> Dfa:
    """family_witness("right", n, letters)."""
    return family_witness("right", n, letters)


def left_ideal_witness(n: int, letters: Iterable[str] | None = None,
                       finals_override: Iterable[int] | None = None) -> Dfa:
    """family_witness("left", n, letters, finals_override)."""
    return family_witness("left", n, letters, finals_override)


def two_sided_witness(n: int, letters: Iterable[str] | None = None) -> Dfa:
    """family_witness("two_sided", n, letters)."""
    return family_witness("two_sided", n, letters)


def left_witness_semiautomaton(n: int) -> Semiautomaton:
    """The left family's five-letter semiautomaton (no acceptor)."""
    return left_ideal_witness(n).semiautomaton()


def left_witness_core(n: int) -> Semiautomaton:
    """Letters a-d only (e dropped): state 0 is absorbing, which is what the
    pair-graph uniform-minimality test needs."""
    return left_ideal_witness(n, "abcd").semiautomaton()


# ---------------------------------------------------------------------------
# Named small constructions (cases below the families' n ranges, and the
# individually listed extremal generator tuples)

# (family, n, k) -> list of variants; each variant = list of image lists.
# Finals are {n-1} throughout.
_SMALL: dict[tuple[str, int, int], list[list[list[int]]]] = {
    ("right", 2, 2): [[[1, 1], [0, 1]]],              # b*a(a+b)*
    ("right", 4, 2): [[[1, 2, 0, 3], [1, 0, 3, 3]]],
    ("right", 5, 2): [
        [[0, 1, 0, 2, 4], [1, 3, 2, 4, 4]],
        # second listed witness, reconstructed from a garbled rendering
        [[0, 0, 1, 2, 4], [2, 3, 0, 4, 4]],
    ],
    ("right", 5, 3): [[[0, 0, 1, 3, 4], [2, 0, 3, 1, 4], [3, 1, 2, 4, 4]]],
    ("left", 2, 2): [[[1, 1], [0, 0]]],               # Σ*a
    ("left", 2, 3): [[[1, 1], [0, 1], [0, 0]]],       # Σ*a(a+b)*
    ("left", 3, 2): [[[0, 0, 1], [1, 2, 2]]],
    ("left", 4, 2): [[[1, 2, 3, 3], [0, 0, 1, 2]]],
    ("left", 5, 2): [[[1, 2, 3, 4, 4], [0, 0, 1, 2, 3]]],
    ("two_sided", 2, 2): [[[1, 1], [0, 1]]],          # Σ*aΣ*
    ("two_sided", 3, 3): [[[1, 2, 2], [0, 0, 2], [0, 1, 2]]],
}

_LABELS = "abcdef"


def small_witness(family: str, n: int, k: int, variant: int = 0) -> Dfa:
    """One of the individually named small extremal DFAs.

    k=1 (any family, n <= 5) is the unary chain a^(n-1)a*; two_sided with
    k=2 and 3 <= n <= 5 is Σ*a^(n-1)Σ*.  The rest come from a fixed
    registry; unlisted (family, n, k) raise ValueError.
    """
    _row(family)  # an unknown family raises
    chain = [min(q + 1, n - 1) for q in range(n)]
    if k == 1 and 1 <= n <= 5:
        # a^(n-1)a* (Σ* when n=1): the same unary chain is extremal for all
        # three families.
        variants = [[chain]]
    elif family == "two_sided" and k == 2 and 3 <= n <= 5:
        # Σ*a^(n-1)Σ*: count the current run of a's, with accepting sink.
        variants = [[chain, [0] * (n - 1) + [n - 1]]]
    else:
        variants = _SMALL.get((family, n, k))
    if variants is None:
        raise ValueError(f"no small witness recorded for ({family}, n={n}, k={k})")
    if not 0 <= variant < len(variants):
        raise ValueError(f"({family}, n={n}, k={k}) has {len(variants)} "
                         f"variant(s); got variant={variant}")
    alph = tuple(_LABELS[:k])
    delta = {a: Transformation(tuple(row))
             for a, row in zip(alph, variants[variant])}
    return Dfa(n, alph, delta, 0, frozenset({n - 1}))


def closed_form_bound(family: str, n: int) -> int:
    """The family's complexity bound: n^(n-1) (right), n^(n-1)+n-1 (left),
    n^(n-2)+(n-2)*2^(n-2)+1 (two-sided).  The source paper proves the right
    bound and shows the other two reached; that they are upper bounds too is
    proven by Brzozowski & Szykuła, Upper bounds on syntactic complexity of
    left and two-sided ideals, DLT 2014 (arXiv:1403.2090).  The range of n
    that proof covers is not checked here."""
    row = _row(family)
    if n < row.bound_least_n:
        raise ValueError(f"the {family} bound needs n >= {row.bound_least_n}")
    return row.bound(n)


# ---------------------------------------------------------------------------
# Reversal: kappa of the reversed designated restrictions


class ReversalRow(NamedTuple):
    n: int
    measured: int
    expected: int


def reversal_sweep(family: str, n_range: Iterable[int]) -> list[ReversalRow]:
    """kappa of the reversed witness restriction for each n, next to the
    closed-form value it should equal."""
    row = _row(family)
    return [ReversalRow(n, minimize(determinize(reverse(
                family_witness(family, n, row.designated)))).n, row.kappa(n))
            for n in n_range]
