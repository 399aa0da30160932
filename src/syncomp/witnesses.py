"""Extremal witness automata for the three ideal families, their closed-form
sigma bounds, and the kappa of their reversed designated restrictions.

Each family is a fixed semiautomaton on {0..n-1} with letters labeled
"a".."f"; restrictions are specified by label.  Where two labels act
identically at small n (right/left at n=3, two-sided at n=4) both labels
are kept so the API stays uniform.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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
    "REVERSAL_SETUP",
    "ReversalRow",
    "reversal_sweep",
]

FAMILIES = ("right", "left", "two_sided")


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


def _pick(all_letters: dict[str, Transformation],
          letters: Iterable[str] | None, family: str) -> tuple[str, ...]:
    if letters is None:
        return tuple(all_letters)
    chosen = set(letters)
    if not chosen:
        raise ValueError("letters must be nonempty")
    unknown = chosen - set(all_letters)
    if unknown:
        raise ValueError(
            f"unknown {family} letters {sorted(unknown)}; "
            f"available: {''.join(all_letters)}")
    return tuple(a for a in all_letters if a in chosen)


def right_ideal_witness(n: int, letters: Iterable[str] | None = None) -> Dfa:
    """Right-ideal witness: initial 0, accepting sink n-1; sigma = n^(n-1)
    for the full alphabet, n >= 4.  At n=3 letters a and b coincide."""
    if n < 3:
        raise ValueError("right-ideal witness needs n >= 3; "
                         "use small_witness for n in {1, 2}")
    full = _letters_right(n)
    alph = _pick(full, letters, "right")
    return Dfa(n, alph, {a: full[a] for a in alph}, 0, frozenset({n - 1}))


def left_ideal_witness(n: int, letters: Iterable[str] | None = None,
                       finals_override: Iterable[int] | None = None) -> Dfa:
    """Left-ideal witness: initial 0, default finals {n-1}; sigma =
    n^(n-1)+n-1 for the full alphabet.  Any nonempty finals avoiding 0 keep
    it minimal.  At n=3 letters a and b coincide."""
    if n < 3:
        raise ValueError("left-ideal witness needs n >= 3; "
                         "use small_witness for n in {1, 2}")
    full = _letters_left(n)
    alph = _pick(full, letters, "left")
    if finals_override is None:
        finals = frozenset({n - 1})
    else:
        finals = frozenset(finals_override)
        if not finals:
            raise ValueError("finals_override must be nonempty")
        if 0 in finals:
            raise ValueError("finals_override may not contain the initial state 0")
        bad = [f for f in finals if not 0 <= f < n]
        if bad:
            raise ValueError(f"finals_override out of range: {bad}")
    return Dfa(n, alph, {a: full[a] for a in alph}, 0, finals)


def two_sided_witness(n: int, letters: Iterable[str] | None = None) -> Dfa:
    """Two-sided witness: initial 0, finals {n-1}; sigma =
    n^(n-2)+(n-2)*2^(n-2)+1 for the full alphabet.  At n=4 letters a and b
    coincide."""
    if n < 4:
        raise ValueError("two-sided witness needs n >= 4; "
                         "use small_witness for n in {2, 3}")
    full = _letters_two_sided(n)
    alph = _pick(full, letters, "two_sided")
    return Dfa(n, alph, {a: full[a] for a in alph}, 0, frozenset({n - 1}))


def family_witness(family: str, n: int, letters: Iterable[str] | None = None,
                   finals: Iterable[int] | None = None) -> Dfa:
    """The family's witness on n states, restricted to letters (all of them
    when None).  finals overrides the finals of the left witness, the one
    family whose finals may move."""
    if family == "left":
        return left_ideal_witness(n, letters, finals)
    if finals is not None:
        raise ValueError(f"the {family} witness takes no finals override")
    if family == "right":
        return right_ideal_witness(n, letters)
    if family == "two_sided":
        return two_sided_witness(n, letters)
    raise ValueError(f"unknown family {family!r}")


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
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k == 1 and 1 <= n <= 5:
        # a^(n-1)a* (Σ* when n=1): the same unary chain is extremal for all
        # three families.
        chain = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
        return Dfa(n, ("a",), {"a": chain}, 0, frozenset({n - 1}))
    if family == "two_sided" and k == 2 and 3 <= n <= 5:
        # Σ*a^(n-1)Σ*: count the current run of a's, with accepting sink.
        a = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
        b = Transformation(tuple(0 if q < n - 1 else n - 1 for q in range(n)))
        return Dfa(n, ("a", "b"), {"a": a, "b": b}, 0, frozenset({n - 1}))
    variants = _SMALL.get((family, n, k))
    if variants is None:
        raise ValueError(f"no small witness recorded for ({family}, n={n}, k={k})")
    if not 0 <= variant < len(variants):
        raise ValueError(f"({family}, n={n}, k={k}) has {len(variants)} "
                         f"variant(s); got variant={variant}")
    rows = variants[variant]
    alph = tuple(_LABELS[:k])
    delta = {alph[i]: Transformation(tuple(rows[i])) for i in range(k)}
    return Dfa(n, alph, delta, 0, frozenset({n - 1}))


def closed_form_bound(family: str, n: int) -> int:
    """The family's complexity bound: n^(n-1) (right), n^(n-1)+n-1 (left),
    n^(n-2)+(n-2)*2^(n-2)+1 (two-sided).  The source paper proves the right
    bound and shows the other two reached; that they are upper bounds too is
    proven by Brzozowski & Szykuła, Upper bounds on syntactic complexity of
    left and two-sided ideals, DLT 2014 (arXiv:1403.2090).  The range of n
    that proof covers is not checked here."""
    if family == "right":
        if n < 1:
            raise ValueError("right bound needs n >= 1")
        return n ** (n - 1)
    if family == "left":
        if n < 1:
            raise ValueError("left bound needs n >= 1")
        return n ** (n - 1) + n - 1
    if family == "two_sided":
        if n < 2:
            raise ValueError("two-sided bound needs n >= 2")
        return n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Reversal: kappa of the reversed designated restrictions


class ReversalRow(NamedTuple):
    n: int
    measured: int
    expected: int


# family -> (designated letters, kappa of the reversal)
REVERSAL_SETUP = {
    "right": ("ad", lambda n: 2 ** (n - 1)),
    "left": ("acde", lambda n: 2 ** (n - 1) + 1),
    "two_sided": ("adef", lambda n: 2 ** (n - 2) + 1),
}


def reversal_sweep(family: str, n_range: Iterable[int]) -> list[ReversalRow]:
    """kappa of the reversed witness restriction for each n, next to the
    closed-form value it should equal."""
    if family not in REVERSAL_SETUP:
        raise ValueError(f"no reversal witness for family {family!r}")
    letters, expect = REVERSAL_SETUP[family]
    return [ReversalRow(n, minimize(determinize(reverse(
                family_witness(family, n, letters)))).n, expect(n))
            for n in n_range]
