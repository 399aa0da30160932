"""Deterministic and nondeterministic finite automata over {0..n-1}.

DFAs here are always complete: one transformation of the state set per
letter.  States are plain ints; operations that rebuild an automaton
renumber states canonically by BFS from the initial state, letters taken
in alphabet order, so equal inputs give byte-equal outputs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AlphabetMismatchError, FormatError, SizeMismatchError
from .transform import Transformation

__all__ = [
    "Dfa",
    "Nfa",
    "Semiautomaton",
    "reachable_trim",
    "minimize",
    "determinize",
    "reverse",
    "complement",
    "equivalent",
    "left_ideal_closure",
    "parse_dfa_json",
    "emit_dfa_json",
    "to_dot",
]


@dataclass(frozen=True)
class Semiautomaton:
    """States plus letter actions, with no initial state or finals."""

    n: int
    alphabet: tuple[str, ...]
    delta: Mapping[str, Transformation]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", dict(self.delta))
        if self.n < 1:
            raise ValueError("need at least one state")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        if set(self.delta) != set(self.alphabet):
            raise ValueError("delta must define exactly the alphabet letters")
        for a in self.alphabet:
            if self.delta[a].n != self.n:
                raise SizeMismatchError(
                    f"letter {a!r} acts on {self.delta[a].n} states, expected {self.n}"
                )

    def with_acceptor(self, initial: int, finals: Iterable[int]) -> "Dfa":
        return Dfa(self.n, self.alphabet, self.delta, initial, frozenset(finals))


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: delta maps each letter to a Transformation."""

    n: int
    alphabet: tuple[str, ...]
    delta: Mapping[str, Transformation]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        Semiautomaton.__post_init__(self)  # shared structural checks
        object.__setattr__(self, "finals", frozenset(self.finals))
        if not 0 <= self.initial < self.n:
            raise ValueError(f"initial state {self.initial} out of range")
        for f in self.finals:
            if not 0 <= f < self.n:
                raise ValueError(f"final state {f} out of range")

    def run(self, word: Iterable[str]) -> int:
        q = self.initial
        for a in word:
            q = self.delta[a](q)
        return q

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.finals

    def transformation_of(self, word: Iterable[str]) -> Transformation:
        """Action of a word on the full state set."""
        images = list(range(self.n))
        for a in word:
            t = self.delta[a].images
            images = [t[i] for i in images]
        return Transformation(tuple(images))

    def semiautomaton(self) -> Semiautomaton:
        return Semiautomaton(self.n, self.alphabet, self.delta)

    def restrict(self, letters: Iterable[str]) -> "Dfa":
        """Sub-alphabet DFA; letter order follows the original alphabet."""
        want = set(letters)
        unknown = want - set(self.alphabet)
        if unknown:
            raise ValueError(f"letters {sorted(unknown)} not in alphabet "
                             f"{''.join(self.alphabet)}")
        if not want:
            raise ValueError("restriction to an empty alphabet")
        alph = tuple(a for a in self.alphabet if a in want)
        return Dfa(self.n, alph, {a: self.delta[a] for a in alph},
                   self.initial, self.finals)


@dataclass(frozen=True)
class Nfa:
    """NFA with a set of initial states; eta[a][q] is a set of successors."""

    n: int
    alphabet: tuple[str, ...]
    eta: Mapping[str, tuple[frozenset[int], ...]]
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "eta",
                           {a: tuple(frozenset(s) for s in rows)
                            for a, rows in dict(self.eta).items()})
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.n < 1:
            raise ValueError("need at least one state")
        if set(self.eta) != set(self.alphabet):
            raise ValueError("eta must define exactly the alphabet letters")
        for a in self.alphabet:
            if len(self.eta[a]) != self.n:
                raise SizeMismatchError(f"letter {a!r} row has wrong length")


def _reachable(rows: Sequence[Sequence[int]], start: int) -> list[int]:
    """States reached from start under the image rows, in BFS order with
    the rows taken in order: the package's one state-reachability walk.
    The search alone decides reachability otherwise: each prefix node
    spreads a bitmask through the mask tables of its letters
    (search._Prefix.reaches_all), read off the shard's search._Space.
    test_reach_masks_agree_with_the_walk holds that path against this walk
    on every letter tuple of the cells with n <= 3 and k <= 3, and
    test_inherited_facts_never_change_a_verdict on every tuple the
    search tests in those cells and in right (4,3)."""
    order, seen = [start], {start}
    for q in order:  # the list grows while it is walked
        for row in rows:
            r = row[q]
            if r not in seen:
                seen.add(r)
                order.append(r)
    return order


def reachable_trim(d: Dfa) -> Dfa:
    """Drop unreachable states; renumber by BFS (letters in alphabet order)."""
    rows = [d.delta[a].images for a in d.alphabet]
    order = _reachable(rows, d.initial)
    index = {q: i for i, q in enumerate(order)}
    delta = {a: Transformation(tuple(index[row[q]] for q in order))
             for a, row in zip(d.alphabet, rows)}
    finals = frozenset(index[f] for f in d.finals if f in index)
    return Dfa(len(order), d.alphabet, delta, 0, finals)


def _moore_classes(rows: Sequence[tuple[int, ...]],
                   finals: frozenset[int]) -> list[int]:
    """Moore refinement of the final/non-final split of the states acted on
    by the image rows.  Returns each state's class, numbered by first
    occurrence, so max + 1 is the number of classes."""
    cls: list = [q in finals for q in range(len(rows[0]))]
    while True:
        sig: dict[tuple, int] = {}
        get = cls.__getitem__
        new = [sig.setdefault(key, len(sig))
               for key in zip(cls, *[map(get, row) for row in rows])]
        if new == cls:
            return new
        cls = new


def minimize(d: Dfa) -> Dfa:
    """Unique minimal complete DFA, canonically numbered.

    Moore partition refinement on all states: a state's class depends only
    on the states reachable from it, so unreachable states split no
    reachable ones.  The quotient's classes are then numbered by BFS from
    the initial state's class, letters in alphabet order, which is
    reachable_trim's order, and only the reachable classes are kept.
    """
    rows = [d.delta[a].images for a in d.alphabet]
    cls = _moore_classes(rows, d.finals)
    rep = [0] * (max(cls) + 1)
    for q in range(d.n - 1, -1, -1):
        rep[cls[q]] = q
    quotient = [[cls[row[q]] for q in rep] for row in rows]
    order = _reachable(quotient, cls[d.initial])
    index = {c: i for i, c in enumerate(order)}
    delta = {a: Transformation(tuple(index[row[c]] for c in order))
             for a, row in zip(d.alphabet, quotient)}
    finals = frozenset(index[cls[f]] for f in d.finals if cls[f] in index)
    return Dfa(len(order), d.alphabet, delta, 0, finals)


def determinize(m: Nfa) -> Dfa:
    """Accessible subset construction; the empty subset is a non-final sink.

    Subsets are numbered in BFS discovery order, letters in alphabet order.
    """
    start = frozenset(m.initials)
    index: dict[frozenset[int], int] = {start: 0}
    subsets = [start]
    rows: dict[str, list[int]] = {a: [] for a in m.alphabet}
    for s in subsets:  # the list grows while it is walked
        for a in m.alphabet:
            eta_a = m.eta[a]
            succ = frozenset(q for p in s for q in eta_a[p])
            if succ not in index:
                index[succ] = len(subsets)
                subsets.append(succ)
            rows[a].append(index[succ])
    delta = {a: Transformation(tuple(rows[a])) for a in m.alphabet}
    finals = frozenset(i for i, s in enumerate(subsets) if s & m.finals)
    return Dfa(len(subsets), m.alphabet, delta, 0, finals)


def reverse(d: Dfa) -> Nfa:
    """Reverse every edge; initials = old finals, finals = {old initial}."""
    pred: dict[str, list[set[int]]] = {a: [set() for _ in range(d.n)]
                                       for a in d.alphabet}
    for a in d.alphabet:
        for p in range(d.n):
            pred[a][d.delta[a](p)].add(p)
    eta = {a: tuple(frozenset(s) for s in pred[a]) for a in d.alphabet}
    return Nfa(d.n, d.alphabet, eta, frozenset(d.finals), frozenset({d.initial}))


def complement(d: Dfa) -> Dfa:
    return Dfa(d.n, d.alphabet, d.delta, d.initial,
               frozenset(range(d.n)) - d.finals)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality via synchronized BFS over the pair graph.

    Alphabets must consist of the same letters (order may differ).
    """
    if set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(d1.alphabet)} vs {sorted(d2.alphabet)}"
        )
    seen = {(d1.initial, d2.initial)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        if (p in d1.finals) != (q in d2.finals):
            return False
        for a in d1.alphabet:
            nxt = (d1.delta[a](p), d2.delta[a](q))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def left_ideal_closure(d: Dfa) -> Dfa:
    """Minimal DFA of {uv : v in L(d)}: all words with a suffix in L(d).

    A fresh initial state loops on every letter while also entering d at
    delta(q0, a); it is final iff q0 is, so the empty suffix is covered.
    """
    fresh = d.n
    eta: dict[str, tuple[frozenset[int], ...]] = {}
    for a in d.alphabet:
        rows = [frozenset({d.delta[a](q)}) for q in range(d.n)]
        rows.append(frozenset({fresh, d.delta[a](d.initial)}))
        eta[a] = tuple(rows)
    finals = set(d.finals)
    if d.initial in d.finals:
        finals.add(fresh)
    nfa = Nfa(d.n + 1, d.alphabet, eta, frozenset({fresh}), frozenset(finals))
    return minimize(determinize(nfa))


# ---------------------------------------------------------------------------
# Interchange formats


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise FormatError(message, path)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is no 1


def parse_dfa_json(source: str | Mapping) -> Dfa:
    """Parse the JSON DFA format, rejecting incomplete or out-of-range input.

    Expected shape::

        {"states": 3, "alphabet": ["a", "b"],
         "transitions": {"a": [1, 2, 2], "b": [0, 1, 0]},
         "initial": 0, "finals": [2]}
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    _require(isinstance(obj, dict), "expected a JSON object", "")
    for key in ("states", "alphabet", "transitions", "initial", "finals"):
        _require(key in obj, "missing field", key)
    n = obj["states"]
    _require(_is_int(n) and n >= 1, "must be a positive integer", "states")
    alph = obj["alphabet"]
    _require(isinstance(alph, list) and alph, "must be a nonempty list", "alphabet")
    for i, a in enumerate(alph):
        _require(isinstance(a, str) and a, "letters must be nonempty strings",
                 f"alphabet[{i}]")
    _require(len(set(alph)) == len(alph), "duplicate letters", "alphabet")
    trans = obj["transitions"]
    _require(isinstance(trans, dict), "must be an object", "transitions")
    extra = set(trans) - set(alph)
    _require(not extra, f"unknown letters {sorted(extra)}", "transitions")
    delta = {}
    for a in alph:
        _require(a in trans, "missing row for letter", f"transitions.{a}")
        row = trans[a]
        _require(isinstance(row, list), "must be a list", f"transitions.{a}")
        _require(len(row) == n, f"expected {n} entries, got {len(row)}",
                 f"transitions.{a}")
        for q, r in enumerate(row):
            _require(_is_int(r) and 0 <= r < n,
                     f"target {r!r} not a state in 0..{n - 1}",
                     f"transitions.{a}[{q}]")
        delta[a] = Transformation(tuple(row))
    init = obj["initial"]
    _require(_is_int(init) and 0 <= init < n,
             f"not a state in 0..{n - 1}", "initial")
    finals = obj["finals"]
    _require(isinstance(finals, list), "must be a list", "finals")
    for i, f in enumerate(finals):
        _require(_is_int(f) and 0 <= f < n,
                 f"not a state in 0..{n - 1}", f"finals[{i}]")
    _require(len(set(finals)) == len(finals), "duplicate states", "finals")
    return Dfa(n, tuple(alph), delta, init, frozenset(finals))


def emit_dfa_json(d: Dfa) -> str:
    obj = {
        "states": d.n,
        "alphabet": list(d.alphabet),
        "transitions": {a: list(d.delta[a].images) for a in d.alphabet},
        "initial": d.initial,
        "finals": sorted(d.finals),
    }
    return json.dumps(obj, indent=2) + "\n"


def to_dot(d: Dfa) -> str:
    """Graphviz rendering: doublecircle finals, point-node arrow into initial,
    parallel edges merged with comma-joined labels."""
    lines = ["digraph dfa {", "  rankdir=LR;",
             '  __start [shape=point, label=""];',
             f"  __start -> {d.initial};"]
    for q in range(d.n):
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    edges: dict[tuple[int, int], list[str]] = {}
    for a in d.alphabet:
        for p in range(d.n):
            edges.setdefault((p, d.delta[a](p)), []).append(a)
    for (p, q), labels in sorted(edges.items()):
        lines.append(f'  {p} -> {q} [label="{",".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
