"""Transition semigroups and the syntactic complexity measure.

The transition semigroup of a DFA is the closure of its letter actions
under composition.  For a minimal DFA this is the syntactic semigroup of
the language, so sigma(L) = its size and mu(L) = sigma + 1 exactly when no
nonempty word acts as the identity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Sequence

from .automata import Dfa, minimize
from .errors import CapExceededError
from .transform import Transformation

__all__ = [
    "SemigroupResult",
    "transition_semigroup",
    "sigma_of_language",
    "witness_words",
    "word_length_histogram",
]


@dataclass(frozen=True)
class SemigroupResult:
    """Closure of the letter actions as a parent-pointer Cayley tree.

    images lists the elements in BFS order: element i is element parent[i]
    followed by letter alphabet[last[i]], or that letter alone at parent -1.
    An image is bytes (one byte per state) up to 256 states, else a tuple;
    both index to ints.  words (each element's earliest BFS word) and
    elements are built lazily, as Transformations.
    """

    n: int
    alphabet: tuple[str, ...]
    images: list[bytes] | list[tuple[int, ...]]
    parent: list[int]
    last: list[int]
    sigma: int
    mu: int
    contains_identity_as_nonempty_word: bool

    @cached_property
    def elements(self) -> frozenset[Transformation]:
        return frozenset(map(Transformation, self.images))

    @cached_property
    def words(self) -> dict[Transformation, tuple[str, ...]]:
        return self.first_words(self.sigma)

    def first_words(self, count: int) -> dict[Transformation, tuple[str, ...]]:
        """words of the first count elements only, in BFS order: parents
        come before children, so no other element's word is needed."""
        chain: list[tuple[str, ...]] = []
        for p, a in zip(islice(self.parent, count), self.last):
            chain.append((chain[p] if p >= 0 else ()) + (self.alphabet[a],))
        return dict(zip(map(Transformation, self.images), chain))


def _identity(n: int) -> bytes | tuple[int, ...]:
    """The identity in the element encoding of an n-state closure: bytes
    while every state number fits in a byte, else a tuple."""
    return bytes(range(n)) if n <= 256 else tuple(range(n))


def _encode(g: Sequence[int]) -> bytes | tuple[int, ...]:
    """A letter's image tuple in the closure's letter encoding.  Up to 256
    states it is g padded to a 256-byte translate table, so t.translate
    of it is the element t followed by g; the padding is never read, as
    every byte of an element is below n.  Beyond that it is the tuple
    itself, and itemgetter(*t) of it is t followed by g."""
    return bytes(g).ljust(256, b"\0") if len(g) <= 256 else tuple(g)


def _closure(letters: Sequence, n: int, cap: int | None
             ) -> tuple[list, list[int], list[int]]:
    """BFS closure of n-state letters, each already in the encoding of
    _encode, so a caller that closes the same letter many times encodes
    it once: the images, parent and last of a SemigroupResult, with the
    elements in shortest-word order, each being element parent[i]
    followed by letter last[i].  Given a cap, more than cap elements
    raise CapExceededError; None sets no cap (there are at most n^n).

    The BFS walks the growing element list, after the empty word (index
    -1, whose children are the letters), and takes each element in turn
    through every letter, since that order is what makes each parent
    chain a shortest word (lex-least among them).  Up to 256 states an
    element is bytes and t.translate(g) is t followed by g: composed and
    hashed in C.  Beyond that a state number does not fit in a byte, so
    elements are tuples and itemgetter(*t)(g) is t followed by g."""
    small = n <= 256
    indexed = tuple(enumerate(letters))
    seen = set()
    elements: list = []
    parent: list[int] = []
    last: list[int] = []
    for i, t in enumerate(chain((_identity(n),), elements), -1):
        then = t.translate if small else itemgetter(*t)
        for a, g in indexed:
            c = then(g)
            if c not in seen:
                seen.add(c)
                elements.append(c)
                parent.append(i)
                last.append(a)
        if cap is not None and len(elements) > cap:
            raise CapExceededError(cap, len(elements))
    return elements, parent, last


def _extend(letters: Sequence, n: int, base: set | frozenset) -> set:
    """The element set of the closure of n-state letters, given base, the
    element set of the closure of letters[:-1] (empty for no letters),
    which is left unchanged.  The letters are in the encoding of _encode,
    and only the search calls this, with n <= 7, so it takes the bytes
    encoding alone.  Every word that uses the last letter c is u c v
    with u over the other letters, so the new elements are the products
    s c, for s the empty word or an element of base, closed under all
    the letters (Froidure & Pin 1997).

    Only a set is returned, so the elements may be found in any order:
    one level of new elements at a time and each letter through the
    whole level, so the inner loop runs over the level instead of over
    the few letters."""
    seen = set(base)
    # base is closed under the other letters, so the empty word and its
    # elements only take the last letter; what is new takes them all.
    # The empty word followed by the last letter is its image: the first
    # n entries of its code
    g = letters[-1]
    c = g[:n]
    fresh = [] if c in seen else [c]
    seen.add(c)
    for s in base:
        c = s.translate(g)
        if c not in seen:
            seen.add(c)
            fresh.append(c)
    while fresh:  # one level of new elements, letter by letter
        level, fresh = fresh, []
        for g in letters:
            for s in level:
                c = s.translate(g)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
    return seen


def transition_semigroup(d: Dfa, cap: int | None = None) -> SemigroupResult:
    """BFS closure of the letter actions of d under word-order composition,
    each letter encoded for the closure once.

    A cap makes the closure abort with CapExceededError once more elements
    than that have been found (defensive for large n).  None sets no cap:
    the closure has at most n^n elements anyway.
    """
    images, parent, last = _closure(
        [_encode(d.delta[a].images) for a in d.alphabet], d.n, cap)
    sigma, has_ident = len(images), _identity(d.n) in images
    return SemigroupResult(d.n, d.alphabet, images, parent, last, sigma,
                           sigma if has_ident else sigma + 1, has_ident)


def sigma_of_language(d: Dfa) -> int:
    """Syntactic complexity: |transition semigroup of the minimal DFA|."""
    return transition_semigroup(minimize(d)).sigma


def witness_words(result: SemigroupResult, t: Transformation) -> str:
    """Shortest witness word for an element (lex-least by letter order),
    rendered as the concatenation of its letters."""
    try:
        return "".join(result.words[t])
    except KeyError:
        raise ValueError(f"{t} is not in the semigroup") from None


def word_length_histogram(result: SemigroupResult) -> dict[int, int]:
    """Element count by shortest-witness length: depth in the Cayley tree."""
    depth: list[int] = []
    for p in result.parent:
        depth.append(depth[p] + 1 if p >= 0 else 1)
    return dict(sorted(Counter(depth).items()))
