"""Transition semigroups and the syntactic complexity measure.

The transition semigroup of a DFA is the closure of its letter actions
under composition.  For a minimal DFA this is the syntactic semigroup of
the language, so sigma(L) = its size and mu(L) = sigma + 1 exactly when no
nonempty word acts as the identity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
    """Closure of the letter actions: its element set and level sizes.

    image_set holds the elements as image codes: bytes (one byte per
    state) up to 256 states, else tuples; both index to ints.  levels[i]
    is the number of elements whose shortest word has length i + 1.
    letters are the letter actions in the encoding of _encode, in
    alphabet order, from which first_words finds shortest words on
    demand (_words); elements and words are built lazily, as
    Transformations.
    """

    n: int
    alphabet: tuple[str, ...]
    letters: tuple
    image_set: set[bytes] | set[tuple[int, ...]]
    levels: tuple[int, ...]
    sigma: int
    mu: int
    contains_identity_as_nonempty_word: bool

    @cached_property
    def elements(self) -> frozenset[Transformation]:
        return frozenset(map(Transformation, self.image_set))

    @cached_property
    def words(self) -> dict[Transformation, tuple[str, ...]]:
        return self.first_words(self.sigma)

    def first_words(self, count: int) -> dict[Transformation, tuple[str, ...]]:
        """words of the first count elements only, in BFS order (by
        length, then letter by letter in alphabet order): the BFS goes
        only that far, recording each word as it finds the element."""
        images, words = _words(self.letters, self.n, self.alphabet, count)
        return dict(zip(map(Transformation, images[:count]), words))


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


def _then(n: int):
    """compose(t, g), the element t followed by the letter code g, for
    the encodings of an n-state closure: bytes.translate, composed and
    hashed in C, while a state number fits in a byte, else itemgetter."""
    return bytes.translate if n <= 256 else lambda t, g: itemgetter(*t)(g)


def _closure(letters: Sequence, n: int, cap: int | None
             ) -> tuple[set, tuple[int, ...]]:
    """The element set of the closure of n-state letters, each already in
    the encoding of _encode, and the size of each level: level i holds
    the elements whose shortest word has length i + 1.  Given a cap, the
    closure stops at the element that makes cap + 1 and raises
    CapExceededError; None sets no cap (there are at most n^n).

    Only a set is kept, so the BFS goes one level at a time and takes
    each letter through the whole level: every element of the next level
    is an element of this one followed by a letter, whichever order
    these products are formed in.  No words are recorded; _words finds
    them when they are asked for.  _extend, the search's closure, works
    the same way but stays apart: the search's re-check of a witness
    takes its sigma from this one."""
    compose, limit = _then(n), sys.maxsize if cap is None else cap
    seen: set = set()
    levels: list[int] = []
    level = [_identity(n)]  # the empty word, whose children are the letters
    while True:
        fresh = []
        for g in letters:
            for t in level:
                c = compose(t, g)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
                    if len(seen) > limit:
                        raise CapExceededError(cap, len(seen))
        if not fresh:
            return seen, tuple(levels)
        levels.append(len(fresh))
        level = fresh


def _words(letters: Sequence, n: int, alphabet: Sequence[str], count: int
           ) -> tuple[list, list[tuple[str, ...]]]:
    """The closure of n-state letters, in the encoding of _encode, with
    the shortest word of each element, as far as its first count elements
    (or a few more): images and words, in shortest-word order, each word
    over alphabet, the letters' names.

    The BFS walks the growing element list, after the empty word, and
    takes each element in turn through every letter, since in that order
    the element's word followed by the letter is a shortest word
    (lex-least among them) of every element first found so.  It stops
    once the children of an element bring the count to count or more, so
    it holds at most count + len(letters) elements."""
    compose = _then(n)
    steps = tuple(zip(letters, ((a,) for a in alphabet)))
    seen = set()
    images: list = []
    words: list[tuple[str, ...]] = []
    for t, word in zip(chain((_identity(n),), images), chain(((),), words)):
        if len(images) >= count:
            break
        for g, a in steps:
            c = compose(t, g)
            if c not in seen:
                seen.add(c)
                images.append(c)
                words.append(word + a)
    return images, words


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


def _sigma(rows: Sequence[Sequence[int]], n: int) -> int:
    """The size of the closure of the n-state image rows, each encoded
    for _closure here: the sigma of transition_semigroup, with no
    SemigroupResult built."""
    return len(_closure(tuple(map(_encode, rows)), n, None)[0])


def transition_semigroup(d: Dfa, cap: int | None = None) -> SemigroupResult:
    """Closure of the letter actions of d under word-order composition,
    each letter encoded for the closure once: sigma, mu and the level
    sizes are read off its element set, and no word is built.

    A cap makes the closure abort with CapExceededError at the element
    that makes cap + 1 (defensive for large n).  None sets no cap: the
    closure has at most n^n elements anyway.
    """
    letters = tuple(_encode(d.delta[a].images) for a in d.alphabet)
    found, levels = _closure(letters, d.n, cap)
    sigma, has_ident = len(found), _identity(d.n) in found
    return SemigroupResult(d.n, d.alphabet, letters, found, levels, sigma,
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
    """Element count by shortest-witness length: the closure's level sizes."""
    return dict(enumerate(result.levels, 1))
