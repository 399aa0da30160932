"""Transition semigroups, sigma/mu, witness words, oracle agreement."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import dfa, random_dfas
from syncomp import (CapExceededError, Dfa, Transformation, classify,
                     identity, left_ideal_witness, minimize,
                     right_ideal_witness, sigma_of_language, small_witness,
                     transition_semigroup, two_sided_witness, witness_words,
                     word_bfs_sigma, word_length_histogram)
from syncomp.semigroup import _closure, _encode, _extend


def test_right_witness_semigroup_is_everything_fixing_the_sink():
    sg = transition_semigroup(right_ideal_witness(4))
    assert sg.sigma == 64
    assert all(t(3) == 3 for t in sg.elements)
    assert sg.contains_identity_as_nonempty_word
    assert sg.mu == 64


def test_left_witness_semigroup_n3():
    sg = transition_semigroup(left_ideal_witness(3))
    assert sg.sigma == 11
    assert sg.mu == 11  # the identity arises from a nonempty word
    assert witness_words(sg, identity(3)) == "aa"
    assert witness_words(sg, Transformation((0, 0, 2))) == "ada"


def test_witness_words_on_restricted_alphabet():
    # dropping letter a shifts the shortest witnesses but not the size
    sg = transition_semigroup(left_ideal_witness(3, "bcde"))
    assert sg.sigma == 11
    assert witness_words(sg, identity(3)) == "bb"
    word = witness_words(sg, Transformation((0, 0, 2)))
    assert word == "bdb"
    assert len(word) <= 3


def test_two_sided_witness_sigma():
    assert sigma_of_language(two_sided_witness(4)) == 25


def test_unary_semigroup_and_mu_rule():
    # L = a+ has a one-element semigroup but no neutral nonempty word
    sg = transition_semigroup(dfa([[1, 1]], [1]))
    assert sg.sigma == 1
    assert not sg.contains_identity_as_nonempty_word
    assert sg.mu == 2


def test_sigma_of_language_minimizes_first():
    # states 1 and 2 are duplicates; sigma must not see them separately
    redundant = dfa([[1, 3, 3, 3], [2, 3, 3, 3]], [3])
    m = minimize(redundant)
    assert m.n == 3
    assert sigma_of_language(redundant) == 2
    assert word_bfs_sigma(m) == 2


def test_histogram_counts_by_shortest_witness_length():
    sg = transition_semigroup(left_ideal_witness(3))
    hist = word_length_histogram(sg)
    assert hist == {1: 4, 2: 5, 3: 2}
    assert sum(hist.values()) == sg.sigma
    distinct_letter_actions = len({sg.words[t] for t in sg.elements
                                   if len(sg.words[t]) == 1})
    assert hist[1] == distinct_letter_actions


def test_recorded_words_reproduce_their_elements():
    witness = left_ideal_witness(3)
    sg = transition_semigroup(witness)
    lengths = []
    for t, word in sg.words.items():
        assert word, "semigroup elements need nonempty witness words"
        assert witness.transformation_of(word) == t
        lengths.append(len(word))
    assert min(lengths) == 1  # the letters themselves come first


def test_witness_words_rejects_foreign_element():
    sg = transition_semigroup(dfa([[1, 1]], [1]))
    with pytest.raises(ValueError):
        witness_words(sg, Transformation((0, 1)))


def test_cap_aborts_closure():
    with pytest.raises(CapExceededError) as info:
        transition_semigroup(right_ideal_witness(4), cap=10)
    assert info.value.cap == 10
    # the cap is checked once an element's children are in: 11 found
    assert info.value.partial_count == 11
    assert info.value.partial_count > info.value.cap
    assert "found 11 elements" in str(info.value)


def _plain_bfs(gens):
    """The closure as a textbook BFS on image tuples: the identity's
    children first, each element followed by every letter in order."""
    n = len(gens[0])
    queue, seen = [(-1, tuple(range(n)))], set()
    images, parent, last = [], [], []
    for i, t in queue:
        for a, g in enumerate(gens):
            c = tuple(g[q] for q in t)
            if c not in seen:
                seen.add(c)
                queue.append((len(images), c))
                images.append(bytes(c))
                parent.append(i)
                last.append(a)
    return images, parent, last


@st.composite
def generator_tuples(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    letter = st.tuples(*[st.integers(0, n - 1)] * n)
    return tuple(draw(letter) for _ in range(k))


@settings(deadline=None)
@given(generator_tuples())
def test_closure_extends_the_closure_of_a_prefix(gens):
    n = len(gens[0])
    cap, codes = n ** n, [_encode(g) for g in gens]
    plain = _closure(codes, n, cap)
    # the shortest-word BFS, byte for byte
    assert plain == _plain_bfs(gens)
    # the element set, extended from the prefix's, which is copied, not
    # grown
    base = set(_closure(codes[:-1], n, cap)[0])
    kept = set(base)
    assert _extend(codes, n, base) == set(plain[0])
    assert base == kept
    # letter by letter from the empty closure of no letters
    grown = frozenset()
    for i in range(1, len(gens) + 1):
        grown = _extend(codes[:i], n, grown)
    assert grown == set(plain[0])


def test_default_cap_is_never_hit():
    # n^n is an upper bound on any transition semigroup, so no abort
    assert transition_semigroup(right_ideal_witness(5)).sigma == 625


def test_sigma_and_mu_build_no_transformations(monkeypatch):
    # classify reads sigma and mu from the closure's image tuples; only the
    # words/elements views wrap elements (sigma is 6^5 = 7776 here)
    built = []
    real = Transformation.__post_init__

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(Transformation, "__post_init__", counted)
    report = classify(right_ideal_witness(6))
    assert report.sigma == 7776
    assert len(built) < 1000


@pytest.mark.parametrize("n, encoding", [
    (1, bytes), (255, bytes), (256, bytes), (257, tuple), (300, tuple),
])
def test_closure_encoding_switches_above_256_states(n, encoding):
    # a cyclic shift and a constant map: the n powers of the shift and the
    # n constants, so sigma = mu = 2n (one element at n = 1, where both
    # letters are the identity)
    shift = Transformation(tuple((q + 1) % n for q in range(n)))
    d = Dfa(n, ("a", "b"), {"a": shift, "b": Transformation((0,) * n)}, 0,
            frozenset({0}))
    sg = transition_semigroup(d)
    assert sg.sigma == sg.mu == (2 * n if n > 1 else 1)
    assert type(sg.images[0]) is encoding
    for t, word in sg.words.items():
        assert d.transformation_of(word) == t


@settings(deadline=None)
@given(random_dfas(max_n=4, min_k=1, max_k=3))
def test_closure_agrees_with_word_bfs_and_its_words(d):
    m = minimize(d)
    sg = transition_semigroup(m)
    try:  # the oracle's work is exponential in the longest shortest word;
        # about 3 % of these DFAs need more than 20k words and are skipped
        oracle = word_bfs_sigma(m, max_words=20_000)
    except RuntimeError:
        reject()
    assert sg.sigma == oracle
    for t, word in sg.words.items():
        assert m.transformation_of(word) == t
    hist = word_length_histogram(sg)
    assert hist == dict(sorted(Counter(len(w)
                                       for w in sg.words.values()).items()))
    assert sum(hist.values()) == sg.sigma


@pytest.mark.parametrize("build, expected", [
    (lambda: left_ideal_witness(3), 11),
    (lambda: small_witness("right", 4, 2), 31),
    (lambda: small_witness("two_sided", 3, 2), 5),
])
def test_word_bfs_oracle_agrees(build, expected):
    d = minimize(build())
    assert sigma_of_language(d) == expected
    assert word_bfs_sigma(d) == expected


def test_word_bfs_budget():
    with pytest.raises(RuntimeError):
        word_bfs_sigma(minimize(left_ideal_witness(4)), max_words=50)
