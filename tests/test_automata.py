"""DFA/NFA constructions, minimization, reversal, formats."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import binary_3_sweep, dfa, random_dfas
from syncomp import (AlphabetMismatchError, Dfa, FormatError, Nfa,
                     Semiautomaton, SizeMismatchError, Transformation,
                     complement, determinize, emit_dfa_json, equivalent,
                     left_ideal_closure, left_ideal_witness, minimize,
                     parse_dfa_json, reachable_trim, reverse,
                     right_ideal_witness, to_dot, two_sided_witness)
from syncomp.automata import _moore_classes


# ---------------------------------------------------------------------------
# structure checks


def test_dfa_validation():
    with pytest.raises(ValueError):
        dfa([[0, 1]], [0], alphabet=("a", "a"))
    with pytest.raises(ValueError):
        dfa([[0, 1]], [2])
    with pytest.raises(ValueError):
        dfa([[0, 1]], [0], initial=5)
    with pytest.raises(SizeMismatchError):
        Dfa(3, ("a",), {"a": Transformation((0, 1))}, 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), {"b": Transformation((0, 1))}, 0, frozenset())
    # a semiautomaton needs a state and a letter
    with pytest.raises(ValueError, match="at least one state"):
        Semiautomaton(0, ("a",), {"a": Transformation((0,))})
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        Semiautomaton(1, (), {})
    # an NFA needs a state, eta on exactly its letters, and rows of n sets
    none = frozenset()
    with pytest.raises(ValueError, match="at least one state"):
        Nfa(0, ("a",), {"a": ()}, none, none)
    with pytest.raises(ValueError, match="exactly the alphabet"):
        Nfa(1, ("a",), {"b": (none,)}, none, none)
    with pytest.raises(SizeMismatchError):
        Nfa(2, ("a",), {"a": (none,)}, none, none)


def test_semiautomaton_acceptor_round_trip():
    s = Semiautomaton(2, ("a",), {"a": Transformation((1, 0))})
    d = s.with_acceptor(0, {1})
    assert d.finals == frozenset({1})
    assert d.semiautomaton() == s


def test_run_accepts_transformation_of():
    d = dfa([[1, 2, 2], [0, 0, 1]], [2])
    assert d.run("ab") == 0
    assert d.accepts("aa")
    assert not d.accepts("ab")
    assert d.transformation_of("ab").images == (0, 1, 1)
    assert d.transformation_of("").images == (0, 1, 2)


def test_restrict_keeps_alphabet_order():
    d = dfa([[1, 0], [0, 1], [1, 1]], [1])
    r = d.restrict("ca")
    assert r.alphabet == ("a", "c")
    with pytest.raises(ValueError, match=r"letters \['x'\] not in alphabet abc$"):
        d.restrict("x")
    with pytest.raises(ValueError):
        d.restrict("")


# ---------------------------------------------------------------------------
# trimming and minimization


def test_reachable_trim_drops_unreachable():
    d = dfa([[0, 2, 1], [0, 1, 2]], [2])  # states 1, 2 unreachable from 0
    t = reachable_trim(d)
    assert t.n == 1
    assert t.finals == frozenset()


def test_reachable_trim_renumbers_in_bfs_order():
    # BFS from 0 meets 0, 1, 3 (a then b), then 2; depth-first preorder
    # would keep 0, 1, 2, 3.  minimize and the emitted JSON use this order
    d = dfa([[1, 2, 0, 0], [3, 0, 0, 0]], [2])
    t = reachable_trim(d)
    assert [t.delta[a].images for a in t.alphabet] == [(1, 3, 0, 0),
                                                       (2, 0, 0, 0)]
    assert t.finals == frozenset({3})
    assert t.initial == 0


def test_minimize_merges_equivalent_states():
    # states 1 and 2 accept the same residual language
    d = dfa([[1, 3, 3, 3], [2, 3, 3, 3]], [3])
    m = minimize(d)
    assert m.n == 3
    assert equivalent(m, d)


def test_minimize_is_idempotent_and_canonical():
    d = dfa([[1, 3, 3, 3], [2, 3, 3, 3]], [3])
    m = minimize(d)
    assert minimize(m) == m


def test_minimize_one_class_languages():
    none = dfa([[1, 0]], [])
    assert minimize(none).n == 1
    assert minimize(none).finals == frozenset()
    everything = dfa([[1, 0]], [0, 1])
    assert minimize(everything).n == 1
    assert minimize(everything).finals == frozenset({0})


@given(random_dfas())
def test_minimize_preserves_language(d):
    m = minimize(d)
    assert m.n <= d.n
    assert equivalent(m, d)


def _minimize_by_trims(d: Dfa) -> Dfa:
    """Reference minimization: trim, refine, take the quotient, trim it."""
    d = reachable_trim(d)
    rows = [d.delta[a].images for a in d.alphabet]
    cls = _moore_classes(rows, d.finals)
    rep = {c: q for q, c in reversed(list(enumerate(cls)))}
    delta = {a: Transformation(tuple(cls[row[rep[c]]] for c in sorted(rep)))
             for a, row in zip(d.alphabet, rows)}
    return reachable_trim(Dfa(len(rep), d.alphabet, delta, cls[d.initial],
                              frozenset(cls[f] for f in d.finals)))


def test_minimize_equals_the_trimmed_quotient():
    # refining every state, reachable or not, and numbering the quotient
    # by BFS gives what two trims around the quotient give
    for d in binary_3_sweep():
        for initial in range(3):
            e = dataclasses.replace(d, initial=initial)
            assert minimize(e) == _minimize_by_trims(e), e


@given(random_dfas(max_n=6, min_k=1, max_k=3, min_n=1),
       st.integers(0, 5))
def test_minimize_equals_the_trimmed_quotient_at_random(d, initial):
    d = dataclasses.replace(d, initial=initial % d.n)
    assert minimize(d) == _minimize_by_trims(d)


@pytest.mark.parametrize("family", [right_ideal_witness, left_ideal_witness,
                                    two_sided_witness])
def test_minimize_builds_one_transformation_per_letter(monkeypatch, family):
    # an already minimal DFA is built once, not trimmed and re-trimmed
    d = _minimize_by_trims(family(5))
    assert d.n == 5
    built = []
    real = Transformation.__post_init__

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(Transformation, "__post_init__", counted)
    assert minimize(d) == d
    assert len(built) <= len(d.alphabet)


# ---------------------------------------------------------------------------
# reversal and determinization


def test_reverse_swaps_roles():
    d = dfa([[1, 2, 2], [0, 1, 2]], [2])
    r = reverse(d)
    assert r.initials == frozenset({2})
    assert r.finals == frozenset({0})
    assert r.eta["a"][1] == frozenset({0})  # a: 0 -> 1 becomes 1 -> 0


def test_determinize_empty_start_is_sink():
    m = Nfa(2, ("a",), {"a": (frozenset(), frozenset({1}))},
            frozenset(), frozenset({1}))
    d = determinize(m)
    assert d.n == 1
    assert d.finals == frozenset()


def test_reverse_then_determinize_counts_states():
    # the reversed chain DFA needs one subset per suffix set
    d = dfa([[1, 2, 2], [0, 1, 2]], [2])
    rd = determinize(reverse(d))
    assert equivalent(minimize(rd), rd)  # subset DFA already minimal here
    assert sorted(w for w in ["aa", "ab", "ba"] if rd.accepts(w)) == ["aa"]


@given(random_dfas())
def test_double_reversal_reaches_the_minimal_dfa(d):
    # determinizing the reversal of an accessible DFA gives a minimal DFA,
    # so doing it twice rebuilds the canonical minimal DFA of the language
    once = determinize(reverse(reachable_trim(d)))
    twice = determinize(reverse(once))
    assert twice == minimize(d)


def test_complement_flips_acceptance():
    d = dfa([[1, 1], [0, 1]], [1])
    c = complement(d)
    assert c.finals == frozenset({0})
    assert c.accepts("")
    assert not c.accepts("a")


def test_equivalent_requires_same_letters():
    with pytest.raises(AlphabetMismatchError):
        equivalent(dfa([[0, 1]], [1]), dfa([[0, 1]], [1], alphabet=("b",)))


def test_equivalent_positive_negative():
    d1 = dfa([[1, 1], [0, 0]], [1])
    d2 = dfa([[1, 1], [0, 0]], [1], initial=0)
    assert equivalent(d1, d2)
    assert not equivalent(d1, complement(d2))


# ---------------------------------------------------------------------------
# left-ideal closure


def test_left_ideal_closure_smallest_example():
    # L = a over {a, b}; closure is (a+b)*a
    d = dfa([[1, 2, 2], [2, 2, 2]], [1])
    c = left_ideal_closure(d)
    assert c.accepts("a")
    assert c.accepts("ba")
    assert c.accepts("aba")
    assert not c.accepts("")
    assert not c.accepts("ab")
    assert minimize(c) == c


def test_left_ideal_closure_is_a_fixed_point():
    d = dfa([[1, 2, 2], [2, 2, 2]], [1])
    c = left_ideal_closure(d)
    assert equivalent(left_ideal_closure(c), c)


def test_left_ideal_closure_keeps_empty_language_empty():
    d = dfa([[1, 1]], [])
    c = left_ideal_closure(d)
    assert c.n == 1
    assert c.finals == frozenset()


@given(random_dfas(max_n=3))
def test_left_ideal_closure_contains_language_and_is_closed(d):
    c = left_ideal_closure(d)
    for word in ["", "a", "b", "ab", "ba", "aab", "bab", "abab"]:
        if d.accepts(word):
            assert c.accepts(word)
        if c.accepts(word):
            assert c.accepts("a" + word) and c.accepts("b" + word)


# ---------------------------------------------------------------------------
# interchange formats


def test_json_round_trip():
    d = dfa([[1, 2, 0], [0, 0, 2]], [2])
    assert parse_dfa_json(emit_dfa_json(d)) == d


def test_parse_accepts_mapping():
    obj = {"states": 2, "alphabet": ["a"], "transitions": {"a": [1, 1]},
           "initial": 0, "finals": [1]}
    assert parse_dfa_json(obj).n == 2


@pytest.mark.parametrize("mutate, path", [
    (lambda o: o.pop("states"), "states"),
    (lambda o: o.update(states=0), "states"),
    (lambda o: o.update(alphabet=[]), "alphabet"),
    (lambda o: o.update(alphabet=["a", "a"]), "alphabet"),
    (lambda o: o["transitions"].pop("a"), "transitions.a"),
    (lambda o: o["transitions"].update(a=[1]), "transitions.a"),
    (lambda o: o["transitions"].update(a=[1, 5]), "transitions.a[1]"),
    (lambda o: o.update(initial=9), "initial"),
    (lambda o: o.update(finals=[2]), "finals[0]"),
])
def test_parse_reports_offending_path(mutate, path):
    obj = {"states": 2, "alphabet": ["a"], "transitions": {"a": [1, 1]},
           "initial": 0, "finals": [1]}
    mutate(obj)
    with pytest.raises(FormatError) as info:
        parse_dfa_json(obj)
    assert info.value.path == path


@pytest.mark.parametrize("mutate, path", [
    (lambda o: o.update(states=True), "states"),
    (lambda o: o["transitions"].update(a=[1, True]), "transitions.a[1]"),
    (lambda o: o.update(initial=False), "initial"),
    (lambda o: o.update(finals=[True]), "finals[0]"),
    (lambda o: o.update(finals=[1, 1]), "finals"),
])
def test_parse_rejects_booleans_and_duplicate_finals(mutate, path):
    # JSON true/false are Python bools, which isinstance(_, int) accepts
    obj = {"states": 2, "alphabet": ["a"], "transitions": {"a": [1, 1]},
           "initial": 0, "finals": [1]}
    mutate(obj)
    with pytest.raises(FormatError) as info:
        parse_dfa_json(obj)
    assert info.value.path == path


def test_parse_rejects_bad_json_text():
    with pytest.raises(FormatError):
        parse_dfa_json("{not json")


def test_dot_output_shape():
    d = dfa([[1, 1], [0, 1]], [1])
    dot = to_dot(d)
    assert dot.startswith("digraph dfa {")
    assert "__start -> 0;" in dot
    assert "1 [shape=doublecircle];" in dot
    assert '0 -> 1 [label="a"];' in dot
    assert '1 -> 1 [label="a,b"];' in dot
    # letters are any nonempty strings, so \ and " are escaped
    dot = to_dot(dfa([[1, 1], [0, 1]], [1], alphabet=['a"b', "c\\"]))
    assert '0 -> 1 [label="a\\"b"];' in dot
    assert '1 -> 1 [label="a\\"b,c\\\\"];' in dot
