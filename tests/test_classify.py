"""Class membership, special quotients, bounds, behaviors, uniformity."""

from __future__ import annotations

import importlib
from collections import Counter
from functools import cache, partial
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings

from conftest import dfa, random_dfas
from syncomp import (Dfa, Semiautomaton, SearchTask, SizeMismatchError,
                     Transformation, all_behaviors_aperiodic, behavior_of,
                     classify, complement, cycle, equivalent, identity,
                     left_ideal_closure, left_ideal_witness,
                     left_witness_core, minimize, pair_graph_uniformity,
                     right_ideal_witness, ruled_out_count_brute,
                     ruled_out_count_formula, search_max_sigma,
                     transposition,
                     two_sided_witness, uniformly_minimal,
                     verify_theorem9_pairing)
from syncomp.classify import (_is_left_ideal, _is_right_ideal,
                              _left_ideal_pairs, _left_ideal_walk,
                              _right_ideal_walk)
from syncomp.search import FoundWitness, _reverify


# ---------------------------------------------------------------------------
# class membership on the witness families


def test_right_witness_classification():
    r = classify(right_ideal_witness(4))
    assert r.kappa == 4 and r.sigma == 64
    assert r.is_right_ideal and not r.is_left_ideal
    assert not r.is_two_sided_ideal
    assert not (r.is_prefix_closed or r.is_suffix_closed or r.is_factor_closed)
    assert r.has_sigma_star_q and not r.has_empty_q
    assert not r.l_uniquely_reachable
    assert r.bound == 64  # n^(n-1) via the single pinned coordinate
    assert r.sigma <= r.bound


def test_left_witness_classification():
    r = classify(left_ideal_witness(4))
    assert r.kappa == 4 and r.sigma == 67
    assert r.is_left_ideal and not r.is_right_ideal


def test_two_sided_witness_classification():
    r = classify(two_sided_witness(4))
    assert r.is_right_ideal and r.is_left_ideal and r.is_two_sided_ideal
    assert r.sigma == 25
    assert r.sigma <= r.bound


def test_closed_classes_are_complement_duals():
    r = classify(complement(right_ideal_witness(4)))
    assert r.is_prefix_closed and not r.is_right_ideal


def test_sigma_plus_is_a_two_sided_ideal():
    r = classify(dfa([[1, 1]], [1]))  # L = a+
    assert r.is_right_ideal and r.is_left_ideal and r.is_two_sided_ideal
    assert r.has_sigma_star_q and r.has_sigma_plus_q
    assert r.sigma == 1 and r.kappa == 2


def test_epsilon_language_is_closed_not_ideal():
    r = classify(dfa([[1, 1]], [0]))  # L = {empty word}
    assert not (r.is_right_ideal or r.is_left_ideal)
    assert r.is_prefix_closed and r.is_suffix_closed and r.is_factor_closed
    assert r.has_empty_q and r.has_epsilon_q
    assert not r.has_sigma_star_q


def test_empty_language():
    r = classify(dfa([[0, 1], [1, 0]], []))
    assert r.kappa == 1 and r.sigma == 1
    assert not (r.is_right_ideal or r.is_left_ideal or r.is_two_sided_ideal)
    assert r.is_prefix_closed and r.is_suffix_closed and r.is_factor_closed
    assert r.bound == 1


def test_universal_language():
    r = classify(dfa([[0, 1], [1, 0]], [0, 1]))
    assert r.kappa == 1 and r.sigma == 1
    assert r.is_right_ideal and r.is_left_ideal and r.is_two_sided_ideal
    assert r.is_prefix_closed and r.is_suffix_closed and r.is_factor_closed


def test_report_as_dict_round_trips_fields():
    d = classify(dfa([[1, 1]], [1])).as_dict()
    assert d["kappa"] == 2 and d["is_two_sided_ideal"] is True
    assert set(d) >= {"sigma", "bound", "l_uniquely_reachable"}


def _right_extension(d: Dfa) -> Dfa:
    """DFA of L·Σ*: lock into a fresh accepting sink once a final is hit.
    The right-ideal oracle: L is a right ideal iff it is equivalent."""
    top = d.n
    delta = {}
    for a in d.alphabet:
        row = [top if d.delta[a](q) in d.finals else d.delta[a](q)
               for q in range(d.n)]
        row.append(top)
        delta[a] = Transformation(tuple(row))
    initial = top if d.initial in d.finals else d.initial
    return Dfa(d.n + 1, d.alphabet, delta, initial, frozenset({top}))


def _walks(d: Dfa) -> tuple[bool, bool]:
    """(right, left) verdicts of classify's two product walks on d."""
    rows = tuple(d.delta[a].images for a in d.alphabet)
    return (_right_ideal_walk(rows, d.n, d.initial, d.finals),
            _left_ideal_walk(rows, d.n, d.initial, d.finals))


def test_left_ideal_twins_agree_on_every_minimal_binary_3(minimal_binary_3):
    # each minimal DFA and its complement (also minimal, every state
    # reachable, nonempty language) through three deciders per ideal side:
    # the structural test, the product walk and the oracle that builds the
    # automaton of Σ*L or L·Σ*; _is_right_ideal returns the structural
    # verdict after asserting that its walk agrees
    left_ideals = right_ideals = 0
    for d in minimal_binary_3:
        for m in (d, complement(d)):
            rows = tuple(m.delta[a].images for a in m.alphabet)
            right_walk, left_walk = _walks(m)
            left = _left_ideal_pairs(rows, m.n, m.initial, m.finals)
            assert left == left_walk == equivalent(m, left_ideal_closure(m)), m
            right = _is_right_ideal(rows, m.n, m.initial, m.finals)
            assert right == right_walk == equivalent(m, _right_extension(m)), m
            left_ideals += left
            right_ideals += right
    assert left_ideals == 140  # 70 left ideals, 70 suffix-closed complements
    assert right_ideals == 116  # 58 right ideals, 58 prefix-closed ones


@settings(deadline=None)
@given(random_dfas(max_n=6, min_k=1, max_k=3, min_n=1))
def test_ideal_walks_match_the_oracles(d):
    # on any complete DFA, minimal or not and with any finals (none
    # included), each walk decides its language equation; on the minimal
    # DFA of a nonempty language classify's structural test agrees
    right, left = _walks(d)
    assert right == equivalent(d, _right_extension(d))
    assert left == equivalent(d, left_ideal_closure(d))
    md = minimize(d)
    nonempty = bool(md.finals)
    args = (tuple(md.delta[a].images for a in md.alphabet), md.n,
            md.initial, md.finals)
    assert _is_right_ideal(*args) == (nonempty and right)
    assert _is_left_ideal(*args) == (nonempty and left)
    assert _walks(md) == (right, left)


def test_semantic_twins_determinize_nothing(monkeypatch):
    # the walks build no automaton: classify, and the re-check of a search
    # witness that runs it, reach neither determinize nor
    # left_ideal_closure through any binding of either
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    modules = [importlib.import_module(f"syncomp.{name}")
               for name in ("automata", "classify", "search")]
    for module in modules:
        for name in ("determinize", "left_ideal_closure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    assert classify(right_ideal_witness(6)).is_right_ideal
    witness = FoundWitness((Transformation((0, 0, 1, 3)),
                            Transformation((0, 1, 3, 3)),
                            Transformation((1, 2, 0, 3))), frozenset({3}))
    _reverify(SearchTask("right", 4, 3), witness, 61)  # right (4,3)'s least
    assert calls == []
    modules[0].left_ideal_closure(right_ideal_witness(3))  # counting is live
    assert calls == ["left_ideal_closure", "determinize"]


def _never(*args):
    return False


def _always(*args):
    return True


_FAULTS = {
    "left-structural": ("_left_ideal_pairs", _never, left_ideal_witness,
                        "left-ideal"),
    "left-semantic": ("_left_ideal_walk", _never, left_ideal_witness,
                      "left-ideal"),
    "right-structural": ("_is_sink", _never, right_ideal_witness,
                         "right-ideal"),
    "right-semantic": ("_right_ideal_walk", _never, right_ideal_witness,
                       "right-ideal"),
    "left-structural-true": ("_left_ideal_pairs", _always, right_ideal_witness,
                             "left-ideal"),
    "left-semantic-true": ("_left_ideal_walk", _always, right_ideal_witness,
                           "left-ideal"),
    "right-structural-true": ("_is_sink", _always, left_ideal_witness,
                              "right-ideal"),
    "right-semantic-true": ("_right_ideal_walk", _always, left_ideal_witness,
                            "right-ideal"),
}


@pytest.mark.parametrize(
    "target, fault, build, message, check",
    [(*fault, check) for check in ("classify", "reverify")
     for fault in _FAULTS.values()],
    ids=[name + suffix for suffix in ("", "-reverify") for name in _FAULTS])
def test_disagreeing_twins_raise(monkeypatch, target, fault, build, message,
                                 check):
    # each fault turns the verdict into its opposite in one twin only: a
    # member of the class is refused, or a language outside it admitted.
    # The re-check of a search witness meets the same twins on its rows:
    # a witness of right (4,3) or left (3,4), the family's own or the
    # other, put to the family of the faulty twin
    if check == "reverify":
        task, w, sigma = _search_witness(build)
        family = message.partition("-")[0]
        run = partial(_reverify, SearchTask(family, task.n, task.k), w, sigma)
    else:
        run = partial(classify, build(4))
    classify_module = importlib.import_module("syncomp.classify")
    monkeypatch.setattr(classify_module, target, fault)
    with pytest.raises(AssertionError, match=f"{message} checks disagree"):
        run()


@cache
def _search_witness(build) -> tuple:
    """(task, least witness, sigma) of right (4,3) for the right-ideal
    witness family and of left (3,4) for the left-ideal one."""
    result = search_max_sigma(
        SearchTask(*{right_ideal_witness: ("right", 4, 3),
                     left_ideal_witness: ("left", 3, 4)}[build]))
    return result.task, result.witnesses[0], result.max_sigma


# ---------------------------------------------------------------------------
# unique-reachability flags and the tightest sound bound


def test_unary_power_language_bound():
    # L = aaa a*: initial chain is uniquely reachable letter by letter
    r = classify(dfa([[1, 2, 3, 3]], [3]))
    assert r.sigma == 3
    assert r.has_sigma_star_q and r.has_sigma_plus_q and not r.has_empty_q
    assert r.l_uniquely_reachable and r.some_la_uniquely_reachable
    assert r.bound == 5  # 1 + (n-2)^(n-pins) with n=4, pins=2
    assert r.sigma <= r.bound


def test_singleton_word_language_bound_is_tight():
    r = classify(dfa([[1, 2, 2]], [1]))  # L = {a}
    assert r.sigma == 2
    assert r.has_empty_q and r.has_epsilon_q
    assert r.l_uniquely_reachable and r.some_la_uniquely_reachable
    assert r.bound == 2
    assert r.sigma == r.bound


def test_bound_is_sound_on_witnesses():
    for build in (lambda: right_ideal_witness(5),
                  lambda: left_ideal_witness(5),
                  lambda: two_sided_witness(5)):
        r = classify(build())
        assert r.sigma <= r.bound


# ---------------------------------------------------------------------------
# behaviors and the excluded-transformation counts


def test_behavior_of_chain():
    d = dfa([[1, 2, 3, 3]], [3])
    b = behavior_of(d, Transformation((1, 2, 3, 3)))
    assert b.orbit == (0, 1, 2, 3)
    assert b.loop_entry == 3
    assert b.period == 1


def test_behavior_of_cycle():
    d = dfa([[1, 2, 0]], [0])
    b = behavior_of(d, cycle(3, 0, 2))
    assert b.orbit == (0, 1, 2)
    assert b.loop_entry == 0
    assert b.period == 3


def test_behavior_size_mismatch():
    with pytest.raises(SizeMismatchError):
        behavior_of(dfa([[1, 0]], [1]), identity(3))


def test_left_witness_behaviors_are_aperiodic():
    assert all_behaviors_aperiodic(left_ideal_witness(4))
    assert all_behaviors_aperiodic(two_sided_witness(4))


def test_right_witness_behaviors_are_not():
    # the cycle letter moves the initial state on a period-3 orbit
    assert not all_behaviors_aperiodic(right_ideal_witness(4))


def test_aperiodicity_is_necessary_not_sufficient():
    # same semiautomaton, every behavior aperiodic; one final choice is a
    # left ideal, the other is not
    rows = [[1, 1, 1], [1, 2, 2]]
    assert all_behaviors_aperiodic(dfa(rows, [1]))
    assert not classify(dfa(rows, [1])).is_left_ideal
    assert classify(dfa(rows, [2])).is_left_ideal


def test_ruled_out_formula_matches_brute_force():
    values = [ruled_out_count_formula(n) for n in range(1, 7)]
    assert values == [0, 1, 10, 114, 1556, 25080]
    assert values == [ruled_out_count_brute(n) for n in range(1, 7)]


def test_ruled_out_input_validation():
    with pytest.raises(ValueError):
        ruled_out_count_formula(0)
    with pytest.raises(ValueError):
        ruled_out_count_brute(0)
    with pytest.raises(ValueError):
        ruled_out_count_brute(9)


# ---------------------------------------------------------------------------
# the n=3 exclusion pairing


def test_pairing_report_partitions_all_27():
    report = verify_theorem9_pairing()
    assert report.ok
    assert len(report.ruled_out) == 10
    assert len(report.realized) == 11
    assert len(report.excluded) == 6
    assert report.partners_distinct
    assert report.products_all_ruled_out
    realized = set(report.realized)
    for excluded, partner, product in report.pairings:
        assert partner in realized
        assert product in set(report.ruled_out)
        assert excluded in set(report.excluded)


def test_pairing_and_exclusion_sets_are_disjoint():
    report = verify_theorem9_pairing()
    sets = [set(report.ruled_out), set(report.realized), set(report.excluded)]
    assert sum(len(s) for s in sets) == 27
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])


# ---------------------------------------------------------------------------
# uniform minimality via the pair graph


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_left_core_is_uniformly_minimal(n):
    assert uniformly_minimal(left_witness_core(n), sink=0)


def test_identity_letters_are_not_uniform():
    s = Semiautomaton(3, ("a",), {"a": identity(3)})
    report = pair_graph_uniformity(s, sink=0)
    assert not report.uniform
    assert not report.strongly_connected
    assert not report.sink_reachable


def test_cycle_only_semiautomaton_never_reaches_the_sink():
    s = Semiautomaton(4, ("a",), {"a": cycle(4, 1, 3)})
    report = pair_graph_uniformity(s, sink=0)
    assert report.strongly_connected
    assert not report.sink_reachable
    assert not report.uniform


def test_transposition_leaves_an_unresolvable_pair():
    s = Semiautomaton(3, ("a",), {"a": transposition(3, 1, 2)})
    report = pair_graph_uniformity(s, sink=0)
    assert (1, 2) in report.bad_pairs
    assert not report.uniform


def _sink_semiautomata():
    """Every semiautomaton with n <= 4 states, k <= 2 letters and absorbing
    sink 0, letters taken as multisets: 2,203 of them."""
    for n in (2, 3, 4):
        letters = [t for t in product(range(n), repeat=n) if t[0] == 0]
        for k in (1, 2):
            alph = "ab"[:k]
            for rows in combinations_with_replacement(letters, k):
                yield Semiautomaton(n, alph, {a: Transformation(r)
                                              for a, r in zip(alph, rows)})


def test_pair_graph_uniformity_matches_brute_force():
    # each field against its definition, by word runs, language equality
    # and minimize, none of which shares code with pair_graph_uniformity
    counts = Counter()
    for s in _sink_semiautomata():
        report = pair_graph_uniformity(s, sink=0)
        others = range(1, s.n)
        words = [w for m in range(s.n) for w in product(s.alphabet, repeat=m)]
        reach = {p: {s.with_acceptor(p, ()).run(w) for w in words}
                 for p in others}
        assert report.strongly_connected == all(set(others) <= reach[p]
                                                for p in others), s
        assert report.sink_reachable == any(0 in reach[p] for p in others), s
        assert report.bad_pairs == tuple(
            (p, q) for p, q in combinations(range(s.n), 2)
            if equivalent(s.with_acceptor(p, others),
                          s.with_acceptor(q, others))), s
        finals_sets = [f for m in range(1, s.n)
                       for f in combinations(others, m)]
        assert report.uniform == all(
            minimize(s.with_acceptor(i, f)).n == s.n
            for i in others for f in finals_sets), s
        counts.update(uniform=report.uniform, bad=bool(report.bad_pairs),
                      strong=report.strongly_connected, total=1)
    assert counts == {"uniform": 244, "bad": 970, "strong": 436,
                      "total": 2203}


def test_pair_graph_preconditions():
    moving = Semiautomaton(3, ("a",), {"a": cycle(3, 0, 2)})
    with pytest.raises(ValueError):
        pair_graph_uniformity(moving, sink=0)  # sink not absorbing
    single = Semiautomaton(1, ("a",), {"a": identity(1)})
    with pytest.raises(ValueError):
        pair_graph_uniformity(single, sink=0)  # no non-sink states
    with pytest.raises(ValueError):
        pair_graph_uniformity(moving, sink=7)
