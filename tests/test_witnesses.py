"""Witness families: closed forms, restrictions, small registry, bounds,
reversal rows."""

from __future__ import annotations

from itertools import chain, combinations

import pytest

from syncomp import (ReversalRow, classify, closed_form_bound, family_witness,
                     left_ideal_witness, left_witness_core,
                     left_witness_semiautomaton, minimize, reversal_sweep,
                     right_ideal_witness, sigma_of_language, small_witness,
                     two_sided_witness)


# ---------------------------------------------------------------------------
# closed forms at unit-test scale (larger n covered by the acceptance gate)


@pytest.mark.parametrize("n, expected", [(4, 64), (5, 625)])
def test_right_closed_form(n, expected):
    d = right_ideal_witness(n)
    assert sigma_of_language(d) == expected == closed_form_bound("right", n)
    assert minimize(d).n == n


@pytest.mark.parametrize("n, expected", [(3, 11), (4, 67), (5, 629)])
def test_left_closed_form(n, expected):
    d = left_ideal_witness(n)
    assert sigma_of_language(d) == expected == closed_form_bound("left", n)
    assert minimize(d).n == n


@pytest.mark.parametrize("n, expected", [(4, 25), (5, 150)])
def test_two_sided_closed_form(n, expected):
    d = two_sided_witness(n)
    assert sigma_of_language(d) == expected == closed_form_bound("two_sided", n)
    assert minimize(d).n == n


def test_witnesses_belong_to_their_classes():
    assert classify(right_ideal_witness(4)).is_right_ideal
    assert classify(left_ideal_witness(4)).is_left_ideal
    assert classify(two_sided_witness(4)).is_two_sided_ideal


# ---------------------------------------------------------------------------
# alphabet restrictions (the individually named cells)


@pytest.mark.parametrize("n, letters, expected", [
    (3, "ad", 7),
    (3, "acd", 9),
    (4, "acd", 61),
])
def test_right_restrictions(n, letters, expected):
    assert sigma_of_language(right_ideal_witness(n, letters)) == expected


@pytest.mark.parametrize("n, letters, expected", [
    (3, "bde", 9),
    (3, "abcde", 11),
    (4, "ade", 25),
    (4, "acde", 64),
    (5, "ade", 65),
    (5, "acde", 453),
])
def test_left_restrictions(n, letters, expected):
    assert sigma_of_language(left_ideal_witness(n, letters)) == expected


@pytest.mark.parametrize("n, letters, expected", [
    (4, "aef", 16),
    (4, "adef", 23),
    (5, "aef", 47),
    (5, "adef", 90),
    (5, "acdef", 147),
])
def test_two_sided_restrictions(n, letters, expected):
    assert sigma_of_language(two_sided_witness(n, letters)) == expected


def test_restriction_order_does_not_matter():
    assert sigma_of_language(right_ideal_witness(4, "dca")) == 61


# ---------------------------------------------------------------------------
# finals robustness of the left family


def test_left_witness_minimal_for_every_admissible_final_set():
    subsets = chain.from_iterable(combinations((1, 2, 3), r)
                                  for r in (1, 2, 3))
    for finals in subsets:
        d = left_ideal_witness(4, finals_override=finals)
        assert minimize(d).n == 4, finals
        assert sigma_of_language(d) == 67, finals


def test_left_finals_override_validation():
    with pytest.raises(ValueError):
        left_ideal_witness(4, finals_override=())
    with pytest.raises(ValueError):
        left_ideal_witness(4, finals_override=(0, 2))
    with pytest.raises(ValueError):
        left_ideal_witness(4, finals_override=(4,))


# ---------------------------------------------------------------------------
# semiautomaton views


def test_left_semiautomaton_letters():
    s = left_witness_semiautomaton(4)
    assert s.alphabet == ("a", "b", "c", "d", "e")
    d = s.with_acceptor(0, {3})
    assert sigma_of_language(d) == 67


def test_left_core_drops_e_and_keeps_zero_absorbing():
    s = left_witness_core(4)
    assert s.alphabet == ("a", "b", "c", "d")
    assert all(s.delta[a](0) == 0 for a in s.alphabet)


# ---------------------------------------------------------------------------
# small witness registry


@pytest.mark.parametrize("family, n, k, expected", [
    ("right", 2, 2, 2),
    ("right", 4, 2, 31),
    ("right", 5, 3, 545),
    ("left", 2, 2, 2),
    ("left", 2, 3, 3),
    ("left", 3, 2, 7),
    ("left", 4, 2, 17),
    ("left", 5, 2, 34),
    ("two_sided", 2, 2, 2),
    ("two_sided", 3, 3, 6),
])
def test_small_witness_values(family, n, k, expected):
    d = small_witness(family, n, k)
    assert sigma_of_language(d) == expected
    assert minimize(d).n == n
    assert len(d.alphabet) == k


def test_right_5_2_has_two_variants_of_equal_strength():
    v0 = small_witness("right", 5, 2, variant=0)
    v1 = small_witness("right", 5, 2, variant=1)
    assert sigma_of_language(v0) == sigma_of_language(v1) == 167
    assert v0.delta != v1.delta


@pytest.mark.parametrize("family", ["right", "left", "two_sided"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unary_chain(family, n):
    d = small_witness(family, n, 1)
    assert d.alphabet == ("a",)
    assert sigma_of_language(d) == max(1, n - 1)
    assert minimize(d).n == n


@pytest.mark.parametrize("n, expected", [(3, 5), (4, 11), (5, 19)])
def test_run_of_as_language(n, expected):
    # all words containing a block of n-1 consecutive a's
    d = small_witness("two_sided", n, 2)
    assert sigma_of_language(d) == expected
    assert classify(d).is_two_sided_ideal
    assert d.accepts("a" * (n - 1))
    assert d.accepts("b" + "a" * (n - 1) + "b")
    assert not d.accepts("a" * (n - 2) + "b" + "a" * (n - 2))


def test_small_witness_membership():
    assert classify(small_witness("right", 4, 2)).is_right_ideal
    assert classify(small_witness("left", 4, 2)).is_left_ideal
    assert classify(small_witness("two_sided", 3, 3)).is_two_sided_ideal


def test_small_witness_validation():
    with pytest.raises(ValueError):
        small_witness("right", 3, 2)  # covered by the family witness instead
    with pytest.raises(ValueError):
        small_witness("right", 5, 2, variant=2)
    # the built-in constructions record one variant each
    with pytest.raises(ValueError, match="has 1 variant"):
        small_witness("right", 3, 1, variant=7)
    with pytest.raises(ValueError, match="has 1 variant"):
        small_witness("two_sided", 4, 2, variant=3)
    with pytest.raises(ValueError):
        small_witness("middle", 2, 2)


# ---------------------------------------------------------------------------
# constructor validation and bounds


def test_family_witness_range_checks():
    with pytest.raises(ValueError):
        right_ideal_witness(2)
    with pytest.raises(ValueError):
        left_ideal_witness(2)
    with pytest.raises(ValueError):
        two_sided_witness(3)
    with pytest.raises(ValueError):
        right_ideal_witness(4, "xz")
    with pytest.raises(ValueError):
        left_ideal_witness(4, "")


def test_family_witness_picks_the_family_builder():
    assert family_witness("right", 4, "ad") == right_ideal_witness(4, "ad")
    assert family_witness("left", 5) == left_ideal_witness(5)
    assert family_witness("left", 4, "ade", (1, 3)) == \
        left_ideal_witness(4, "ade", (1, 3))
    assert family_witness("two_sided", 5, "abcdef") == two_sided_witness(5)
    for family in ("right", "two_sided"):
        with pytest.raises(ValueError, match="no finals override"):
            family_witness(family, 4, finals=(1,))
    with pytest.raises(ValueError, match="unknown family"):
        family_witness("all", 4)


def test_closed_form_bound_validation():
    assert closed_form_bound("right", 1) == 1
    assert closed_form_bound("two_sided", 2) == 2
    with pytest.raises(ValueError):
        closed_form_bound("right", 0)
    with pytest.raises(ValueError):
        closed_form_bound("two_sided", 1)
    with pytest.raises(ValueError):
        closed_form_bound("other", 3)


def test_bounds_dominate_every_recorded_small_cell():
    for family, n, k in [("right", 4, 2), ("left", 4, 2), ("two_sided", 3, 3)]:
        assert sigma_of_language(small_witness(family, n, k)) \
            <= closed_form_bound(family, n)


# ---------------------------------------------------------------------------
# reversal rows


@pytest.mark.parametrize("family, n, expected", [
    ("right", 6, 32),
    ("left", 4, 9),
    ("two_sided", 6, 17),
])
def test_reversal_rows(family, n, expected):
    rows = reversal_sweep(family, [n])
    assert rows == [ReversalRow(n, expected, expected)]


def test_reversal_sweep_range():
    rows = reversal_sweep("right", range(4, 7))
    assert [r.n for r in rows] == [4, 5, 6]
    assert all(r.measured == r.expected == 2 ** (r.n - 1) for r in rows)


def test_reversal_sweep_unknown_family():
    with pytest.raises(ValueError):
        reversal_sweep("all", [3])
