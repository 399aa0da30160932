"""Acceptance gate: every release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen; without -s they appear in pytest's captured output.
Criterion 4 checks the closed-form count of excluded transformations, its
brute-force enumeration and the bundled reference row against each other;
the row was corrected at n=4 (114, not 162), see the README note.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import factorial

import pytest

from conftest import dfa
from syncomp import (Dfa, classify, closed_form_bound, complement, cycle,
                     all_behaviors_aperiodic, left_ideal_witness, minimize,
                     reversal_sweep, right_ideal_witness,
                     ruled_out_count_brute, ruled_out_count_formula,
                     search_max_sigma, SearchTask, sigma_of_language,
                     singular, small_witness, tables,
                     transition_semigroup, transposition, two_sided_witness,
                     verify_theorem9_pairing)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException as exc:
        print(f"criterion {number} [{label}]: FAIL — {exc}")
        raise
    print(f"criterion {number} [{label}]: PASS")


def test_criterion_1_closed_form_witness_sigma():
    with criterion(1, "closed-form witness complexities"):
        for n, expected in zip(range(4, 8), (64, 625, 7776, 117649)):
            assert sigma_of_language(right_ideal_witness(n)) == expected \
                == closed_form_bound("right", n), f"right n={n}"
        for n, expected in zip(range(3, 8), (11, 67, 629, 7781, 117655)):
            assert sigma_of_language(left_ideal_witness(n)) == expected \
                == closed_form_bound("left", n), f"left n={n}"
        for n, expected in zip(range(4, 8), (25, 150, 1361, 16968)):
            assert sigma_of_language(two_sided_witness(n)) == expected \
                == closed_form_bound("two_sided", n), f"two-sided n={n}"


def test_criterion_2_named_restriction_cells():
    with criterion(2, "named restriction and small-witness values"):
        right = [(3, "ad", 7), (3, "acd", 9), (4, "acd", 61)]
        for n, letters, expected in right:
            assert sigma_of_language(right_ideal_witness(n, letters)) \
                == expected, f"right n={n} {letters}"
        assert sigma_of_language(small_witness("right", 5, 2)) == 167
        assert sigma_of_language(small_witness("right", 5, 3)) == 545
        left = [(3, "bde", 9), (3, "abcde", 11), (4, "ade", 25),
                (4, "acde", 64), (5, "ade", 65), (5, "acde", 453)]
        for n, letters, expected in left:
            assert sigma_of_language(left_ideal_witness(n, letters)) \
                == expected, f"left n={n} {letters}"
        two = [(4, "aef", 16), (4, "adef", 23), (5, "aef", 47),
               (5, "adef", 90)]
        for n, letters, expected in two:
            assert sigma_of_language(two_sided_witness(n, letters)) \
                == expected, f"two-sided n={n} {letters}"
        for n, expected in ((3, 5), (4, 11), (5, 19)):
            assert sigma_of_language(small_witness("two_sided", n, 2)) \
                == expected, f"run-of-a n={n}"


def test_criterion_3_exhaustive_cells():
    with criterion(3, "exhaustive cell maxima"):
        cells = [
            ("right", 2, 2, 2), ("right", 3, 2, 7), ("right", 3, 3, 9),
            ("right", 4, 2, 31), ("right", 4, 3, 61),
            ("left", 2, 1, 1), ("left", 2, 2, 2), ("left", 2, 3, 3),
            ("left", 3, 2, 7), ("left", 3, 3, 9), ("left", 3, 4, 11),
            ("two_sided", 3, 2, 5), ("two_sided", 3, 3, 6),
        ]
        for family, n, k, expected in cells:
            result = search_max_sigma(SearchTask(family, n, k))
            assert result.exhaustive, (family, n, k)
            assert result.max_sigma == expected, \
                f"{family} n={n} k={k}: {result.max_sigma} != {expected}"
        for family in ("right", "left", "two_sided"):
            for n in range(2, 6):
                result = search_max_sigma(SearchTask(family, n, 1))
                assert result.max_sigma == n - 1, f"unary {family} n={n}"


@pytest.mark.slow
def test_criterion_3_long_cell():
    with criterion(3, "long cell: binary right ideals on five states"):
        result = search_max_sigma(SearchTask("right", 5, 2))
        assert result.exhaustive
        assert result.max_sigma == 167


def test_criterion_4_excluded_count_reference_row():
    with criterion(4, "excluded-transformation counts vs bundled row"):
        row = tables._RULED_OUT_REFERENCE  # the row the program ships
        assert sorted(row) == [2, 3, 4, 5]
        reference = [row[n] for n in range(2, 6)]
        formula = [ruled_out_count_formula(n) for n in range(2, 6)]
        brute = [ruled_out_count_brute(n) for n in range(2, 6)]
        assert formula == brute, f"formula {formula} != enumeration {brute}"
        assert formula == reference, (
            f"two independent computations give {formula}, the bundled "
            f"reference row says {reference}")


def test_criterion_5_reversal_complexities():
    with criterion(5, "reversal quotient complexities"):
        for family, ns in (("right", range(4, 10)), ("left", range(3, 10)),
                           ("two_sided", range(4, 11))):
            for row in reversal_sweep(family, ns):
                assert row.measured == row.expected, \
                    f"{family} n={row.n}: {row.measured} != {row.expected}"


def test_criterion_6_exclusion_pairing():
    with criterion(6, "exclusion pairing partition"):
        report = verify_theorem9_pairing()
        assert report.ok
        assert (len(report.ruled_out), len(report.realized),
                len(report.excluded)) == (10, 11, 6)


def test_criterion_7_property_suites(minimal_binary_3):
    with criterion(7, "structural property sweeps"):
        # sandwich, bound soundness, and complement duality over every
        # minimal binary 3-state DFA; aperiodicity over the left ideals
        left_ideals = 0
        for d in minimal_binary_3:
            report = classify(d)
            assert 2 <= report.sigma <= 27, d
            assert report.sigma <= report.bound, d
            dual = classify(complement(d))
            assert report.is_right_ideal == dual.is_prefix_closed, d
            assert report.is_left_ideal == dual.is_suffix_closed, d
            assert report.is_two_sided_ideal == dual.is_factor_closed, d
            assert report.is_prefix_closed == dual.is_right_ideal, d
            if report.is_left_ideal:
                left_ideals += 1
                assert all_behaviors_aperiodic(minimize(d)), d
        assert left_ideals == 70

        # closure sizes of the standard generator sets
        for n in range(1, 7):
            perm_letters = {"a": cycle(n, 0, n - 1),
                            "b": transposition(n, 0, 1) if n > 1
                            else cycle(n, 0, 0)}
            d = Dfa(n, ("a", "b"), perm_letters, 0, frozenset({0}))
            assert transition_semigroup(d).sigma \
                == factorial(n), f"permutations n={n}"
            if n > 1:
                full_letters = dict(perm_letters)
                full_letters["c"] = singular(n, 1, 0)
                d = Dfa(n, ("a", "b", "c"), full_letters, 0, frozenset({0}))
                assert transition_semigroup(d).sigma \
                    == n ** n, f"all transformations n={n}"

        # aperiodic behaviors do not suffice for left ideality
        rows = [[1, 1, 1], [1, 2, 2]]
        assert all_behaviors_aperiodic(dfa(rows, [1]))
        assert not classify(dfa(rows, [1])).is_left_ideal
        assert classify(dfa(rows, [2])).is_left_ideal
