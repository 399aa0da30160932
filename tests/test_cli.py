"""Command-line interface: commands, formats, exit codes."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import argparse

import pytest

import syncomp
from syncomp import (FAMILIES, Dfa, SearchTask, Transformation, emit_dfa_json,
                     left_ideal_witness, parse_dfa_json, right_ideal_witness,
                     small_witness)
from syncomp.cli import _build_parser, _family, main
from syncomp.search import _FAMILIES


@pytest.fixture
def right4_file(tmp_path):
    path = tmp_path / "right4.json"
    path.write_text(emit_dfa_json(right_ideal_witness(4)))
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json_report(right4_file, capsys):
    assert main(["analyze", right4_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == 4
    assert payload["sigma"] == 64
    assert payload["bound"] == 64
    assert payload["mu"] == 64
    assert payload["is_right_ideal"] is True
    assert payload["is_left_ideal"] is False


def test_analyze_text_report_with_histogram(right4_file, capsys):
    assert main(["analyze", right4_file, "--histogram"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "64" in out
    assert "elements by shortest-witness length:" in out


def test_analyze_samples(right4_file, capsys):
    assert main(["analyze", right4_file, "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") >= 3


def test_analyze_cap_overflow_is_a_usage_error(right4_file, capsys):
    assert main(["analyze", right4_file, "--cap", "10"]) == 2
    assert "cap" in capsys.readouterr().err


def test_analyze_caps_the_closure_by_default(right4_file, monkeypatch,
                                             capsys):
    # 160 // 4 states = 40 < sigma 64; an explicit --cap wins over it
    monkeypatch.setattr("syncomp.cli._CLOSURE_MAX_CELLS", 160)
    assert main(["analyze", right4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap=40" in captured.err
    assert main(["analyze", right4_file, "--cap", "64"]) == 0
    assert "64" in capsys.readouterr().out


def test_analyze_cap_stops_before_the_ideal_tests(tmp_path, monkeypatch,
                                                  capsys):
    # the capped closure comes first, so an oversized DFA exits 2 without
    # meeting the ideal tests, which are quadratic in the states
    path = tmp_path / "right40.json"
    path.write_text(emit_dfa_json(right_ideal_witness(40)))

    def unreachable(md):
        raise AssertionError("ideal test ran before the cap")

    classify_module = importlib.import_module("syncomp.classify")
    for name in ("_is_left_ideal", "_is_right_ideal"):
        monkeypatch.setattr(classify_module, name, unreachable)
    assert main(["analyze", str(path), "--cap", "10"]) == 2
    assert "cap" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": 2}')
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_boolean_json(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"states": true, "alphabet": ["a"], '
                   '"transitions": {"a": [0]}, "initial": 0, "finals": [0, 0]}')
    assert main(["analyze", str(bad), "--format", "json"]) == 2
    assert "states" in capsys.readouterr().err


def test_analyze_closes_once_without_words(right4_file, monkeypatch, capsys):
    # sigma, mu, the histogram and the sample words all come from the one
    # closure classify builds; every closure, through whichever binding of
    # transition_semigroup, runs semigroup._closure
    semigroup_module = importlib.import_module("syncomp.semigroup")
    real = semigroup_module._closure
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(semigroup_module, "_closure", counted)
    assert main(["analyze", right4_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 64
    assert len(calls) == 1
    assert main(["analyze", right4_file, "--histogram"]) == 0
    assert len(calls) == 2
    assert main(["analyze", right4_file, "--samples", "3"]) == 0
    assert len(calls) == 3


def test_analyze_json_samples_stay_valid_json(right4_file, capsys):
    assert main(["analyze", right4_file, "--format", "json", "--histogram",
                 "--samples", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == 64
    assert payload["samples"] == [
        {"word": "a", "element": [1, 2, 0, 3]},
        {"word": "b", "element": [1, 0, 2, 3]},
        {"word": "c", "element": [0, 1, 0, 3]},
    ]
    assert main(["analyze", right4_file, "--format", "json"]) == 0
    assert "samples" not in json.loads(capsys.readouterr().out)


def test_analyze_samples_build_only_their_own_words(tmp_path, monkeypatch,
                                                    capsys):
    # the first K elements' parents lie among them, so K sample words need
    # no word or Transformation of the other elements (sigma is 117,655 here)
    path = tmp_path / "left7.json"
    path.write_text(emit_dfa_json(left_ideal_witness(7)))
    built = []
    real = Transformation.__post_init__

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(Transformation, "__post_init__", counted)
    assert main(["analyze", str(path), "--samples", "3"]) == 0
    assert capsys.readouterr().out.count(" -> ") == 3
    assert len(built) < 1000


def test_analyze_rejects_negative_samples(right4_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("closure run before the flag was checked")

    monkeypatch.setattr(importlib.import_module("syncomp.semigroup"),
                        "_closure", refuse)
    assert main(["analyze", right4_file, "--samples", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--samples" in captured.err


@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--cap", "0"),
    ("analyze", "--cap", "-1"),
    ("oracle", "--max-words", "0"),
    ("oracle", "--max-words", "-1"),
])
def test_limits_below_one_are_refused(right4_file, monkeypatch, capsys,
                                      command, flag, value):
    # refused before any closure or word is built, naming the flag
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flag was checked")

    monkeypatch.setattr(importlib.import_module("syncomp.semigroup"),
                        "_closure", refuse)
    monkeypatch.setattr(importlib.import_module("syncomp.cli"),
                        "word_bfs_sigma", refuse)
    target = [right4_file] if command == "analyze" else ["--dfa", right4_file]
    assert main([command, *target, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be at least 1, got {value}" in captured.err


# ---------------------------------------------------------------------------
# witness


def test_witness_json_round_trip(capsys):
    assert main(["witness", "--family", "right", "--n", "4"]) == 0
    emitted = parse_dfa_json(capsys.readouterr().out)
    assert emitted == right_ideal_witness(4)


def test_witness_dot_and_text(capsys):
    assert main(["witness", "--family", "two-sided", "--n", "4",
                 "--format", "dot"]) == 0
    assert "doublecircle" in capsys.readouterr().out
    assert main(["witness", "--family", "two-sided", "--n", "4",
                 "--format", "text"]) == 0
    assert "states 4" in capsys.readouterr().out


def test_witness_letters_and_finals(capsys):
    assert main(["witness", "--family", "left", "--n", "4",
                 "--letters", "ade", "--finals", "1,3"]) == 0
    d = parse_dfa_json(capsys.readouterr().out)
    assert d.alphabet == ("a", "d", "e")
    assert d.finals == frozenset({1, 3})


def test_witness_small_variant(capsys):
    assert main(["witness", "--family", "right", "--n", "5",
                 "--small", "2", "--variant", "1"]) == 0
    d = parse_dfa_json(capsys.readouterr().out)
    assert d == small_witness("right", 5, 2, variant=1)


@pytest.mark.parametrize("argv, expected", [
    (["--family", "right", "--n", "5", "--small", "2", "--variant", "2"],
     "(right, n=5, k=2) has 2 variant(s); got variant=2"),
    (["--family", "right", "--n", "3", "--small", "1", "--variant", "7"],
     "(right, n=3, k=1) has 1 variant(s); got variant=7"),
    (["--family", "two-sided", "--n", "4", "--small", "2", "--variant", "3"],
     "(two_sided, n=4, k=2) has 1 variant(s); got variant=3"),
], ids=["registry", "unary-chain", "two-sided-run"])
def test_witness_refuses_an_unrecorded_variant(capsys, argv, expected):
    assert main(["witness", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


@pytest.mark.parametrize("argv, flag", [
    (["witness", "--family", "right", "--n", "4", "--finals", "1,2"],
     "--finals"),
    (["witness", "--family", "two-sided", "--n", "4", "--finals", "1"],
     "--finals"),
    (["witness", "--family", "left", "--n", "4", "--small", "2",
      "--finals", "1"], "--finals"),
    (["witness", "--family", "right", "--n", "4", "--small", "2",
      "--letters", "ab"], "--letters"),
    (["witness", "--family", "right", "--n", "5", "--variant", "1"],
     "--variant"),
    (["reverse", "--input", "FILE", "--family", "right"], "--family"),
    (["reverse", "--input", "FILE", "--n", "4"], "--n"),
    (["reverse", "--input", "FILE", "--letters", "ad"], "--letters"),
])
def test_flags_that_would_be_ignored_are_refused(right4_file, capsys, argv,
                                                 flag):
    argv = [right4_file if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} cannot be used")


@pytest.mark.parametrize("value", ["", "1,,2"])
def test_malformed_finals_are_refused(capsys, value):
    # an empty value is not the default finals, and an empty item is no
    # state: both name the flag instead of falling back or leaking int()'s
    # message
    assert main(["witness", "--family", "left", "--n", "4",
                 "--finals", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --finals must be comma-separated state "
                            f"numbers, got {value!r}\n")


@pytest.mark.parametrize("value", ["9", "-1", "0", "1,4"])
def test_finals_outside_the_witness_are_refused(capsys, value):
    # the range is checked against --n and reported under the flag's name,
    # not under the witness builder's parameter
    assert main(["witness", "--family", "left", "--n", "4",
                 "--finals", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --finals must name states 1..3 of the "
                            f"4-state witness, got {value!r}\n")


def test_witness_out_of_range_n(capsys):
    # the hint names the API function and the flag that reach smaller n
    assert main(["witness", "--family", "right", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the right witness needs n >= 3")
    assert "small_witness" in err and "witness --small K" in err


# ---------------------------------------------------------------------------
# search


def test_search_json(capsys):
    assert main(["search", "--family", "left", "--n", "3", "--k", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_sigma"] == 7
    assert payload["exhaustive"] is True
    assert payload["witnesses"]
    first = payload["witnesses"][0]
    assert len(first["letters"]) == 2 and first["finals"]


def test_search_text_and_prune_flags(capsys):
    assert main(["search", "--family", "right", "--n", "3", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "max_sigma=7" in out
    assert "exhaustive" in out
    # the text lists five witnesses and counts the rest: right (4,2) has 9
    assert main(["search", "--family", "right", "--n", "4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("  witness: ") == 5 and out.endswith("  ... 4 more\n")
    # the search has one enumeration: neither the switch between pruned
    # and plain nor the older one flag per filter is left
    for flag in ("--no-prune", "--no-prune-lemma8", "--no-prune-canonical",
                 "--no-prune-multisets"):
        with pytest.raises(SystemExit) as info:
            main(["search", "--family", "right", "--n", "3", "--k", "2",
                  flag])
        assert info.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--n", "3", "--budget", "0"],
    ["--n", "3", "--budget", "-5"],
    ["--n", "8"],  # refused before any candidate pool is built
    ["--n", "2", "--k", "27"],  # witnesses name their letters a..z
])
def test_search_rejects_tasks_that_cannot_run(flags, capsys):
    assert main(["search", "--family", "right", "--k", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "max_sigma" not in captured.out


def test_search_budget_tag(capsys):
    assert main(["search", "--family", "right", "--n", "4", "--k", "2",
                 "--budget", "50"]) == 0
    assert "budget-exhausted" in capsys.readouterr().out


def test_search_two_sided_alias(capsys):
    assert main(["search", "--family", "two-sided", "--n", "3", "--k", "2"]) == 0
    assert "max_sigma=5" in capsys.readouterr().out


def _flags(command: str) -> dict:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def test_search_flags_follow_the_search_task():
    # the search subcommand offers the searched families, aliases aside,
    # and takes its default budget from SearchTask
    flags = _flags("search")
    assert set(map(_family, flags["family"].choices)) == set(_FAMILIES)
    assert flags["budget"].default == SearchTask.budget


@pytest.mark.parametrize("command", ["witness", "reverse"])
def test_witness_family_flags_follow_the_family_table(command):
    # two-sided is the alias argparse normalises to two_sided
    family = _flags(command)["family"]
    assert tuple(map(_family, family.choices)) == FAMILIES
    assert family.type("two-sided") == "two_sided"


def test_search_adds_only_all_to_the_witness_families():
    assert set(_FAMILIES) - set(FAMILIES) == {"all"}


@pytest.mark.parametrize("family, n, k", [
    ("right", 4, 3), ("two-sided", 4, 3), ("left", 3, 4),
    # the most relabelings (6) of any cell here, in both skeleton families
    ("right", 5, 2), ("two-sided", 5, 2)])
def test_search_json_is_the_same_at_any_job_count(serial_pool, capsys,
                                                  family, n, k):
    # budgets of 500 and 3,000 cut the prefix walk at its inner levels
    for budget in ([], ["--budget", "500"], ["--budget", "3000"]):
        outs = []
        for jobs in ("1", "2"):
            assert main(["search", "--family", family, "--n", str(n),
                         "--k", str(k), "--format", "json", "--jobs", jobs,
                         *budget]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], budget
    assert serial_pool == [2, 2, 2]


def test_search_output_into_closed_pipe_is_quiet():
    # right (4,3) prints ~95 kB, more than the pipe and the reader's one
    # line can absorb, so writing after the reader closes must fail
    env = dict(os.environ)
    src = str(Path(syncomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "syncomp.cli", "search", "--family", "right",
         "--n", "4", "--k", "3", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


# ---------------------------------------------------------------------------
# reverse


def test_reverse_designated_restriction(capsys):
    assert main(["reverse", "--family", "right", "--n", "5",
                 "--letters", "ad"]) == 0
    out = capsys.readouterr().out
    assert "kappa 16" in out and "expected 16" in out


def test_reverse_letter_order_irrelevant(capsys):
    assert main(["reverse", "--family", "right", "--n", "5",
                 "--letters", "da"]) == 0
    assert "expected 16" in capsys.readouterr().out


def test_reverse_other_restriction_has_no_expectation(capsys):
    assert main(["reverse", "--family", "right", "--n", "4",
                 "--letters", "acd"]) == 0
    assert "expected" not in capsys.readouterr().out


def test_reverse_from_file(right4_file, capsys):
    assert main(["reverse", "--input", right4_file]) == 0
    assert "kappa" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["right", "left", "two-sided"])
def test_reverse_refuses_a_large_n_before_building(monkeypatch, capsys,
                                                    family):
    # the subset DFA of the reversed witness has 2^(n-1) states; an n past
    # the limit must exit before the witness or that DFA is built
    def never(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr("syncomp.cli.family_witness", never)
    monkeypatch.setattr("syncomp.cli.determinize", never)
    assert main(["reverse", "--family", family, "--n", "21"]) == 2
    assert "--n <= 20" in capsys.readouterr().err


@pytest.mark.parametrize("family, least", [
    ("right", 3), ("left", 3), ("two-sided", 4)])
def test_reverse_refuses_an_n_below_the_witness_before_building(
        monkeypatch, capsys, family, least):
    # reverse takes no --small: an n below the family witness's least
    # points at --input, before anything is built
    def never(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr("syncomp.cli.family_witness", never)
    for n in (0, least - 1):
        assert main(["reverse", "--family", family, "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert f"needs --n >= {least}, got {n}" in err and "--input" in err
        assert "--small" not in err


@pytest.mark.parametrize("small", [[], ["--small", "2"]])
def test_witness_refuses_a_large_n_before_building(monkeypatch, capsys,
                                                   small):
    # a witness costs time and memory linear in n; an n past the limit
    # must exit before any witness is built
    def never(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr("syncomp.cli.family_witness", never)
    monkeypatch.setattr("syncomp.cli.small_witness", never)
    assert main(["witness", "--family", "right", "--n", "10001",
                 *small]) == 2
    assert "--n <= 10000" in capsys.readouterr().err


def test_reverse_refuses_a_large_input_before_building(monkeypatch, capsys,
                                                       tmp_path):
    # a DFA file past the same limit exits before its subset DFA is built;
    # a unary chain of 20 states (its language a^19 a*) still reverses
    def chain(n):
        a = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
        path = tmp_path / f"chain{n}.json"
        path.write_text(emit_dfa_json(
            Dfa(n, ("a",), {"a": a}, 0, frozenset({n - 1}))))
        return str(path)

    assert main(["reverse", "--input", chain(20)]) == 0
    assert "kappa 20" in capsys.readouterr().out

    def never(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr("syncomp.cli.determinize", never)
    assert main(["reverse", "--input", chain(21)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--input" in err


def test_reverse_needs_a_source(capsys):
    assert main(["reverse"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tables


@pytest.mark.parametrize("table_id", [2, 3, 4, 5])
def test_reference_tables_reproduce(table_id, capsys):
    assert main(["tables", "--id", str(table_id)]) == 0
    out = capsys.readouterr().out
    assert f"table {table_id}: ok" in out
    assert "MISMATCH" not in out


def test_excluded_count_table_disagrees_with_bundled_row(capsys,
                                                       monkeypatch):
    # a bundled row that disagrees with the computed counts (here the old,
    # wrong 162 at n=4) is reported per row and the command exits nonzero
    monkeypatch.setattr("syncomp.tables._RULED_OUT_REFERENCE",
                        {2: 1, 3: 10, 4: 162, 5: 1556})
    assert main(["tables", "--id", "3"]) == 1
    out = capsys.readouterr().out
    assert "formula=114" in out and "reference=162" in out
    assert "MISMATCH" in out
    assert "n=2  reference=1  formula=1  brute=1  ok" in out


@pytest.mark.slow
def test_tables_long_cells(capsys):
    assert main(["tables", "--id", "2", "--long", "--jobs", "2"]) == 0
    assert "table 2: ok" in capsys.readouterr().out


@pytest.mark.parametrize("table_id", ["3", "5"])
def test_tables_refuse_nonpositive_jobs(table_id, capsys):
    assert main(["tables", "--id", table_id, "--jobs", "0"]) == 2
    assert "error: jobs must be positive" in capsys.readouterr().err


def test_tables_unknown_id():
    with pytest.raises(SystemExit) as info:
        main(["tables", "--id", "7"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# oracle


def test_oracle_ruled_out_agreement(capsys):
    assert main(["oracle", "--ruled-out", "4"]) == 0
    out = capsys.readouterr().out
    assert "formula=114" in out and "brute=114" in out and "ok" in out


def test_oracle_refuses_a_large_ruled_out_n_before_the_formula(monkeypatch,
                                                               capsys):
    # the closed form takes about a minute at N = 8,000 and grows as N^3;
    # an N the brute count refuses must exit before it is computed
    def never(n):
        raise AssertionError("closed form computed")

    monkeypatch.setattr("syncomp.cli.ruled_out_count_formula", never)
    assert main(["oracle", "--ruled-out", "100000"]) == 2
    assert "refused" in capsys.readouterr().err


def test_oracle_dfa_agreement(right4_file, capsys):
    assert main(["oracle", "--dfa", right4_file]) == 0
    assert "sigma engine=64  word-bfs=64  ok" in capsys.readouterr().out


def test_oracle_word_budget_overflow(right4_file, capsys):
    assert main(["oracle", "--dfa", right4_file, "--max-words", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_caps_the_closure_at_the_word_budget(right4_file, monkeypatch,
                                                   capsys):
    # word BFS examines at least sigma words, so a sigma past --max-words
    # (64 > 50 here) exits at the closure, before the word BFS runs
    def never(*args, **kwargs):
        raise AssertionError("word BFS ran")

    monkeypatch.setattr("syncomp.cli.word_bfs_sigma", never)
    assert main(["oracle", "--dfa", right4_file, "--max-words", "50"]) == 2
    assert "--max-words 50" in capsys.readouterr().err


def test_oracle_caps_the_closure_by_state_count(right4_file, monkeypatch,
                                                capsys):
    # 160 // 4 states = 40 < sigma 64 < --max-words: the closure stops at
    # the smaller limit, and the error names it
    def never(*args, **kwargs):
        raise AssertionError("word BFS ran")

    monkeypatch.setattr("syncomp.cli._CLOSURE_MAX_CELLS", 160)
    monkeypatch.setattr("syncomp.cli.word_bfs_sigma", never)
    assert main(["oracle", "--dfa", right4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sigma exceeds 40 elements, the closure "
                            "limit for a 4-state DFA\n")


def test_oracle_requires_a_mode(capsys):
    assert main(["oracle"]) == 2
    assert "error:" in capsys.readouterr().err
