"""Command-line driver.

Exit codes: 0 success, 1 verification mismatch (tables, reverse --family
against its closed form, oracle disagreement), 2 usage or parse error,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .automata import (emit_dfa_json, minimize, determinize,
                       parse_dfa_json, reverse, to_dot)
from .classify import classify, ruled_out_count_brute, ruled_out_count_formula
from .errors import CapExceededError, FormatError
from .oracles import word_bfs_sigma
from .search import (_FAMILIES as _SEARCH_FAMILIES, SearchTask,
                     search_max_sigma)
from .semigroup import transition_semigroup, word_length_histogram
from .tables import TABLE_IDS, RuledOutRow, run_table
from .witnesses import (_FAMILY_ROWS, FAMILIES, family_witness,
                        small_witness)

__all__ = ["main"]

# reverse's subset DFA has up to 2^n states (2^(n-1) for a family witness):
# n = 18 takes seconds and 145 MB, and each two more states cost 4x
_REVERSE_MAX_STATES = 20
# analyze and oracle --dfa close at most this many elements times states
# by default: an element of an n-state closure holds about 8n bytes past
# 256 states (16 kB at n = 2,000), and every DFA of at most 8 states
# still closes in full, since 8^8 = 2^27 / 8
_CLOSURE_MAX_CELLS = 2 ** 27
# a family witness costs time and memory linear in n (10^5 states take
# 0.5 s and 70 MB); 10,000 states emit about 0.5 MB of JSON
_WITNESS_MAX_STATES = 10_000


def _family(name: str) -> str:
    """The argparse type of --family: two-sided names two_sided."""
    return name.replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="syncomp",
        description="Syntactic complexity of ideal and closed regular languages")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify a DFA and report sigma/mu/bound")
    a.add_argument("input", help="DFA JSON file")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.add_argument("--histogram", action="store_true",
                   help="element count per shortest-witness length")
    a.add_argument("--samples", type=int, default=0, metavar="K",
                   help="print K sample word/transformation pairs")
    a.add_argument("--cap", type=int, default=None,
                   help="abort if the semigroup exceeds this size "
                        "(default 2^27 // states)")

    w = sub.add_parser("witness", help="emit a witness automaton")
    w.add_argument("--family", required=True, type=_family, choices=FAMILIES)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--letters", default=None, metavar="adef",
                   help="restriction, e.g. 'ad' (family witnesses only)")
    w.add_argument("--finals", default=None, metavar="1,3",
                   help="finals override (left family only)")
    w.add_argument("--small", type=int, default=None, metavar="K",
                   help="use the named small witness with K letters instead")
    w.add_argument("--variant", type=int, default=None)
    w.add_argument("--format", choices=("json", "dot", "text"), default="json")

    s = sub.add_parser("search", help="maximal sigma over a family cell")
    s.add_argument("--family", required=True, type=_family,
                   choices=tuple(_SEARCH_FAMILIES))
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--budget", type=int, default=SearchTask.budget)
    s.add_argument("--format", choices=("text", "json"), default="text")

    r = sub.add_parser("reverse", help="kappa of the reversed language")
    r.add_argument("--family", type=_family, choices=FAMILIES)
    r.add_argument("--n", type=int)
    r.add_argument("--letters", default=None)
    r.add_argument("--input", default=None, help="DFA JSON file")

    t = sub.add_parser("tables", help="recompute a reference table")
    t.add_argument("--id", type=int, required=True, choices=TABLE_IDS)
    t.add_argument("--long", action="store_true",
                   help="include the longer-running exhaustive cells")
    t.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="search up to J cells at once on one process pool, "
                        "capped at the CPU count; the same results at any J")

    o = sub.add_parser("oracle", help="independent brute-force cross-checks")
    o.add_argument("--dfa", default=None, metavar="FILE",
                   help="compare word-BFS sigma against the engine")
    o.add_argument("--max-words", type=int, default=1_000_000,
                   help="the most words and elements either side may reach "
                        "(the closure also stops at 2^27 // states)")
    o.add_argument("--ruled-out", type=int, default=None, metavar="N",
                   help="compare the ruled-out formula against enumeration")
    return p


def _refuse(args, flags: tuple[str, ...], context: str) -> None:
    """A usage error naming the first of flags that was given."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise FormatError(f"{flag} cannot be used {context}")


def _load_dfa(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_dfa_json(text)


def _cmd_analyze(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    d = _load_dfa(args.input)
    report = classify(d, cap=_CLOSURE_MAX_CELLS // d.n if args.cap is None
                      else args.cap)
    sg = report.semigroup
    # BFS order: by length, then letters in alphabet order
    samples = list(sg.first_words(args.samples).items())
    payload = report.as_dict()
    if args.format == "json":
        if args.histogram:
            payload["histogram"] = word_length_histogram(sg)
        if samples:
            payload["samples"] = [
                {"word": "".join(word), "element": list(t.images)}
                for t, word in samples]
        print(json.dumps(payload, indent=2))
    else:
        width = max(map(len, payload))
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")
        if args.histogram:
            print("elements by shortest-witness length:")
            for length, count in word_length_histogram(sg).items():
                print(f"  {length:>3}  {count}")
        for t, word in samples:
            print(f"  {''.join(word)} -> {t}")
    return 0


def _parse_finals(text: str, n: int) -> frozenset[int]:
    """The states of a --finals value such as "1,3": states of the n-state
    witness other than its initial state 0."""
    try:
        finals = frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"--finals must be comma-separated state numbers, "
                          f"got {text!r}") from None
    if not all(0 < q < n for q in finals):
        raise FormatError(f"--finals must name states 1..{n - 1} of the "
                          f"{n}-state witness, got {text!r}")
    return finals


def _cmd_witness(args) -> int:
    if args.n > _WITNESS_MAX_STATES:
        raise FormatError(f"witness is limited to --n <= "
                          f"{_WITNESS_MAX_STATES}, got {args.n}")
    if args.small is not None:
        _refuse(args, ("--letters", "--finals"), "with --small")
        d = small_witness(args.family, args.n, args.small, args.variant or 0)
    else:
        _refuse(args, ("--variant",), "without --small")
        if not _FAMILY_ROWS[args.family].finals_move:
            _refuse(args, ("--finals",), f"with --family {args.family}")
        d = family_witness(args.family, args.n, args.letters,
                           None if args.finals is None
                           else _parse_finals(args.finals, args.n))
    if args.format == "json":
        sys.stdout.write(emit_dfa_json(d))
    elif args.format == "dot":
        sys.stdout.write(to_dot(d))
    else:
        print(f"states {d.n}  initial {d.initial}  finals {sorted(d.finals)}")
        for a in d.alphabet:
            print(f"  {a}: {d.delta[a]}")
    return 0


def _cmd_search(args) -> int:
    task = SearchTask(args.family, args.n, args.k,
                      budget=args.budget, jobs=args.jobs)
    result = search_max_sigma(task)
    if args.format == "json":
        print(json.dumps({
            "family": task.family, "n": task.n, "k": task.k,
            "max_sigma": result.max_sigma,
            "witnesses": [
                {"letters": [list(t.images) for t in w.letters],
                 "finals": sorted(w.finals)}
                for w in result.witnesses],
            "candidates_examined": result.candidates_examined,
            "candidates_pruned": result.candidates_pruned,
            "exhaustive": result.exhaustive,
        }, indent=2))
    else:
        tag = "exhaustive" if result.exhaustive else "budget-exhausted"
        print(f"{task.family} n={task.n} k={task.k}  max_sigma="
              f"{result.max_sigma}  ({tag}; examined "
              f"{result.candidates_examined}, pruned {result.candidates_pruned})")
        for w in result.witnesses[:5]:
            letters = " ".join(str(t) for t in w.letters)
            print(f"  witness: {letters}  finals={sorted(w.finals)}")
        if len(result.witnesses) > 5:
            print(f"  ... {len(result.witnesses) - 5} more")
    return 0


def _cmd_reverse(args) -> int:
    expected = None
    if args.input is not None:
        _refuse(args, ("--family", "--n", "--letters"), "with --input")
        d = _load_dfa(args.input)
        if d.n > _REVERSE_MAX_STATES:
            raise FormatError(f"reverse --input is limited to DFAs of <= "
                              f"{_REVERSE_MAX_STATES} states, got {d.n}")
    else:
        if args.family is None or args.n is None:
            raise FormatError("reverse needs --input or --family with --n")
        if args.n > _REVERSE_MAX_STATES:
            raise FormatError(f"reverse --family is limited to --n <= "
                              f"{_REVERSE_MAX_STATES}, got {args.n}")
        row = _FAMILY_ROWS[args.family]
        if args.n < row.least_n:
            raise FormatError(f"the {args.family} witness needs --n >= "
                              f"{row.least_n}, got {args.n}; a smaller DFA "
                              f"can be reversed with --input file.json")
        d = family_witness(args.family, args.n, args.letters)
        if (args.letters is not None
                and set(args.letters) == set(row.designated)):
            expected = row.kappa(args.n)
    nfa = reverse(d)
    subset = determinize(nfa)
    md = minimize(subset)
    print(f"nfa states {nfa.n}  subset dfa {subset.n}  kappa {md.n}"
          + (f"  expected {expected}" if expected is not None else ""))
    return 0 if expected is None or md.n == expected else 1


def _cmd_tables(args) -> int:
    report = run_table(args.id, include_long=args.long, jobs=args.jobs)
    for row in report.rows:
        if isinstance(row, RuledOutRow):
            print(f"n={row.n}  reference={row.reference}  "
                  f"formula={row.formula}  brute={row.brute}  "
                  f"{'ok' if row.ok else 'MISMATCH'}")
        else:
            search = ("-" if row.search_max is None else str(row.search_max))
            print(f"n={row.n} k={row.k}  reference={row.reference}  "
                  f"measured={row.measured}  search_max={search}  "
                  f"[{row.status}{', tight' if row.tight else ''}]  "
                  f"{'ok' if row.ok else 'MISMATCH'}")
    print(f"table {report.table_id}: {'ok' if report.ok else 'MISMATCH'}")
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    if args.max_words < 1:
        raise ValueError(
            f"--max-words must be at least 1, got {args.max_words}")
    # the brute count refuses a large N at once: the closed form's cost
    # grows about as N^3, so it must not run first
    brute = (None if args.ruled_out is None
             else ruled_out_count_brute(args.ruled_out))
    status = 0
    ran = False
    if args.dfa is not None:
        ran = True
        md = minimize(_load_dfa(args.dfa))
        # word BFS examines a word per element at least, so it cannot
        # finish past --max-words elements, and the closure stops there too
        cap = min(args.max_words, _CLOSURE_MAX_CELLS // md.n)
        try:
            engine = transition_semigroup(md, cap=cap).sigma
        except CapExceededError:
            stop = (f"--max-words {cap}, too many for the word-BFS oracle"
                    if cap == args.max_words else f"{cap} elements, the "
                    f"closure limit for a {md.n}-state DFA")
            raise RuntimeError(f"sigma exceeds {stop}") from None
        oracle = word_bfs_sigma(md, max_words=args.max_words)
        agree = engine == oracle
        print(f"sigma engine={engine}  word-bfs={oracle}  "
              f"{'ok' if agree else 'MISMATCH'}")
        status |= 0 if agree else 1
    if args.ruled_out is not None:
        ran = True
        formula = ruled_out_count_formula(args.ruled_out)
        agree = formula == brute
        print(f"ruled-out n={args.ruled_out}  formula={formula}  "
              f"brute={brute}  {'ok' if agree else 'MISMATCH'}")
        status |= 0 if agree else 1
    if not ran:
        raise FormatError("oracle needs --dfa and/or --ruled-out")
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "analyze": _cmd_analyze,
        "witness": _cmd_witness,
        "search": _cmd_search,
        "reverse": _cmd_reverse,
        "tables": _cmd_tables,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # the reader left early (`| head`): stop quietly, with stdout on
        # devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, RuntimeError) as exc:
        # FormatError/CapExceededError included; caps and budgets are
        # user-chosen limits, so overruns count as usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
