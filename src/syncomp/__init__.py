"""Syntactic complexity of ideal and closed regular languages.

Core objects: transformations of a finite state set, complete DFAs, their
transition semigroups (sigma = syntactic complexity for minimal DFAs),
classification of ideal/closed language classes with sound sigma bounds,
extremal witness families, and an exhaustive search harness reproducing
the reference complexity tables.
"""

from .automata import (Dfa, Nfa, Semiautomaton, complement, determinize,
                       emit_dfa_json, equivalent, left_ideal_closure,
                       minimize, parse_dfa_json, reachable_trim, reverse,
                       to_dot)
from .classify import (Behavior, ClassReport, Theorem9Report,
                       UniformMinimalityReport, all_behaviors_aperiodic,
                       behavior_of, classify, pair_graph_uniformity,
                       ruled_out_count_brute, ruled_out_count_formula,
                       uniformly_minimal, verify_theorem9_pairing)
from .errors import (AlphabetMismatchError, CapExceededError, FormatError,
                     SizeMismatchError)
from .oracles import word_bfs_sigma
from .search import FoundWitness, SearchResult, SearchTask, search_max_sigma
from .semigroup import (SemigroupResult, sigma_of_language,
                        transition_semigroup, witness_words,
                        word_length_histogram)
from .tables import TABLE_IDS, CellReport, RuledOutRow, TableReport, run_table
from .transform import (Transformation, compose, constant, cycle, identity,
                        parse_transformation, singular, transposition)
from .witnesses import (FAMILIES, ReversalRow, closed_form_bound,
                        family_witness, left_ideal_witness, left_witness_core,
                        left_witness_semiautomaton, reversal_sweep,
                        right_ideal_witness, small_witness,
                        two_sided_witness)

__version__ = "0.1.0"
