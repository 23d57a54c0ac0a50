"""Positionality of omega-regular objectives given as parity automata.

Decide whether a condition admits positional winning strategies for the
protagonist, certify refusals with counterexample games, and reduce
finite-memory winning strategies to positional ones when it does.
"""

from .automata import (Dpa, member, parse_dpa, reachable_states,
                       residual_graph, residual_included)
from .errors import (AlphabetMismatch, IncomparableLassos, InvalidPlan,
                     InvalidSetting, InvalidStrategy, InvalidWitness,
                     MalformedLasso, MergeBrokeWinning, MonoidTooLarge,
                     NotEveOnly, ParseError, PositError,
                     PreconditionViolated, SearchSpaceTooLarge, SinkVertex,
                     UnknownLetter, WitnessRecheckFailed)
from .gadgets import gadget_from_witness
from .games import (ADAM, EVE, Arena, Game, Strategy, find_positional,
                    format_arena, parse_arena, random_arena, solve_game,
                    validate_strategy, verify_strategy)
from .positionality import (Comparison, PositionalityVerdict,
                            PriorityMonoid, PropertyReport, Witness1,
                            Witness2, Witness3, check_positional,
                            check_property1, check_property2,
                            check_property3, compare_lassos,
                            verify_order_laws, witness_from_dict)
from .reduction import MergePlan, choose_merge, reduce_to_positional
from .words import Alphabet, LassoWord, parse_lasso, prepend

__all__ = [
    "ADAM", "Alphabet", "AlphabetMismatch", "Arena", "Comparison", "Dpa",
    "EVE", "Game", "IncomparableLassos", "InvalidPlan", "InvalidSetting",
    "InvalidStrategy", "InvalidWitness", "LassoWord", "MalformedLasso", "MergeBrokeWinning",
    "MergePlan", "MonoidTooLarge", "NotEveOnly", "ParseError", "PositError",
    "PositionalityVerdict", "PreconditionViolated", "PriorityMonoid",
    "PropertyReport", "SearchSpaceTooLarge", "SinkVertex", "Strategy",
    "UnknownLetter", "Witness1", "Witness2", "Witness3",
    "WitnessRecheckFailed", "check_positional", "check_property1",
    "check_property2", "check_property3", "choose_merge", "compare_lassos",
    "find_positional", "format_arena", "gadget_from_witness", "member",
    "parse_arena", "parse_dpa", "parse_lasso", "prepend", "random_arena",
    "reachable_states", "reduce_to_positional",
    "residual_graph", "residual_included", "solve_game", "validate_strategy",
    "verify_order_laws", "verify_strategy", "witness_from_dict",
]
