"""Biased Maker-Breaker diameter games on complete graphs.

Engine (game_core), graph measurements (graph_metrics), potential
machinery on explicit winning-set families (potential_engine), degree
and expansion subgames (degree_games, expansion_games), the composite
diameter-2 and diameter-d strategies (diameter2, diameter_d), scripted
opponents (heuristics), an exact solver with one-sided verifiers
(exact_solver), and a seeded experiment harness with a CLI (harness,
cli).

The top level binds only the names in __all__; everything else is
imported from its module.
"""

from .diameter2 import PairingBreaker
from .exact_solver import solve, verify_family_one_sided, verify_final_property, verify_one_sided
from .expansion_games import exp_condition, exp_maker_select
from .game_core import Player
from .graph_metrics import graph_from_edges, has_expansion
from .harness import ExperimentConfig, run_experiment
from .potential_engine import box_maker_select, esb_breaker_select, family_from_sets

__all__ = [
    "ExperimentConfig",
    "PairingBreaker",
    "Player",
    "box_maker_select",
    "esb_breaker_select",
    "exp_condition",
    "exp_maker_select",
    "family_from_sets",
    "graph_from_edges",
    "has_expansion",
    "run_experiment",
    "solve",
    "verify_family_one_sided",
    "verify_final_property",
    "verify_one_sided",
]

__version__ = "0.1.0"
