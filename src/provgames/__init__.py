"""Semiring provenance for two-player games and fixed-point logics."""

from .errors import ProvError
from .games import (
    BasicValuation,
    GameGraph,
    Objective,
    Strategy,
    TERMINAL,
    absorption_dominates,
    acyclic_valuation,
    check_separating,
    enumerate_strategies,
    strategy_value,
    truncate,
    validate_game,
    verify_counting_bisim,
    winning_region,
)
from .logic import (
    KInterpretation,
    Structure,
    build_mc_game,
    fo_eval,
    game_eval,
    induced_structure,
    is_model_defining,
    make_tracking_interpretation,
    parse_formula,
    poslfp_eval_direct,
    to_nnf,
)
from .poly import Polynomial, parse_poly, project, series_geom, specialize
from .semirings import SHIPPED_SELECTORS, Semiring, get_semiring, sr_check_laws
from .solver import (
    EquationSystem,
    build_system,
    kleene_gfp,
    kleene_lfp,
    solve_game,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
