"""Exact-arithmetic arbitrage and martingale-measure analysis for finite markets."""

from .arbitrage import (
    Decomposition,
    FeasibilityReport,
    Verdict,
    classify,
    defragment,
    extract_p_arbitrage,
    feasibility,
    lebesgue_decompose,
    one_step_1p_check,
)
from .errors import DomainError, MarketFormatError
from .market import (
    DiscreteMeasure,
    Market,
    Scenario,
    SignificantClass,
    Strategy,
    atoms_of,
    check_predictable,
    load_market,
    natural_nodes,
    terminal_values,
    value_process,
)
from .measures import (
    check_martingale,
    class_measure,
    full_support_measure,
    mix,
    supporting_measure,
)
from .oracle import (
    build_polytope,
    oracle_arbitrage,
    oracle_support,
)
from .ratgeom import (
    LinearProgram,
    LpResult,
    cone_ri_contains_zero,
    convex_combination_for_zero,
    lp_solve,
    maximal_separator,
    rat,
    verify_farkas_certificate,
)
from .splitter import (
    PolarAnalysis,
    Splitting,
    backward_eliminate,
    split_level_set,
    universal_aggregator,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "DiscreteMeasure",
    "DomainError",
    "FeasibilityReport",
    "LinearProgram",
    "LpResult",
    "Market",
    "MarketFormatError",
    "PolarAnalysis",
    "Scenario",
    "SignificantClass",
    "Splitting",
    "Strategy",
    "Verdict",
    "atoms_of",
    "backward_eliminate",
    "build_polytope",
    "check_martingale",
    "check_predictable",
    "class_measure",
    "classify",
    "cone_ri_contains_zero",
    "convex_combination_for_zero",
    "defragment",
    "extract_p_arbitrage",
    "feasibility",
    "full_support_measure",
    "lebesgue_decompose",
    "load_market",
    "lp_solve",
    "maximal_separator",
    "mix",
    "natural_nodes",
    "one_step_1p_check",
    "oracle_arbitrage",
    "oracle_support",
    "rat",
    "split_level_set",
    "supporting_measure",
    "terminal_values",
    "universal_aggregator",
    "value_process",
    "verify_farkas_certificate",
]
