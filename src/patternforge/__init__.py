"""patternforge: finite resemblance patterns over Cantor-normal-form ordinals.

A small library for building desk-scale hierarchies (two elementarity-game
relations over a closed set of ordinal terms), searching coverings of
patterns inside them, computing minimal realizations and cores, comparing
cores positionally, and probing rule instances for cofinal validity.
"""

from .ordinals import (
    ClosedSet,
    NonCanonicalTermError,
    OMEGA,
    ONE,
    OrdinalTerm,
    TermSyntaxError,
    ZERO,
    add,
    closure,
    compare,
    format_term,
    induced_embedding,
    is_indecomposable,
    omega_power,
    parse_term,
)
from .patterns import (
    InvalidPatternError,
    Pattern,
    Violation,
    covers,
    find_isomorphism,
    is_closed_substructure,
    isomorphism_type,
    pointwise_le,
    trivial_pattern,
    validate_structure,
)
from .hierarchy import (
    AxiomReport,
    Hierarchy,
    build_hierarchy,
    check_hierarchy_axioms,
    game_pass,
    le_inf,
    one_more_round,
    reduced_challenge,
)
from .covering import (
    Budget,
    CofinalVerdict,
    Covering,
    RegressiveMap,
    extend_covering,
    extends_above,
    is_covering,
    regressive_maps,
    search_coverings,
    test_cofinal_validity,
)
from .cores import (
    Core,
    CoreMismatch,
    InitialSegmentEmbedding,
    IsominimalReport,
    PatternDecision,
    closed_subsets,
    compare_cores,
    compute_core,
    is_pattern,
    isominimal,
    longest_chain2,
)
from .rules import RuleInstance, make_arith_ext, make_generic, make_reflect1_down
from .dot import export_dot
from . import io

__all__ = [name for name in dir() if not name.startswith("_")]
