"""Finite-model toolkit for preference-based dyadic deontic logic.

Evaluate conditional-obligation formulas under three rival truth conditions
(opt, max, Lewis), check betterness-relation properties, search finite
frames and models exhaustively, verify property/axiom correspondences at
desk scale, and reproduce the mere-addition-paradox analysis.
"""

from .formula import (
    And,
    Atom,
    Bot,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    MetaVar,
    Not,
    Oblig,
    Or,
    ParseError,
    Perm,
    PrefGeq,
    PrefGt,
    Top,
    atoms,
    expand,
    metavars,
    parse,
    render,
)
from .model import (
    ModelFormatError,
    PreferenceModel,
    Relation,
    equal_goodness,
    parse_model,
    serialize_model,
    strict_part,
    transitive_closure,
)
from .relprops import (
    CYCLIC,
    RelationProperty,
    check_property,
    longest_strict_chain,
)
from .semantics import (
    EvalRule,
    best_set,
    cond_holds,
    frame_counterexample,
    truth_set,
    valid_in_model,
    valid_on_frame,
)
from .finder import (
    Confirmed,
    SearchSpec,
    SearchResult,
    SearchTimeout,
    Witness,
    cores,
    find_satisfying_model,
    lattice_report,
    property_implication,
    rule_collapse,
)
from .schemas import (
    SCHEMAS,
    converse_search,
    forward_check,
    table_sweep,
)
from .casestudy import run_grid

__version__ = "0.1.0"
