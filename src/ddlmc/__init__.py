"""Finite-model toolkit for preference-based dyadic deontic logic.

Evaluate conditional-obligation formulas under three rival truth conditions
(opt, max, Lewis), check betterness-relation properties, search finite
frames and models exhaustively, verify property/axiom correspondences at
desk scale, and reproduce the mere-addition-paradox analysis.

The names of ``schemas``, ``casestudy`` and ``lattice`` are imported on
first use, so ``import ddlmc`` compiles only the modules every search
runs.
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
    SearchSpec,
    SearchResult,
    SearchTimeout,
    cores,
    find_satisfying_model,
    rule_collapse,
)

__version__ = "0.1.0"

# Each lazy name and its module, imported by ``__getattr__`` (PEP 562).
_LAZY = {
    "SCHEMAS": "schemas",
    "converse_search": "schemas",
    "forward_check": "schemas",
    "table_sweep": "schemas",
    "run_grid": "casestudy",
    "Confirmed": "lattice",
    "Witness": "lattice",
    "lattice_report": "lattice",
    "property_implication": "lattice",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
