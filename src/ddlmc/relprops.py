"""Properties of betterness relations.

Covers the standard rational-choice conditions (reflexivity, totality,
transitivity and its weakenings, the Ferrers condition and interval orders)
plus the frame-level limit assumptions: limitedness (every non-empty world
set has a best element) and smoothness (every non-best world of a set is
strictly bettered by a best one), each relative to the optimality or the
maximality reading of "best".  They quantify over every world set, so they
are valuation-independent.  On finite relations each reduces to an order
condition, which is what is checked: max-limited iff acyclic, max-smooth
iff quasi-transitive, opt-limited iff total and acyclic (Sen, *Collective
Choice and Social Welfare*, 1970, Lemma 1*l), opt-smooth iff total and
quasi-transitive (on total relations optimal and maximal coincide; see
Parent, "Maximality vs. optimality in dyadic deontic logic", *J. Phil.
Logic* 2014).  The subset definitions are the test reference, in
``tests/oracle.py::naive_properties``.

Seven properties have a check of their own (``_CHECKS``); ``_DEFINITIONS``
states each of the twelve as a conjunction of those seven, once, and
``base_properties`` reads it.  Each check is one tight loop over the row
bitmasks; the cycle and strict-transitivity checks first compute the
strict rows once (``model.strict_part``).  One peel of strict layers
decides acyclicity and gives the longest strict chain
(``longest_strict_chain``).  ``has_all(props)`` returns one flat predicate
for the class builder, one object per base set: the check itself for a
single base property, else one loop over the base checks.
``CLOSURE_LOOPS`` holds the four base properties that a relation has iff
its reflexive closure has them and it loops the worlds the closure needs,
which lets ``finder.scan_frames`` count frames from their closures.
Implications between properties are searches, so they live in ``lattice``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable

from .model import PreferenceModel, Relation, equal_goodness, strict_part, transitive_closure


class RelationProperty(enum.Enum):
    REFLEXIVE = "reflexive"
    TOTAL = "total"
    TRANSITIVE = "transitive"
    QUASI_TRANSITIVE = "quasi_transitive"
    ACYCLIC = "acyclic"
    SUZUMURA_CONSISTENT = "suzumura_consistent"
    FERRERS = "ferrers"
    INTERVAL_ORDER = "interval_order"
    OPT_LIMITED = "opt_limited"
    MAX_LIMITED = "max_limited"
    OPT_SMOOTH = "opt_smooth"
    MAX_SMOOTH = "max_smooth"

    def __str__(self) -> str:
        return self.value


def property_from_name(name: str) -> RelationProperty:
    try:
        return RelationProperty(name.strip().lower().replace("-", "_"))
    except ValueError:
        raise ValueError(f"unknown relation property {name!r}") from None


def is_reflexive(rel: Relation) -> bool:
    return all(rel[i] >> i & 1 for i in range(len(rel)))


def is_total(rel: Relation) -> bool:
    # a >= b or b >= a for all a, b, including a == b (so totality
    # implies reflexivity).
    n = len(rel)
    for i in range(n):
        for j in range(i, n):
            if not (rel[i] >> j & 1 or rel[j] >> i & 1):
                return False
    return True


def is_transitive(rel: Relation) -> bool:
    for row in rel:
        m = row
        while m:
            low = m & -m
            if rel[low.bit_length() - 1] & ~row:
                return False
            m ^= low
    return True


def _strict_layers(strict: Relation) -> int | None:
    """Rounds that peel every world, each round removing the worlds with no
    strict successor among those left: the number of worlds on the longest
    strict chain, or None on a strict cycle, which never peels."""
    left = (1 << len(strict)) - 1
    layers = 0
    while left:
        bottom = 0
        bit = 1
        for row in strict:
            if not row & left:
                bottom |= bit
            bit <<= 1
        bottom &= left  # worlds peeled in an earlier round drop out
        if not bottom:
            return None
        left ^= bottom
        layers += 1
    return layers


def is_quasi_transitive(rel: Relation) -> bool:
    """The strict part is transitive."""
    return is_transitive(strict_part(rel))


def is_acyclic(rel: Relation) -> bool:
    """No strict-betterness cycles."""
    return _strict_layers(strict_part(rel)) is not None


CYCLIC = "cyclic"  # longest_strict_chain of a relation with a strict cycle


def longest_strict_chain(m: PreferenceModel | Relation) -> int | str:
    """Worlds on the longest strictly-increasing chain, or CYCLIC."""
    rel = m.rel if isinstance(m, PreferenceModel) else tuple(m)
    layers = _strict_layers(strict_part(rel))
    return CYCLIC if layers is None else layers


def is_suzumura_consistent(rel: Relation) -> bool:
    """No weak-preference cycle containing a strict step."""
    # no strict step b > a whose a reaches b by weak steps
    reach = transitive_closure(rel)
    for b, row in enumerate(strict_part(rel)):
        bit = 1 << b
        m = row
        while m:
            low = m & -m
            if reach[low.bit_length() - 1] & bit:
                return False
            m ^= low
    return True


def is_ferrers(rel: Relation) -> bool:
    # a>=b and c>=d imply a>=d or c>=b; equivalently the rows form a
    # chain under set inclusion.
    n = len(rel)
    for i in range(n):
        row_i = rel[i]
        for j in range(i + 1, n):
            row_j = rel[j]
            if row_i & ~row_j and row_j & ~row_i:
                return False
    return True


_CHECKS = {
    RelationProperty.REFLEXIVE: is_reflexive,
    RelationProperty.TOTAL: is_total,
    RelationProperty.TRANSITIVE: is_transitive,
    RelationProperty.QUASI_TRANSITIVE: is_quasi_transitive,
    RelationProperty.ACYCLIC: is_acyclic,
    RelationProperty.SUZUMURA_CONSISTENT: is_suzumura_consistent,
    RelationProperty.FERRERS: is_ferrers,
}

# Each property as the conjunction of the checked properties it is defined
# by: interval orders are the total Ferrers relations, and the limit
# assumptions are read by their finite order equivalents (module docstring).
_DEFINITIONS = {
    **{prop: frozenset({prop}) for prop in _CHECKS},
    RelationProperty.INTERVAL_ORDER: frozenset({RelationProperty.TOTAL, RelationProperty.FERRERS}),
    RelationProperty.OPT_LIMITED: frozenset({RelationProperty.TOTAL, RelationProperty.ACYCLIC}),
    RelationProperty.MAX_LIMITED: frozenset({RelationProperty.ACYCLIC}),
    RelationProperty.OPT_SMOOTH: frozenset({RelationProperty.TOTAL, RelationProperty.QUASI_TRANSITIVE}),
    RelationProperty.MAX_SMOOTH: frozenset({RelationProperty.QUASI_TRANSITIVE}),
}


def base_properties(props) -> frozenset[RelationProperty]:
    """The checked properties whose conjunction is "has every property in
    props".  A member that is not a RelationProperty raises ValueError."""
    bad = sorted(repr(p) for p in props if not isinstance(p, RelationProperty))
    if bad:
        raise ValueError(f"{', '.join(bad)}: not a relation property")
    return frozenset().union(*(_DEFINITIONS[p] for p in props))


def check_property(prop: RelationProperty, target: PreferenceModel | Relation) -> bool:
    """True iff the property holds of the betterness relation; a prop that
    is not a RelationProperty raises ValueError."""
    rel = target.rel if isinstance(target, PreferenceModel) else tuple(target)
    return all(_CHECKS[base](rel) for base in base_properties((prop,)))


def has_all(props) -> Callable[[Relation], bool] | None:
    """The predicate "has every property in props", one flat function: the
    check itself when props come down to one base property, else one loop
    over their base checks in declaration order.  One object per base set
    (``base_properties``), so that sets with one definition share the
    class cache of ``canonical_relations``; None when props is empty.  A
    member that is not a RelationProperty raises ValueError."""
    return _has_all(base_properties(props))


@lru_cache(maxsize=None)
def _has_all(base: frozenset[RelationProperty]) -> Callable[[Relation], bool] | None:
    checks = tuple(check for prop, check in _CHECKS.items() if prop in base)
    if not checks:
        return None
    if len(checks) == 1:
        return checks[0]

    def keep(rel: Relation) -> bool:
        for check in checks:
            if not check(rel):
                return False
        return True

    return keep


def _tied_worlds(rel: Relation) -> int:
    """The worlds i with some other world j such that i >= j and j >= i."""
    tied = 0
    for i, row in enumerate(equal_goodness(rel)):
        if row & ~(1 << i):
            tied |= 1 << i
    return tied


def _no_loops(rel: Relation) -> int:
    return 0


# The base properties that the reflexive closure keeps: a relation has one
# iff its closure has it and it loops every world that the entry returns
# for the closure.  Transitivity needs the loop of each tied world (i >= j
# >= i gives i >= i); the other three read only steps between distinct
# worlds.  Reflexivity and totality read the loops themselves, and the
# closure does not keep Ferrers (the empty two-world relation has it, its
# closure does not), so they stay out.
CLOSURE_LOOPS = {
    RelationProperty.TRANSITIVE: _tied_worlds,
    RelationProperty.QUASI_TRANSITIVE: _no_loops,
    RelationProperty.ACYCLIC: _no_loops,
    RelationProperty.SUZUMURA_CONSISTENT: _no_loops,
}

# The three that need no loop: a relation has one iff its closure has it.
CLOSURE_DECIDES = frozenset(prop for prop, loops in CLOSURE_LOOPS.items() if loops is _no_loops)
