"""Properties of betterness relations and implications between them.

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

Each check is one tight loop over the row bitmasks; the cycle and
strict-transitivity checks first compute the strict rows once
(``model.strict_part``).  One peel of strict layers decides acyclicity and
gives the longest strict chain (``longest_strict_chain``).
``has_all(props)`` returns one flat predicate for the class builder: the
check itself for a single property, else one loop over the checks.

``property_implication`` decides "every relation with P1 also has P2" up to
a universe size, returning a Confirmed marker or the least witness
relation; ``lattice_report`` does this for the whole implication diagram of
the transitivity weakenings.  Both range over isomorphism classes
(``model.canonical_relations``), weighting each by its orbit size: the
properties are invariant under relabelling worlds, so a class's flags are
its relations' flags, and the least relation with a flag pattern is the
least representative that has it.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .model import (
    PreferenceModel,
    Relation,
    SearchTimeout,
    canonical_relations,
    check_world_bound,
    orbit_size,
    strict_part,
    transitive_closure,
)


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
    key = name.strip().lower().replace("-", "_")
    for prop in RelationProperty:
        if prop.value == key:
            return prop
    raise ValueError(f"unknown relation property {name!r}")


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


def _suzumura(rel: Relation, strict: Relation) -> bool:
    # no strict step b > a whose a reaches b by weak steps
    reach = transitive_closure(rel)
    for b, row in enumerate(strict):
        bit = 1 << b
        m = row
        while m:
            low = m & -m
            if reach[low.bit_length() - 1] & bit:
                return False
            m ^= low
    return True


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
    return _suzumura(rel, strict_part(rel))


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


def is_interval_order(rel: Relation) -> bool:
    """Total and Ferrers (equivalently, reflexive and Ferrers)."""
    return is_total(rel) and is_ferrers(rel)


# The limit assumptions by their finite order equivalents (module docstring).
is_max_limited = is_acyclic
is_max_smooth = is_quasi_transitive


def is_opt_limited(rel: Relation) -> bool:
    return is_total(rel) and is_acyclic(rel)


def is_opt_smooth(rel: Relation) -> bool:
    return is_total(rel) and is_quasi_transitive(rel)


_CHECKS = {
    RelationProperty.REFLEXIVE: is_reflexive,
    RelationProperty.TOTAL: is_total,
    RelationProperty.TRANSITIVE: is_transitive,
    RelationProperty.QUASI_TRANSITIVE: is_quasi_transitive,
    RelationProperty.ACYCLIC: is_acyclic,
    RelationProperty.SUZUMURA_CONSISTENT: is_suzumura_consistent,
    RelationProperty.FERRERS: is_ferrers,
    RelationProperty.INTERVAL_ORDER: is_interval_order,
    RelationProperty.OPT_LIMITED: is_opt_limited,
    RelationProperty.MAX_LIMITED: is_max_limited,
    RelationProperty.OPT_SMOOTH: is_opt_smooth,
    RelationProperty.MAX_SMOOTH: is_max_smooth,
}


def check_property(prop: RelationProperty, target: PreferenceModel | Relation) -> bool:
    """True iff the property holds of the betterness relation."""
    rel = target.rel if isinstance(target, PreferenceModel) else tuple(target)
    return _CHECKS[prop](rel)


@lru_cache(maxsize=None)
def has_all(props: frozenset[RelationProperty]) -> Callable[[Relation], bool] | None:
    """The predicate "has every property in props", one flat function: the
    check itself for one property, else one loop over the checks in
    declaration order.  One object per set, so that it keys the class cache
    of ``canonical_relations``; None when props is empty."""
    checks = tuple(dict.fromkeys(_CHECKS[p] for p in RelationProperty if p in props))
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


# ---------------------------------------------------------------------------
# Implications between properties


@dataclass(frozen=True)
class Confirmed:
    """p1 implies p2 on every relation of each checked size."""

    n: int
    relations_checked: int


@dataclass(frozen=True)
class Witness:
    """Least relation (by size, then row-lexicographic order) with p1 but not p2."""

    n: int
    rel: Relation


def _as_props(p) -> tuple[RelationProperty, ...]:
    if isinstance(p, RelationProperty):
        return (p,)
    return tuple(p)


def property_implication(p1, p2, n: int) -> Confirmed | Witness:
    """Check p1 => p2 over all relations on 1..n worlds, n <= 5.

    p1 and p2 may be single properties or iterables (read conjunctively).
    Only the classes with p1 are built; relations_checked counts the
    relations in them.
    """
    check_world_bound(n)
    props1, props2 = _as_props(p1), _as_props(p2)
    keep, conclusion = has_all(frozenset(props1)), has_all(frozenset(props2))
    checked = 0
    for size in range(1, n + 1):
        for rep in canonical_relations(size, keep):
            if conclusion is not None and not conclusion(rep):
                return Witness(size, rep)
            checked += orbit_size(rep)
    return Confirmed(n, checked)


# The implication diagram over the order-theoretic properties: the five
# weakenings of transitivity, plus totality and reflexivity.  Base arrows are
# the known one-step implications; interval order is total + Ferrers by
# definition, which contributes two more.  Everything else is independent and
# the report must produce a witness for each non-implied ordered pair.

LATTICE_NODES = (
    RelationProperty.TRANSITIVE,
    RelationProperty.QUASI_TRANSITIVE,
    RelationProperty.SUZUMURA_CONSISTENT,
    RelationProperty.ACYCLIC,
    RelationProperty.INTERVAL_ORDER,
    RelationProperty.TOTAL,
    RelationProperty.REFLEXIVE,
)

LATTICE_ARROWS = (
    (RelationProperty.TRANSITIVE, RelationProperty.SUZUMURA_CONSISTENT),
    (RelationProperty.SUZUMURA_CONSISTENT, RelationProperty.ACYCLIC),
    (RelationProperty.TRANSITIVE, RelationProperty.QUASI_TRANSITIVE),
    (RelationProperty.QUASI_TRANSITIVE, RelationProperty.ACYCLIC),
    (RelationProperty.INTERVAL_ORDER, RelationProperty.QUASI_TRANSITIVE),
    (RelationProperty.TOTAL, RelationProperty.REFLEXIVE),
)

_DEFINITIONAL_ARROWS = (
    (RelationProperty.INTERVAL_ORDER, RelationProperty.TOTAL),
    (RelationProperty.INTERVAL_ORDER, RelationProperty.REFLEXIVE),
)


def implied_pairs() -> frozenset[tuple[RelationProperty, RelationProperty]]:
    """Transitive closure of the arrow diagram (with definitional arrows)."""
    arrows = set(LATTICE_ARROWS) | set(_DEFINITIONAL_ARROWS)
    changed = True
    while changed:
        changed = False
        for a, b in list(arrows):
            for c, d in list(arrows):
                if b == c and (a, d) not in arrows and a != d:
                    arrows.add((a, d))
                    changed = True
    return frozenset(arrows)


def _lattice_flags(rel: Relation) -> int:
    """Bitmask of LATTICE_NODES flags, computing the strict rows once."""
    strict = strict_part(rel)
    total = is_total(rel)
    values = (
        is_transitive(rel),
        is_transitive(strict),
        _suzumura(rel, strict),
        _strict_layers(strict) is not None,
        total and is_ferrers(rel),
        total,
        is_reflexive(rel),
    )
    return sum(1 << idx for idx, value in enumerate(values) if value)


def lattice_report(max_n: int, deadline: float | None = None) -> dict:
    """Exhaustively confirm every implied pair and witness every other pair.

    One pass per universe size computes all property flags per isomorphism
    class and a histogram of flag patterns weighted by orbit size, so the
    report covers every ordered pair of LATTICE_NODES at once.  Raises
    SearchTimeout at the deadline, a ``time.monotonic()`` value (None: no
    limit).
    """
    check_world_bound(max_n)
    implied = implied_pairs()
    bit = {p: 1 << i for i, p in enumerate(LATTICE_NODES)}
    open_pairs = [
        (p, q) for p in LATTICE_NODES for q in LATTICE_NODES
        if p is not q and (p, q) not in implied
    ]
    # relations per flag pattern, over all sizes so far
    hist: dict[int, int] = {}
    witnesses: dict[tuple, tuple[int, Relation]] = {}

    def separating(flags, p, q) -> bool:
        return flags & bit[p] and not flags & bit[q]

    for size in range(1, max_n + 1):
        least: dict[int, Relation] = {}  # least class of each flag pattern
        for idx, rep in enumerate(canonical_relations(size, None, deadline)):
            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:
                raise SearchTimeout()
            flags = _lattice_flags(rep)
            least.setdefault(flags, rep)
            hist[flags] = hist.get(flags, 0) + orbit_size(rep)
        for pair in open_pairs:
            found = [rep for flags, rep in least.items() if separating(flags, *pair)]
            if found and pair not in witnesses:
                witnesses[pair] = (size, min(found))
        for p, q in implied:
            if any(separating(flags, p, q) for flags in least):
                raise AssertionError(f"implication {p} => {q} fails at size {size}")

    def checked(source: RelationProperty) -> int:
        return sum(count for flags, count in hist.items() if flags & bit[source])

    return {
        "max_n": max_n,
        "arrows": [
            {
                "from": a.value,
                "to": b.value,
                "status": "confirmed",
                "relations_checked": checked(a),
            }
            for a, b in LATTICE_ARROWS
        ],
        "derived_arrows": sorted(
            f"{a.value} => {b.value}"
            for a, b in implied
            if (a, b) not in LATTICE_ARROWS
        ),
        "independence": [
            {
                "from": p.value,
                "to": q.value,
                "witness_n": witnesses[(p, q)][0] if (p, q) in witnesses else None,
                "witness_rel": list(witnesses[(p, q)][1]) if (p, q) in witnesses else None,
                "status": "witness" if (p, q) in witnesses else "no_witness_up_to_bound",
            }
            for p, q in open_pairs
        ],
    }
