"""Implications and independence between relation properties.

``property_implication`` checks "every relation with P1 has P2" as a
search plus a count: a ``Witness`` is the least frame with P1 that lacks
P2 (``finder.SearchSpec`` with ``lacks``), and ``Confirmed`` counts the
labelled relations with P1.  ``lattice_report`` asks it once per ordered
pair of the implication diagram of the transitivity weakenings
(``LATTICE_NODES``, ``LATTICE_ARROWS``): it confirms every pair of
``implied_pairs`` and witnesses every other pair.  ``forks.fork_map`` runs
its premises in one forked process per CPU.  Of the CLI commands, only
``lattice`` imports this module.
"""

from __future__ import annotations

from itertools import product

from . import formula as fm
from .finder import SearchSpec, find_satisfying_model
from .model import transitive_closure
from .relprops import RelationProperty, base_properties
from .semantics import EvalRule


class Confirmed(fm.Record):
    """p1 implies p2 on every relation of each checked size."""

    __slots__ = _fields = ("n", "relations_checked")


class Witness(fm.Record):
    """Least relation (by size, then row-lexicographic order) with p1 but not p2."""

    __slots__ = _fields = ("n", "rel")


def property_implication(p1, p2, n: int, deadline: float | None = None) -> Confirmed | Witness:
    """Check p1 => p2 over all relations on 1..n worlds, n <= 5.

    p1 and p2 may be single properties or iterables (read conjunctively;
    an empty p2 holds of every relation).  The witness is that of a search
    for T over the frames with p1 that lack p2; without one,
    relations_checked is the frames_checked of a refutation search for T
    over p1 without isomorph rejection: every labelled relation with p1.
    Both walk reflexive closures where the properties allow.  Raises
    SearchTimeout at the deadline, a ``time.monotonic()`` value (None: no
    limit).
    """
    found = find_satisfying_model(SearchSpec(n, EvalRule.LEWIS, (fm.TOP,), p1, lacks=p2, deadline=deadline))
    if found.model is not None and found.spec.lacks:
        return Witness(found.model.n, found.model.rel)
    every = SearchSpec(n, EvalRule.LEWIS, (fm.TOP,), p1, mode="refute", iso_reject=False, deadline=deadline)
    return Confirmed(n, find_satisfying_model(every).frames_checked)


# The implication diagram over the order-theoretic properties: the five
# weakenings of transitivity, plus totality and reflexivity.  Base arrows are
# the known one-step implications; the definitions in ``relprops`` add
# p => q wherever q's base properties are among p's (interval order is total
# and Ferrers).  Everything else is independent and the report must produce
# a witness for each non-implied ordered pair.

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


def implied_pairs() -> frozenset[tuple[RelationProperty, RelationProperty]]:
    """Transitive closure of the arrow diagram plus the definitional arrows."""
    index = {p: i for i, p in enumerate(LATTICE_NODES)}
    rows = [0] * len(LATTICE_NODES)
    for a, b in LATTICE_ARROWS:
        rows[index[a]] |= 1 << index[b]
    for a, b in product(LATTICE_NODES, repeat=2):
        if base_properties({b}) <= base_properties({a}):
            rows[index[a]] |= 1 << index[b]
    reach = transitive_closure(tuple(rows))
    return frozenset(
        (p, q) for p in LATTICE_NODES for q in LATTICE_NODES
        if p is not q and reach[index[p]] >> index[q] & 1
    )


def lattice_report(max_n: int, deadline: float | None = None) -> dict:
    """Exhaustively confirm every implied pair and witness every other pair:
    one ``property_implication`` per ordered pair of LATTICE_NODES.  Raises
    AssertionError if an implied pair fails, and SearchTimeout at the
    deadline, a ``time.monotonic()`` value (None: no limit).  ``forks.fork_map``
    runs the premises in parallel, each premise's six implications in one
    process so that they share its class build.  A premise returns plain
    data, one ``(is_witness, *fields)`` tuple per conclusion, from which
    the parent rebuilds each ``Confirmed`` or ``Witness`` in the same order."""
    from .forks import fork_map  # compiled only when a table runs

    def conclusions(p):
        return [q for q in LATTICE_NODES if q is not p]

    def premise(p):
        checked = (property_implication(p, q, max_n, deadline) for q in conclusions(p))
        return [(type(result) is Witness, *result._values()) for result in checked]

    implied = implied_pairs()
    results = {
        (p, q): (Witness if is_witness else Confirmed)(*fields)
        for p, found in zip(LATTICE_NODES, fork_map(premise, LATTICE_NODES))
        for q, (is_witness, *fields) in zip(conclusions(p), found)
    }
    for p, q in implied:
        if isinstance(results[p, q], Witness):
            raise AssertionError(f"implication {p} => {q} fails at size {results[p, q].n}")
    return {
        "max_n": max_n,
        "arrows": [
            {
                "from": a.value,
                "to": b.value,
                "status": "confirmed",
                "relations_checked": results[a, b].relations_checked,
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
                "witness_n": result.n if isinstance(result, Witness) else None,
                "witness_rel": list(result.rel) if isinstance(result, Witness) else None,
                "status": "witness" if isinstance(result, Witness) else "no_witness_up_to_bound",
            }
            for (p, q), result in results.items()
            if (p, q) not in implied
        ],
    }
