"""Truth conditions for the object language over finite preference models.

Three rival truth conditions for the dyadic obligation O(psi / phi) are
supported:

* ``opt``: the optimal antecedent worlds (at least as good as every
  antecedent world) all satisfy the consequent;
* ``max``: the maximal antecedent worlds (not strictly bettered by any
  antecedent world) all satisfy the consequent;
* ``lewis``: either there is no antecedent world, or some antecedent world
  satisfying the consequent starts an unbroken region: every world at least
  as good as it satisfies antecedent -> consequent.

``[]`` is the global modality (truth at all worlds), so alethic and deontic
formulas are world-independent: their truth set is empty or the whole
universe.

Atoms missing from a model's valuation denote the empty set by default; this
keeps small model files terse but can mask typos, so ``strict_atoms=True``
turns the fallback into an error.

Frame validity instantiates a schema's metavariables with every assignment
of world sets; the loops are exponential and capped by default (n <= 4 for
up to two metavariables, n <= 3 for three; pass ``force=True`` to override).

Exhaustive scans use a bit-sliced evaluator that checks every valuation of
a frame at once.  Valuations of k names over n worlds are numbered like the
tuple of masks (m_0, ..., m_{k-1}) read as base-2^n digits with m_0 the
most significant, so ascending numbers are the lexicographic order of the
tuples.  A formula's value at a world is one int with bit v set iff the
formula holds there under valuation v: atoms are truth-table columns,
connectives are bitwise operations, and a conditional combines the
per-world ints along the frame's betterness relation.  The lowest set bit
of a result is the least valuation.  A slice holds at most 2**16
valuations; beyond that the leading names are bound one mask tuple at a
time, in ascending order.  ``truth_set`` stays the reference evaluator and
re-validates every witness the scans report.
"""

from __future__ import annotations

import enum
import time
from functools import lru_cache
from itertools import product

from . import formula as fm
from .model import (
    PreferenceModel,
    Relation,
    SearchTimeout,
    full_mask,
    iter_bits,
    strict_part,
    transpose,
)
from .relprops import RelationProperty, _max_set, _opt_set

Assignment = dict[str, int]


class EvalRule(enum.Enum):
    OPT = "opt"
    MAX = "max"
    LEWIS = "lewis"

    def __str__(self) -> str:
        return self.value


def rule_from_name(name: str) -> EvalRule:
    try:
        return EvalRule(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown evaluation rule {name!r}") from None


def best_set(rule: EvalRule, xs: int, m: PreferenceModel) -> int:
    """Optimal or maximal elements of the world set xs."""
    if rule is EvalRule.OPT:
        return _opt_set(m.rel, xs)
    if rule is EvalRule.MAX:
        return _max_set(transpose(strict_part(m.rel)), xs)
    raise ValueError("best_set is defined for the opt and max rules only")


def cond_holds(rule: EvalRule, consequent: int, antecedent: int, m: PreferenceModel) -> bool:
    """Truth of O(consequent / antecedent) on extensions (world sets)."""
    if rule is EvalRule.LEWIS:
        return _lewis_cond(m.rel, m.full_mask, antecedent, consequent)
    return best_set(rule, antecedent, m) & ~consequent == 0


def _lewis_cond(rel: Relation, w: int, xs: int, ys: int) -> bool:
    if xs == 0:
        return True
    cols = transpose(rel)
    bad = xs & (w ^ ys)  # antecedent worlds violating the consequent
    for b in iter_bits(xs & ys):
        if not cols[b] & bad:
            return True
    return False


def truth_set(
    f: fm.Formula,
    m: PreferenceModel,
    rule: EvalRule,
    assignment: Assignment | None = None,
    *,
    strict_atoms: bool = False,
) -> int:
    """Set of worlds (bitmask) where f is true."""
    w = m.full_mask

    def ev(g: fm.Formula) -> int:
        if isinstance(g, fm.Atom):
            mask = m.valuation.get(g.name)
            if mask is None:
                if strict_atoms:
                    raise KeyError(f"atom {g.name!r} has no valuation entry")
                return 0
            return mask
        if isinstance(g, fm.MetaVar):
            if assignment is None or g.name not in assignment:
                raise ValueError(f"unbound metavariable ?{g.name}")
            return assignment[g.name]
        if isinstance(g, fm.Top):
            return w
        if isinstance(g, fm.Bot):
            return 0
        if isinstance(g, fm.Not):
            return w ^ ev(g.child)
        if isinstance(g, fm.Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, fm.And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, fm.Implies):
            return (w ^ ev(g.left)) | ev(g.right)
        if isinstance(g, fm.Iff):
            return w ^ (ev(g.left) ^ ev(g.right))
        if isinstance(g, fm.Box):
            return w if ev(g.child) == w else 0
        if isinstance(g, fm.Diamond):
            return w if ev(g.child) else 0
        if isinstance(g, fm.Oblig):
            return w if cond_holds(rule, ev(g.consequent), ev(g.antecedent), m) else 0
        if isinstance(g, fm.Perm):
            return w if not cond_holds(rule, w ^ ev(g.consequent), ev(g.antecedent), m) else 0
        if isinstance(g, fm.PrefGeq):
            left, right = ev(g.left), ev(g.right)
            return w if not cond_holds(rule, w ^ left, left | right, m) else 0
        if isinstance(g, fm.PrefGt):
            left, right = ev(g.left), ev(g.right)
            both = left | right
            geq = not cond_holds(rule, w ^ left, both, m)
            gt = cond_holds(rule, w ^ right, both, m)
            return w if geq and gt else 0
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


def valid_in_model(
    f: fm.Formula,
    m: PreferenceModel,
    rule: EvalRule,
    *,
    strict_atoms: bool = False,
) -> bool:
    """True at every world of the model."""
    if fm.metavars(f):
        raise ValueError("formula contains metavariables; use valid_on_frame")
    return truth_set(f, m, rule, strict_atoms=strict_atoms) == m.full_mask


# ---------------------------------------------------------------------------
# Bit-sliced evaluation for exhaustive scans (see the module docstring)

_SLICE_LOG2 = 16  # no slice holds more than 2**16 valuations


@lru_cache(maxsize=None)
def _columns(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Truth-table columns of k names over n worlds, and the all-ones slice.

    cols[i][a] has bit v set iff bit (k-1-i)*n + a of v is set (Knuth,
    TAOCP 4A, 7.1.3: the magic masks, repeated over the 2**(n*k) bits).
    """
    ones = (1 << (1 << n * k)) - 1
    cols = []
    for i in range(k):
        row = []
        for a in range(n):
            half = 1 << (k - 1 - i) * n + a
            row.append(((1 << half) - 1 << half) * (ones // ((1 << 2 * half) - 1)))
        cols.append(tuple(row))
    return tuple(cols), ones


class _Slice:
    """One frame under one rule, evaluated over a slice of valuations.

    near[a] lists the worlds the conditional consults for world a: under
    max the worlds strictly better than a, under opt the worlds a is not at
    least as good as, under lewis the worlds at least as good as a.
    """

    __slots__ = ("n", "near", "lewis", "cols", "ones")

    def __init__(self, rel: Relation, rule: EvalRule, cols: dict, ones: int):
        r = range(len(rel))
        if rule is EvalRule.MAX:
            self.near = [[b for b in r if rel[b] >> a & 1 and not rel[a] >> b & 1] for a in r]
        elif rule is EvalRule.OPT:
            self.near = [[b for b in r if not rel[a] >> b & 1] for a in r]
        else:
            self.near = [[c for c in r if rel[c] >> a & 1] for a in r]
        self.n = len(rel)
        self.lewis = rule is EvalRule.LEWIS
        self.cols = cols
        self.ones = ones

    def cond(self, cons: list[int], ant: list[int]) -> int:
        """Valuations where O(cons / ant) holds."""
        if self.lewis:
            bad = [x & ~y for x, y in zip(ant, cons)]
            good = 0
            some = 0
            for b, near in enumerate(self.near):
                some |= ant[b]
                blocked = 0
                for c in near:
                    blocked |= bad[c]
                good |= ant[b] & cons[b] & ~blocked
            return good | (self.ones ^ some)
        violated = 0
        for a, near in enumerate(self.near):
            beaten = 0
            for b in near:
                beaten |= ant[b]
            violated |= ant[a] & ~cons[a] & ~beaten
        return self.ones ^ violated

    def value(self, g: fm.Formula) -> list[int]:
        """Per world, the valuations where g holds."""
        ones = self.ones
        if isinstance(g, (fm.Atom, fm.MetaVar)):
            return self.cols[g.name]
        if isinstance(g, fm.Not):
            return [ones ^ x for x in self.value(g.child)]
        if isinstance(g, fm.Or):
            return [x | y for x, y in zip(self.value(g.left), self.value(g.right))]
        if isinstance(g, fm.And):
            return [x & y for x, y in zip(self.value(g.left), self.value(g.right))]
        if isinstance(g, fm.Implies):
            return [(ones ^ x) | y for x, y in zip(self.value(g.left), self.value(g.right))]
        if isinstance(g, fm.Iff):
            return [ones ^ x ^ y for x, y in zip(self.value(g.left), self.value(g.right))]
        if isinstance(g, fm.Top):
            return [ones] * self.n
        if isinstance(g, fm.Bot):
            return [0] * self.n
        if isinstance(g, fm.Box):
            v = ones
            for x in self.value(g.child):
                v &= x
            return [v] * self.n
        if isinstance(g, fm.Diamond):
            v = 0
            for x in self.value(g.child):
                v |= x
            return [v] * self.n
        if isinstance(g, fm.Oblig):
            v = self.cond(self.value(g.consequent), self.value(g.antecedent))
            return [v] * self.n
        if isinstance(g, fm.Perm):
            cons = [ones ^ x for x in self.value(g.consequent)]
            return [ones ^ self.cond(cons, self.value(g.antecedent))] * self.n
        if isinstance(g, (fm.PrefGeq, fm.PrefGt)):
            left, right = self.value(g.left), self.value(g.right)
            both = [x | y for x, y in zip(left, right)]
            v = ones ^ self.cond([ones ^ x for x in left], both)
            if isinstance(g, fm.PrefGt):
                v &= self.cond([ones ^ y for y in right], both)
            return [v] * self.n
        raise TypeError(f"not a formula: {g!r}")


def sliced_values(f: fm.Formula, rel: Relation, rule: EvalRule, names: tuple[str, ...]) -> list[int]:
    """Per world of rel, the valuations of names where f holds, in one slice."""
    n = len(rel)
    if n * len(names) > _SLICE_LOG2:
        raise ValueError(f"{len(names)} names over {n} worlds exceed one slice")
    cols, ones = _columns(n, len(names))
    return _Slice(rel, rule, dict(zip(names, cols)), ones).value(f)


def first_valuation(
    formulas,
    rel: Relation,
    rule: EvalRule,
    names: tuple[str, ...],
    mode: str = "satisfy",
    deadline: float | None = None,
) -> tuple[int, ...] | None:
    """Least valuation of names (a tuple of masks) settling the formulas.

    mode "satisfy" asks for every formula true at every world, "refute" for
    some formula false at some world.  Atoms and metavariables alike are
    read from the valuation.  When 2**(n * len(names)) exceeds one slice,
    the leading names are bound to constant columns one mask tuple at a
    time, in ascending order, with the deadline checked between slices.
    """
    n = len(rel)
    size = 1 << n
    tail = min(len(names), _SLICE_LOG2 // n)
    lead = len(names) - tail
    tail_cols, ones = _columns(n, tail)
    cols = dict(zip(names[lead:], tail_cols))
    scan = _Slice(rel, rule, cols, ones)
    for head in product(range(size), repeat=lead):
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout()
        for name, mask in zip(names, head):
            cols[name] = [ones if mask >> a & 1 else 0 for a in range(n)]
        if mode == "satisfy":
            hits = ones
            for f in formulas:
                for x in scan.value(f):
                    hits &= x
                if not hits:
                    break
        else:
            hits = 0
            for f in formulas:
                for x in scan.value(f):
                    hits |= ones ^ x
        if hits:
            v = (hits & -hits).bit_length() - 1
            return head + tuple(v >> (tail - 1 - i) * n & size - 1 for i in range(tail))
    return None


# ---------------------------------------------------------------------------
# Frame validity

_FRAME_CAP_FEW_VARS = 4  # up to two metavariables
_FRAME_CAP_MANY_VARS = 3  # three or more


def _check_frame_cap(n: int, nvars: int, force: bool) -> None:
    cap = _FRAME_CAP_FEW_VARS if nvars <= 2 else _FRAME_CAP_MANY_VARS
    if n > cap and not force:
        raise ValueError(
            f"frame validity over {nvars} metavariables is capped at n={cap} "
            f"by default (got n={n}); pass force=True to override"
        )


def frame_counterexample(
    schema: fm.Formula,
    rel: Relation,
    rule: EvalRule,
    *,
    force: bool = False,
) -> dict[str, int] | None:
    """Lexicographically least falsifying assignment, or None if frame-valid.

    The schema must be built from metavariables only (no atoms).
    """
    if fm.atoms(schema):
        raise ValueError("schema contains ordinary atoms; use metavariables")
    names = tuple(sorted(fm.metavars(schema)))
    _check_frame_cap(len(rel), len(names), force)
    env = first_valuation((schema,), rel, rule, names, "refute")
    return None if env is None else dict(zip(names, env))


def valid_on_frame(
    schema: fm.Formula,
    rel: Relation,
    rule: EvalRule,
    *,
    force: bool = False,
) -> bool:
    """Frame validity: true under every assignment of world sets."""
    return frame_counterexample(schema, rel, rule, force=force) is None


# ---------------------------------------------------------------------------
# Collapse of the three rules on well-behaved frames


def rule_collapse(max_n: int, iso_reject: bool = True) -> dict:
    """On reflexive total transitive frames the three conditionals agree.

    Compares the extensional conditional for every antecedent/consequent
    pair on every such frame up to max_n, returning a report with either
    status "confirmed" or the first disagreeing frame.
    """
    from .finder import enumerate_frames, scan_frames

    props = (
        RelationProperty.REFLEXIVE,
        RelationProperty.TOTAL,
        RelationProperty.TRANSITIVE,
    )
    cond = fm.Oblig(fm.MetaVar("g"), fm.MetaVar("f"))

    def probe(rel):
        opt, mx, lewis = (
            sliced_values(cond, rel, rule, ("f", "g"))[0]
            for rule in (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)
        )
        diverged = (opt ^ mx) | (mx ^ lewis)
        return (diverged, opt, mx, lewis) if diverged else None

    hit, per_n = scan_frames(
        max_n, lambda n: enumerate_frames(n, props, iso_reject=iso_reject), probe
    )
    frames_checked = sum(per_n.values())
    if hit is None:
        return {
            "status": "confirmed",
            "max_n": max_n,
            "frames_checked": frames_checked,
            "properties": [p.value for p in props],
        }
    n, rel, (diverged, opt, mx, lewis) = hit
    v = (diverged & -diverged).bit_length() - 1
    return {
        "status": "diverged",
        "max_n": max_n,
        "frames_checked": frames_checked,
        "frame": {"n": n, "rel": list(rel)},
        "antecedent": _worlds(v >> n),
        "consequent": _worlds(v & full_mask(n)),
        "opt": bool(opt >> v & 1),
        "max": bool(mx >> v & 1),
        "lewis": bool(lewis >> v & 1),
    }


def _worlds(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
