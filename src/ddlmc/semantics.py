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
of world sets, on frames of 1..5 worlds (the exhaustive world bound): at
n=5 three metavariables make 2**15 assignments, one bit-sliced pass.

Exhaustive scans use a bit-sliced evaluator that checks every valuation of
a frame at once.  Valuations of k names over n worlds are numbered like the
tuple of masks (m_0, ..., m_{k-1}) read as base-2^n digits with m_0 the
most significant, so ascending numbers are the lexicographic order of the
tuples.  A formula's value at a world is one int with bit v set iff the
formula holds there under valuation v: atoms are truth-table columns,
connectives are bitwise operations, and a conditional combines the
per-world ints along the frame's betterness relation.  The lowest set bit
of a result is the least valuation, which ``least_valuation`` decodes into
its tuple of masks.  A slice holds at most 2**16
valuations; beyond that the leading names are bound one mask tuple at a
time, in ascending order, and a deadline (a ``time.monotonic()`` value)
is checked between slices.  A search compiles its formulas once, into
closures over a slice, and runs them on every frame: ``scanner`` builds the
least-valuation probe (or, in "valid" mode, the every-valuation probe) and
``slicer`` the per-world values;
``frame_counterexample`` is the one-shot frame-validity form.
``truth_set`` stays the reference evaluator and re-validates every witness
the scans report.

This module evaluates one frame at a time; searches over frames, the rule
collapse among them, live in ``finder``.
"""

from __future__ import annotations

import enum
import time
from functools import lru_cache, reduce
from itertools import product
from operator import and_, or_

from . import formula as fm
from .model import (
    PreferenceModel,
    Relation,
    SearchTimeout,
    check_world_bound,
    iter_bits,
    mask_from_worlds,
    strict_part,
    transpose,
)

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
    if rule is EvalRule.OPT:  # at least as good as every world of xs
        return mask_from_worlds(a for a in iter_bits(xs) if xs & ~m.rel[a] == 0)
    if rule is EvalRule.MAX:  # strictly bettered by no world of xs
        scols = transpose(strict_part(m.rel))
        return mask_from_worlds(a for a in iter_bits(xs) if not scols[a] & xs)
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
                    raise ValueError(f"atom {g.name!r} has no valuation entry")
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


def _compile(g: fm.Formula):
    """g compiled once into a closure: a _Slice -> per world, the valuations
    where g holds."""
    if isinstance(g, (fm.Atom, fm.MetaVar)):
        name = g.name
        return lambda s: s.cols[name]
    if isinstance(g, fm.Top):
        return lambda s: [s.ones] * s.n
    if isinstance(g, fm.Bot):
        return lambda s: [0] * s.n
    if isinstance(g, fm.Not):
        child = _compile(g.child)
        return lambda s: [s.ones ^ x for x in child(s)]
    if isinstance(g, fm.Box):
        child = _compile(g.child)
        return lambda s: [reduce(and_, child(s), s.ones)] * s.n
    if isinstance(g, fm.Diamond):
        child = _compile(g.child)
        return lambda s: [reduce(or_, child(s), 0)] * s.n
    if isinstance(g, fm.Oblig):
        cons, ant = _compile(g.consequent), _compile(g.antecedent)
        return lambda s: [s.cond(cons(s), ant(s))] * s.n
    if isinstance(g, fm.Perm):
        cons, ant = _compile(g.consequent), _compile(g.antecedent)
        return lambda s: [s.ones ^ s.cond([s.ones ^ x for x in cons(s)], ant(s))] * s.n
    if not isinstance(g, (fm.Or, fm.And, fm.Implies, fm.Iff, fm.PrefGeq, fm.PrefGt)):
        raise TypeError(f"not a formula: {g!r}")
    left, right = _compile(g.left), _compile(g.right)
    if isinstance(g, fm.Or):
        return lambda s: [x | y for x, y in zip(left(s), right(s))]
    if isinstance(g, fm.And):
        return lambda s: [x & y for x, y in zip(left(s), right(s))]
    if isinstance(g, fm.Implies):
        return lambda s: [(s.ones ^ x) | y for x, y in zip(left(s), right(s))]
    if isinstance(g, fm.Iff):
        return lambda s: [s.ones ^ x ^ y for x, y in zip(left(s), right(s))]
    gt = isinstance(g, fm.PrefGt)

    def pref(s):
        ones, xs, ys = s.ones, left(s), right(s)
        both = [x | y for x, y in zip(xs, ys)]
        v = ones ^ s.cond([ones ^ x for x in xs], both)
        if gt:
            v &= s.cond([ones ^ y for y in ys], both)
        return [v] * s.n

    return pref


def slicer(f: fm.Formula, rule: EvalRule, names: tuple[str, ...]):
    """f compiled once: values(rel) is, per world of rel, the valuations of
    names where f holds, in one slice."""
    program = _compile(f)

    def values(rel: Relation) -> list[int]:
        n = len(rel)
        if n * len(names) > _SLICE_LOG2:
            raise ValueError(f"{len(names)} names over {n} worlds exceed one slice")
        cols, ones = _columns(n, len(names))
        return program(_Slice(rel, rule, dict(zip(names, cols)), ones))

    return values


def least_valuation(hits: int, n: int, k: int) -> tuple[int, ...]:
    """The valuation numbered by the lowest set bit of hits: its k masks
    over n worlds, the most significant name first."""
    v = (hits & -hits).bit_length() - 1
    return tuple(v >> (k - 1 - i) * n & (1 << n) - 1 for i in range(k))


def scanner(formulas, rule: EvalRule, names: tuple[str, ...], mode: str = "satisfy"):
    """The formulas compiled once: probe(rel, deadline=None) is the least
    valuation of names (a tuple of masks) settling them on rel, or None.

    mode "satisfy" asks for every formula true at every world, "refute" for
    some formula false at some world, and "valid" for every formula true at
    every world under every valuation: its probe returns () when no
    valuation refutes them, None otherwise.  Atoms and metavariables alike
    are read from the valuation.  When 2**(n * len(names)) exceeds one
    slice, the leading names are bound to constant columns one mask tuple
    at a time, in ascending order, with the deadline checked between slices.
    """
    programs = [_compile(f) for f in formulas]
    satisfy, valid = mode == "satisfy", mode == "valid"

    def probe(rel: Relation, deadline: float | None = None) -> tuple[int, ...] | None:
        n = len(rel)
        size = 1 << n
        tail = min(len(names), _SLICE_LOG2 // n)
        lead = len(names) - tail
        tail_cols, ones = _columns(n, tail)
        cols = dict(zip(names[lead:], tail_cols))
        s = _Slice(rel, rule, cols, ones)
        for head in product(range(size), repeat=lead):
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout()
            for name, mask in zip(names, head):
                cols[name] = [ones if mask >> a & 1 else 0 for a in range(n)]
            holds = ones  # valuations where every formula holds at every world
            for program in programs:
                holds = reduce(and_, program(s), holds)
                if not holds:
                    break
            hits = holds if satisfy else ones ^ holds
            if hits:
                return None if valid else head + least_valuation(hits, n, tail)
        return () if valid else None

    return probe


# ---------------------------------------------------------------------------
# Frame validity

def schema_names(schema: fm.Formula) -> tuple[str, ...]:
    """A schema's metavariables, sorted; a schema with atoms is rejected."""
    if fm.atoms(schema):
        raise ValueError("schema contains ordinary atoms; use metavariables")
    return tuple(sorted(fm.metavars(schema)))


def frame_counterexample(schema: fm.Formula, rel: Relation, rule: EvalRule) -> dict[str, int] | None:
    """Lexicographically least falsifying assignment, or None if frame-valid.

    The schema must be built from metavariables only (no atoms), and the
    frame must have 1..5 worlds.
    """
    check_world_bound(len(rel))
    names = schema_names(schema)
    env = scanner((schema,), rule, names, "refute")(rel)
    return None if env is None else dict(zip(names, env))


def valid_on_frame(schema: fm.Formula, rel: Relation, rule: EvalRule) -> bool:
    """Frame validity: true under every assignment of world sets."""
    return frame_counterexample(schema, rel, rule) is None
