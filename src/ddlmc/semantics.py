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
per-world ints along the frame's betterness relation, negating no operand
(x & ~y is x ^ (x & y), which costs less on long ints).  A world-constant
formula (O, P, >=, >, [], <>, T, F and their Boolean combinations) has
one int for all worlds, so a connective of two of them is one operation.
The lowest set bit of a result is the least valuation, which
``least_valuation`` decodes into its tuple of masks.  A slice holds at
most 2**16 valuations; beyond that the leading names are bound one mask
tuple at a time, in ascending order, and a deadline (a
``time.monotonic()`` value) is checked between slices.  A search compiles
its formulas once, into closures over a slice, and runs them on every
frame: ``scanner`` builds the least-valuation probe (or, in "valid" mode,
the every-valuation probe) and ``slicer`` the per-world values;
``frame_counterexample`` is the one-shot frame-validity form.

A slice reads a frame only through its key, the part of the relation the
formulas' conditionals can tell apart under the rule (``key``).  Each
probe memoises its results on the key, and ``scanner`` keeps one probe
per (formulas, rule, names, mode) for the whole process, so the searches
of a process settle each key once however many frames and searches share
it.  A memo lives as long as the process and holds at most 2**16 keys (a
scan of all 291 968 five-world classes meets 23 566 under lewis, 7 921
under max and 41 249 under opt); keys met past that are settled each
time.  Every key map is idempotent, so the keys of
all frames are its fixed points (``fixed_points``), and a search with no
property and none lacked first walks their classes (9 608, 582 and
13 140 at n=5 under lewis, max and opt): ``finder.scan_frames`` counts the
frames of a world count where none of them hits, without visiting them.
The keys of lewis, max and targets without a conditional read no loop
(``CLOSURE_KEYS``), so a search with transitivity or its weakenings, or
lacking a weakening, walks the reflexive closures instead (the transitive n=5 frames, 1 895
classes, stand on 139 preorder classes).
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
    MAX_WORLDS,
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
    """Set of worlds (bitmask) where f is true.  The walk keeps its own
    stack, so a tree of any depth is evaluated without recursion."""
    w = m.full_mask
    nodes = []
    # subformulas yields each node before its operands, left before right:
    # the order in which an evaluator that recurses meets them, and so
    # meets a missing atom or metavariable
    for g in fm.subformulas(f):
        if isinstance(g, fm.Atom) and strict_atoms and g.name not in m.valuation:
            raise ValueError(f"atom {g.name!r} has no valuation entry")
        if isinstance(g, fm.MetaVar) and (assignment is None or g.name not in assignment):
            raise ValueError(f"unbound metavariable ?{g.name}")
        nodes.append(g)
    # read backwards, every operand comes before its node, the right one
    # first: a node's left (or consequent) value is on top of the stack
    values: list[int] = []
    for g in reversed(nodes):
        if isinstance(g, fm.Atom):
            value = m.valuation.get(g.name, 0)
        elif isinstance(g, fm.MetaVar):
            value = assignment[g.name]
        elif isinstance(g, fm.Top):
            value = w
        elif isinstance(g, fm.Bot):
            value = 0
        elif isinstance(g, fm.Not):
            value = w ^ values.pop()
        elif isinstance(g, fm.Box):
            value = w if values.pop() == w else 0
        elif isinstance(g, fm.Diamond):
            value = w if values.pop() else 0
        else:
            left, right = values.pop(), values.pop()
            if isinstance(g, fm.Or):
                value = left | right
            elif isinstance(g, fm.And):
                value = left & right
            elif isinstance(g, fm.Implies):
                value = (w ^ left) | right
            elif isinstance(g, fm.Iff):
                value = w ^ (left ^ right)
            elif isinstance(g, fm.Oblig):
                value = w if cond_holds(rule, left, right, m) else 0
            elif isinstance(g, fm.Perm):
                value = w if not cond_holds(rule, w ^ left, right, m) else 0
            elif isinstance(g, fm.PrefGeq):
                value = w if not cond_holds(rule, w ^ left, left | right, m) else 0
            else:  # PrefGt
                both = left | right
                geq = not cond_holds(rule, w ^ left, both, m)
                gt = cond_holds(rule, w ^ right, both, m)
                value = w if geq and gt else 0
        values.append(value)
    return values.pop()


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
_MEMO_KEYS = 1 << 16  # a search's probe remembers at most this many keys


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


_DIAGONAL = tuple(1 << a for a in range(MAX_WORLDS))


def _world_count(rel: Relation) -> Relation:
    return (0,) * len(rel)


def _reflexive_closure(rel: Relation) -> Relation:
    return tuple(map(or_, rel, _DIAGONAL))


def _looped_rows(rel: Relation) -> Relation:
    return tuple(r if r >> a & 1 else 0 for a, r in enumerate(rel))


_KEYS = {EvalRule.LEWIS: _reflexive_closure, EvalRule.MAX: strict_part, EvalRule.OPT: _looped_rows}

# The key maps that give every relation the key of its reflexive closure,
# so a probe keyed on one reads no loop: ``finder.scan_frames`` may walk
# the closures in place of the frames.  Opt's is not one: a world's loop
# decides whether its row is read.
CLOSURE_KEYS = frozenset({_world_count, _reflexive_closure, strict_part})


def key(formulas, rule: EvalRule):
    """rel -> the part of rel the formulas read under rule, as a relation
    whose slices give the same values as rel's.

    Only O, P, >= and > nodes read the relation: formulas without one read
    only the world count (the key is the empty relation on as many
    worlds).  Otherwise lewis never reads a world's reflexive loop (the key
    is the reflexive closure); max reads only the strict part; opt never
    reads the row of a world without its loop, which is in its own near
    list (the key empties that row).  Each key map k is one module-level
    function, and idempotent: k(k(rel)) == k(rel).
    """
    conditionals = (fm.Oblig, fm.Perm, fm.PrefGeq, fm.PrefGt)
    if any(isinstance(g, conditionals) for f in formulas for g in fm.subformulas(f)):
        return _KEYS[rule]
    return _world_count


@lru_cache(maxsize=None)
def fixed_points(key_map):
    """The predicate rel -> key_map(rel) == rel, which for an idempotent map
    accepts exactly its keys: the classes ``finder.scan_frames`` walks.
    For each key map it is invariant under relabelling worlds and
    hereditary, so ``canonical_relations`` builds its classes, and it is
    one object per map, so it keys that cache once."""
    return lambda rel: key_map(rel) == rel


class _Slice:
    """One frame's key under one rule, evaluated over a slice of valuations.

    near pairs a world a with the worlds the conditional consults for it,
    read from the table of each mask's worlds (``_worlds``): under opt the
    worlds a is not at least as good as, for the looped worlds only (a
    world without its loop is in its own list, so it is never optimal);
    under max (the key is the strict part) the worlds strictly better than
    a, and under lewis (the key is reflexive) the worlds at least as good
    as a, a itself among them, for every world: both are the key's column
    of a.
    """

    __slots__ = ("n", "near", "lewis", "cols", "ones")

    def __init__(self, seen: Relation, rule: EvalRule, cols: dict, ones: int):
        worlds = _worlds(len(seen))
        if rule is EvalRule.OPT:  # worlds[~row] lists the worlds outside row
            self.near = [(a, worlds[~row]) for a, row in enumerate(seen) if row >> a & 1]
        else:
            near = [[] for _ in seen]
            for c, row in enumerate(seen):
                for a in worlds[row]:
                    near[a].append(c)
            self.near = list(enumerate(near))
        self.n, self.lewis, self.cols, self.ones = len(seen), rule is EvalRule.LEWIS, cols, ones

    def cond(self, cons: list[int], ant: list[int]) -> int:
        """Valuations where O(cons / ant) holds, from per-world operands (a
        world-constant one is lifted, see ``_lists``).  No operand is
        negated: x & ~y is written x ^ (x & y), which on long ints costs
        less than ~y.  Under lewis each world b consults itself, so where b
        is an antecedent world and unblocked, it is a consequent world."""
        if self.lewis:
            bad = [x ^ (x & y) for x, y in zip(ant, cons)]
            good = self.ones ^ reduce(or_, ant)  # no antecedent world
            for b, near in self.near:
                blocked = 0
                for c in near:
                    blocked |= bad[c]
                x = ant[b]
                good |= x ^ (x & blocked)
            return good
        violated = 0
        for a, near in self.near:
            beaten = cons[a]
            for b in near:
                beaten |= ant[b]
            x = ant[a]
            violated |= x ^ (x & beaten)
        return self.ones ^ violated


@lru_cache(maxsize=None)
def _worlds(n: int) -> tuple[tuple[int, ...], ...]:
    """The worlds of each mask over n worlds, ascending."""
    return tuple(tuple(a for a in range(n) if mask >> a & 1) for mask in range(1 << n))


def _compile(f: fm.Formula):
    """f compiled once: a _Slice -> per world, the valuations where f holds."""
    return _lists(*_program(f))


def _program(f: fm.Formula):
    """f compiled once into (closure, constant) (see ``_closure``).  The one
    entry of the compiler: a tree deeper than formula.MAX_DEPTH is a
    ValueError (the closures recurse)."""
    fm.check_depth(f)
    return _closure(f)


def _lists(program, constant: bool):
    """program with one value per world: a world-constant one's repeated."""
    return (lambda s: program(s) * s.n) if constant else program


def _closure(g: fm.Formula):
    """(closure, constant): the closure maps a _Slice to g's values, one
    per world, or, when g is world-constant (see the module docstring), to
    a list of its one value; ``_lists`` lifts that to every world."""
    if isinstance(g, (fm.Atom, fm.MetaVar)):
        name = g.name
        return (lambda s: s.cols[name]), False
    if isinstance(g, (fm.Top, fm.Bot)):
        top = isinstance(g, fm.Top)
        return (lambda s: [s.ones if top else 0]), True
    if isinstance(g, fm.Not):
        child, constant = _closure(g.child)
        return (lambda s: [s.ones ^ x for x in child(s)]), constant
    if isinstance(g, (fm.Box, fm.Diamond)):
        (child, constant), op = _closure(g.child), and_ if isinstance(g, fm.Box) else or_
        return (child if constant else lambda s: [reduce(op, child(s))]), True
    if isinstance(g, fm.Oblig):
        cons, ant = _lists(*_closure(g.consequent)), _lists(*_closure(g.antecedent))
        return (lambda s: [s.cond(cons(s), ant(s))]), True
    if isinstance(g, fm.Perm):  # P(x / y) is ~O(~x / y)
        return _closure(fm.Not(fm.Oblig(fm.Not(g.consequent), g.antecedent)))
    if isinstance(g, (fm.PrefGeq, fm.PrefGt)):
        left, right = _lists(*_closure(g.left)), _lists(*_closure(g.right))
        gt = isinstance(g, fm.PrefGt)

        def pref(s):
            ones, xs, ys = s.ones, left(s), right(s)
            both = list(map(or_, xs, ys))
            v = ones ^ s.cond([ones ^ x for x in xs], both)
            if gt:
                v &= s.cond([ones ^ y for y in ys], both)
            return [v]

        return pref, True
    if not isinstance(g, (fm.Or, fm.And, fm.Implies, fm.Iff)):
        raise TypeError(f"not a formula: {g!r}")
    (left, lc), (right, rc) = _closure(g.left), _closure(g.right)
    if lc != rc:  # the world-constant side is lifted to every world
        left, right = _lists(left, lc), _lists(right, rc)
    if isinstance(g, fm.Or):
        return (lambda s: list(map(or_, left(s), right(s)))), lc and rc
    if isinstance(g, fm.And):
        return (lambda s: list(map(and_, left(s), right(s)))), lc and rc
    if isinstance(g, fm.Implies):
        return (lambda s: [(s.ones ^ x) | y for x, y in zip(left(s), right(s))]), lc and rc
    return (lambda s: [s.ones ^ x ^ y for x, y in zip(left(s), right(s))]), lc and rc


def slicer(f: fm.Formula, rule: EvalRule, names: tuple[str, ...]):
    """f compiled once: values(rel) is, per world of rel, the valuations of
    names where f holds, in one slice."""
    program = _compile(f)
    key_of = key((f,), rule)

    def values(rel: Relation) -> list[int]:
        n = len(rel)
        if n * len(names) > _SLICE_LOG2:
            raise ValueError(f"{len(names)} names over {n} worlds exceed one slice")
        cols, ones = _columns(n, len(names))
        return program(_Slice(key_of(rel), rule, dict(zip(names, cols)), ones))

    return values


def least_valuation(hits: int, n: int, k: int) -> tuple[int, ...]:
    """The valuation numbered by the lowest set bit of hits: its k masks
    over n worlds, the most significant name first."""
    v = (hits & -hits).bit_length() - 1
    return tuple(v >> (k - 1 - i) * n & (1 << n) - 1 for i in range(k))


_probes: dict = {}  # every probe scanner has built, per (formulas, rule, names, mode)


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

    The probe remembers its result per key (``key``; see the module
    docstring).  A timeout stores nothing.  The process keeps one probe per
    (formulas, rule, names, mode): the searches of one process on the same
    targets (the rows of a grid, a table's forward and dropped check of one
    axiom) share its memo and settle each key once.
    """
    formulas, names = tuple(formulas), tuple(names)
    args = (formulas, rule, names, mode)
    if args not in _probes:
        _probes[args] = _probe(formulas, rule, names, mode)
    return _probes[args]


def _probe(formulas: tuple, rule: EvalRule, names: tuple[str, ...], mode: str):
    programs = [_program(f)[0] for f in formulas]
    satisfy, valid = mode == "satisfy", mode == "valid"

    def settle(seen: Relation, deadline: float | None = None) -> tuple[int, ...] | None:
        n = len(seen)
        size = 1 << n
        tail = min(len(names), _SLICE_LOG2 // n)
        lead = len(names) - tail
        tail_cols, ones = _columns(n, tail)
        cols = dict(zip(names[lead:], tail_cols))
        s = _Slice(seen, rule, cols, ones)
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

    key_of = key(formulas, rule)
    memo = {}

    def probe(rel: Relation, deadline: float | None = None) -> tuple[int, ...] | None:
        seen = key_of(rel)
        result = memo.get(seen, memo)  # the memo itself stands for a miss
        if result is memo:
            result = settle(seen, deadline)  # a timeout stores nothing
            if len(memo) < _MEMO_KEYS:
                memo[seen] = result
        return result

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
