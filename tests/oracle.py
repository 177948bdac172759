"""Naive reference implementations, independent of the package internals.

Worlds are explicit ints, world sets are frozensets, relations are sets of
pairs, and every quantifier is a literal Python loop.  Nothing here touches
the package's bitmask machinery; only the formula AST classes are shared,
as the common input format.  The package evaluator must agree with these
functions on everything.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product

from ddlmc import formula as fm


def opt_set(xs, worlds, geq):
    return frozenset(a for a in xs if all((a, b) in geq for b in xs))


def max_set(xs, worlds, geq):
    return frozenset(
        a
        for a in xs
        if not any((b, a) in geq and (a, b) not in geq for b in xs)
    )


def cond(rule, ys, xs, worlds, geq):
    """Truth of the conditional with consequent ys and antecedent xs."""
    if rule == "opt":
        return opt_set(xs, worlds, geq) <= ys
    if rule == "max":
        return max_set(xs, worlds, geq) <= ys
    if rule == "lewis":
        if not xs:
            return True
        for b in xs & ys:
            if all(c not in xs or c in ys for c in worlds if (c, b) in geq):
                return True
        return False
    raise ValueError(rule)


def truth_worlds(f, worlds, geq, valuation, rule, assignment=None):
    """Set of worlds where f is true, by direct recursion over the AST."""
    worlds = frozenset(worlds)

    def ev(g):
        if isinstance(g, fm.Atom):
            return frozenset(valuation.get(g.name, frozenset()))
        if isinstance(g, fm.MetaVar):
            return frozenset(assignment[g.name])
        if isinstance(g, fm.Top):
            return worlds
        if isinstance(g, fm.Bot):
            return frozenset()
        if isinstance(g, fm.Not):
            return worlds - ev(g.child)
        if isinstance(g, fm.Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, fm.And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, fm.Implies):
            return (worlds - ev(g.left)) | ev(g.right)
        if isinstance(g, fm.Iff):
            left, right = ev(g.left), ev(g.right)
            return frozenset(w for w in worlds if (w in left) == (w in right))
        if isinstance(g, fm.Box):
            return worlds if ev(g.child) == worlds else frozenset()
        if isinstance(g, fm.Diamond):
            return worlds if ev(g.child) else frozenset()
        if isinstance(g, fm.Oblig):
            ok = cond(rule, ev(g.consequent), ev(g.antecedent), worlds, geq)
            return worlds if ok else frozenset()
        if isinstance(g, fm.Perm):
            ok = cond(rule, worlds - ev(g.consequent), ev(g.antecedent), worlds, geq)
            return frozenset() if ok else worlds
        if isinstance(g, fm.PrefGeq):
            left, right = ev(g.left), ev(g.right)
            ok = cond(rule, worlds - left, left | right, worlds, geq)
            return frozenset() if ok else worlds
        if isinstance(g, fm.PrefGt):
            left, right = ev(g.left), ev(g.right)
            geq_part = not cond(rule, worlds - left, left | right, worlds, geq)
            gt_part = cond(rule, worlds - right, left | right, worlds, geq)
            return worlds if geq_part and gt_part else frozenset()
        raise TypeError(g)

    return ev(f)


# ---------------------------------------------------------------------------
# Relation facts by explicit loops


def reachable_pairs(n, pairs):
    """Pairs (a, b) joined by a path of one or more steps."""
    succ = {i: {j for (x, j) in pairs if x == i} for i in range(n)}
    out = set()
    for start in range(n):
        frontier = set(succ[start])
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier |= succ[node]
        out |= {(start, b) for b in seen}
    return out


def strict_pairs(pairs):
    return {(a, b) for (a, b) in pairs if (b, a) not in pairs}


def orbit(n, pairs):
    """Every relabelling of the pair set by a permutation of the n worlds."""
    return {
        frozenset((perm[a], perm[b]) for a, b in pairs)
        for perm in permutations(range(n))
    }


def delete_world(rel, w):
    """rel (a tuple of row bitmasks) without world w, the worlds above w
    renumbered down by one."""
    low = (1 << w) - 1
    return tuple((row & low) | (row >> 1 & ~low) for i, row in enumerate(rel) if i != w)


def orbit_lanes(n):
    """The class builder's orbit lanes, one permutation and one bit at a time.

    lanes[i][row] packs, in lane k (bits 64k upward), the relabelling by the
    k-th permutation of row i with value row, at the position the relabelled
    row takes in a packed relation (row 0 most significant).
    """
    perms = list(permutations(range(n)))
    lanes = []
    for i in range(n):
        per_row = []
        for rowval in range(1 << n):
            packed = 0
            for k, perm in enumerate(perms):
                contrib = 0
                for j in range(n):
                    if rowval >> j & 1:
                        contrib |= 1 << perm[j]
                packed |= contrib << ((n - 1 - perm[i]) * n + 64 * k)
            per_row.append(packed)
        lanes.append(tuple(per_row))
    return tuple(lanes)


def nonempty_subsets(worlds):
    items = sorted(worlds)
    return chain.from_iterable(
        combinations(items, k) for k in range(1, len(items) + 1)
    )


def naive_properties(n, pairs):
    worlds = range(n)
    geq = set(pairs)
    strict = strict_pairs(geq)
    closure_strict = reachable_pairs(n, strict)
    closure_weak = reachable_pairs(n, geq)

    reflexive = all((a, a) in geq for a in worlds)
    total = all((a, b) in geq or (b, a) in geq for a in worlds for b in worlds)
    transitive = all(
        (a, c) in geq
        for a in worlds
        for b in worlds
        for c in worlds
        if (a, b) in geq and (b, c) in geq
    )
    quasi = all(
        (a, c) in strict
        for a in worlds
        for b in worlds
        for c in worlds
        if (a, b) in strict and (b, c) in strict
    )
    acyclic = all((b, a) not in strict for (a, b) in closure_strict)
    suzumura = all((b, a) not in strict for (a, b) in closure_weak)
    ferrers = all(
        (a, d) in geq or (c, b) in geq
        for a in worlds
        for b in worlds
        for c in worlds
        for d in worlds
        if (a, b) in geq and (c, d) in geq
    )

    def limited(best):
        return all(
            best(frozenset(xs), frozenset(worlds), geq) for xs in nonempty_subsets(worlds)
        )

    def smooth(best):
        for xs in nonempty_subsets(worlds):
            xs = frozenset(xs)
            bs = best(xs, frozenset(worlds), geq)
            for x in xs - bs:
                if not any((y, x) in strict for y in bs):
                    return False
        return True

    return {
        "reflexive": reflexive,
        "total": total,
        "transitive": transitive,
        "quasi_transitive": quasi,
        "acyclic": acyclic,
        "suzumura_consistent": suzumura,
        "ferrers": ferrers,
        "interval_order": total and ferrers,
        "opt_limited": limited(opt_set),
        "max_limited": limited(max_set),
        "opt_smooth": smooth(opt_set),
        "max_smooth": smooth(max_set),
    }


def all_relations(n):
    """Every n-world relation as a tuple of row bitmasks (bit j of row i
    set iff i >= j), in ascending row-tuple order (lazy)."""
    return product(range(1 << n), repeat=n)


def labelled_search(target, rule, names, mode, props, max_n, memo, lacks=()):
    """The search ``finder.find_satisfying_model`` makes without isomorph
    rejection, one labelled relation and one valuation at a time: the
    least (n, rel, valuation) that settles target in mode, or None, and
    the number of frames checked up to and including it.

    The frames are every relation with the properties props (names of
    ``naive_properties``) that does not have all of lacks (names too; none
    lacked if empty), by world count, then row tuple; a valuation is
    a tuple of world masks for names, ascending.  Satisfy: target true at
    every world; refute: false at some world; valid: true at every world
    under every valuation (the witness's valuation is empty).  Whether a
    frame is settled at all is read off one member of its orbit, since
    truth is invariant under relabelling worlds, and is kept in memo (a
    dict) with the truth values computed so far, shared by the searches
    that pass it.  A target ~x reads x's truth values.
    """
    negated = isinstance(target, fm.Not)
    base = target.child if negated else target
    checked = 0
    for n in range(1, max_n + 1):
        # target is true at every world iff base's truth mask is everywhere;
        # satisfy asks for a valuation under which it is, refute for one
        # under which it is not, and valid for none under which it is not
        everywhere = 0 if negated else (1 << n) - 1
        satisfy = mode == "satisfy"
        for rel in all_relations(n):
            if ("frame", rel) not in memo:
                pairs = frozenset((i, j) for i in range(n) for j in range(n) if rel[i] >> j & 1)
                canonical = min(tuple(sorted(image)) for image in orbit(n, pairs))
                memo["frame", rel] = pairs, canonical, naive_properties(n, pairs)
            pairs, canonical, facts = memo["frame", rel]
            if not all(facts[p] for p in props) or lacks and all(facts[p] for p in lacks):
                continue
            checked += 1
            key = (base, rule, names, n, canonical)
            if key not in memo:
                memo[key] = _TruthTable(base, rule, names, n, canonical)
            found = memo[key].first(everywhere, satisfy) is not None
            if found != (mode == "valid"):
                if mode == "valid":
                    return (n, rel, ()), checked
                table = _TruthTable(base, rule, names, n, pairs)
                return (n, rel, table.valuations[table.first(everywhere, satisfy)]), checked
    return None, checked


class _TruthTable:
    """The worlds (as a mask) where a formula is true on one frame under
    each valuation of names, ascending, computed only as far as asked."""

    def __init__(self, f, rule, names, n, pairs):
        self.valuations = list(product(range(1 << n), repeat=len(names)))
        sets = [frozenset(w for w in range(n) if mask >> w & 1) for mask in range(1 << n)]
        self.pending = (
            sum(1 << w for w in truth_worlds(f, range(n), set(pairs), env, rule, env))
            for env in ({name: sets[mask] for name, mask in zip(names, masks)} for masks in self.valuations)
        )
        self.truths = []
        self.answers = {}

    def first(self, mask, equal):
        """Index of the first valuation whose truth mask is mask (equal) or
        is not mask (not equal), or None."""
        if (mask, equal) not in self.answers:
            found = next((i for i, truth in enumerate(self.truths) if (truth == mask) == equal), None)
            if found is None:
                for truth in self.pending:
                    self.truths.append(truth)
                    if (truth == mask) == equal:
                        found = len(self.truths) - 1
                        break
            self.answers[mask, equal] = found
        return self.answers[mask, equal]


# ---------------------------------------------------------------------------
# Fuzzers (seeded by the caller for reproducibility)

_LEAVES = ("atom", "atom", "atom", "top", "bot")
_NODES = (
    "not", "or", "and", "implies", "iff", "box", "diamond",
    "oblig", "perm", "geq", "gt",
)


def random_formula(rng, depth, atom_names, allow_meta=False):
    leaves = _LEAVES + (("meta",) if allow_meta else ())
    kind = rng.choice(leaves) if depth <= 0 else rng.choice(leaves + _NODES)
    if kind == "atom":
        return fm.Atom(rng.choice(atom_names))
    if kind == "meta":
        return fm.MetaVar(rng.choice(atom_names))
    if kind == "top":
        return fm.TOP
    if kind == "bot":
        return fm.BOT
    sub = lambda: random_formula(rng, depth - 1, atom_names, allow_meta)
    if kind == "not":
        return fm.Not(sub())
    if kind == "box":
        return fm.Box(sub())
    if kind == "diamond":
        return fm.Diamond(sub())
    if kind == "or":
        return fm.Or(sub(), sub())
    if kind == "and":
        return fm.And(sub(), sub())
    if kind == "implies":
        return fm.Implies(sub(), sub())
    if kind == "iff":
        return fm.Iff(sub(), sub())
    if kind == "oblig":
        return fm.Oblig(sub(), sub())
    if kind == "perm":
        return fm.Perm(sub(), sub())
    if kind == "geq":
        return fm.PrefGeq(sub(), sub())
    return fm.PrefGt(sub(), sub())


def random_model_data(rng, max_n, atom_names):
    """(n, pair set, valuation of frozensets) with n in 1..max_n."""
    n = rng.randint(1, max_n)
    pairs = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if rng.random() < 0.5
    }
    valuation = {
        a: frozenset(w for w in range(n) if rng.random() < 0.5)
        for a in atom_names
    }
    return n, pairs, valuation
