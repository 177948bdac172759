"""Finite preference models and primitive relation algebra.

A model is a universe of worlds 0..n-1 (n <= 16), a betterness relation
stored as its weak part (i >= j: "world i is at least as good as world j"),
and a valuation mapping atom names to sets of worlds.

Relations are tuples of n row bitmasks: bit j of row i is set iff i >= j.
World sets are plain int bitmasks over the n worlds.  The strict part and
the equal-goodness relation are always derived from the weak relation,
never stored.

Model file format (line-oriented, UTF-8, ``#`` starts a comment)::

    worlds <n>
    rel <i>>=<j> ...
    val <atom> = {<i>,<j>,...}

Exactly one ``rel`` line (possibly with no pairs); one ``val`` line per atom.
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterable, Iterator

Relation = tuple[int, ...]

MAX_WORLDS = 16

# Exhaustive enumeration is bounded at 5 worlds: isomorph rejection marks
# orbits in a table of 2^(n*n) bytes (32 MiB at n=5, 64 GiB at n=6), and
# enumeration without it iterates every one of the 2^(n*n) relations.
MAX_EXHAUSTIVE_WORLDS = 5


class SearchTimeout(Exception):
    """Wall-clock budget exhausted before the search finished."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_worlds(worlds: Iterable[int]) -> int:
    mask = 0
    for w in worlds:
        mask |= 1 << w
    return mask


def worlds_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relation_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Relation:
    rows = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"world pair ({i},{j}) out of range for n={n}")
        rows[i] |= 1 << j
    return tuple(rows)


def relation_pairs(rel: Relation) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, row in enumerate(rel) for j in iter_bits(row))


def transpose(rel: Relation) -> Relation:
    cols = [0] * len(rel)
    for i, row in enumerate(rel):
        bit = 1 << i
        j = 0
        while row:
            if row & 1:
                cols[j] |= bit
            row >>= 1
            j += 1
    return tuple(cols)


def strict_part(rel: Relation) -> Relation:
    """Asymmetric factor: i > j iff i >= j and not j >= i."""
    cols = transpose(rel)
    return tuple(row & ~col for row, col in zip(rel, cols))


def equal_goodness(rel: Relation) -> Relation:
    """i ~ j iff i >= j and j >= i; always symmetric."""
    cols = transpose(rel)
    return tuple(row & col for row, col in zip(rel, cols))


def transitive_closure(rel: Relation) -> Relation:
    """Least transitive relation containing rel (Warshall over bit rows)."""
    rows = list(rel)
    n = len(rows)
    for k in range(n):
        row_k = rows[k]
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return tuple(rows)


class PreferenceModel:
    """Finite preference model: universe size, betterness rows, valuation.

    Immutable by convention after construction; share freely.
    """

    def __init__(self, n: int, rel: Relation, valuation: dict[str, int] | None = None):
        if not (1 <= n <= MAX_WORLDS):
            raise ValueError(f"world count must be in 1..{MAX_WORLDS}, got {n}")
        rel = tuple(rel)
        if len(rel) != n:
            raise ValueError(f"relation has {len(rel)} rows for n={n}")
        w = full_mask(n)
        if any(row & ~w for row in rel):
            raise ValueError("relation row refers to a world outside the universe")
        valuation = dict(valuation or {})
        for atom, mask in valuation.items():
            if mask & ~w:
                raise ValueError(f"valuation of {atom!r} outside the universe")
        self.n = n
        self.rel = rel
        self.valuation = valuation

    @classmethod
    def from_pairs(
        cls,
        n: int,
        pairs: Iterable[tuple[int, int]],
        valuation: dict[str, Iterable[int]] | None = None,
    ) -> "PreferenceModel":
        masks = {a: mask_from_worlds(ws) for a, ws in (valuation or {}).items()}
        return cls(n, relation_from_pairs(n, pairs), masks)

    @property
    def full_mask(self) -> int:
        return full_mask(self.n)

    def strict(self) -> Relation:
        return strict_part(self.rel)

    def equal(self) -> Relation:
        return equal_goodness(self.rel)

    def atom_mask(self, name: str) -> int | None:
        return self.valuation.get(name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceModel):
            return NotImplemented
        return (
            self.n == other.n
            and self.rel == other.rel
            and self.valuation == other.valuation
        )

    def __repr__(self) -> str:
        return (
            f"PreferenceModel(n={self.n}, rel={relation_pairs(self.rel)}, "
            f"valuation={{{', '.join(f'{a}: {worlds_from_mask(m)}' for a, m in sorted(self.valuation.items()))}}})"
        )


class ModelFormatError(ValueError):
    """Malformed model file."""


def parse_model(text: str) -> PreferenceModel:
    """Parse the model file format."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ModelFormatError("empty model file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "worlds" or not parts[1].isdigit():
        raise ModelFormatError(f"line {lineno}: expected 'worlds <n>', got {header!r}")
    n = int(parts[1])
    if not (1 <= n <= MAX_WORLDS):
        raise ModelFormatError(f"line {lineno}: world count {n} out of range 1..{MAX_WORLDS}")

    if len(lines) < 2 or lines[1][1].split()[0] != "rel":
        where = lines[1][0] if len(lines) > 1 else lineno
        raise ModelFormatError(f"line {where}: expected a 'rel' line")
    lineno, rel_line = lines[1]
    pairs = []
    for item in rel_line.split()[1:]:
        left, sep, right = item.partition(">=")
        if not sep or not left.isdigit() or not right.isdigit():
            raise ModelFormatError(f"line {lineno}: bad relation pair {item!r}")
        i, j = int(left), int(right)
        if i >= n or j >= n:
            raise ModelFormatError(f"line {lineno}: world index out of range in {item!r}")
        pairs.append((i, j))

    valuation: dict[str, int] = {}
    for lineno, line in lines[2:]:
        parts = line.split(None, 1)
        if parts[0] != "val" or len(parts) != 2 or "=" not in parts[1]:
            raise ModelFormatError(f"line {lineno}: expected 'val <atom> = {{...}}'")
        atom, _, rest = parts[1].partition("=")
        atom = atom.strip()
        if not atom.isidentifier():
            raise ModelFormatError(f"line {lineno}: bad atom name {atom!r}")
        if atom in valuation:
            raise ModelFormatError(f"line {lineno}: duplicate atom {atom!r}")
        rest = rest.strip()
        if not (rest.startswith("{") and rest.endswith("}")):
            raise ModelFormatError(f"line {lineno}: expected a world set in braces")
        body = rest[1:-1].strip()
        mask = 0
        if body:
            for item in body.split(","):
                item = item.strip()
                if not item.isdigit():
                    raise ModelFormatError(f"line {lineno}: bad world index {item!r}")
                w = int(item)
                if w >= n:
                    raise ModelFormatError(f"line {lineno}: world index {w} out of range")
                mask |= 1 << w
        valuation[atom] = mask

    return PreferenceModel(n, relation_from_pairs(n, pairs), valuation)


def serialize_model(m: PreferenceModel) -> str:
    """Canonical text form; parse_model(serialize_model(m)) == m."""
    rel_items = " ".join(f"{i}>={j}" for i, j in relation_pairs(m.rel))
    lines = [f"worlds {m.n}", f"rel {rel_items}".rstrip()]
    for atom in sorted(m.valuation):
        worlds = ",".join(str(w) for w in worlds_from_mask(m.valuation[atom]))
        lines.append(f"val {atom} = {{{worlds}}}")
    return "\n".join(lines) + "\n"


def model_json(m: PreferenceModel) -> dict:
    """The JSON form of a reported witness: its pairs, valuation and text."""
    return {
        "n": m.n,
        "rel": [list(p) for p in relation_pairs(m.rel)],
        "valuation": {a: list(worlds_from_mask(mask)) for a, mask in sorted(m.valuation.items())},
        "model_text": serialize_model(m),
    }


# ---------------------------------------------------------------------------
# Permutation action on relations, enumeration, canonical orbit representatives
#
# Relations are compared by their rows read as a tuple (row 0 first, each row
# an int bitmask).  pack_relation preserves that order, putting row 0 in the
# most significant position, so integer order on packed values equals tuple
# order on relations.


def all_relations(n: int) -> Iterator[Relation]:
    """Every n-world relation, in ascending row-tuple order (lazy)."""
    yield from product(range(1 << n), repeat=n)


def permute_relation(rel: Relation, perm: tuple[int, ...]) -> Relation:
    """Relabel worlds: new relation holds (perm[i], perm[j]) iff rel holds (i, j)."""
    n = len(rel)
    rows = [0] * n
    for i, row in enumerate(rel):
        shifted = 0
        for j in iter_bits(row):
            shifted |= 1 << perm[j]
        rows[perm[i]] = shifted
    return tuple(rows)


def pack_relation(rel: Relation) -> int:
    packed = 0
    n = len(rel)
    for row in rel:
        packed = (packed << n) | row
    return packed


def unpack_relation(packed: int, n: int) -> Relation:
    mask = full_mask(n)
    return tuple((packed >> ((n - 1 - i) * n)) & mask for i in range(n))


@lru_cache(maxsize=None)
def _orbit_lanes(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # lanes[i][row] holds one 64-bit lane per world permutation: the
    # contribution of row i, with value row, to the packed relabelled
    # relation.  OR-ing one entry per row gives every image at once.
    if n * n > 64:
        raise ValueError("orbit tables hold n*n bits per 64-bit lane; supported for n <= 8")
    perms = list(permutations(range(n)))
    lanes = []
    for i in range(n):
        per_row = []
        for rowval in range(1 << n):
            packed = 0
            for k, perm in enumerate(perms):
                contrib = 0
                for j in iter_bits(rowval):
                    contrib |= 1 << perm[j]
                packed |= contrib << ((n - 1 - perm[i]) * n + 64 * k)
            per_row.append(packed)
        lanes.append(tuple(per_row))
    return tuple(lanes), 8 * len(perms)


def _orbit_images(rel: Relation) -> list[int]:
    """The packed relabelling of rel under every world permutation."""
    lanes, size = _orbit_lanes(len(rel))
    packed = 0
    for column, row in zip(lanes, rel):
        packed |= column[row]
    return memoryview(packed.to_bytes(size, sys.byteorder)).cast("Q").tolist()


def canonical_form(rel: Relation) -> Relation:
    """Least relation (row-tuple order) in the world-permutation orbit."""
    return unpack_relation(min(_orbit_images(rel)), len(rel))


def orbit(rel: Relation) -> frozenset[Relation]:
    """All relabelings of rel."""
    n = len(rel)
    return frozenset(permute_relation(rel, p) for p in permutations(range(n)))


_canonical_cache: dict[tuple[int, object], tuple[Relation, ...]] = {}


def canonical_relations(
    n: int,
    keep: Callable[[Relation], bool] | None = None,
    deadline: float | None = None,
) -> tuple[Relation, ...]:
    """One representative (the orbit minimum) per isomorphism class of the
    n-world relations that keep accepts (all of them when keep is None),
    ascending.

    The classes are built from the (n-1)-world classes, by extending each
    representative with a new last world in all 2^(2n-1) ways (the new
    world's column in the old rows, and its row).  A candidate whose orbit
    is already marked in a 2^(n*n)-byte table is skipped; otherwise it is
    tested with keep and, if it passes, its whole orbit is marked and the
    orbit minimum kept.  Failing orbits are not marked: marking costs more
    than testing a relabelled copy again.  This is complete because keep
    must be invariant under relabelling worlds and hereditary: deleting a
    world from a relation it accepts leaves a relation it accepts, so each
    n-world class extends some (n-1)-world class.
    ``finder.enumerate_frames`` passes "has these relation properties",
    which is both; a new property must be hereditary too, and
    ``tests/test_relprops.py`` checks that every property is.  The result
    equals the unrestricted classes filtered by keep, in the same order.

    A restrictive keep makes this cheap (1 895 transitive classes at n=5).
    Without one, or with a weak one such as acyclicity, n=5 still marks up
    to 292k orbits of up to 120 relations each, and tests every candidate
    not yet marked.

    Results are cached per (n, keep): pass the same keep object to reuse a
    build.  The deadline (a ``time.monotonic`` value) is checked between
    representatives and raises SearchTimeout; a build that times out is not
    cached.  Supported for n <= MAX_EXHAUSTIVE_WORLDS.
    """
    if not (1 <= n <= MAX_EXHAUSTIVE_WORLDS):
        raise ValueError(
            f"isomorph rejection needs a table of 2^(n*n) bytes; supported for n <= {MAX_EXHAUSTIVE_WORLDS}"
        )
    return _classes(n, keep, deadline)


def _classes(n: int, keep, deadline: float | None) -> tuple[Relation, ...]:
    if n == 0:
        return ((),)
    key = (n, keep)
    if key in _canonical_cache:
        return _canonical_cache[key]
    parents = _classes(n - 1, keep, deadline)
    seen = bytearray(1 << (n * n))
    shifts = [(n - 1 - i) * n for i in range(n - 1)]
    new_bit = 1 << (n - 1)
    new_rows = range(1 << n)
    minima = []
    for parent in parents:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout()
        for column in range(1 << (n - 1)):
            old = tuple(
                row | new_bit if column >> i & 1 else row
                for i, row in enumerate(parent)
            )
            base = 0
            for row, shift in zip(old, shifts):
                base |= row << shift
            for new_row in new_rows:
                if seen[base | new_row]:
                    continue
                rows = old + (new_row,)
                if keep is not None and not keep(rows):
                    continue
                images = _orbit_images(rows)
                for image in images:
                    seen[image] = 1
                minima.append(min(images))
    del seen  # released before the relations are built, to lower the peak
    minima.sort()
    result = tuple(unpack_relation(packed, n) for packed in minima)
    _canonical_cache[key] = result
    return result
