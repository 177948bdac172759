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

import mmap
import sys
import time
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd
from typing import Callable, Iterable, Iterator

Relation = tuple[int, ...]

MAX_WORLDS = 16

# Exhaustive enumeration is bounded at 5 worlds: every search scans orbit
# minima, built with a lazily mapped table of 2^(n*n) bytes (32 MiB at n=5,
# 64 GiB at n=6), of which a build makes resident only the pages it touches.
MAX_EXHAUSTIVE_WORLDS = 5


class SearchTimeout(Exception):
    """Wall-clock budget exhausted before the search finished."""


def check_world_bound(max_n: int) -> None:
    """Reject a world-count bound outside 1..MAX_EXHAUSTIVE_WORLDS before any work."""
    if not (1 <= max_n <= MAX_EXHAUSTIVE_WORLDS):
        raise ValueError(f"world-count bound must be in 1..{MAX_EXHAUSTIVE_WORLDS}, got {max_n}")


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
    strict = []
    for i, row in enumerate(rel):
        bit = 1 << i
        m = row
        while m:
            low = m & -m
            if rel[low.bit_length() - 1] & bit:
                row ^= low
            m ^= low
        strict.append(row)
    return tuple(strict)


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


def _is_index(text: str) -> bool:
    """ASCII digits only: str.isdigit also accepts '²' and '٣'."""
    return text.isascii() and text.isdigit()


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
    if len(parts) != 2 or parts[0] != "worlds" or not _is_index(parts[1]):
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
        if not sep or not _is_index(left) or not _is_index(right):
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
                if not _is_index(item):
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
# Permutation action on relations, canonical orbit representatives
#
# Relations are compared by their rows read as a tuple (row 0 first, each row
# an int bitmask).  A relation packs into one int of n*n bits with row 0 in
# the most significant position (unpack_relation reads that layout), so
# integer order on packed values equals tuple order on relations.


def unpack_relation(packed: int, n: int) -> Relation:
    mask = full_mask(n)
    return tuple((packed >> ((n - 1 - i) * n)) & mask for i in range(n))


@lru_cache(maxsize=None)
def _orbit_lanes(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # lanes[i][row] holds one 64-bit lane per world permutation: the
    # contribution of row i, with value row, to the packed relabelled
    # relation.  OR-ing one entry per row gives every image at once.  An
    # entry is the OR of its bits' entries: single[j] holds, in every lane,
    # the one bit that pair (i, j) becomes, and each row value adds its
    # lowest bit's single to the entry of the value without that bit.
    if n * n > 64:
        raise ValueError("orbit tables hold n*n bits per 64-bit lane; supported for n <= 8")
    perms = list(permutations(range(n)))
    buffer = memoryview(bytearray(8 * len(perms))).cast("Q")  # lane k is buffer[k]
    lanes = []
    for i in range(n):
        single = []
        for j in range(n):
            for k, p in enumerate(perms):
                buffer[k] = 1 << ((n - 1 - p[i]) * n + p[j])
            single.append(int.from_bytes(buffer, sys.byteorder))
        per_row = [0] * (1 << n)
        for rowval in range(1, 1 << n):
            low = rowval & -rowval
            per_row[rowval] = per_row[rowval ^ low] | single[low.bit_length() - 1]
        lanes.append(tuple(per_row))
    return tuple(lanes), 8 * len(perms)


def _orbit_images(rel: Relation) -> list[int]:
    """The packed relabelling of rel under every world permutation."""
    lanes, size = _orbit_lanes(len(rel))
    packed = 0
    for column, row in zip(lanes, rel):
        packed |= column[row]
    return memoryview(packed.to_bytes(size, sys.byteorder)).cast("Q").tolist()


def orbit_size(rel: Relation) -> int:
    """Number of distinct relabellings of rel: n! over the number of
    automorphisms, which are the permutations that map rel to itself."""
    images = _orbit_images(rel)
    return len(images) // images.count(images[0])


def images_up_to(rel: Relation, last: Relation) -> int:
    """Number of distinct relabellings of rel that are at most last."""
    bound = _orbit_images(last)[0]  # the identity comes first
    return len({image for image in _orbit_images(rel) if image <= bound})


@lru_cache(maxsize=None)
def _cycles(n: int) -> tuple[tuple[int, ...], ...]:
    """Each world permutation's cycles as world masks, the permutations in
    the order of ``_orbit_lanes`` (``itertools.permutations``)."""
    result = []
    for perm in permutations(range(n)):
        cycles = []
        unseen = set(range(n))
        while unseen:
            start = world = unseen.pop()
            mask = 1 << world
            while perm[world] != start:
                world = perm[world]
                unseen.remove(world)
                mask |= 1 << world
            cycles.append(mask)
        result.append(tuple(cycles))
    return tuple(result)


@lru_cache(maxsize=None)
def class_count(n: int) -> int:
    """Number of isomorphism classes of the n-world relations, which is
    len(canonical_relations(n)), counted without building them (OEIS
    A000595: 2, 10, 104, 3 044, 291 968 for n = 1..5).  By Burnside's
    lemma it is the mean, over the world permutations, of the relations
    each one fixes: 2 to the number of cycles it makes on the n*n ordered
    pairs, and two world cycles of lengths a and b make gcd(a, b) of them.
    """
    total = 0
    for cycles in _cycles(n):
        lengths = [bin(cycle).count("1") for cycle in cycles]
        total += 1 << sum(gcd(a, b) for a in lengths for b in lengths)
    return total // factorial(n)


def loop_variants(rel: Relation, free: int, iso_reject: bool = True) -> int:
    """Number of relations, or with iso_reject of their isomorphism classes,
    whose reflexive closure is in the orbit of rel and that loop every
    world outside the free worlds (a world mask) of that closure.

    rel must be reflexive and free invariant under rel's automorphisms.
    Without iso_reject that is 2^|free| per relation in rel's orbit.
    Every class holds a relation whose closure is rel itself, and two of
    those are isomorphic only through an automorphism of rel (relabelling
    commutes with the closure), so by Burnside's lemma the classes number
    the mean, over the automorphisms, of 2 to the number of cycles each
    one makes on the free worlds.
    """
    images = _orbit_images(rel)
    if not iso_reject:
        return len(images) // images.count(images[0]) << bin(free).count("1")
    autos = [cycles for cycles, image in zip(_cycles(len(rel)), images) if image == images[0]]
    return sum(1 << sum(1 for cycle in cycles if cycle & free) for cycles in autos) // len(autos)


def loop_variant_classes(
    closures: tuple[Relation, ...],
    free: Callable[[Relation], int],
    deadline: float | None = None,
) -> tuple[Relation, ...]:
    """The orbit minima, ascending and each once, of the relations that
    are one of closures (reflexive relations of one world count) without
    the loops of some set of its free worlds (free(closure), a world mask):
    the classes ``loop_variants`` counts, built.

    A variant's images are its closure's images without the images of the
    dropped loops, one AND over the packed lanes of ``_orbit_lanes``, and
    its class is its least image.  Relabelling commutes with the closure,
    so variants of two closures from different orbits are never
    isomorphic, and classes repeat only within one closure.  The deadline
    (a ``time.monotonic`` value) is checked between closures and raises
    SearchTimeout.
    """
    if not closures:
        return ()
    n = len(closures[0])
    lanes, size = _orbit_lanes(n)
    everything = (1 << 8 * size) - 1
    kept = [everything] * (1 << n)  # kept[drop]: every lane bit but those of the loops in drop
    for drop in range(1, 1 << n):
        low = drop & -drop
        world = low.bit_length() - 1
        kept[drop] = kept[drop ^ low] & ~lanes[world][low]
    minima = []
    for closure in closures:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout()
        packed = 0
        for column, row in zip(lanes, closure):
            packed |= column[row]
        worlds = free(closure)
        drop = worlds
        variants = set()
        while True:  # every set of free worlds, down to the empty one
            images = memoryview((packed & kept[drop]).to_bytes(size, sys.byteorder)).cast("Q")
            variants.add(min(images))
            if not drop:
                break
            drop = drop - 1 & worlds
        minima += variants
    minima.sort()
    return tuple(unpack_relation(packed, n) for packed in minima)


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
    world's column in the old rows, and its row).  With a keep, a
    candidate is tested only if deleting any of its old worlds leaves a
    relation in the orbit of a parent class, which heredity requires of
    every relation keep accepts: the parents' orbits are tabled once per
    level (_words), and n-1 lookups per column give the new rows that
    pass (_admitted).  A candidate whose orbit is already marked
    in a 2^(n*n)-byte table is skipped; otherwise it is tested with keep
    and, if it passes, its whole orbit is marked and the orbit minimum
    kept.  Failing orbits are not marked: marking costs more than testing
    a relabelled copy again.  This is complete because keep must be
    invariant under relabelling worlds and hereditary: deleting a world
    from a relation it accepts leaves a relation it accepts, so each
    n-world class extends some (n-1)-world class.
    ``finder.scan_frames`` passes "has these relation properties",
    which is both; a new property must be hereditary too, and
    ``tests/test_relprops.py`` checks that every property is.  The result
    equals the unrestricted classes filtered by keep, in the same order.

    Cost at n=5 (2-vCPU VM, Python 3.11): 1 895 transitive classes in
    about 0.1 s, keep called once per class (116 563 times without the
    deletion test); keep should be one flat function (``relprops.has_all``).
    No search asks for a dense build (no keep, or acyclicity: up to 292k
    orbits marked in 5-8 s): ``finder.closure_frames`` derives those
    classes from the reflexive closures, so the builder gets only sparse
    keeps: closures, reflexivity or totality, Ferrers, key fixed points.

    Results are cached per (n, keep): pass the same keep object to reuse a
    build.  The deadline (a ``time.monotonic`` value) is checked between
    representatives and raises SearchTimeout; a build that times out is not
    cached.  Supported for n <= MAX_EXHAUSTIVE_WORLDS.
    """
    check_world_bound(n)
    return _classes(n, keep, deadline)


def _words(parents: tuple[Relation, ...]) -> list[int]:
    """Every relation in the orbits of parents, the classes of one world
    count m, as a table: bit last of words[upper] is set iff the relation
    whose first m-1 rows pack (row 0 most significant) to upper and whose
    last row is last is one of them."""
    m = len(parents[0])
    last_row = full_mask(m)
    words = [0] * (1 << (m - 1) * m)
    for parent in parents:
        for image in _orbit_images(parent):
            words[image >> m] |= 1 << (image & last_row)
    return words


@lru_cache(maxsize=None)
def _deletion_tables(n: int) -> tuple[tuple, tuple]:
    # An n-world candidate is a parent's n-1 rows with a new column, and a
    # new row.  Deleting old world k from it leaves an (n-1)-world relation
    # whose last row is the new row without bit k.  columns[k][column] is
    # the new column's share of that relation's upper rows, packed as in
    # _words; spread[k][b][byte] is the set, as a 2^n-bit mask, of the new
    # rows whose last row after the deletion is in byte b of a words entry.
    columns, spread = [], []
    for k in range(n - 1):
        kept = [i for i in range(n - 1) if i != k]
        columns.append(tuple(
            sum(1 << (n - 3 - pos) * (n - 1) + n - 2 for pos, i in enumerate(kept) if column >> i & 1)
            for column in range(1 << (n - 1))
        ))
        low = (1 << k) - 1
        rows = []  # rows[last]: the two new rows that lose bit k to become last
        for last in range(1 << (n - 1)):
            row = last & low | (last & ~low) << 1
            rows.append(1 << row | 1 << (row | 1 << k))
        tables = []
        for offset in range(0, len(rows), 8):
            table = [0]
            for entry in rows[offset:offset + 8]:
                table += [bits | entry for bits in table]
            tables.append(tuple(table))
        spread.append(tuple(tables))
    return tuple(columns), tuple(spread)


def _admitted(parent: Relation, words: list[int]) -> list[list[int]]:
    """For each new column of a one-world extension of parent, the new
    rows, ascending, for which every deletion of an old world leaves a
    relation in words (the orbits of the parents, see _words)."""
    n = len(parent) + 1
    columns, spread = _deletion_tables(n)
    admitted = [(1 << (1 << n)) - 1] * (1 << (n - 1))
    for k, (shares, tables) in enumerate(zip(columns, spread)):
        low = (1 << k) - 1
        upper = 0
        for i, row in enumerate(parent):
            if i != k:
                upper = upper << (n - 1) | row & low | row >> 1 & ~low
        for column, share in enumerate(shares):
            word = words[upper | share]
            rows = 0
            for table in tables:
                rows |= table[word & 255]
                word >>= 8
            admitted[column] &= rows
    return [[row for row in range(1 << n) if mask >> row & 1] for mask in admitted]


def _classes(n: int, keep, deadline: float | None) -> tuple[Relation, ...]:
    if n == 0:
        return ((),)
    key = (n, keep)
    if key in _canonical_cache:
        return _canonical_cache[key]
    parents = _classes(n - 1, keep, deadline)
    if not parents:  # keep is hereditary, so it accepts no larger relation either
        return ()
    shifts = [(n - 1 - i) * n for i in range(n - 1)]
    new_bit = 1 << (n - 1)
    unfiltered = [range(1 << n)] * (1 << (n - 1))
    words = None if keep is None else _words(parents)
    minima = []
    # The table is an anonymous mapping: the OS zero-fills it page by page,
    # so only the pages the build touches become resident.  It is unmapped
    # before the relations are built, to lower the peak, and on a timeout.
    with mmap.mmap(-1, 1 << (n * n)) as seen:
        for parent in parents:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout()
            admitted = unfiltered if words is None else _admitted(parent, words)
            for column, new_rows in enumerate(admitted):
                if not new_rows:
                    continue
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
    minima.sort()
    result = tuple(unpack_relation(packed, n) for packed in minima)
    _canonical_cache[key] = result
    return result
