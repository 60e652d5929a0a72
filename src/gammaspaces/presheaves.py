"""Finite set-valued presheaves on the pointed-map category and its
wedge-indexed variant, strict Segal and Bousfield checkers, and the
constructive equivalences with abelian monoids, abelian groups, and
group-equivariant monoids.

One class serves both categories.  A presheaf with a group acts by the
normalized pairs of the wedge-indexed category, and its generating maps
are the diagonal copies of pointed maps; a plain presheaf has no group
and acts by pointed maps themselves, so its morphism keys stay plain.

Levels and morphism actions are tabulated lazily and memoized, since the
number of morphisms grows as (target+1)**source.  A monoid-built level is
decoded on demand: it holds its size and n, not its size**n tuples, and a
label is built only when read.  An action is an integer index table:
entry i is the position in the target level of the image of the i-th
source element.  The tables of a monoid-built presheaf are
computed by mixed-radix arithmetic over the lexicographic level order,
never one element at a time, as an outer sum of the tables of blocks of
source positions that no fibre crosses (one block for a small table).
A built presheaf is immutable once its memo tables are populated;
populate before sharing across threads or confine population to one
owner.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from . import algebra as alg
from . import gammacat as gc
from . import ggamma as gg
from .algebra import FinAbGroup, FinAbMonoid, FiniteGroup, GMonoid
from .errors import AxiomError, InputError, StrictnessError, TruncationError


class TruncatedGammaSet:
    """Presheaf with levels 0..N on the pointed-map category or, when a
    group is given, on its wedge-indexed variant over that group.

    level_fn(n) lists the elements of level n; table_fn(f) is the index
    table of the action of f.  Levels and action tables are built on first
    use and memoized.
    """

    def __init__(self, N: int, level_fn, table_fn, algebra=None,
                 group: FiniteGroup | None = None):
        self.N = N
        self._level_fn = level_fn
        self._table_fn = table_fn
        self._levels: dict[int, Sequence] = {}
        self._tables: dict[str, list[int]] = {}
        self.algebra = algebra  # provenance: the generating algebra, if any
        self.group = group  # None for a plain presheaf, keeping plain morphism keys
        self.table_backed = False  # True when only stored tables can act

    def level(self, n: int) -> Sequence:
        if n > self.N:
            raise TruncationError(f"level {n} beyond truncation {self.N}", required=n)
        if n not in self._levels:
            self._levels[n] = self._level_fn(n)
        return self._levels[n]

    def level_size(self, n: int) -> int:
        return len(self.level(n))

    def _check_range(self, f) -> None:
        if f.source > self.N or f.target > self.N:
            raise TruncationError(
                f"morphism {f.key()} needs levels up to {max(f.source, f.target)}, "
                f"truncation is {self.N}", required=max(f.source, f.target))

    def action_table(self, f) -> list[int]:
        """Index form of the action of f, memoized per morphism key."""
        self._check_range(f)
        key = f.key()
        if key not in self._tables:
            self._tables[key] = self._table_fn(f)
        return self._tables[key]

    def is_pointed(self) -> bool:
        return self.level_size(0) == 1

    def lift(self, f: gc.GammaOpMap):
        """A pointed map as a morphism this presheaf acts by: f itself, or
        the same map on every wedge summand when there is a group."""
        return f if self.group is None else gg.diag_inclusion(f, self.group)

    def fold(self, n: int):
        return self.lift(gc.fold_map(n))

    def unit_inclusion(self):
        return self.lift(gc.from_zero(1))

    def group_action(self, n: int, g: int):
        return gg.group_action_map(n, g, self.group)


# one class serves both cases; the benchmark's tracer still looks this name up
TruncatedGGammaSet = TruncatedGammaSet


# a block takes the most source positions that keep it within this many tuples;
# on the benchmark's tables 64 timed faster than 128, 256 or one walk per table
_BLOCK_TUPLES = 64
# ints up to this one are shared objects in CPython (its small-int cache)
_SHARED_INTS = 256


def _sum_preimages_table(M: FinAbMonoid, row, f: gc.GammaOpMap) -> list[int]:
    """Index table of the action of f on tuples of elements of M: entry j
    of the image is the product of row[x_i] over the i with f(i) = j,
    the unit when there is none.

    Levels list tuples in lexicographic order, so a tuple's index has the
    digit x_i at weight s**(n-i).  The source positions are cut into
    consecutive blocks that no fibre of f crosses (see _fibre_closed_blocks;
    one block when the table has at most _BLOCK_TUPLES entries).  Each
    block is one digit walk from the all-unit image (see _digit_walk), and
    the table is laid out block by block, the last block fastest: one
    `map` over the table so far for each image of an earlier block.  Blocks
    write disjoint target digits, so their changes to the all-unit image
    add without carries.  A target of more than _SHARED_INTS positions and
    no more than the source has its block images read out of one list of
    its positions, shifted by the change, so the table holds one int object
    per position, not one per entry; a change below 0 (the unit is not
    element 0) is added.
    """
    s, t = M.size, f.target
    weights = [s ** (t - j) for j in range(t + 1)]
    unit = M.unit * sum(weights[1:])  # the all-unit tuple
    *blocks, last = _fibre_closed_blocks(f.values, s)
    out = _digit_walk(M, row, last, weights, unit)
    positions = list(range(s ** t)) if _SHARED_INTS < s ** t <= s ** f.source else None
    for block in reversed(blocks):
        tail, out = out, []
        for image in _digit_walk(M, row, block, weights, unit):
            step = image - unit
            if not step:
                out += tail
            elif step > 0 and positions:
                out += map(positions[step:].__getitem__, tail)
            else:
                out += map(operator.add, tail, itertools.repeat(step))
    return out


def _digit_walk(M: FinAbMonoid, row, values, weights: list[int], start: int) -> list[int]:
    """Image indices of the tuples over a run of source positions, values
    listing their images (0 for the basepoint).  Every image starts from
    the index start, in which each digit that values writes holds the unit.

    Walking the positions in order widens the list of image indices by a
    factor s per position, the new digit running fastest; a position
    updates the digit f(i) of every image through the multiplication table.
    """
    s = M.size
    images = [start]
    written: set[int] = set()
    for j in values:
        if not j:
            images = [y for y in images for _ in range(s)]
            continue
        w = weights[j]
        moves = [[(M.table[old][row[c]] - old) * w for c in range(s)] for old in range(s)]
        if j in written:
            images = [y + step for y in images for step in moves[y // w % s]]
        else:  # digit j still holds the unit in every image
            written.add(j)
            steps = moves[M.unit]
            images = [y + step for y in images for step in steps]
    return images


def _fibre_closed_blocks(values, s: int) -> list:
    """The images values[1:] of the source positions of a pointed map with
    the given values, cut into consecutive blocks that no fibre crosses.

    Blocks are cut from the end.  Each ends where the next one starts and
    begins right after the earliest closed position (one that no fibre
    crosses) that keeps it within _BLOCK_TUPLES tuples, or right after the
    latest closed position when none does.  The layout maps once per image
    of the blocks before the last, so a last block that fills _BLOCK_TUPLES
    keeps those maps few.
    """
    if s ** (len(values) - 1) <= _BLOCK_TUPLES:
        return [values[1:]]
    last = {j: i for i, j in enumerate(values) if j}
    closed, reach = [0], 0
    for i in range(1, len(values)):
        reach = max(reach, last.get(values[i], 0))
        if reach <= i:
            closed.append(i)
    blocks, end = [], closed.pop()
    while closed:
        start = closed.pop()
        while closed and s ** (end - closed[-1]) <= _BLOCK_TUPLES:
            start = closed.pop()
        blocks.append(values[start + 1:end + 1])
        end = start
    return blocks[::-1]


class TupleLevel(Sequence):
    """The n-tuples over range(size) in lexicographic order, decoded on
    demand: the tuple at position k holds the digits of k in radix size."""

    def __init__(self, size: int, n: int):
        if n < 0:
            raise ValueError("repeat argument cannot be negative")
        self.size, self.n, self._positions = size, n, range(size ** n)

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in self._positions[k]]
        k, digits = self._positions[k], [0] * self.n  # range gives list indexing
        for i in reversed(range(self.n)):
            k, digits[i] = divmod(k, self.size)
        return tuple(digits)

    def __iter__(self):
        return itertools.product(range(self.size), repeat=self.n)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _tuple_levels(M: FinAbMonoid):
    """Level n of a monoid-built presheaf: the n-tuples of element indices
    in lexicographic order, never materialized."""
    return lambda n: TupleLevel(M.size, n)


def build_gamma_set(M: FinAbMonoid, N: int) -> TruncatedGammaSet:
    """Presheaf of a finite abelian monoid: level n holds the n-tuples of
    element indices, and a morphism acts by summing preimages (an empty
    preimage contributes the unit)."""
    if N < 1:
        raise ValueError("level bound must be at least 1")
    identity_row = range(M.size)
    return TruncatedGammaSet(N, _tuple_levels(M),
                             lambda f: _sum_preimages_table(M, identity_row, f), algebra=M)


def build_ggamma_set(A: GMonoid, N: int) -> TruncatedGammaSet:
    """Equivariant variant: a normalized pair acts by relabeling entries
    through the group action and then summing preimages."""
    if N < 1:
        raise ValueError("level bound must be at least 1")
    M = A.monoid
    return TruncatedGammaSet(N, _tuple_levels(M),
                             lambda a: _sum_preimages_table(M, A.action[a.g], a.f),
                             algebra=A, group=A.group)


@dataclass(frozen=True)
class CheckReport:
    kind: str
    passed: bool
    upto: int
    failed_at: int | None = None
    witness: str | None = None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "upto": self.upto,
                "failed_at": self.failed_at, "witness": self.witness}


def _assembled_codes(X, n: int, kind: str) -> list[int]:
    """The assembled Segal or Bousfield map at level n, one code per
    level-n element: the base-|X_1| numeral of its n level-1 images, the
    first component most significant.  The family is read once."""
    s, codes = X.level_size(1), [0] * X.level_size(n)
    for f in gc.segal_family(n) if kind == "segal" else gc.bousfield_family(n):
        codes = list(map(operator.add, map(s.__mul__, codes), X.action_table(X.lift(f))))
    return codes


def _check_strict(X, upto: int, kind: str) -> CheckReport:
    if upto > X.N:
        raise TruncationError(f"check up to {upto} needs truncation {upto}", required=upto)
    if not X.is_pointed():
        return CheckReport(kind, False, upto, 0,
                           f"level 0 has {X.level_size(0)} elements, expected a single point")
    s = X.level_size(1)
    for n in range(2, upto + 1):
        codes = _assembled_codes(X, n, kind)
        if len(set(codes)) != len(codes):  # walk to the first repeated code
            seen: dict[int, int] = {}
            for i, code in enumerate(codes):
                if code in seen:
                    x1 = X.level(n)[seen[code]]
                    x2 = X.level(n)[i]
                    return CheckReport(kind, False, upto, n,
                                       f"not injective at n={n}: {x1} and {x2} share image "
                                       f"{TupleLevel(s, n)[code]}")
                seen[code] = i
        if len(codes) != s ** n:
            return CheckReport(kind, False, upto, n,
                               f"not surjective at n={n}: {len(codes)} elements cover "
                               f"{s ** n} tuples")
    return CheckReport(kind, True, upto)


def check_strict_segal(X, upto: int) -> CheckReport:
    """Strict Segal condition: level 0 is a point and every assembled
    projection map onto tuples is a bijection for 2 <= n <= upto."""
    return _check_strict(X, upto, "segal")


def check_strict_bousfield(X, upto: int) -> CheckReport:
    """Strict Bousfield condition: as above with initial-segment folds."""
    return _check_strict(X, upto, "bousfield")


def _through_inverse(X, kind: str, table: list[int]) -> list[int]:
    """table read through the inverse of the assembled bijection at level 2
    (checked to hold): entry i*|X_1| + j is the entry of the level-2
    element whose components are i and j."""
    codes = _assembled_codes(X, 2, kind)
    return [table[p] for p in sorted(range(len(codes)), key=codes.__getitem__)]


def extract_monoid(X) -> FinAbMonoid:
    """Recover the abelian monoid from a strict presheaf: the carrier is
    level 1, multiplication is the fold through the inverted Segal
    bijection at level 2, the unit is the image of the point."""
    if X.N < 2:
        raise TruncationError("extraction needs levels up to 2", required=2)
    report = check_strict_segal(X, 2)
    if not report.passed:
        raise StrictnessError("presheaf is not strict up to level 2", report=report)
    carrier = list(X.level(1))
    products = _through_inverse(X, "segal", X.action_table(X.fold(2)))
    unit_idx = X.action_table(X.unit_inclusion())[0]
    size = len(carrier)
    table = tuple(tuple(products[i * size:(i + 1) * size]) for i in range(size))
    monoid = FinAbMonoid(tuple(carrier), unit_idx, table)
    monoid.check()
    return monoid


def _with_level_one_action(X, monoid: FinAbMonoid) -> GMonoid:
    """The extracted monoid with each group element acting on level 1."""
    action = tuple(tuple(X.action_table(X.group_action(1, g)))
                   for g in range(X.group.size))
    gm = GMonoid(monoid, X.group, action)
    gm.check()
    return gm


def extract_g_monoid(X) -> GMonoid:
    """Monoid as in extract_monoid plus the action of each group element
    on level 1."""
    return _with_level_one_action(X, extract_monoid(X))


def _difference_operation(X):
    """The binary map sending (a, b) to b*a^{-1}: the second projection read
    through the inverted Bousfield bijection at level 2."""
    size = X.level_size(1)
    second = X.action_table(X.lift(gc.segal_family(2)[1]))
    differences = _through_inverse(X, "bousfield", second)
    return (lambda i, j: differences[i * size + j]), size


def extract_group_bousfield(X) -> FinAbGroup:
    """Recover the abelian group from a strict Bousfield presheaf.

    The construction follows the difference-operation recipe: the unit is
    d(a, a), which must be independent of a; inversion is d(b, unit);
    multiplication is d(inverse(a), b).  Every axiom is then verified
    exhaustively before the group is returned.
    """
    if X.N < 2:
        raise TruncationError("extraction needs levels up to 2", required=2)
    report = check_strict_bousfield(X, 2)
    if not report.passed:
        raise StrictnessError("presheaf is not strictly Bousfield up to level 2", report=report)
    d, size = _difference_operation(X)
    units = {d(i, i) for i in range(size)}
    if len(units) != 1:
        raise AxiomError("unit independence", sorted(units))
    unit = units.pop()
    inv = [d(i, unit) for i in range(size)]
    table = tuple(tuple(d(inv[i], j) for j in range(size)) for i in range(size))
    group = FinAbGroup(tuple(X.level(1)), unit, table)
    group.check()
    return group


def extract_g_group_bousfield(X) -> GMonoid:
    """Equivariant variant: group via the difference operation, action via
    the group-element automorphisms of level 1."""
    return _with_level_one_action(X, extract_group_bousfield(X))


# ---------------------------------------------------------------------------
# presheaf files: explicit level lists plus action tables for the canonical
# generating family, with digests for golden comparisons

def _canonical_family(X) -> dict:
    """{key: morphism} of the family a presheaf file stores, in family order."""
    family = []
    for n in range(2, X.N + 1):
        for projection, segment in zip(gc.segal_family(n), gc.bousfield_family(n)):
            family += (X.lift(projection), X.lift(segment))
    family.append(X.fold(2) if X.N >= 2 else X.fold(1))
    family.append(X.unit_inclusion())
    if X.group is not None:
        for g in range(X.group.size):
            family.append(X.group_action(1, g))
    seen = {}
    for f in family:
        seen.setdefault(f.key(), f)
    return seen


def _digest(table: list[int]) -> str:
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


def presheaf_to_json(X) -> dict:
    """Serializable form: level element lists, action tables for the
    canonical morphism family, and per-table digests."""
    maps = {key: X.action_table(f) for key, f in _canonical_family(X).items()}
    data = {
        "kind": "gamma" if X.group is None else "ggamma",
        "N": X.N,
        "levels": [[list(x) if isinstance(x, tuple) else x for x in X.level(n)]
                   for n in range(X.N + 1)],
        "maps": maps,
        "digests": {key: _digest(table) for key, table in sorted(maps.items())},
    }
    # algebra_kind is read by nothing; it stays so that build reports keep their bytes
    if X.group is not None:
        data["group"] = X.group.to_json()
        if isinstance(X.algebra, GMonoid):
            data["algebra"] = X.algebra.to_json()
            data["algebra_kind"] = "gmonoid"
    elif isinstance(X.algebra, FinAbMonoid):
        data["algebra"] = X.algebra.to_json()
        data["algebra_kind"] = "group" if isinstance(X.algebra, FinAbGroup) else "monoid"
    return data


def _frozen(x):
    return tuple(_frozen(v) for v in x) if isinstance(x, list) else x


def _level_labels(level) -> list:
    """Hashable labels of a stored level: a level of flat lists becomes
    tuples in one pass, anything else goes through _frozen."""
    if (set(map(type, level)) == {list}
            and list not in set(map(type, itertools.chain.from_iterable(level)))):
        return list(map(tuple, level))
    return [_frozen(x) for x in level]


def presheaf_from_json(data: dict):
    """Rehydrate a presheaf backed by the stored tables.

    Only morphisms present in the file can act; that is enough for the
    checkers and extractors, which consume the canonical family.
    """
    try:
        kind = data["kind"]
        N = data["N"]
        if type(N) is not int:
            raise InputError(f"presheaf file N must be a JSON integer, got {N!r}")
        if N < 0:
            raise InputError(f"presheaf file N must be nonnegative, got {N}")
        levels = [_level_labels(level) for level in data["levels"]]
        maps = {key: list(table) for key, table in data["maps"].items()}
        stored_group = FiniteGroup.from_json(data["group"]) if kind == "ggamma" else None
        # an action table is only meaningful if labels and positions biject
        for n, level in enumerate(levels):
            if len(set(level)) != len(level):
                raise InputError(f"level {n} of the presheaf file lists an element twice")
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise InputError(f"malformed presheaf file: {exc}") from exc
    if len(levels) != N + 1:
        raise InputError(f"presheaf file lists {len(levels)} levels for N={N}")
    for key, table in maps.items():
        f = _morphism_from_key(key, stored_group)
        if not (0 <= f.source <= N and 0 <= f.target <= N):
            raise InputError(f"morphism {key} leaves the stored levels 0..{N}")
        if len(table) != len(levels[f.source]):
            raise InputError(f"table for {key} has {len(table)} entries, "
                             f"level {f.source} has {len(levels[f.source])}")
        if table and not (set(map(type, table)) == {int}  # bools are not indices
                          and min(table) >= 0 and max(table) < len(levels[f.target])):
            raise InputError(f"table for {key} points outside level {f.target}")

    def table_fn(f):
        key = f.key()
        if key not in maps:
            raise InputError(f"morphism {key} not stored in presheaf file")
        return maps[key]

    if kind not in ("gamma", "ggamma"):
        raise InputError(f"unknown presheaf kind {kind!r}")
    X = TruncatedGammaSet(N, levels.__getitem__, table_fn, group=stored_group)
    X.table_backed = True
    if "algebra" in data:
        X.algebra = alg.from_json(data["algebra"])
        if isinstance(X.algebra, GMonoid) != (kind == "ggamma"):
            raise InputError(f"a {kind} presheaf file carries the algebra of the other kind")
    return X


def _morphism_from_key(key: str, group: FiniteGroup | None):
    """The morphism a stored key names: a pointed map, or a normalized pair
    over the group when there is one."""
    try:
        if group is not None:
            map_part, _, tag = key.rpartition("|")
            if not tag.startswith("g"):
                raise ValueError("missing group-element tag")
            return gg.GGammaMap(gc.GammaOpMap.from_key(map_part), int(tag[1:]), group)
        return gc.GammaOpMap.from_key(key)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad morphism key {key!r}: {exc}") from exc
