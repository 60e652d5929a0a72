"""Finite Cayley-table algebras: groups, abelian monoids, abelian groups,
and abelian monoids with a group action.

Tables are index-based internally (elements addressed by position); labels
exist only for I/O.  Every type carries a check() that verifies its axioms
exhaustively and raises AxiomError naming the first failed axiom with a
witness.  Instances are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import AxiomError, InputError


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group with identity at index 0."""

    elements: tuple
    table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def check(self) -> None:
        n = self.size
        if n == 0:
            raise AxiomError("nonempty")
        _check_entries(self.table, n)
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise AxiomError("identity", self.elements[i])
        for i, j, k in itertools.product(range(n), repeat=3):
            if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                raise AxiomError("associativity", (self.elements[i], self.elements[j], self.elements[k]))
        for i in range(n):
            if not any(self.table[i][j] == 0 and self.table[j][i] == 0 for j in range(n)):
                raise AxiomError("inverse", self.elements[i])

    def to_json(self) -> dict:
        elems = list(self.elements)
        return {"elements": elems, "table": [[elems[v] for v in row] for row in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        try:
            elements = tuple(_freeze_label(e) for e in data["elements"])
            index = {e: i for i, e in enumerate(elements)}
            table = tuple(tuple(_label_index(index, v, "group") for v in row)
                          for row in data["table"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed group: {exc}") from exc
        group = cls(elements, table)
        group.check()
        return group


def _check_entries(table, n: int) -> None:
    """A Cayley table over n elements is n x n with every entry an index."""
    if len(table) != n or any(len(row) != n for row in table):
        raise AxiomError("table shape")
    for v in itertools.chain.from_iterable(table):
        if not 0 <= v < n:
            raise AxiomError("table entry range", v)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), ((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(range(n)), cyclic(n).table)


@dataclass(frozen=True)
class FinAbMonoid:
    """Finite abelian monoid; unit is an element index."""

    elements: tuple
    unit: int
    table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def check(self) -> None:
        n = self.size
        if n == 0:
            raise AxiomError("nonempty")
        if not 0 <= self.unit < n:
            raise AxiomError("unit index")
        _check_entries(self.table, n)
        for i in range(n):
            if self.table[self.unit][i] != i or self.table[i][self.unit] != i:
                raise AxiomError("unit", self.elements[i])
        for i in range(n):
            for j in range(i, n):
                if self.table[i][j] != self.table[j][i]:
                    raise AxiomError("commutativity", (self.elements[i], self.elements[j]))
        for i, j, k in itertools.product(range(n), repeat=3):
            if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                raise AxiomError("associativity", (self.elements[i], self.elements[j], self.elements[k]))

    def inverse_of(self, i: int):
        """Index of a two-sided inverse, or None."""
        for j in range(self.size):
            if self.table[i][j] == self.unit and self.table[j][i] == self.unit:
                return j
        return None

    def is_group(self) -> bool:
        return all(self.inverse_of(i) is not None for i in range(self.size))

    def index_table(self) -> tuple:
        """Label-free form (unit index and index table) for positional comparison."""
        return (self.unit, self.table)

    def to_json(self) -> dict:
        elems = list(self.elements)
        return {"elements": elems, "unit": elems[self.unit],
                "table": [[elems[v] for v in row] for row in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "FinAbMonoid":
        try:
            elements = tuple(_freeze_label(e) for e in data["elements"])
            index = {e: i for i, e in enumerate(elements)}
            unit = _label_index(index, data["unit"], "monoid")
            table = tuple(tuple(_label_index(index, v, "monoid") for v in row)
                          for row in data["table"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed monoid: {exc}") from exc
        monoid = cls(elements, unit, table)
        monoid.check()
        return monoid


def _freeze_label(label):
    return tuple(label) if isinstance(label, list) else label


def _label_index(index: dict, label, what: str) -> int:
    label = _freeze_label(label)
    if label not in index:
        raise InputError(
            f"unknown {what} element label {label!r}: table entries must be "
            f"labels drawn from {list(index)}")
    return index[label]


@dataclass(frozen=True)
class FinAbGroup(FinAbMonoid):
    """Finite abelian group; inverse table derived from the Cayley table."""

    inverse: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.inverse:
            inv = tuple(self.inverse_of(i) for i in range(self.size))
            object.__setattr__(self, "inverse", inv)

    def check(self) -> None:
        super().check()
        for i, j in enumerate(self.inverse):
            if j is None or self.table[i][j] != self.unit:
                raise AxiomError("inverse", self.elements[i])

    def to_json(self) -> dict:
        data = super().to_json()
        data["inverse"] = [data["elements"][j] for j in self.inverse]
        return data


def trivial_monoid() -> FinAbMonoid:
    return FinAbMonoid((0,), 0, ((0,),))


def cyclic(n: int) -> FinAbGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FinAbGroup(tuple(range(n)), 0, table)


def max_monoid(n: int = 2) -> FinAbMonoid:
    """The chain {0 < ... < n-1} under max; not a group for n >= 2."""
    table = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    return FinAbMonoid(tuple(range(n)), 0, table)


def direct_product(a: FinAbMonoid, b: FinAbMonoid) -> FinAbMonoid:
    elements = tuple(itertools.product(a.elements, b.elements))
    pairs = list(itertools.product(range(a.size), range(b.size)))
    pos = {p: k for k, p in enumerate(pairs)}
    table = tuple(tuple(pos[(a.table[i1][i2], b.table[j1][j2])] for (i2, j2) in pairs)
                  for (i1, j1) in pairs)
    unit = pos[(a.unit, b.unit)]
    if a.is_group() and b.is_group():
        return FinAbGroup(elements, unit, table)
    return FinAbMonoid(elements, unit, table)


def klein_four() -> FinAbGroup:
    return direct_product(cyclic(2), cyclic(2))  # type: ignore[return-value]


@dataclass(frozen=True)
class GMonoid:
    """Finite abelian monoid with an action of a finite group by
    monoid automorphisms; action[g][m] is an element index."""

    monoid: FinAbMonoid
    group: FiniteGroup
    action: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        self.monoid.check()
        self.group.check()
        nm, ng = self.monoid.size, self.group.size
        if len(self.action) != ng or any(len(row) != nm for row in self.action):
            raise AxiomError("action shape")
        for g in range(ng):
            row = self.action[g]
            if sorted(row) != list(range(nm)):
                raise AxiomError("action bijective", self.group.elements[g])
            for i, j in itertools.product(range(nm), repeat=2):
                if row[self.monoid.table[i][j]] != self.monoid.table[row[i]][row[j]]:
                    raise AxiomError("action automorphism",
                                     (self.group.elements[g], self.monoid.elements[i], self.monoid.elements[j]))
        for m in range(nm):
            if self.action[0][m] != m:
                raise AxiomError("identity acts trivially", self.monoid.elements[m])
        for g, h in itertools.product(range(ng), repeat=2):
            gh = self.group.table[g][h]
            for m in range(nm):
                if self.action[g][self.action[h][m]] != self.action[gh][m]:
                    raise AxiomError("action homomorphism",
                                     (self.group.elements[g], self.group.elements[h], self.monoid.elements[m]))

    def to_json(self) -> dict:
        elems = self.monoid.elements
        return {"group": self.group.to_json(), "monoid": self.monoid.to_json(),
                "action": [[elems[v] for v in row] for row in self.action]}

    @classmethod
    def from_json(cls, data: dict) -> "GMonoid":
        try:
            group = FiniteGroup.from_json(data["group"])
            monoid = FinAbMonoid.from_json(data["monoid"])
            index = {e: i for i, e in enumerate(monoid.elements)}
            action = tuple(tuple(_label_index(index, v, "action") for v in row)
                           for row in data["action"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed action file: {exc}") from exc
        gm = cls(monoid, group, action)
        gm.check()
        return gm


def from_json(data) -> FinAbMonoid | GMonoid:
    """The algebra of an action file, or of a monoid file, read as a group
    when it lists inverses or its table has them."""
    if not isinstance(data, dict):
        raise InputError("an algebra must be a JSON object")
    if {"group", "monoid", "action"} <= set(data):
        return GMonoid.from_json(data)
    if {"elements", "unit", "table"} <= set(data):
        monoid = FinAbMonoid.from_json(data)
        if "inverse" in data or monoid.is_group():
            monoid = FinAbGroup(monoid.elements, monoid.unit, monoid.table)
            monoid.check()  # listed inverses must exist
        return monoid
    raise InputError("input is neither a monoid/group file nor an action file")


def trivial_action(monoid: FinAbMonoid, group: FiniteGroup | None = None) -> GMonoid:
    group = group or trivial_group()
    action = tuple(tuple(range(monoid.size)) for _ in range(group.size))
    return GMonoid(monoid, group, action)


def inversion_action(group_monoid: FinAbGroup) -> GMonoid:
    """Order-2 group acting on an abelian group by negation."""
    action = (tuple(range(group_monoid.size)), group_monoid.inverse)
    return GMonoid(group_monoid, cyclic_group(2), action)


def swap_action() -> GMonoid:
    """Order-2 group acting on the product of two order-2 groups by
    exchanging the factors."""
    kf = klein_four()
    pos = {e: i for i, e in enumerate(kf.elements)}
    swap = tuple(pos[(b, a)] for (a, b) in kf.elements)
    return GMonoid(kf, cyclic_group(2), (tuple(range(4)), swap))


def monoid_isomorphic(a: FinAbMonoid, b: FinAbMonoid) -> bool:
    """Exhaustive isomorphism search; fine for the desk-scale orders used here."""
    if a.size != b.size:
        return False
    rest_a = [i for i in range(a.size) if i != a.unit]
    rest_b = [j for j in range(b.size) if j != b.unit]
    for perm in itertools.permutations(rest_b):
        phi = {a.unit: b.unit}
        phi.update(dict(zip(rest_a, perm)))
        if all(phi[a.table[i][j]] == b.table[phi[i]][phi[j]]
               for i in range(a.size) for j in range(a.size)):
            return True
    return False


def enumerate_abelian_monoids(order: int) -> list[FinAbMonoid]:
    """All abelian monoids of the given order, one per isomorphism class.

    Brute force over symmetric Cayley tables with the unit pinned at index
    0, filtered by associativity, then deduplicated by isomorphism.
    """
    if order < 1:
        return []
    slots = [(i, j) for i in range(1, order) for j in range(i, order)]
    found: list[FinAbMonoid] = []
    for assignment in itertools.product(range(order), repeat=len(slots)):
        table = [[0] * order for _ in range(order)]
        for k in range(order):
            table[0][k] = table[k][0] = k
        for (i, j), v in zip(slots, assignment):
            table[i][j] = table[j][i] = v
        candidate = FinAbMonoid(tuple(range(order)), 0, tuple(tuple(r) for r in table))
        try:
            candidate.check()
        except AxiomError:  # associativity, the one axiom a unit-pinned symmetric table can fail
            continue
        if not any(monoid_isomorphic(candidate, m) for m in found):
            found.append(candidate)
    return found


def enumerate_abelian_groups(order: int) -> list[FinAbGroup]:
    """One abelian group per isomorphism class of the given order."""
    return [FinAbGroup(m.elements, m.unit, m.table)
            for m in enumerate_abelian_monoids(order) if m.is_group()]
