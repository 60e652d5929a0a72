"""Combinatorial models of the finite pointed-map category, its power-set
presentation, and the ordinal category, together with the generating
morphism families used by the Segal and Bousfield conditions and the smash
of any number of pointed maps.

Objects of the pointed-map category are the sets {0, ..., n} with basepoint
0; a morphism m -> n is any function preserving 0, stored as its value
table.  The equivalent power-set presentation sends a morphism to the
assignment i |-> preimage of i, whose images are pairwise disjoint.  All
values here are immutable and hashable, so they can be shared freely and
used as memo keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CompositionError, DisjointnessError


@dataclass(frozen=True)
class GammaOpMap:
    """Basepoint-preserving map {0..source} -> {0..target}."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source + 1:
            raise ValueError(f"value table has length {len(self.values)}, expected {self.source + 1}")
        if self.values and self.values[0] != 0:
            raise ValueError("basepoint must map to basepoint")
        for v in self.values:
            if not 0 <= v <= self.target:
                raise ValueError(f"value {v} outside 0..{self.target}")

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def key(self) -> str:
        """Canonical string form, used as a JSON map key."""
        return f"{self.source}>{self.target}:" + ",".join(map(str, self.values))

    @classmethod
    def from_key(cls, key: str) -> "GammaOpMap":
        head, _, vals = key.partition(":")
        src, _, tgt = head.partition(">")
        values = tuple(int(v) for v in vals.split(",")) if vals else (0,) * (int(src) + 1)
        return cls(int(src), int(tgt), values)


def identity(n: int) -> GammaOpMap:
    return GammaOpMap(n, n, tuple(range(n + 1)))


def zero_map(m: int, n: int) -> GammaOpMap:
    """The constant-basepoint morphism m -> n."""
    return GammaOpMap(m, n, (0,) * (m + 1))


def from_zero(n: int) -> GammaOpMap:
    """The unique morphism 0 -> n."""
    return GammaOpMap(0, n, (0,))


def compose(g: GammaOpMap, f: GammaOpMap) -> GammaOpMap:
    """g after f; requires f.target == g.source."""
    if f.target != g.source:
        raise CompositionError(f"cannot compose {g.source}->{g.target} after {f.source}->{f.target}")
    return GammaOpMap(f.source, g.target, tuple(g.values[v] for v in f.values))


def enumerate_maps(m: int, n: int):
    """All basepoint-preserving maps m -> n; there are (n+1)**m of them."""
    for tail in itertools.product(range(n + 1), repeat=m):
        yield GammaOpMap(m, n, (0,) + tail)


def _family(n: int, hits) -> list[GammaOpMap]:
    """The n maps n -> 1 whose k-th sends i to 1 when hits(i, k), else to 0."""
    return [GammaOpMap(n, 1, tuple(int(hits(i, k)) for i in range(n + 1))) for k in range(1, n + 1)]


def segal_family(n: int) -> list[GammaOpMap]:
    """The n projection-like maps n -> 1: the k-th sends k to 1 and all else to 0."""
    return _family(n, lambda i, k: i == k)


def bousfield_family(n: int) -> list[GammaOpMap]:
    """The n initial-segment folds n -> 1: the k-th sends 1..k to 1, the rest to 0."""
    return _family(n, lambda i, k: 1 <= i <= k)


def fold_map(n: int) -> GammaOpMap:
    """The total fold n -> 1 sending every nonzero element to 1."""
    if n < 1:
        raise ValueError("fold_map requires n >= 1")
    return GammaOpMap(n, 1, (0,) + (1,) * n)


@dataclass(frozen=True)
class GammaMap:
    """Power-set form of a morphism: source of size m, target of size n,
    images[i-1] is the subset of {1..n} assigned to i, pairwise disjoint."""

    source: int
    target: int
    images: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.images) != self.source:
            raise ValueError(f"{len(self.images)} images for source of size {self.source}")
        seen: set[int] = set()
        for img in self.images:
            for j in img:
                if not 1 <= j <= self.target:
                    raise ValueError(f"image element {j} outside 1..{self.target}")
                if j in seen:
                    raise DisjointnessError(f"element {j} appears in two images")
                seen.add(j)

    def image(self, i: int) -> frozenset[int]:
        return self.images[i - 1]


def from_power_set_form(theta: GammaMap) -> GammaOpMap:
    """The pointed map whose preimages are the images of theta; valid
    because images are disjoint.  Reverses the arrow."""
    values = [0] * (theta.target + 1)
    for i in range(1, theta.source + 1):
        for j in theta.image(i):
            values[j] = i
    return GammaOpMap(theta.target, theta.source, tuple(values))


@dataclass(frozen=True)
class DeltaMap:
    """Weakly order-preserving map [source] -> [target]."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source + 1:
            raise ValueError(f"value table has length {len(self.values)}, expected {self.source + 1}")
        for v in self.values:
            if not 0 <= v <= self.target:
                raise ValueError(f"value {v} outside 0..{self.target}")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise ValueError("values must be weakly increasing")


def coface(p: int, i: int) -> DeltaMap:
    """The injection [p-1] -> [p] missing i."""
    if not 0 <= i <= p:
        raise ValueError(f"coface index {i} outside 0..{p}")
    return DeltaMap(p - 1, p, tuple(j if j < i else j + 1 for j in range(p)))


def codegeneracy(p: int, i: int) -> DeltaMap:
    """The surjection [p+1] -> [p] hitting i twice."""
    if not 0 <= i <= p:
        raise ValueError(f"codegeneracy index {i} outside 0..{p}")
    return DeltaMap(p + 1, p, tuple(j if j <= i else j - 1 for j in range(p + 2)))


def edge(n: int, k: int) -> DeltaMap:
    """[1] -> [n] picking the edge from vertex k to vertex k+1, 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError(f"edge index {k} outside 0..{n - 1}")
    return DeltaMap(1, n, (k, k + 1))


def delta_to_gamma(f: DeltaMap) -> GammaMap:
    """The interval functor: i is assigned {j | f(i-1) < j <= f(i)}.

    Preserves identities and composition; sends the edge maps onto the
    projection family and the edges-from-zero onto the initial-segment
    folds (up to the one-step index shift between the two conventions).
    """
    images = tuple(frozenset(range(f.values[i - 1] + 1, f.values[i] + 1))
                   for i in range(1, f.source + 1))
    return GammaMap(f.source, f.target, images)


def face_gamma_op(p: int, i: int) -> GammaOpMap:
    """Pointed-map form of the i-th coface [p-1] -> [p]; a morphism p -> p-1."""
    return from_power_set_form(delta_to_gamma(coface(p, i)))


def degeneracy_gamma_op(p: int, i: int) -> GammaOpMap:
    """Pointed-map form of the i-th codegeneracy [p+1] -> [p]; a morphism p -> p+1."""
    return from_power_set_form(delta_to_gamma(codegeneracy(p, i)))


def smash_morphisms(*maps: GammaOpMap) -> GammaOpMap:
    """Smash of any number of morphisms.  The nonzero elements of a smash
    are tuples of nonzero elements, one per factor, paired row-major with
    the first factor varying slowest; a tuple goes to the tuple of its
    images, or to the basepoint when some image is.  No factors give
    identity(1)."""
    values, target = [0, 1], 1
    for f in maps:
        values = [0] + [v and w and (v - 1) * f.target + w for v in values[1:] for w in f.values[1:]]
        target *= f.target
    return GammaOpMap(len(values) - 1, target, tuple(values))
