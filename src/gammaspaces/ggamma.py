"""Wedge-indexed variant of the pointed-map category for a fixed finite
group G.

Objects are wedges of G-indexed copies of {0..n}, with one shared
basepoint.  Morphisms are generated by diagonal copies of pointed maps
(the same map on every wedge summand) and by the relabeling action of G
on summands.  The two generator families commute, so every composite is a
normalized pair (pointed map, group element); the pair whose map is
constant zero is stored with the identity element, which makes the pair
presentation faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gammacat as gc
from .algebra import FiniteGroup
from .errors import CompositionError


@dataclass(frozen=True)
class GGammaMap:
    """Normalized pair (pointed map, group element) acting on wedge objects.

    Sends (k, h) to (f(k), g*h) when f(k) is nonzero and to the basepoint
    otherwise; the group element is normalized to the identity when f is
    constant zero.
    """

    f: gc.GammaOpMap
    g: int
    group: FiniteGroup

    def __post_init__(self):
        if not 0 <= self.g < self.group.size:
            raise ValueError(f"group element index {self.g} out of range")
        if self.f.is_zero() and self.g != 0:
            object.__setattr__(self, "g", 0)

    @property
    def source(self) -> int:
        return self.f.source

    @property
    def target(self) -> int:
        return self.f.target

    def key(self) -> str:
        """Canonical string form; the group element appears by index so
        arbitrary labels cannot collide with the separator."""
        return f"{self.f.key()}|g{self.g}"

    @classmethod
    def from_key(cls, key: str, group: FiniteGroup) -> "GGammaMap":
        map_part, _, tag = key.rpartition("|")
        if not tag.startswith("g"):
            raise ValueError("missing group-element tag")
        return cls(gc.GammaOpMap.from_key(map_part), int(tag[1:]), group)


def compose(b: GGammaMap, a: GGammaMap) -> GGammaMap:
    """b after a: compose the maps and multiply the group elements."""
    if a.group != b.group:
        raise CompositionError("morphisms over different groups")
    return GGammaMap(gc.compose(b.f, a.f), b.group.table[b.g][a.g], a.group)


def group_action_map(n: int, g: int, group: FiniteGroup) -> GGammaMap:
    """The relabeling automorphism of the n-wedge by a group element."""
    return GGammaMap(gc.identity(n), g, group)


def diag_inclusion(f: gc.GammaOpMap, group: FiniteGroup) -> GGammaMap:
    """The functor from plain pointed maps: same map on every summand."""
    return GGammaMap(f, 0, group)


def enumerate_ggamma_maps(m: int, n: int, group: FiniteGroup):
    """All normalized pairs m-wedge -> n-wedge (zero map only with identity)."""
    for f in gc.enumerate_maps(m, n):
        if f.is_zero():
            yield GGammaMap(f, 0, group)
        else:
            for g in range(group.size):
                yield GGammaMap(f, g, group)
