"""Bar-type classifying spaces of strict presheaves, their group actions,
the suspension-to-skeleton structure map, iterated deloopings, and
homology reports against the expected Eilenberg-MacLane pattern.

The k-fold delooping evaluated at the n-wedge is modeled as the diagonal
simplicial set with level p given by the presheaf at the (p**k * n)-fold
object, all simplicial structure maps acting through the interval functor
in every smash factor at once.  For k = 1 and a monoid-built presheaf this
is literally the nerve of the monoid.  `iterate_bar` builds one
`BarSpace`, its level objects computed by `_check_budget` from the size
of the presheaf's monoid alone, and `delooping_report` and `structure_map`
both read it.  A report computes each homology group once: from the
cleared boundaries, or from the presentations when there is a group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import gammacat as gc
from .algebra import FinAbMonoid, GMonoid
from .errors import BudgetError, StrictnessError, TruncationError
from .homology import (HomologyGroup, HomologyPresentation, homology_groups,
                       induced_map_on_homology, normalized_chain_complex)
from .simplicial import (SimplicialMap, TruncatedSimplicialSet, composite,
                         skeleton, skeleton_inclusion, suspension, validate)

DEFAULT_BUDGET = 10 ** 7
# a level of more bits than this is not written out once it is past the budget
_EXACT_BITS = 4096


def _check_budget(size: int, k: int, d: int, n: int, budget: int) -> list[int]:
    """The presheaf objects p**k * n behind bar levels p = 0..d of a monoid
    of the given size, walked in order.  Level m holds size**m simplices;
    one past the budget and over _EXACT_BITS bits is refused without being
    computed, and so is p**k once k alone puts it there.  The labels of
    one-element levels may hold at most budget entries in all, all levels
    at most budget simplices, and last, when every level has one element,
    the identity checks at most budget.  Otherwise only level 0 has one,
    and its at most 3 checks fit any budget that the 1 + size simplices
    of levels 0 and 1 fit.  At n = 0 both totals are closed forms."""
    objects: list[int] = []
    total = 0 if n else d + 1
    entries = 0
    # for p >= 2, p**k * n >= 2**k: past both bounds once k reaches their bit lengths
    huge = k >= max(budget.bit_length(), _EXACT_BITS.bit_length())
    for p in range(d + 1 if n else 0):
        if huge and p >= 2:
            raise BudgetError(f"predicted bar level {p} alone exceeds budget {budget}")
        m = p ** k * n
        if (size >= 2 and m >= budget.bit_length()
                and m * size.bit_length() > _EXACT_BITS):
            raise BudgetError(f"predicted bar level {p} alone exceeds budget {budget}")
        if size == 1:
            entries += m
            if entries > budget:
                raise BudgetError(f"predicted {entries} label entries in one-element "
                                  f"bar levels exceeds budget {budget}")
        total += size ** m
        objects.append(m)
    if total > budget:
        raise BudgetError(f"predicted {total} simplices exceeds budget {budget}")
    checks = d and 3 * math.comb(d + 2, 3) + math.comb(d + 1, 3) - 1
    if (size == 1 or not n) and checks > budget:
        raise BudgetError(f"predicted {checks} identity checks on one-element bar levels "
                          f"exceeds budget {budget}")
    return objects if n else [0] * (d + 1)


@dataclass
class BarSpace:
    """A (possibly iterated) classifying space with its provenance: the
    presheaf and its monoid, the presheaf object behind each level and,
    when the presheaf is equivariant, the group acting levelwise."""

    space: TruncatedSimplicialSet
    presheaf: object
    monoid: FinAbMonoid
    n: int
    d: int
    iterations: int
    objects: list[int]

    @property
    def group(self):
        return self.presheaf.group


def iterate_bar(X, k: int, d: int, n: int = 1, budget: int = DEFAULT_BUDGET) -> BarSpace:
    """k-fold delooping at the n-wedge, truncated at simplicial dimension d,
    of a presheaf built from a monoid or a G-monoid.  Refuses before
    allocating anything if the monoid's size predicts a bar past the budget
    or the presheaf truncation is too small.
    """
    if k < 1:
        raise ValueError("iteration count must be at least 1")
    monoid = X.algebra.monoid if isinstance(X.algebra, GMonoid) else X.algebra
    if not isinstance(monoid, FinAbMonoid):
        raise ValueError("the bar needs a presheaf built from a monoid or a G-monoid")
    objects = _check_budget(monoid.size, k, d, n, budget)
    if X.N < objects[-1]:
        raise TruncationError(
            f"{k}-fold bar at dimension {d} needs presheaf levels up to {objects[-1]}, "
            f"truncation is {X.N}", required=objects[-1])

    def tables(op_fn, p):
        return [X.action_table(X.lift(gc.smash_morphisms(*[op_fn(p, i)] * k, gc.identity(n))))
                for i in range(p + 1)]

    levels = [X.level(m) for m in objects]
    faces = [tables(gc.face_gamma_op, p) if p else [] for p in range(d + 1)]
    degeneracies = [tables(gc.degeneracy_gamma_op, p) if p < d else [] for p in range(d + 1)]
    space = TruncatedSimplicialSet(d, levels, faces, degeneracies)
    report = validate(space)
    if not report.ok:
        raise StrictnessError(f"bar output failed validation: {report.violation} at {report.witness}")
    return BarSpace(space, X, monoid, n, d, k, objects)


def bar(X, n: int, d: int, budget: int = DEFAULT_BUDGET) -> BarSpace:
    """Single classifying space evaluated at the n-wedge; n = 0 collapses
    every level to the point."""
    return iterate_bar(X, 1, d, n=n, budget=budget)


def g_action_on_bar(B: BarSpace, g: int) -> SimplicialMap:
    """Levelwise action of a group element on an equivariant bar space:
    level p is the presheaf's action table on the level's wedge object."""
    X = B.presheaf
    if B.group is None:
        raise ValueError("bar space has no group action")
    return SimplicialMap(B.space, B.space,
                         [X.action_table(X.group_action(m, g)) for m in B.objects])


@dataclass
class StructureMapResult:
    suspension_space: TruncatedSimplicialSet
    one_skeleton: TruncatedSimplicialSet
    iso: SimplicialMap
    inclusion: SimplicialMap
    equivariant: bool | None = None

    def as_dict(self) -> dict:
        return {"is_isomorphism": True,
                "suspension_levels": self.suspension_space.level_sizes(),
                "skeleton_levels": self.one_skeleton.level_sizes(),
                "equivariant": self.equivariant}


def structure_map(B: BarSpace) -> StructureMapResult:
    """The suspension of level 1 mapped isomorphically onto the 1-skeleton
    of B, a once-delooped bar at the 1-wedge, plus the skeleton inclusion.

    Simplices of the suspension are basepoint collapses or pairs
    (element, switch word); the word with switch position t goes to the
    image of the element under the map picking position t.  Raises a
    structured error with a witness if the candidate is not an
    isomorphism (which signals a violated single-point level 0).
    """
    if (B.iterations, B.n) != (1, 1):
        raise ValueError("structure map needs the once-delooped bar at the 1-wedge")
    X, d = B.presheaf, B.d
    if d < 2:
        raise TruncationError("structure map needs dimension at least 2", required=2)
    if not X.is_pointed():
        raise StrictnessError(
            f"level 0 has {X.level_size(0)} elements, expected a single point")
    level1 = X.level(1)
    unit = X.action_table(X.unit_inclusion())[0]
    loops = [a for a in range(len(level1)) if a != unit]
    susp = suspension(level1, level1[unit], d)
    sk = skeleton(B.space, 1)
    incl = skeleton_inclusion(sk, B.space)

    # images[p]: positions in bar level p of the images of suspension level p
    images: list[list[int]] = []
    for p in range(d + 1):
        edges = [X.action_table(X.lift(gc.GammaOpMap(1, p, (0, t)))) for t in range(1, p + 1)]
        images.append([X.action_table(X.lift(gc.zero_map(1, p)))[unit]]
                      + [edge[a] for a in loops for edge in edges])

    iso_tables: list[list[int]] = []
    for p, image in enumerate(images):
        if len(set(image)) != len(image):
            raise StrictnessError(f"structure map not injective at level {p}")
        kept = incl.tables[p]
        if set(image) != set(kept):
            level = B.space.levels[p]
            missing = {level[k] for k in set(kept) - set(image)}
            extra = {level[k] for k in set(image) - set(kept)}
            raise StrictnessError(
                f"structure map not onto the 1-skeleton at level {p}: "
                f"missing {sorted(map(repr, missing))[:3]}, extra {sorted(map(repr, extra))[:3]}")
        rank = {k: r for r, k in enumerate(kept)}
        iso_tables.append([rank[k] for k in image])
    iso = SimplicialMap(susp, sk, iso_tables)
    report = iso.check()
    if not report.ok:
        raise StrictnessError(f"structure map is not simplicial: {report.violation} at {report.witness}")

    equivariant: bool | None = None
    if X.group is not None:
        equivariant = True
        for g in range(X.group.size):
            # g moves the loops of the suspension and keeps their words; a
            # loop moved onto the unit has no image there.  The element at
            # position b of level 1 is loop b - (b > unit).
            moved = [X.action_table(X.group_action(1, g))[a] for a in loops]
            if unit in moved:
                equivariant = False
                continue
            bar_act = g_action_on_bar(B, g)
            for p in range(d + 1):
                susp_act = [0] + [(b - (b > unit)) * p + t for b in moved for t in range(1, p + 1)]
                if composite(images[p], susp_act) != composite(bar_act.tables[p], images[p]):
                    equivariant = False
    return StructureMapResult(susp, sk, iso, incl, equivariant)


def _cyclic_decomposition(A: FinAbMonoid) -> list[int]:
    """Invariant factors, in divisibility order, of a finite abelian group
    by subgroup closure: from H = {unit}, an x of largest order e modulo H
    (the least e with e*x in H) spans a cyclic summand of A/H, so e is the
    next factor from the top; H is closed under x until it is A."""
    def order(a, subgroup):
        x, e = a, 1
        while x not in subgroup:
            x, e = A.table[x][a], e + 1
        return e

    subgroup, factors = {A.unit}, []
    while len(subgroup) < A.size:
        top, x = max((order(a, subgroup), a) for a in range(A.size))
        factors.append(top)
        for _ in range(top - 1):
            subgroup |= {A.table[h][x] for h in subgroup}
    return factors[::-1]


def _cyclic_list_homology(orders: list[int], q: int) -> list[int]:
    """Homology of the once-delooped group with the given cyclic factors,
    as a list of cyclic orders (0 meaning a free summand)."""
    hom: list[list[int]] = [[0]] + [[] for _ in range(q)]
    for t in orders:
        factor = [[0]] + [([t] if i % 2 else []) for i in range(1, q + 1)]
        hom = _kunneth(hom, factor, q)
    return hom[q]


def _kunneth(ha, hb, q: int) -> list[list[int]]:
    """Degrees 0..q of the Kuenneth formula over Z on lists of cyclic orders
    per degree (0 meaning free): Z/x tensor Z/y and Tor(Z/x, Z/y) are both
    Z/gcd(x, y), Tor only where x and y are nonzero; Z/1 stays in."""
    out: list[list[int]] = []
    for degree in range(q + 1):
        summands: list[int] = []
        for i in range(degree + 1):
            summands.extend(math.gcd(x, y) for x in ha[i] for y in hb[degree - i])
        for i in range(degree):
            summands.extend(math.gcd(x, y) for x in ha[i] for y in hb[degree - 1 - i] if x and y)
        out.append(summands)
    return out


def _canonical_group(orders: list[int]) -> HomologyGroup:
    """The direct sum of cyclic groups of the given orders (0 meaning a free
    summand) in invariant-factor form: one sweep of Z/a + Z/b = Z/gcd + Z/lcm
    over the pairs leaves each nonzero order dividing the later ones."""
    factors = [x for x in orders if x]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
    return HomologyGroup(orders.count(0), tuple(x for x in factors if x > 1))


def expected_em_homology(A: FinAbMonoid, k: int, q: int) -> HomologyGroup | None:
    """Expected homology of the k-fold delooping of a finite abelian group
    in degree q; None when outside the range tabulated here."""
    if not A.is_group():
        raise ValueError("expected homology needs a group, not a monoid without inverses")
    if q == 0:
        return HomologyGroup(1)
    if k == 1:
        return _canonical_group(_cyclic_list_homology(_cyclic_decomposition(A), q))
    if q < k:
        return HomologyGroup(0)
    if q == k:
        return _canonical_group(_cyclic_decomposition(A))
    if q == k + 1:
        return HomologyGroup(0)
    return None


@dataclass
class DeloopingReport:
    iterations: int
    d: int
    levels: list[int]
    homology: list[HomologyGroup]
    g_action_on_h: dict = field(default_factory=dict)
    expected: list = field(default_factory=list)
    matches: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "dimension": self.d,
            "levels": self.levels,
            "homology": [{"degree": q, **h.as_dict()} for q, h in enumerate(self.homology)],
            "g_action_on_H": self.g_action_on_h,
            "oracle_comparisons": [
                {"degree": q,
                 "expected": e.as_dict() if e is not None else None,
                 "match": m}
                for q, (e, m) in enumerate(zip(self.expected, self.matches))],
        }


def delooping_report(B: BarSpace, maxdeg: int, budget: int = DEFAULT_BUDGET) -> DeloopingReport:
    """Homology of the bar B through degree maxdeg, with the matrix of the
    induced action of every group element in each degree and, when the
    presheaf came from a group, a comparison against
    `expected_em_homology` in each degree.  Degree maxdeg needs
    B.d > maxdeg.  A bar without a group takes its groups from the
    boundaries, each cleared by the unit pivots of the one below.  A bar
    with a group builds a presentation per degree, whose representative
    cycles the induced maps need, and reads each group off it.  An
    elimination whose nonzeros pass the budget raises BudgetError."""
    chain = normalized_chain_complex(B.space, top=maxdeg + 1)
    g_action: dict = {}
    if B.group is None:
        groups = homology_groups(chain, maxdeg, budget)
    else:
        presentations = [HomologyPresentation(chain, q, budget) for q in range(maxdeg + 1)]
        groups = [pres.group() for pres in presentations]
        for g in range(B.group.size):
            label = str(B.group.elements[g])
            action_map = g_action_on_bar(B, g)
            g_action[label] = [
                [list(row) for row in induced_map_on_homology(action_map, pres, pres)]
                for pres in presentations]

    expected: list = [None] * (maxdeg + 1)
    if B.monoid.is_group():
        expected = [expected_em_homology(B.monoid, B.iterations, q) for q in range(maxdeg + 1)]
    matches = [None if e is None else e == h for e, h in zip(expected, groups)]
    return DeloopingReport(B.iterations, B.d, B.space.level_sizes(), groups,
                           g_action, expected, matches)
