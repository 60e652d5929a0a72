"""Bar-type classifying spaces of strict presheaves, their group actions,
the suspension-to-skeleton structure map, iterated deloopings, and
homology reports against the expected Eilenberg-MacLane pattern.

The k-fold delooping evaluated at the n-wedge is modeled as the diagonal
simplicial set with level p given by the presheaf at the (p**k * n)-fold
object, all simplicial structure maps acting through the interval functor
in every smash factor at once.  For k = 1 and a monoid-built presheaf this
is literally the nerve of the monoid.  `iterate_bar` builds one
`BarSpace`, its level objects computed by `_check_budget` alone, and
`delooping_report` and `structure_map` both read it.  A report computes
each homology group once: from the cleared boundaries, or from the
presentations when there is a group.
"""

from __future__ import annotations

import itertools
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


def _identity_checks(p: int, d: int) -> int:
    """Identity comparisons that validate makes per simplex of level p of a
    space truncated at d: d_i d_j (i < j), s_i s_j (i <= j) and the d_i s_j."""
    return ((p * (p + 1) // 2 if p >= 2 else 0) + ((p + 1) * (p + 2) // 2 if p < d - 1 else 0)
            + ((p + 1) * (p + 2) if p < d else 0))


def _check_budget(X, k: int, d: int, n: int, budget: int) -> list[int]:
    """The presheaf objects p**k * n behind bar levels p = 0..d, walked in
    order.  A monoid-built level m holds size**m simplices; one past the
    budget and over _EXACT_BITS bits is refused without being computed,
    and so is p**k once k alone puts it there.  The labels of one-element
    levels may hold at most budget entries in all, all levels at most
    budget simplices, and last the identity checks on one-element levels,
    which the simplex count does not bound, at most budget.  At n = 0 every
    level is object 0: both totals are closed forms, refused as in the walk."""
    algebra = X.algebra.monoid if isinstance(X.algebra, GMonoid) else X.algebra
    sized = isinstance(algebra, FinAbMonoid)
    objects: list[int] = []
    total = entries = checks = 0
    if not n:
        size = 1 if sized else X.level_size(0)
        total = (d + 1) * size
        if size == 1:  # the sum of _identity_checks(p, d) over p <= d
            checks = d and 3 * math.comb(d + 2, 3) + math.comb(d + 1, 3) - 1
    # for p >= 2, p**k * n >= 2**k: past both bounds once k reaches their bit lengths
    huge = sized and k >= max(budget.bit_length(), _EXACT_BITS.bit_length())
    for p in range(d + 1 if n else 0):
        if huge and p >= 2:
            raise BudgetError(f"predicted bar level {p} alone exceeds budget {budget}")
        m = p ** k * n
        base, exponent = (algebra.size, m) if sized else (X.level_size(m), 1)
        if (base >= 2 and exponent >= budget.bit_length()
                and exponent * base.bit_length() > _EXACT_BITS):
            raise BudgetError(f"predicted bar level {p} alone exceeds budget {budget}")
        if base == 1:
            entries += m
            if entries > budget:
                raise BudgetError(f"predicted {entries} label entries in one-element "
                                  f"bar levels exceeds budget {budget}")
        if base == 1 or not exponent:
            checks += _identity_checks(p, d)
        total += base ** exponent
        objects.append(m)
    if total > budget:
        raise BudgetError(f"predicted {total} simplices exceeds budget {budget}")
    if checks > budget:
        raise BudgetError(f"predicted {checks} identity checks on one-element bar levels "
                          f"exceeds budget {budget}")
    return objects if n else [0] * (d + 1)


@dataclass
class BarSpace:
    """A (possibly iterated) classifying space with its provenance: the
    presheaf object behind each level and, when the presheaf is
    equivariant, the group acting levelwise."""

    space: TruncatedSimplicialSet
    presheaf: object
    n: int
    d: int
    iterations: int
    objects: list[int]

    @property
    def group(self):
        return self.presheaf.group


def iterate_bar(X, k: int, d: int, n: int = 1, budget: int = DEFAULT_BUDGET) -> BarSpace:
    """k-fold delooping at the n-wedge, truncated at simplicial dimension d.

    Refuses before allocating anything if the predicted simplex count
    exceeds the budget or the presheaf truncation is too small.
    """
    if k < 1:
        raise ValueError("iteration count must be at least 1")
    objects = _check_budget(X, k, d, n, budget)
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
    return BarSpace(space, X, n, d, k, objects)


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


def _primes(x: int) -> list[int]:
    return [p for p in range(2, x + 1) if x % p == 0 and all(p % q for q in range(2, p))]


def _invariant_factors(primes, at_least) -> list[int]:
    """Invariant factors, in divisibility order, of the finite abelian group
    with at_least(p, j) cyclic factors of order a multiple of p**j: the t-th
    factor from the top takes p**e, e counting the j with at_least >= t."""
    top: dict[int, int] = {}
    for p in primes:
        counts = list(itertools.takewhile(bool, (at_least(p, j) for j in itertools.count(1))))
        for t in range(1, counts[0] + 1):
            top[t] = top.get(t, 1) * p ** sum(c >= t for c in counts)
    return sorted(top.values())


def _cyclic_decomposition(A: FinAbMonoid) -> list[int]:
    """Invariant factors of a finite abelian group given by its table, from
    element orders alone: when p**j kills p**s_j elements, s_j - s_(j-1)
    cyclic p-power factors have order at least p**j."""
    orders = []
    for a in range(A.size):
        x, order = a, 1
        while x != A.unit:
            x, order = A.table[x][a], order + 1
        orders.append(order)

    def at_least(p, j):
        ratio = sum(p ** j % o == 0 for o in orders) // sum(p ** (j - 1) % o == 0 for o in orders)
        return next(e for e in range(ratio) if p ** e == ratio)
    return _invariant_factors(_primes(A.size), at_least)


def _cyclic_list_homology(orders: list[int], q: int) -> list[int]:
    """Homology of the once-delooped group with the given cyclic factors,
    as a list of cyclic orders (0 meaning a free summand)."""
    hom: list[list[int]] = [[0]] + [[] for _ in range(q)]
    for t in orders:
        factor = [[0]] + [([t] if i % 2 else []) for i in range(1, q + 1)]
        hom = _kunneth(hom, factor, q)
    return hom[q]


def _kunneth(ha, hb, q: int) -> list[list[int]]:
    out: list[list[int]] = []
    for degree in range(q + 1):
        summands: list[int] = []
        for i in range(degree + 1):
            summands.extend(_tensor(ha[i], hb[degree - i]))
        for i in range(degree):
            summands.extend(_tor(ha[i], hb[degree - 1 - i]))
        out.append(summands)
    return out


def _tensor(xs, ys):
    return [math.gcd(x, y) for x in xs for y in ys if math.gcd(x, y) != 1]


def _tor(xs, ys):
    return [math.gcd(x, y) for x in xs for y in ys if x and y and math.gcd(x, y) != 1]


def _canonical_group(orders: list[int]) -> HomologyGroup:
    """The direct sum of cyclic groups of the given orders (0 meaning a free
    summand), in invariant-factor form."""
    nonzero = [x for x in orders if x]
    return HomologyGroup(orders.count(0), tuple(_invariant_factors(
        _primes(math.lcm(*nonzero)), lambda p, j: sum(x % p ** j == 0 for x in nonzero))))


def expected_em_homology(A: FinAbMonoid, k: int, q: int) -> HomologyGroup | None:
    """Expected homology of the k-fold delooping of a finite abelian group
    in degree q; None when outside the range tabulated here."""
    if not A.is_group():
        raise ValueError("expected homology needs a group, not a monoid without inverses")
    return _expected_from_invariants(_cyclic_decomposition(A), k, q)


def _expected_from_invariants(invariants: list[int], k: int, q: int) -> HomologyGroup | None:
    """expected_em_homology for the group with these invariant factors."""
    if q == 0:
        return HomologyGroup(1)
    if k == 1:
        return _canonical_group(_cyclic_list_homology(invariants, q))
    if q < k:
        return HomologyGroup(0)
    if q == k:
        return _canonical_group(list(invariants))
    if q == k + 1:
        return HomologyGroup(0)
    return None


@dataclass
class DeloopingReport:
    iterations: int
    d: int
    maxdeg: int
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
    """Homology of the bar B through degree maxdeg, with the induced
    action of every group element and, when the presheaf came from a
    group, a comparison against the expected pattern of its delooping.
    Degree maxdeg needs B.d > maxdeg.  A bar without a group takes its
    groups from the boundaries, each cleared by the unit pivots of the one
    below.  A bar with a group builds a presentation per degree, whose
    representative cycles the induced maps need, and reads each group off
    it.  An elimination whose nonzeros pass the budget raises
    BudgetError."""
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
                induced_map_on_homology(action_map, q,
                                        source_pres=presentations[q],
                                        target_pres=presentations[q]).as_dict()["matrix"]
                for q in range(maxdeg + 1)]

    source = B.presheaf.algebra
    carrier = source.monoid if isinstance(source, GMonoid) else source
    expected: list = [None] * (maxdeg + 1)
    matches: list = [None] * (maxdeg + 1)
    if isinstance(carrier, FinAbMonoid) and carrier.is_group():
        invariants = _cyclic_decomposition(carrier)
        for q in range(maxdeg + 1):
            expected[q] = _expected_from_invariants(invariants, B.iterations, q)
            if expected[q] is not None:
                matches[q] = expected[q] == groups[q]
    return DeloopingReport(B.iterations, B.d, maxdeg, B.space.level_sizes(), groups,
                           g_action, expected, matches)
