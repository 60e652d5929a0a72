"""Independent constructions used as test oracles.

These deliberately avoid the presheaf machinery under test: the nerve is
built directly from a Cayley table, group homology comes from the reduced
bar resolution written out by hand, and the twice-delooped comparison
space is the classical normalized-cocycle model.  Presheaf actions are
recomputed one element at a time from the Cayley table, and the explicit
bisimplicial bar and its diagonal check the direct iterated bar.  The
suspension is rebuilt from its labels, and simplicial sets and maps given
as dicts between simplices are converted to index tables here.
`pairwise_validate` compares the two sides of every simplicial identity
table by table, the check `validate` packs level by level.  The
unnormalized chain complex, an exact determinant and a Smith-form
certificate check the homology layer, and every presentation's group is
checked against `homology_groups`, which eliminates each boundary with
`smith_rows` after clearing the rows that the previous boundary's unit
pivots mark.  Both are also checked against homology read off
determinantal divisors and ranks, which share no code with `smith_rows`;
the Smith diagonal checks the invariant factors that the
expected-homology oracle finds without it.  The integer Moore complex of
the bar, from the 0/1 matrices of its faces, gives its homotopy groups
through Dold-Kan.  Wedge objects give the normalized pairs of the
wedge-indexed category their concrete functions.  The category-axiom tests
build the preimage form of a pointed map, identities and composites of
power-set and order-preserving maps, the edges from vertex zero and
identity, composite and constant simplicial maps here.  The strict Segal
and Bousfield checks are redone on tuples of component images, not on the
integer codes the presheaf layer compares.  The bar budget is redone
level by level, its identity checks counted pair by pair, not in closed
form.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from gammaspaces.algebra import FinAbMonoid, FiniteGroup
from gammaspaces.errors import BudgetError, CompositionError, TruncationError
from gammaspaces.gammacat import (DeltaMap, GammaMap, GammaOpMap, face_gamma_op, identity,
                                  smash_morphisms)
from gammaspaces.homology import (ChainComplex, HomologyGroup, HomologyPresentation, Matrix,
                                  homology_groups, mat_mul, normalized_chain_complex,
                                  smith_normal_form, zeros)
from gammaspaces.simplicial import (SimplicialMap, TruncatedSimplicialSet,
                                    ValidationReport, composite, point, validate)


def from_label_maps(d: int, levels: list[list], faces: list[list[dict]],
                    degeneracies: list[list[dict]]) -> TruncatedSimplicialSet:
    """Simplicial set from structure maps given as dicts between simplices."""

    def tables(maps, p, q):
        return [[levels[q].index(m[x]) for x in levels[p]] for m in maps[p]]

    return TruncatedSimplicialSet(d, levels,
                                  [tables(faces, p, p - 1) for p in range(d + 1)],
                                  [tables(degeneracies, p, p + 1) for p in range(d + 1)])


def map_from_label_maps(source: TruncatedSimplicialSet, target: TruncatedSimplicialSet,
                        level_maps: list[dict]) -> SimplicialMap:
    """Simplicial map from one dict between simplices per level."""
    return SimplicialMap(source, target,
                         [[target.levels[p].index(m[x]) for x in source.levels[p]]
                          for p, m in enumerate(level_maps)])


def label_suspension(points, base, d: int) -> TruncatedSimplicialSet:
    """Reduced suspension built from its labels: a p-simplex is "*" or
    (a, bits) with bits a nonconstant weakly increasing 0/1 word of length
    p+1; faces delete a bit, degeneracies double one, and a word that
    becomes constant collapses to "*"."""
    loops = [a for a in points if a != base]
    levels = [["*"] + [(a, (0,) * t + (1,) * (p + 1 - t)) for a in loops for t in range(1, p + 1)]
              for p in range(d + 1)]

    def move(x, edit):
        if x == "*":
            return "*"
        a, bits = x
        bits = edit(bits)
        return "*" if len(set(bits)) == 1 else (a, bits)

    faces = [[{x: move(x, lambda b: b[:i] + b[i + 1:]) for x in levels[p]}
              for i in range(p + 1)] if p else [] for p in range(d + 1)]
    degeneracies = [[{x: move(x, lambda b: b[:i + 1] + b[i:]) for x in levels[p]}
                     for i in range(p + 1)] if p < d else [] for p in range(d + 1)]
    return from_label_maps(d, levels, faces, degeneracies)


def nerve_of_monoid(M: FinAbMonoid, d: int) -> TruncatedSimplicialSet:
    """Nerve built straight from the multiplication table: p-simplices are
    p-tuples of element indices, outer faces drop, inner faces multiply,
    degeneracies insert the unit."""
    levels = [list(itertools.product(range(M.size), repeat=p)) for p in range(d + 1)]
    faces = [[] for _ in range(d + 1)]
    degeneracies = [[] for _ in range(d + 1)]
    for p in range(1, d + 1):
        for i in range(p + 1):
            table = {}
            for x in levels[p]:
                if i == 0:
                    table[x] = x[1:]
                elif i == p:
                    table[x] = x[:-1]
                else:
                    table[x] = x[:i - 1] + (M.table[x[i - 1]][x[i]],) + x[i + 1:]
            faces[p].append(table)
    for p in range(d):
        for i in range(p + 1):
            degeneracies[p].append({x: x[:i] + (M.unit,) + x[i:] for x in levels[p]})
    return from_label_maps(d, levels, faces, degeneracies)


def bar_resolution_boundaries(M: FinAbMonoid, top: int):
    """Boundary matrices of the reduced (normalized) bar complex, written
    from the bar differential formula rather than from any simplicial set."""
    basis = [[x for x in itertools.product(range(M.size), repeat=p) if M.unit not in x]
             for p in range(top + 1)]
    pos = [{x: i for i, x in enumerate(b)} for b in basis]
    boundaries = [[]]
    for p in range(1, top + 1):
        mat = [[0] * len(basis[p]) for _ in range(len(basis[p - 1]))]
        for j, x in enumerate(basis[p]):
            terms = [x[1:]]
            for i in range(1, p):
                terms.append(x[:i - 1] + (M.table[x[i - 1]][x[i]],) + x[i + 1:])
            terms.append(x[:-1])
            for i, y in enumerate(terms):
                row = pos[p - 1].get(y)
                if row is not None:
                    mat[row][j] += -1 if i % 2 else 1
        boundaries.append(mat)
    return [len(b) for b in basis], boundaries


def chain_complex(ranks: list[int], boundaries: list[Matrix]) -> ChainComplex:
    """The chain complex of dense boundary matrices, boundaries[p] of shape
    ranks[p-1] x ranks[p] for p >= 1."""
    return ChainComplex(ranks, [[]] + [[{j: x for j, x in enumerate(row) if x}
                                        for row in boundaries[p]] for p in range(1, len(ranks))])


def presentation_group(C: ChainComplex, q: int) -> HomologyGroup:
    """H_q of C read off its presentation, checked against the group that
    `homology_groups` gives from the cleared boundaries."""
    group = HomologyPresentation(C, q).group()
    assert homology_groups(C, q)[q] == group, (q, group)
    return group


def bar_resolution_homology(M: FinAbMonoid, q: int) -> HomologyGroup:
    ranks, boundaries = bar_resolution_boundaries(M, q + 1)
    return presentation_group(chain_complex(ranks, boundaries), q)


def em_two_cocycle_space(A: FinAbMonoid, d: int) -> TruncatedSimplicialSet:
    """Classical simplicial model of the double delooping of a finite
    abelian group: q-simplices are normalized 2-cocycles on the standard
    q-simplex with coefficients in A, structure maps are pullbacks.

    A q-simplex is stored as a tuple of values on the strictly increasing
    triples of {0..q} in lexicographic order.
    """
    assert A.is_group()

    def triples(q):
        return list(itertools.combinations(range(q + 1), 3))

    def is_cocycle(q, values):
        val = dict(zip(triples(q), values))
        for quad in itertools.combinations(range(q + 1), 4):
            i, j, k, l = quad
            total = A.unit
            inv = {m: next(n for n in range(A.size)
                           if A.table[m][n] == A.unit) for m in range(A.size)}
            total = A.table[val[(j, k, l)]][inv[val[(i, k, l)]]]
            total = A.table[total][val[(i, j, l)]]
            total = A.table[total][inv[val[(i, j, k)]]]
            if total != A.unit:
                return False
        return True

    levels = []
    for q in range(d + 1):
        tri = triples(q)
        level = [v for v in itertools.product(range(A.size), repeat=len(tri))
                 if is_cocycle(q, v)]
        levels.append(level)

    def pullback(q_target, q_source, alpha, values_on_source):
        """alpha: [q_target] -> [q_source] monotone; restrict a cocycle."""
        src_tri = {t: i for i, t in enumerate(triples(q_source))}
        out = []
        for (i, j, k) in triples(q_target):
            a, b, c = alpha[i], alpha[j], alpha[k]
            if a < b < c:
                out.append(values_on_source[src_tri[(a, b, c)]])
            else:
                out.append(A.unit)
        return tuple(out)

    faces = [[] for _ in range(d + 1)]
    degeneracies = [[] for _ in range(d + 1)]
    for q in range(1, d + 1):
        for i in range(q + 1):
            alpha = [j if j < i else j + 1 for j in range(q)]
            faces[q].append({x: pullback(q - 1, q, alpha, x) for x in levels[q]})
    for q in range(d):
        for i in range(q + 1):
            alpha = [j if j <= i else j - 1 for j in range(q + 2)]
            degeneracies[q].append({x: pullback(q + 1, q, alpha, x) for x in levels[q]})
    return from_label_maps(d, levels, faces, degeneracies)


def em_two_homology(A, q: int) -> HomologyGroup:
    space = em_two_cocycle_space(A, q + 1)
    return presentation_group(normalized_chain_complex(space), q)


# the largest target level summed_preimage_table lists to look images up in
LISTED_TARGET = 2 ** 16


def summed_preimage_table(M: FinAbMonoid, row, f) -> list[int]:
    """Action table of a pointed map f on tuples of elements of M, one
    element at a time: relabel every entry through the group row, sum the
    entries over each preimage starting from the unit, and look the image
    tuple up in the lexicographic list of the target level.  A target level
    of more than LISTED_TARGET tuples is not listed; there the image's
    position is read as the numeral in base M.size whose digits are its
    entries, first entry leading."""
    if M.size ** f.target <= LISTED_TARGET:
        target = {y: k for k, y in
                  enumerate(itertools.product(range(M.size), repeat=f.target))}
        position = target.__getitem__
    else:
        def position(y):
            return functools.reduce(lambda k, digit: k * M.size + digit, y, 0)
    table = []
    for x in itertools.product(range(M.size), repeat=f.source):
        out = [M.unit] * f.target
        for i in range(1, f.source + 1):
            j = f.values[i]
            if j:
                out[j - 1] = M.table[out[j - 1]][row[x[i - 1]]]
        table.append(position(tuple(out)))
    return table


def strict_check(X, upto: int, kind: str) -> dict:
    """The strict Segal or Bousfield check of a plain presheaf on tuples,
    as the fields of its report.  For 2 <= n <= upto the k-th component
    n -> 1 sends k (Segal) or 1..k (Bousfield) to 1; level n is assembled
    by zipping the component tables, the first element whose tuple an
    earlier one already has witnesses non-injectivity, and otherwise the
    level must have as many elements as there are n-tuples of level 1."""
    report = {"kind": kind, "passed": False, "upto": upto}
    if X.level_size(0) != 1:
        return {**report, "failed_at": 0, "witness":
                f"level 0 has {X.level_size(0)} elements, expected a single point"}
    for n in range(2, upto + 1):
        components = [GammaOpMap(n, 1, tuple(int(i == k if kind == "segal" else 1 <= i <= k)
                                             for i in range(n + 1)))
                      for k in range(1, n + 1)]
        images = list(zip(*[X.action_table(f) for f in components]))
        first: dict[tuple, int] = {}
        for i, image in enumerate(images):
            if image in first:
                x1, x2 = X.level(n)[first[image]], X.level(n)[i]
                return {**report, "failed_at": n, "witness":
                        f"not injective at n={n}: {x1} and {x2} share image {image}"}
            first[image] = i
        if len(images) != X.level_size(1) ** n:
            return {**report, "failed_at": n, "witness":
                    f"not surjective at n={n}: {len(images)} elements cover "
                    f"{X.level_size(1) ** n} tuples"}
    return {**report, "passed": True, "failed_at": None, "witness": None}


class TruncatedBisimplicialSet:
    """Bisimplicial set truncated at (d, d): levels[p][q] lists the
    (p, q)-simplices, with horizontal structure in p and vertical in q.
    Structure maps are dicts between simplices."""

    def __init__(self, d: int, levels, h_faces, h_degens, v_faces, v_degens):
        self.d = d
        self.levels = levels
        self.h_faces = h_faces      # h_faces[p][q][i]: level (p,q) -> (p-1,q)
        self.h_degens = h_degens    # h_degens[p][q][i]: level (p,q) -> (p+1,q)
        self.v_faces = v_faces      # v_faces[p][q][i]: level (p,q) -> (p,q-1)
        self.v_degens = v_degens    # v_degens[p][q][i]: level (p,q) -> (p,q+1)

    def check_structure(self) -> ValidationReport:
        """Rows and columns are simplicial and the two directions commute."""
        for q in range(self.d + 1):
            row = _strand(self.d, lambda p: self.levels[p][q],
                          lambda p: self.h_faces[p][q], lambda p: self.h_degens[p][q])
            report = validate(row)
            if not report.ok:
                return ValidationReport(False, f"horizontal {report.violation}", report.witness)
        for p in range(self.d + 1):
            col = _strand(self.d, lambda q: self.levels[p][q],
                          lambda q: self.v_faces[p][q], lambda q: self.v_degens[p][q])
            report = validate(col)
            if not report.ok:
                return ValidationReport(False, f"vertical {report.violation}", report.witness)
        for p in range(1, self.d + 1):
            for q in range(1, self.d + 1):
                for i in range(p + 1):
                    for j in range(q + 1):
                        for x in self.levels[p][q]:
                            lhs = self.v_faces[p - 1][q][j][self.h_faces[p][q][i][x]]
                            rhs = self.h_faces[p][q - 1][i][self.v_faces[p][q][j][x]]
                            if lhs != rhs:
                                return ValidationReport(False, "horizontal/vertical commute",
                                                        (p, q, i, j, x))
        return ValidationReport(True)


def _strand(d, level_fn, face_fn, degen_fn) -> TruncatedSimplicialSet:
    levels = [list(level_fn(p)) for p in range(d + 1)]
    faces = [list(face_fn(p)) if p else [] for p in range(d + 1)]
    degeneracies = [list(degen_fn(p)) if p < d else [] for p in range(d + 1)]
    return from_label_maps(d, levels, faces, degeneracies)


def diagonal(B: TruncatedBisimplicialSet) -> TruncatedSimplicialSet:
    """Diagonal simplicial set: level p is the (p, p)-level, and the i-th
    structure map is the horizontal one followed by the vertical one."""
    d = B.d
    levels = [list(B.levels[p][p]) for p in range(d + 1)]
    faces: list[list[dict]] = [[] for _ in range(d + 1)]
    degeneracies: list[list[dict]] = [[] for _ in range(d + 1)]
    for p in range(1, d + 1):
        for i in range(p + 1):
            h = B.h_faces[p][p][i]
            v = B.v_faces[p - 1][p][i]
            faces[p].append({x: v[h[x]] for x in levels[p]})
    for p in range(d):
        for i in range(p + 1):
            h = B.h_degens[p][p][i]
            v = B.v_degens[p + 1][p][i]
            degeneracies[p].append({x: v[h[x]] for x in levels[p]})
    return from_label_maps(d, levels, faces, degeneracies)


def full_chain_complex(X: TruncatedSimplicialSet, top: int | None = None) -> ChainComplex:
    """Unnormalized chains: one generator per simplex, degenerate or not."""
    top = X.d if top is None else top
    if top > X.d:
        raise TruncationError(f"requested top degree {top} beyond truncation {X.d}", required=top)
    ranks = [len(X.levels[p]) for p in range(top + 1)]
    boundaries: list[Matrix] = [[]]
    for p in range(1, top + 1):
        mat = zeros(ranks[p - 1], ranks[p])
        for i, face in enumerate(X.faces[p]):
            for j, row in enumerate(face):
                mat[row][j] += -1 if i % 2 else 1
        boundaries.append(mat)
    return chain_complex(ranks, boundaries)


def bar_face_preimages(p: int, i: int, k: int) -> list[list[int]]:
    """F_i, the 0/1 matrix of face i out of level p of the k-fold bar at
    the 1-wedge, as the columns of each of its (p-1)**k rows: row r lists
    the points c, from 0, of the p**k that smash_morphisms of
    face_gamma_op(p, i) in each of the k factors with identity(1) sends to
    point r + 1."""
    f = smash_morphisms(*[face_gamma_op(p, i)] * k, identity(1))
    rows: list[list[int]] = [[] for _ in range(f.target)]
    for c, v in enumerate(f.values[1:]):
        if v:
            rows[v - 1].append(c)
    return rows


def moore_complex(k: int, top: int) -> ChainComplex:
    """The unnormalized Moore complex over Z of the k-fold bar at the
    1-wedge through degree top: C_p = Z^(p**k) and d_p = sum_i (-1)**i F_i.
    For a group A, bar level p is A^(p**k) with face i the matrix F_i over
    A, so the bar's Moore complex is this one tensored with A."""
    boundaries: list[list[dict]] = [[]]
    for p in range(1, top + 1):
        rows: list[dict] = [{} for _ in range((p - 1) ** k)]
        for i in range(p + 1):
            for row, points in zip(rows, bar_face_preimages(p, i, k), strict=True):
                for c in points:
                    row[c] = row.get(c, 0) + (-1) ** i
        boundaries.append([{c: x for c, x in row.items() if x} for row in rows])
    return ChainComplex([p ** k for p in range(top + 1)], boundaries)


def determinant(a: Matrix) -> int:
    """Bareiss determinant, exact without leaving the integers; a must be square."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_invariants(a: Matrix) -> list[int]:
    """The nonzero invariant factors of a, from its determinantal divisors
    and sharing no code with `smith_normal_form`: d_k is the gcd of the
    k x k minors, each a `determinant`, and the k-th factor is
    d_k / d_(k-1) for k up to the rank."""
    rows, cols = len(a), len(a[0]) if a else 0
    factors: list[int] = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                divisor = math.gcd(divisor, determinant([[a[i][j] for j in c] for i in r]))
        if not divisor:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def determinantal_homology(C: ChainComplex, top: int) -> list[HomologyGroup]:
    """H_0 .. H_top of C from the dense boundaries' determinantal
    invariants: Z^(n_q - rank d_q - rank d_(q+1)) plus the factors of
    d_(q+1) above 1."""
    factors = [[]] + [determinantal_invariants(C.boundary(p)) for p in range(1, top + 2)]
    return [HomologyGroup(C.ranks[q] - len(factors[q]) - len(factors[q + 1]),
                          tuple(x for x in factors[q + 1] if x > 1)) for q in range(top + 1)]


def _bezout(aa: int, bb: int) -> tuple[int, int, int]:
    """(g, x, y) with x*aa + y*bb = g = gcd(aa, bb) up to sign, by the
    recursive extended Euclidean algorithm."""
    if bb == 0:
        return aa, 1, 0
    g, x, y = _bezout(bb, aa % bb)
    return g, y, x - (aa // bb) * y


def elementary(aa: int, bb: int) -> tuple[int, int, int, int]:
    """[[x, y], [ca, cb]] of determinant 1 taking (aa, bb) to (g, 0): a
    subtraction when aa divides bb, else the extended Euclidean pair with
    g > 0."""
    if bb % aa == 0:
        return 1, 0, -(bb // aa), 1
    g, x, y = _bezout(aa, bb)
    if g < 0:
        g, x, y = -g, -x, -y
    return x, y, -(bb // g), aa // g


def reference_smith(a: Matrix, cols: int, track: tuple[str, ...] = ()) -> dict:
    """The documented elimination of `smith_rows`, redone on dense lists.

    The pivot is the least nonzero |entry| of the rows and columns from s
    on, lowest row first, then lowest column; it is swapped to (s, s).
    Row clears take out column s below the pivot, then column clears take
    out row s right of it (a subtraction, or an extended Euclidean step
    that refills column s), until both are clear.  A negative pivot turns
    its row's sign, and adjacent diagonal entries whose second is not a
    multiple of the first are folded to (gcd, lcm), sweep after sweep.
    Returns D, U, U^-1, V and V^-1 with U @ a @ V = D, the original columns
    of the leading +-1 pivots, the nonzeros that D and the transforms in
    `track` hold at each pivot and at the end, those of each of the five
    matrices apart under "held", and how many Bezout column
    steps, column sweeps with more than one of them, and folds ran, and how
    many times a row that one Bezout step of a sweep gave column s had it
    cleared by a later one."""
    rows = len(a)
    d = [row[:] for row in a]
    m = {name: [[int(i == j) for j in range(n)] for i in range(n)]
         for name, n in (("u", rows), ("u_inv", rows), ("v", cols), ("v_inv", cols))}
    perm, units, nonzeros, held = list(range(cols)), 0, [], []
    steps = {"bezout_columns": 0, "bezout_sweeps": 0, "refills_cleared": 0, "folds": 0}

    def count():
        held.append({name: sum(x != 0 for row in (d if name == "d" else m[name]) for x in row)
                     for name in ("d", *m)})
        return sum(held[-1][name] for name in ("d", *track))

    def row_op(i, k, x, y, ca, cb):  # rows (i, k) by [[x, y], [ca, cb]]
        for t in (d, m["u"]):
            t[i], t[k] = ([x * p + y * q for p, q in zip(t[i], t[k])],
                          [ca * p + cb * q for p, q in zip(t[i], t[k])])
        for row in m["u_inv"]:  # U^-1 times the inverse [[cb, -y], [-ca, x]]
            row[i], row[k] = cb * row[i] - ca * row[k], -y * row[i] + x * row[k]

    def col_op(j, k, x, y, ca, cb):  # columns (j, k) by [[x, ca], [y, cb]]
        for row in (*d, *m["v"]):
            row[j], row[k] = x * row[j] + y * row[k], ca * row[j] + cb * row[k]
        vi = m["v_inv"]  # the inverse [[cb, -ca], [-y, x]] times V^-1
        vi[j], vi[k] = ([cb * p - ca * q for p, q in zip(vi[j], vi[k])],
                        [-y * p + x * q for p, q in zip(vi[j], vi[k])])

    for s in range(min(rows, cols)):
        nonzeros.append(count())
        entries = [(abs(d[i][j]), i, j) for i in range(s, rows) for j in range(s, cols) if d[i][j]]
        if not entries:
            break
        val, pi, pj = min(entries)
        if val == 1 and units == s:
            units += 1
        for t in (d, m["u"]):
            t[s], t[pi] = t[pi], t[s]
        for row in m["u_inv"]:
            row[s], row[pi] = row[pi], row[s]
        for row in (*d, *m["v"]):
            row[s], row[pj] = row[pj], row[s]
        m["v_inv"][s], m["v_inv"][pj] = m["v_inv"][pj], m["v_inv"][s]
        perm[s], perm[pj] = perm[pj], perm[s]
        while True:
            for i in range(s + 1, rows):
                if d[i][s]:
                    row_op(s, i, *elementary(d[s][s], d[i][s]))
            bezout, filled = 0, set()  # the rows below s a Bezout step put column s into
            for j in [j for j in range(s + 1, cols) if d[s][j]]:
                x, y, ca, cb = elementary(d[s][s], d[s][j])
                bezout += y != 0
                col_op(s, j, x, y, ca, cb)
                if y:
                    now = {i for i in range(s + 1, rows) if d[i][s]}
                    steps["refills_cleared"] += len(filled - now)
                    filled = now
            steps["bezout_columns"] += bezout
            steps["bezout_sweeps"] += bezout > 1
            if not any(d[i][s] for i in range(s + 1, rows)):
                break
        if d[s][s] < 0:
            d[s] = [-x for x in d[s]]
            m["u"][s] = [-x for x in m["u"][s]]
            for row in m["u_inv"]:
                row[s] = -row[s]
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i])
    folded = True
    while folded:
        folded = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                col_op(i + 1, i, 1, 0, 1, 1)  # column i += column i + 1
                row_op(i, i + 1, *elementary(d[i][i], d[i + 1][i]))
                col_op(i, i + 1, 1, 0, -(d[i][i + 1] // d[i][i]), 1)
                steps["folds"] += 1
                folded = True
    nonzeros.append(count())
    return {"d": d, **m, "unit_columns": perm[:units], "nonzeros": nonzeros, "held": held,
            "steps": steps}


def snf_diagonal(a: Matrix) -> list[int]:
    """The diagonal of the Smith normal form of a."""
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def verify_snf(a: Matrix, d: Matrix, u: Matrix, v: Matrix) -> bool:
    """Certificate check: U @ a @ V == D, |det U| = |det V| = 1, and the
    nonzero diagonal entries form a divisibility chain."""
    if mat_mul(mat_mul(u, a), v) != d:
        return False
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        return False
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    nonzero = [x for x in diag if x]
    for x, y in zip(nonzero, nonzero[1:]):
        if y % x:
            return False
    for i, row in enumerate(d):
        for j, entry in enumerate(row):
            if i != j and entry:
                return False
    return True


@dataclass(frozen=True)
class WedgeObject:
    """Wedge of copies of {0..n} indexed by the group elements.

    Nonzero elements are pairs (k, g_index) with 1 <= k <= n; the shared
    basepoint is 0.  Element order is basepoint first, then summands in
    group order.
    """

    n: int
    group: FiniteGroup

    @property
    def elements(self) -> list:
        elems: list = [0]
        for g in range(self.group.size):
            elems.extend((k, g) for k in range(1, self.n + 1))
        return elems

    @property
    def size(self) -> int:
        return self.n * self.group.size + 1


def wedge_object(n: int, group: FiniteGroup) -> WedgeObject:
    return WedgeObject(n, group)


def wedge_apply(a, x):
    """Image of an element of the source wedge under the normalized pair a:
    (k, h) goes to (f(k), g*h), or to the basepoint when f(k) is 0."""
    if x == 0:
        return 0
    k, h = x
    fk = a.f.values[k]
    if fk == 0:
        return 0
    return (fk, a.group.table[a.g][h])


def wedge_action_table(a) -> tuple:
    """Image of every source element in order; the concrete-function view."""
    return tuple(wedge_apply(a, x) for x in wedge_object(a.source, a.group).elements)


def to_power_set_form(f: GammaOpMap) -> GammaMap:
    """Preimage assignment of a pointed map; reverses the arrow."""
    images = tuple(frozenset(j for j in range(1, f.source + 1) if f.values[j] == i)
                   for i in range(1, f.target + 1))
    return GammaMap(f.target, f.source, images)


def gamma_identity(n: int) -> GammaMap:
    return GammaMap(n, n, tuple(frozenset({i}) for i in range(1, n + 1)))


def compose_gamma(psi: GammaMap, theta: GammaMap) -> GammaMap:
    """psi after theta in the power-set presentation: unions of images."""
    if theta.target != psi.source:
        raise CompositionError(f"cannot compose {psi.source}->{psi.target} after {theta.source}->{theta.target}")
    images = tuple(frozenset().union(*(psi.image(t) for t in theta.image(i))) if theta.image(i) else frozenset()
                   for i in range(1, theta.source + 1))
    return GammaMap(theta.source, psi.target, images)


def delta_identity(n: int) -> DeltaMap:
    return DeltaMap(n, n, tuple(range(n + 1)))


def compose_delta(g: DeltaMap, f: DeltaMap) -> DeltaMap:
    if f.target != g.source:
        raise CompositionError(f"cannot compose {g.source}->{g.target} after {f.source}->{f.target}")
    return DeltaMap(f.source, g.target, tuple(g.values[v] for v in f.values))


def edge_from_zero(n: int, k: int) -> DeltaMap:
    """[1] -> [n] picking the edge from vertex 0 to vertex k+1, 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError(f"edge index {k} outside 0..{n - 1}")
    return DeltaMap(1, n, (0, k + 1))


def identity_map(X: TruncatedSimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, [list(range(len(level))) for level in X.levels])


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    if f.target is not g.source and f.target.levels != g.source.levels:
        raise ValueError("maps not composable")
    return SimplicialMap(f.source, g.target, list(map(composite, g.tables, f.tables)))


def constant_map_to_point(X: TruncatedSimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, point(X.d), [[0] * len(level) for level in X.levels])


def pairwise_validate(X: TruncatedSimplicialSet) -> ValidationReport:
    """The first violated simplicial identity of X, in the order and with
    the names `validate` uses, each identity compared as two whole
    composite tables.  Every structure map must be total and in range;
    `validate` checks that before any identity."""
    F, S = X.faces, X.degeneracies

    def comp(a, b):
        return [a[k] for k in b]

    def identities():
        for p in range(2, X.d + 1):
            for j in range(1, p + 1):
                for i in range(j):
                    yield ("d_i d_j = d_{j-1} d_i", p, i, j,
                           comp(F[p - 1][i], F[p][j]), comp(F[p - 1][j - 1], F[p][i]))
        for p in range(X.d - 1):
            for j in range(p + 1):
                for i in range(j + 1):
                    yield ("s_i s_j = s_{j+1} s_i", p, i, j,
                           comp(S[p + 1][i], S[p][j]), comp(S[p + 1][j + 1], S[p][i]))
        for p in range(X.d):
            for j in range(p + 1):
                for i in range(p + 2):
                    lhs = comp(F[p + 1][i], S[p][j])
                    if i == j or i == j + 1:
                        yield "d_i s_j = id", p, i, j, lhs, list(range(len(X.levels[p])))
                    elif i < j:
                        yield ("d_i s_j = s_{j-1} d_i", p, i, j,
                               lhs, comp(S[p - 1][j - 1], F[p][i]))
                    else:
                        yield ("d_i s_j = s_j d_{i-1}", p, i, j,
                               lhs, comp(S[p - 1][j], F[p][i - 1]))

    for name, p, i, j, lhs, rhs in identities():
        if lhs != rhs:
            k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return ValidationReport(False, name, (p, i, j, X.levels[p][k]))
    return ValidationReport(True)


def identities_on_level(p: int, d: int) -> int:
    """The identities validate compares on each simplex of level p of a
    space truncated at d, listed pair by pair: d_i d_j (i < j <= p) from
    level 2 on, s_i s_j (i <= j <= p) below level d - 1, and d_i s_j
    (i <= p + 1, j <= p) below level d."""
    faces = [(i, j) for j in range(1, p + 1) for i in range(j)] if p >= 2 else []
    degeneracies = [(i, j) for j in range(p + 1) for i in range(j + 1)] if p < d - 1 else []
    mixed = [(i, j) for j in range(p + 1) for i in range(p + 2)] if p < d else []
    return len(faces) + len(degeneracies) + len(mixed)


def bar_budget_counts(level_size, k: int, d: int, n: int):
    """What the budget bounds on the k-fold bar at the n-wedge truncated
    at d, whose level p is object p**k * n of level_size(p**k * n)
    simplices: the objects, the running label entries of one-element
    levels, the simplices, and the identity checks on one-element levels."""
    objects = [p ** k * n for p in range(d + 1)]
    sizes = [level_size(m) for m in objects]
    entries = list(itertools.accumulate(m if size == 1 else 0
                                        for m, size in zip(objects, sizes)))
    checks = sum(identities_on_level(p, d) for p, size in enumerate(sizes) if size == 1)
    return objects, entries, sum(sizes), checks


def bar_budget(level_size, k: int, d: int, n: int, budget: int) -> list[int]:
    """The bar's objects, or the first refusal: label entries level by
    level, then simplices, then identity checks."""
    objects, entries, total, checks = bar_budget_counts(level_size, k, d, n)
    for running in entries:
        if running > budget:
            raise BudgetError(f"predicted {running} label entries in one-element bar levels "
                              f"exceeds budget {budget}")
    if total > budget:
        raise BudgetError(f"predicted {total} simplices exceeds budget {budget}")
    if checks > budget:
        raise BudgetError(f"predicted {checks} identity checks on one-element bar levels "
                          f"exceeds budget {budget}")
    return objects
