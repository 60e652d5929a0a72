"""Independent constructions used as test oracles.

These deliberately avoid the presheaf machinery under test: the nerve is
built directly from a Cayley table, group homology comes from the reduced
bar resolution written out by hand, and the twice-delooped comparison
space is the classical normalized-cocycle model.  Presheaf actions are
recomputed one element at a time from the Cayley table, and the explicit
bisimplicial bar and its diagonal check the direct iterated bar.  The
suspension is rebuilt from its labels, and simplicial sets and maps given
as dicts between simplices are converted to index tables here.  The
unnormalized chain complex, an exact determinant and a Smith-form
certificate check the homology layer, and wedge objects give the
normalized pairs of the wedge-indexed category their concrete functions.
"""

import itertools
from dataclasses import dataclass

from gammaspaces.algebra import FinAbMonoid, FiniteGroup
from gammaspaces.errors import TruncationError
from gammaspaces.homology import (ChainComplex, HomologyGroup, Matrix, homology,
                                  mat_mul, normalized_chain_complex, zeros)
from gammaspaces.simplicial import (SimplicialMap, TruncatedSimplicialSet,
                                    ValidationReport, validate)


def from_label_maps(d: int, levels: list[list], faces: list[list[dict]],
                    degeneracies: list[list[dict]]) -> TruncatedSimplicialSet:
    """Simplicial set from structure maps given as dicts between simplices."""
    index = [{x: k for k, x in enumerate(level)} for level in levels]

    def tables(maps, p, q):
        return [[index[q][m[x]] for x in levels[p]] for m in maps[p]]

    return TruncatedSimplicialSet(d, levels,
                                  [tables(faces, p, p - 1) for p in range(d + 1)],
                                  [tables(degeneracies, p, p + 1) for p in range(d + 1)])


def map_from_label_maps(source: TruncatedSimplicialSet, target: TruncatedSimplicialSet,
                        level_maps: list[dict]) -> SimplicialMap:
    """Simplicial map from one dict between simplices per level."""
    return SimplicialMap(source, target,
                         [[target.index(p, m[x]) for x in source.levels[p]]
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
                    table[x] = x[:i - 1] + (M.mul(x[i - 1], x[i]),) + x[i + 1:]
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
                terms.append(x[:i - 1] + (M.mul(x[i - 1], x[i]),) + x[i + 1:])
            terms.append(x[:-1])
            for i, y in enumerate(terms):
                row = pos[p - 1].get(y)
                if row is not None:
                    mat[row][j] += -1 if i % 2 else 1
        boundaries.append(mat)
    return [len(b) for b in basis], boundaries


def bar_resolution_homology(M: FinAbMonoid, q: int) -> HomologyGroup:
    from gammaspaces.homology import ChainComplex

    ranks, boundaries = bar_resolution_boundaries(M, q + 1)
    return homology(ChainComplex(ranks, boundaries), q)


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
                           if A.mul(m, n) == A.unit) for m in range(A.size)}
            total = A.mul(val[(j, k, l)], inv[val[(i, k, l)]])
            total = A.mul(total, val[(i, j, l)])
            total = A.mul(total, inv[val[(i, j, k)]])
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
    return homology(normalized_chain_complex(space), q)


def summed_preimage_table(M: FinAbMonoid, row, f) -> list[int]:
    """Action table of a pointed map f on tuples of elements of M, one
    element at a time: relabel every entry through the group row, sum the
    entries over each preimage starting from the unit, and look the image
    tuple up in the lexicographic list of the target level."""
    source = list(itertools.product(range(M.size), repeat=f.source))
    target = {y: k for k, y in
              enumerate(itertools.product(range(M.size), repeat=f.target))}
    table = []
    for x in source:
        out = [M.unit] * f.target
        for i in range(1, f.source + 1):
            j = f.values[i]
            if j:
                out[j - 1] = M.mul(out[j - 1], row[x[i - 1]])
        table.append(target[tuple(out)])
    return table


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
        for j, x in enumerate(X.levels[p]):
            for i in range(p + 1):
                row = X.index(p - 1, X.face(p, i, x))
                mat[row][j] += -1 if i % 2 else 1
        boundaries.append(mat)
    return ChainComplex(ranks, boundaries)


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
