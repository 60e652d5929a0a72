"""Integer chain complexes of truncated simplicial sets, Smith normal
form, homology groups, and induced maps on homology.

All arithmetic is exact (Python integers).  Smith reduction pivots on the
minimal-absolute-value nonzero entry, ties broken by lowest row then
lowest column, so output is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationError
from .simplicial import SimplicialMap, TruncatedSimplicialSet

Matrix = list  # list of rows, each a list of ints


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def eye(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U @ a @ V = D, U and V unimodular, and D
    diagonal with each entry dividing the next.

    Pivot choice is the smallest nonzero |entry|, lowest row index first,
    then lowest column index, so the factorization is deterministic.
    Elimination uses Bezout 2x2 transforms, which reach each gcd in one
    step and keep entry growth polynomial.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = eye(rows)
    v = eye(cols)

    def clear_row_entry(s, i):
        # zero d[i][s] against the pivot row by a unimodular row pair
        aa, bb = d[s][s], d[i][s]
        if bb == 0:
            return
        ds, di = d[s], d[i]
        us, ui = u[s], u[i]
        if aa and bb % aa == 0:
            q = bb // aa
            for j in range(cols):
                di[j] -= q * ds[j]
            for j in range(rows):
                ui[j] -= q * us[j]
            return
        g, x, y = _xgcd(aa, bb)
        ca, cb = -(bb // g), aa // g
        for j in range(cols):
            ds[j], di[j] = x * ds[j] + y * di[j], ca * ds[j] + cb * di[j]
        for j in range(rows):
            us[j], ui[j] = x * us[j] + y * ui[j], ca * us[j] + cb * ui[j]

    def clear_col_entry(s, j):
        # zero d[s][j] against the pivot column by a unimodular column pair
        aa, bb = d[s][s], d[s][j]
        if bb == 0:
            return
        if aa and bb % aa == 0:
            q = bb // aa
            for row in d:
                row[j] -= q * row[s]
            for row in v:
                row[j] -= q * row[s]
            return
        g, x, y = _xgcd(aa, bb)
        ca, cb = -(bb // g), aa // g
        for row in d:
            row[s], row[j] = x * row[s] + y * row[j], ca * row[s] + cb * row[j]
        for row in v:
            row[s], row[j] = x * row[s] + y * row[j], ca * row[s] + cb * row[j]

    def find_pivot(s):
        best = None
        for i in range(s, rows):
            di = d[i]
            for j in range(s, cols):
                val = abs(di[j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
                    if val == 1:
                        return best
        return best

    for s in range(min(rows, cols)):
        pivot = find_pivot(s)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != s:
            d[s], d[pi] = d[pi], d[s]
            u[s], u[pi] = u[pi], u[s]
        if pj != s:
            for row in d:
                row[s], row[pj] = row[pj], row[s]
            for row in v:
                row[s], row[pj] = row[pj], row[s]
        while True:
            for i in range(s + 1, rows):
                clear_row_entry(s, i)
            if all(d[s][j] == 0 for j in range(s + 1, cols)):
                break
            for j in range(s + 1, cols):
                clear_col_entry(s, j)
            if all(d[i][s] == 0 for i in range(s + 1, rows)):
                break
        if d[s][s] < 0:
            for j in range(cols):
                d[s][j] = -d[s][j]
            for j in range(rows):
                u[s][j] = -u[s][j]

    # enforce the divisibility chain d1 | d2 | ...
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                _fold_pair(d, u, v, i, rows, cols)
                changed = True
    return d, u, v


def _fold_pair(d, u, v, i, rows, cols):
    """Replace adjacent diagonal entries (a, b) by (gcd, a*b/gcd), keeping
    the factorization exact; assumes their rows and columns are otherwise
    zero, which the main loop guarantees."""
    aa, bb = d[i][i], d[i + 1][i + 1]
    for row in d:
        row[i] += row[i + 1]
    for row in v:
        row[i] += row[i + 1]
    g, x, y = _xgcd(aa, bb)
    ca, cb = -(bb // g), aa // g
    di, dn = d[i], d[i + 1]
    for j in range(cols):
        di[j], dn[j] = x * di[j] + y * dn[j], ca * di[j] + cb * dn[j]
    ui, un = u[i], u[i + 1]
    for j in range(rows):
        ui[j], un[j] = x * ui[j] + y * un[j], ca * ui[j] + cb * un[j]
    q = d[i][i + 1] // d[i][i]
    for row in d:
        row[i + 1] -= q * row[i]
    for row in v:
        row[i + 1] -= q * row[i]
    for k in (i, i + 1):
        if d[k][k] < 0:
            for j in range(cols):
                d[k][j] = -d[k][j]
            for j in range(rows):
                u[k][j] = -u[k][j]


def snf_diagonal(a: Matrix) -> list[int]:
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus torsion coefficients
    in increasing divisibility order, unit factors dropped."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


class ChainComplex:
    """Nonnegatively graded integer chain complex up to a top degree.

    ranks[p] for 0 <= p <= top; boundaries[p] is the matrix of the
    differential from degree p to degree p-1 for 1 <= p <= top, stored as
    ranks[p-1] x ranks[p].  The composite of consecutive boundaries is
    checked to vanish at construction time.
    """

    def __init__(self, ranks: list[int], boundaries: list[Matrix]):
        self.ranks = ranks
        self.top = len(ranks) - 1
        self.boundaries = boundaries
        for p in range(1, self.top + 1):
            b = boundaries[p]
            expected = (ranks[p - 1], ranks[p])
            if (len(b), len(b[0]) if b else 0) != expected and ranks[p - 1] and ranks[p]:
                raise ValueError(f"boundary {p} has shape {(len(b), len(b[0]) if b else 0)}, expected {expected}")
        for p in range(2, self.top + 1):
            if self.ranks[p - 2] and self.ranks[p]:
                prod = mat_mul(self.boundary(p - 1), self.boundary(p))
                if any(any(row) for row in prod):
                    raise ValueError(f"boundary composite in degree {p} is nonzero")

    def boundary(self, p: int) -> Matrix:
        """The differential out of degree p, zero-padded to shape."""
        if p < 1 or p > self.top:
            raise TruncationError(f"boundary {p} outside 1..{self.top}", required=p)
        b = self.boundaries[p]
        if not b or not b[0]:
            return zeros(self.ranks[p - 1], self.ranks[p])
        return b

    def to_json(self) -> dict:
        return {"ranks": list(self.ranks),
                "boundaries": {str(p): [row[:] for row in self.boundary(p)]
                               for p in range(1, self.top + 1)}}


def normalized_chain_complex(X: TruncatedSimplicialSet, top: int | None = None) -> ChainComplex:
    """Normalized chains: one generator per nondegenerate simplex, with
    faces that land on degenerate simplices contributing zero."""
    top = X.d if top is None else top
    if top > X.d:
        raise TruncationError(f"requested top degree {top} beyond truncation {X.d}", required=top)
    basis = [X.nondegenerate_indices(p) for p in range(top + 1)]
    ranks = [len(b) for b in basis]
    boundaries: list[Matrix] = [[]]
    for p in range(1, top + 1):
        row_of = {k: r for r, k in enumerate(basis[p - 1])}
        mat = zeros(ranks[p - 1], ranks[p])
        for col, k in enumerate(basis[p]):
            for i, table in enumerate(X.faces[p]):
                row = row_of.get(table[k])
                if row is not None:
                    mat[row][col] += -1 if i % 2 else 1
        boundaries.append(mat)
    return ChainComplex(ranks, boundaries)


def homology(C: ChainComplex, p: int) -> HomologyGroup:
    """Homology in degree p; needs the boundary out of degree p+1, so p
    must lie strictly below the top degree of the complex."""
    return HomologyPresentation(C, p).group()


def solve_exact(a: Matrix, rhs: Matrix) -> Matrix:
    """One integer solution X of a @ X = rhs, column by column, from a
    single Smith form of a; raises ValueError if some column has none."""
    d, u, v = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    c = mat_mul(u, rhs)
    y = zeros(cols, len(rhs[0]) if rhs else 0)
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if any(x % di if di else x for x in c[i]):
            raise ValueError("no integer solution")
        if di:
            y[i] = [x // di for x in c[i]]
    return mat_mul(v, y)


def invert_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    return solve_exact(a, eye(len(a)))


class HomologyPresentation:
    """Canonical presentation of one homology group of a chain complex.

    Generators are a basis of the cycle lattice; relations are the image
    of the next boundary written in that basis and diagonalized.  The
    canonical coordinates list torsion positions first (in divisibility
    order), then free positions.
    """

    def __init__(self, C: ChainComplex, p: int):
        if p < 0 or p + 1 > C.top:
            raise TruncationError(
                f"homology in degree {p} needs boundaries up to degree {p + 1}; "
                f"complex stops at {C.top}", required=p + 1)
        n_p = C.ranks[p]
        if p >= 1 and C.ranks[p - 1]:
            d, _, v = smith_normal_form(C.boundary(p))
            rank = sum(1 for i in range(min(len(d), n_p)) if d[i][i])
            # kernel basis: columns of V past the rank
            self.kernel = [row[rank:] for row in v]
        else:
            self.kernel = eye(n_p)
        s = len(self.kernel[0]) if self.kernel else 0
        # the next boundary written in the kernel basis, then diagonalized
        relations = solve_exact(self.kernel, C.boundary(p + 1))
        rel_d, self.rel_u, _ = smith_normal_form(relations)
        diag = [rel_d[i][i] for i in range(min(s, C.ranks[p + 1]))]
        rel_rank = sum(1 for x in diag if x)
        # coordinate layout: torsion positions then free positions
        torsion_positions = [i for i in range(rel_rank) if diag[i] > 1]
        self.torsion = tuple(diag[i] for i in torsion_positions)
        self.free_positions = list(range(rel_rank, s))
        self.positions = torsion_positions + self.free_positions
        self._generators: Matrix | None = None

    def group(self) -> HomologyGroup:
        return HomologyGroup(len(self.free_positions), self.torsion)

    def coordinates(self, cycles: Matrix) -> tuple[tuple[int, ...], ...]:
        """Canonical coordinates of cycles given as the columns of a matrix
        in the chain basis: row i holds coordinate i of every cycle, torsion
        coordinates reduced mod their order."""
        y = mat_mul(self.rel_u, solve_exact(self.kernel, cycles))
        orders = self.torsion + (0,) * len(self.free_positions)
        return tuple(tuple(x % t if t else x for x in y[pos])
                     for pos, t in zip(self.positions, orders))

    def generator_cycles(self) -> Matrix:
        """Representative cycles in the chain basis, one column per
        canonical coordinate; computed on first use and shared."""
        if self._generators is None:
            u_inv = invert_unimodular(self.rel_u)
            self._generators = mat_mul(self.kernel,
                                       [[row[pos] for pos in self.positions] for row in u_inv])
        return self._generators


@dataclass(frozen=True)
class InducedMap:
    """Matrix description of a map on homology presentations: column j is
    the image of the j-th source generator in target coordinates (torsion
    coordinates reduced mod their order)."""

    source: HomologyGroup
    target: HomologyGroup
    matrix: tuple[tuple[int, ...], ...]  # rows indexed by target coordinates

    def as_dict(self) -> dict:
        return {"source": self.source.as_dict(), "target": self.target.as_dict(),
                "matrix": [list(r) for r in self.matrix]}

    def is_identity_shaped(self) -> bool:
        if self.source != self.target:
            return False
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(len(self.matrix[i])))


def chain_map_matrix(f: SimplicialMap, p: int) -> Matrix:
    """Matrix of a simplicial map on normalized p-chains; a simplex sent to
    a degenerate one contributes a zero column."""
    table = f.tables[p]
    src = f.source.nondegenerate_indices(p)
    tgt = f.target.nondegenerate_indices(p)
    row_of = {k: i for i, k in enumerate(tgt)}
    mat = zeros(len(tgt), len(src))
    for j, k in enumerate(src):
        row = row_of.get(table[k])
        if row is not None:
            mat[row][j] = 1
    return mat


def induced_map_on_homology(f: SimplicialMap, p: int,
                            source_pres: HomologyPresentation | None = None,
                            target_pres: HomologyPresentation | None = None) -> InducedMap:
    """Push each source generator through the chain map and express it in
    the target presentation."""
    source_pres = source_pres or HomologyPresentation(normalized_chain_complex(f.source, p + 1), p)
    target_pres = target_pres or HomologyPresentation(normalized_chain_complex(f.target, p + 1), p)
    images = mat_mul(chain_map_matrix(f, p), source_pres.generator_cycles())
    return InducedMap(source_pres.group(), target_pres.group(), target_pres.coordinates(images))
