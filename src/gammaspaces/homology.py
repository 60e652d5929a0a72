"""Integer chain complexes of truncated simplicial sets, their homology
groups, Smith normal form, and induced maps on homology.

Boundaries are held as sparse columns.  Homology groups come from a
transform-free elimination: +-1 pivots are cleared first, cheapest
Markowitz cost first (Kaczynski-Mrozek-Slusarek, "Homology computation by
reduction of chain complexes", 1998), and what is left goes to a dense
diagonal reduction (Dumas-Saunders-Villard, "On efficient sparse integer
matrix Smith normal form computations", 2001).  Induced maps need
representative cycles, so `HomologyPresentation` keeps the dense Smith
form with its transforms.

All arithmetic is exact (Python integers).  Smith reduction pivots on the
minimal-absolute-value nonzero entry, ties broken by lowest row then
lowest column, so output is deterministic for a fixed input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import TruncationError
from .simplicial import SimplicialMap, TruncatedSimplicialSet

Matrix = list  # list of rows, each a list of ints
Column = dict  # sparse column: row index -> nonzero coefficient


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

    ranks[p] for 0 <= p <= top; columns[p] is the differential from degree
    p to degree p-1 for 1 <= p <= top, stored as ranks[p] sparse columns
    with rows below ranks[p-1].  The composite of consecutive boundaries is
    checked to vanish at construction time.
    """

    def __init__(self, ranks: list[int], columns: list[list[Column]]):
        self.ranks = ranks
        self.top = len(ranks) - 1
        self.columns = columns
        for p in range(1, self.top + 1):
            rows = ranks[p - 1]
            if len(columns[p]) != ranks[p] or any(not 0 <= r < rows
                                                  for col in columns[p] for r in col):
                raise ValueError(f"boundary {p} does not fit shape {(rows, ranks[p])}")
        for p in range(2, self.top + 1):
            below = columns[p - 1]
            for col in columns[p]:
                image: dict[int, int] = {}
                for r, x in col.items():
                    for s, y in below[r].items():
                        image[s] = image.get(s, 0) + x * y
                if any(image.values()):
                    raise ValueError(f"boundary composite in degree {p} is nonzero")

    def boundary(self, p: int) -> Matrix:
        """The differential out of degree p as a dense matrix."""
        if p < 1 or p > self.top:
            raise TruncationError(f"boundary {p} outside 1..{self.top}", required=p)
        mat = zeros(self.ranks[p - 1], self.ranks[p])
        for j, col in enumerate(self.columns[p]):
            for r, x in col.items():
                mat[r][j] = x
        return mat


def normalized_chain_complex(X: TruncatedSimplicialSet, top: int | None = None) -> ChainComplex:
    """Normalized chains: one generator per nondegenerate simplex, with
    faces that land on degenerate simplices contributing zero."""
    top = X.d if top is None else top
    if top > X.d:
        raise TruncationError(f"requested top degree {top} beyond truncation {X.d}", required=top)
    basis = [X.nondegenerate_indices(p) for p in range(top + 1)]
    ranks = [len(b) for b in basis]
    columns: list[list[Column]] = [[]]
    for p in range(1, top + 1):
        row_of = [-1] * len(X.levels[p - 1])
        for r, k in enumerate(basis[p - 1]):
            row_of[k] = r
        signed = [(table, -1 if i % 2 else 1) for i, table in enumerate(X.faces[p])]
        level: list[Column] = []
        for k in basis[p]:
            col: Column = {}
            for table, sign in signed:
                row = row_of[table[k]]
                if row >= 0:
                    col[row] = col.get(row, 0) + sign
            level.append({r: x for r, x in col.items() if x})
        columns.append(level)
    return ChainComplex(ranks, columns)


def boundary_invariants(columns: list[Column]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion coefficients (the invariant factors above 1) of a
    matrix given by sparse columns, without transforms.

    A +-1 pivot is cleared by column operations and leaves a unit factor.
    Each row queues its unit entry in the shortest column, and the entry
    of least Markowitz cost (row count - 1) * (column length - 1) goes
    first; its cost is rechecked when it is taken.  A row whose entries
    changed is queued again once the queue runs dry.  The residual, which
    has no unit entry, goes to `_diagonal_factors`.
    """
    cols: list[Column | None] = [dict(col) for col in columns if col]
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(j)

    def cost(r, j):
        return (len(rows[r]) - 1) * (len(cols[j]) - 1)

    heap: list[tuple[int, int, int]] = []
    dirty = set(rows)  # rows to scan for their unit entry in the shortest column
    units = 0
    while dirty:
        for r in dirty:
            shortest = min(((len(cols[j]), j) for j in rows.get(r, ()) if cols[j][r] in (1, -1)),
                           default=None)
            if shortest:
                heapq.heappush(heap, (cost(r, shortest[1]), r, shortest[1]))
        dirty = set()
        while heap:
            queued, r, j = heapq.heappop(heap)
            pivot = cols[j]
            if r not in rows or pivot is None or pivot.get(r) not in (1, -1):
                dirty.add(r)  # cleared or changed since it was queued
                continue
            now = cost(r, j)
            if now > queued:
                heapq.heappush(heap, (now, r, j))
                continue
            cols[j] = None
            units += 1
            for c in pivot:
                rows[c].discard(j)
            sign = pivot[r]
            others = [(c, x * sign) for c, x in pivot.items() if c != r]
            dirty.update(c for c, _ in others)
            for i in rows.pop(r):
                col = cols[i]
                factor = col.pop(r)
                for c, x in others:
                    old = col.get(c)
                    if old is None:
                        rows[c].add(i)
                        col[c] = -factor * x
                    elif old != factor * x:
                        col[c] = old - factor * x
                    else:
                        del col[c]
                        rows[c].discard(i)
                if len(col) == 1:  # a column left with one unit entry costs nothing
                    (c, y), = col.items()
                    if y in (1, -1):
                        heapq.heappush(heap, (0, c, i))
    left = [col for col in cols if col]
    residual = [[col.get(r, 0) for col in left] for r in sorted(r for r in rows if rows[r])]
    factors = _diagonal_factors(residual)
    for i in range(len(factors)):  # (gcd, lcm) folding gives the divisibility chain
        for k in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[k])
            factors[i], factors[k] = g, factors[i] * factors[k] // g
    return units + len(factors), tuple(x for x in factors if x > 1)


def _diagonal_factors(m: Matrix) -> list[int]:
    """Absolute values of the nonzero entries of a diagonal form of m,
    reached by row and column operations that are not recorded.  Each
    round clears the row and column of a least nonzero entry by division
    with remainder; a nonzero remainder is the next, smaller, pivot."""
    m = [row for row in m if any(row)]
    factors: list[int] = []
    while m:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        pivot_row = m[i]
        a = pivot_row[j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // a
                m[k] = [x - q * y for x, y in zip(row, pivot_row)]
        for t, x in enumerate(pivot_row):
            if t != j and x:
                q = x // a
                for row in m:
                    row[t] -= q * row[j]
        if any(row[j] for row in m if row is not pivot_row) or \
                any(x for t, x in enumerate(pivot_row) if t != j):
            continue
        factors.append(abs(a))
        del m[i]
        for row in m:
            del row[j]
        m = [row for row in m if any(row)]
    return factors


def homology_groups(C: ChainComplex, top: int) -> list[HomologyGroup]:
    """H_0 .. H_top of C: H_q is Z^(n_q - rank d_q - rank d_(q+1)) plus the
    torsion of d_(q+1)."""
    if top + 1 > C.top:
        raise TruncationError(
            f"homology in degree {top} needs boundaries up to degree {top + 1}; "
            f"complex stops at {C.top}", required=top + 1)
    invariants = [(0, ())] + [boundary_invariants(C.columns[p]) for p in range(1, top + 2)]
    return [HomologyGroup(C.ranks[q] - invariants[q][0] - invariants[q + 1][0],
                          invariants[q + 1][1]) for q in range(top + 1)]


def solve_exact(a: Matrix, rhs: Matrix, smith: tuple | None = None) -> Matrix:
    """One integer solution X of a @ X = rhs, column by column, from a
    single Smith form of a (`smith`, when already computed); raises
    ValueError if some column has none."""
    d, u, v = smith or smith_normal_form(a)
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
        # factored once: the relations and every coordinates() call solve against it
        self._kernel_smith = smith_normal_form(self.kernel)
        # the next boundary written in the kernel basis, then diagonalized
        relations = solve_exact(self.kernel, C.boundary(p + 1), self._kernel_smith)
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
        y = mat_mul(self.rel_u, solve_exact(self.kernel, cycles, self._kernel_smith))
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
