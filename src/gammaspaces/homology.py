"""Integer chain complexes of truncated simplicial sets, their homology
groups, Smith normal form, and induced maps on homology.

Boundaries are held as sparse columns.  Homology groups come from a
transform-free elimination: +-1 pivots are cleared first, cheapest
Markowitz cost first (Kaczynski-Mrozek-Slusarek, "Homology computation by
reduction of chain complexes", 1998), and what is left goes to a dense
diagonal reduction (Dumas-Saunders-Villard, "On efficient sparse integer
matrix Smith normal form computations", 2001).  Induced maps need
representative cycles, so `HomologyPresentation` runs two dense Smith
forms per degree, each keeping only the transforms it reads: V and V^-1
of the boundary give the cycle basis and coordinates in it, so the
relations and every induced map are read off V^-1 with no solve, and U
and U^-1 of the relations give the canonical coordinates and their
representative cycles.

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

_BLOCK = 1024  # sparse columns turned dense at a time


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


def smith_normal_form(a: Matrix, track: tuple[str, ...] = ("u", "v")) -> tuple[Matrix, ...]:
    """Return D followed by the transforms named in `track`, in that order,
    out of "u", "u_inv", "v" and "v_inv": U @ a @ V = D with U and V
    unimodular, D diagonal with each entry dividing the next, and U^-1 and
    V^-1 their exact inverses.  By default (D, U, V).

    Pivot choice is the smallest nonzero |entry|, lowest row index first,
    then lowest column index, so the factorization is deterministic and
    does not depend on `track`.  Elimination uses Bezout 2x2 transforms,
    which reach each gcd in one step and keep entry growth polynomial.

    Every transform is kept as rows: a row operation M on D acts on the
    rows of U and, as M^-T, on the rows of U^-1 transposed; a column
    operation acts the same way on V transposed and on V^-1.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    kept = {name: eye(rows if name.startswith("u") else cols) for name in track}
    # [forward, inverse-transpose] for row operations, then for column operations
    row_side = (kept.get("u"), kept.get("u_inv"))
    col_side = (kept.get("v"), kept.get("v_inv"))

    def clear_row_entry(s, i):
        # zero d[i][s] against the pivot row by a unimodular row pair
        aa, bb = d[s][s], d[i][s]
        if bb % aa == 0:
            q = bb // aa
            _subtract((d, None), s, i, q)
            _subtract(row_side, s, i, q)
            return
        g, x, y = _xgcd(aa, bb)
        ca, cb = -(bb // g), aa // g
        _bezout((d, None), s, i, x, y, ca, cb)
        _bezout(row_side, s, i, x, y, ca, cb)

    def clear_col_entry(s, j, live):
        # zero d[s][j] against the pivot column by a unimodular column pair;
        # `live` lists the rows of d that are nonzero in column s, and the
        # rows that are afterwards are returned
        aa, bb = d[s][s], d[s][j]
        if bb % aa == 0:
            q = bb // aa
            for row in live:
                row[j] -= q * row[s]
            _subtract(col_side, s, j, q)
            return live
        g, x, y = _xgcd(aa, bb)
        ca, cb = -(bb // g), aa // g
        for row in d:
            row[s], row[j] = x * row[s] + y * row[j], ca * row[s] + cb * row[j]
        _bezout(col_side, s, j, x, y, ca, cb)
        return [row for row in d if row[s]]

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
            _swap(row_side, s, pi)
        if pj != s:
            for row in d:
                row[s], row[pj] = row[pj], row[s]
            _swap(col_side, s, pj)
        # clearing one entry leaves the others in the pivot row and column
        # as they were, so only the nonzero ones are visited
        while True:
            for i in [i for i in range(s + 1, rows) if d[i][s]]:
                clear_row_entry(s, i)
            if not any(d[s][s + 1:]):
                break
            live = [row for row in d if row[s]]
            for j in [j for j in range(s + 1, cols) if d[s][j]]:
                live = clear_col_entry(s, j, live)
            if not any(d[i][s] for i in range(s + 1, rows)):
                break
        if d[s][s] < 0:
            _negate((d, None), s)
            _negate(row_side, s)

    # enforce the divisibility chain d1 | d2 | ...
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                _fold_pair(d, row_side, col_side, i)
                changed = True
    for name in ("u_inv", "v"):  # kept transposed
        if name in kept:
            kept[name] = [list(col) for col in zip(*kept[name])]
    return (d, *(kept[name] for name in track))


# Row operations on a (forward, inverse-transpose) pair of matrices, either
# of which may be None; D itself is passed as (D, None).  Each operation M
# on the forward rows is M^-T on the inverse-transpose rows, so the pair
# stays mutually inverse.

def _swap(side, a, b):
    for m in side:
        if m is not None:
            m[a], m[b] = m[b], m[a]


def _negate(side, a):
    for m in side:
        if m is not None:
            m[a] = [-x for x in m[a]]


def _subtract(side, a, b, q):
    # forward: row b -= q * row a; inverse transpose: row a += q * row b
    fwd, inv = side
    if fwd is not None:
        fwd[b] = [x - q * y for x, y in zip(fwd[b], fwd[a])]
    if inv is not None:
        inv[a] = [x + q * y for x, y in zip(inv[a], inv[b])]


def _bezout(side, a, b, x, y, ca, cb):
    # forward: rows (a, b) by [[x, y], [ca, cb]] of determinant 1;
    # inverse transpose: by [[cb, -ca], [-y, x]]
    fwd, inv = side
    if fwd is not None:
        ra, rb = fwd[a], fwd[b]
        fwd[a] = [x * p + y * q for p, q in zip(ra, rb)]
        fwd[b] = [ca * p + cb * q for p, q in zip(ra, rb)]
    if inv is not None:
        ra, rb = inv[a], inv[b]
        inv[a] = [cb * p - ca * q for p, q in zip(ra, rb)]
        inv[b] = [x * q - y * p for p, q in zip(ra, rb)]


def _fold_pair(d, row_side, col_side, i):
    """Replace adjacent diagonal entries (a, b) by (gcd, a*b/gcd), keeping
    the factorization exact; assumes their rows and columns are otherwise
    zero, which the main loop guarantees."""
    aa, bb = d[i][i], d[i + 1][i + 1]
    for row in d:
        row[i] += row[i + 1]
    _subtract(col_side, i + 1, i, -1)
    g, x, y = _xgcd(aa, bb)
    ca, cb = -(bb // g), aa // g
    _bezout((d, None), i, i + 1, x, y, ca, cb)
    _bezout(row_side, i, i + 1, x, y, ca, cb)
    q = d[i][i + 1] // d[i][i]
    for row in d:
        row[i + 1] -= q * row[i]
    _subtract(col_side, i, i + 1, q)
    for k in (i, i + 1):
        if d[k][k] < 0:
            _negate((d, None), k)
            _negate(row_side, k)


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


# `solve_exact` and `invert_unimodular` are reached only by the tests and
# by the benchmark tracer, which looks them up by name; the presentations
# read unique solutions off kept inverse transforms instead.

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

    Generators are a basis of the cycle lattice: the columns of V past the
    rank in the Smith form U @ d_p @ V = D, whose inverse V^-1 is kept
    alongside.  A p-chain z is a cycle exactly when the first rank
    coordinates of V^-1 z vanish, and the rest are its coordinates in the
    kernel basis, so the relations are the next boundary's columns written
    that way, and they are diagonalized keeping U and U^-1 only.  The
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
            d, v, self._v_inv = smith_normal_form(C.boundary(p), ("v", "v_inv"))
            self._rank = sum(1 for i in range(min(len(d), n_p)) if d[i][i])
            # kernel basis: columns of V past the rank
            self.kernel = [row[self._rank:] for row in v]
        else:
            self.kernel, self._v_inv, self._rank = eye(n_p), eye(n_p), 0
        s = n_p - self._rank
        # the next boundary in kernel coordinates, from its sparse columns,
        # a block of columns at a time so that only one block is held twice
        coords = [[row[r] for row in self._v_inv[self._rank:]] for r in range(n_p)]
        self.relations: Matrix = [[] for _ in range(s)]
        columns = C.columns[p + 1]
        for start in range(0, len(columns), _BLOCK):
            images = []
            for col in columns[start:start + _BLOCK]:
                image = [0] * s
                for r, x in col.items():
                    image = [a + x * b for a, b in zip(image, coords[r])]
                images.append(image)
            for row, part in zip(self.relations, zip(*images)):
                row.extend(part)
        rel_d, self.rel_u, self._rel_u_inv = smith_normal_form(self.relations, ("u", "u_inv"))
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
        coordinates reduced mod their order.  Raises ValueError if some
        column is not a cycle."""
        z = mat_mul(self._v_inv, cycles)
        if any(any(row) for row in z[:self._rank]):
            raise ValueError("not a cycle")
        y = mat_mul(self.rel_u, z[self._rank:])
        orders = self.torsion + (0,) * len(self.free_positions)
        return tuple(tuple(x % t if t else x for x in y[pos])
                     for pos, t in zip(self.positions, orders))

    def generator_cycles(self) -> Matrix:
        """Representative cycles in the chain basis, one column per
        canonical coordinate; computed on first use and shared."""
        if self._generators is None:
            self._generators = mat_mul(self.kernel, [[row[pos] for pos in self.positions]
                                                     for row in self._rel_u_inv])
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


def induced_map_on_homology(f: SimplicialMap, p: int,
                            source_pres: HomologyPresentation | None = None,
                            target_pres: HomologyPresentation | None = None) -> InducedMap:
    """Push each source generator through the chain map and express it in
    the target presentation.  A generator's entry on a source simplex is
    added onto the row of that simplex's image; an image that is degenerate
    drops out."""
    source_pres = source_pres or HomologyPresentation(normalized_chain_complex(f.source, p + 1), p)
    target_pres = target_pres or HomologyPresentation(normalized_chain_complex(f.target, p + 1), p)
    generators = source_pres.generator_cycles()
    tgt = f.target.nondegenerate_indices(p)
    row_of = {k: i for i, k in enumerate(tgt)}
    images = zeros(len(tgt), len(generators[0]) if generators else 0)
    table = f.tables[p]
    for k, gen in zip(f.source.nondegenerate_indices(p), generators):
        row = row_of.get(table[k])
        if row is not None:
            images[row] = [x + y for x, y in zip(images[row], gen)]
    return InducedMap(source_pres.group(), target_pres.group(), target_pres.coordinates(images))
