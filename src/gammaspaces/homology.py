"""Integer chain complexes of truncated simplicial sets, their homology
groups, Smith normal form, and induced maps on homology.

Boundaries, relations, transforms and cycles are all sparse rows of exact
integers {index: nonzero}, and every elimination runs on them
(Dumas-Saunders-Villard, "On efficient sparse integer matrix Smith normal
form computations", 2001).  Homology groups come from `smith_rows`
without transforms, one boundary at a time, each boundary first cleared
of the rows that the previous one's leading unit pivots mark (Chen-Kerber,
"Persistent homology computation with a twist", 2011).  Induced maps need
representative cycles, so a `HomologyPresentation` runs two Smith forms
per degree, each keeping only the transforms it reads, and then holds only
the cycles and transform columns that `induced_map_on_homology` reads its
matrix through, outside the budget.  Dense matrices are left to the
helpers at the end, which this path never calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import BudgetError, TruncationError
from .simplicial import SimplicialMap, TruncatedSimplicialSet

Matrix = list  # dense: list of rows, each a list of ints
Row = dict  # sparse row or chain: index -> nonzero coefficient
LONG_ROW = 1024  # entries of a pivot row past which a row clear adds the shorter row


def smith_rows(d: list[Row], cols: int, track: tuple[str, ...] = (),
               budget: int | None = None) -> dict[str, list]:
    """Reduce the sparse rows `d` of `cols` columns in place to the Smith
    form D = U @ d @ V, and return the transforms named in `track` as
    sparse rows: U and V^-1 as they are, U^-1 and V transposed.  Under
    "unit_columns" it also returns the original columns of the leading
    +-1 pivots, those taken before the first pivot of |entry| > 1.

    The pivot is the smallest nonzero |entry|, lowest row first, then lowest
    column, so the output is deterministic and does not depend on `track`.
    A pivot search reads each row's least |entry| from a cache that row
    clears and Bezout column steps reset, and the pivot column, read upward
    from column s, is swapped into place only in the rows that hold it or
    column s.  A pivot row of more than LONG_ROW entries is added into each
    row below as the shorter of the two into the longer (`_added`).  A
    pivot that divides its whole row clears it in one pass, each entry's
    column subtraction made on the transforms alone; any other row is swept
    by subtractions and Bezout steps, column by column.
    A row operation M on D acts on the rows of U and, as M^-T, on the rows
    of U^-1 transposed; a column operation acts the same way on V
    transposed and on V^-1.  Every operation sends zeros to zeros, so the
    output is entry for entry that of the same elimination on dense rows.
    With a `budget`, BudgetError is raised at a pivot where D and the
    transforms hold more nonzeros than that.  A name in `track` other than
    "u", "u_inv", "v" and "v_inv" raises ValueError.
    """
    if not set(track) <= {"u", "u_inv", "v", "v_inv"}:
        raise ValueError(f"unknown transform in {track!r}: smith_rows keeps u, u_inv, v and v_inv")
    rows = len(d)
    kept = {name: [{i: 1} for i in range(rows if name[0] == "u" else cols)] for name in track}
    held = [d, *kept.values()]
    if budget is not None and rows * cols + sum(len(m) ** 2 for m in kept.values()) <= budget:
        budget = None  # not even dense rows could pass it

    side = {name: [kept[name]] if name in kept else [] for name in ("u", "u_inv", "v", "v_inv")}
    # (forward, inverse-transpose) rows of the row and of the column operations
    row_side, col_side = ([d, *side["u"]], side["u_inv"]), (side["v"], side["v_inv"])
    # the original column at each position a swap moved, the leading +-1
    # pivots so far, and each row's least |entry|, 0 until read after the
    # row last changed
    moved, units, least = {}, 0, [0] * rows
    # rows from s on are nonzero in columns from s on only, and every row
    # above s in its diagonal entry only
    for s in range(min(rows, cols)):
        if budget is not None:
            _check(held, budget)
        pi = None
        for i in range(s, rows):
            if d[i]:
                if not least[i]:  # a unit ends the scan at the first one
                    vals = d[i].values()
                    least[i] = min(map(abs, vals)) if {1, -1}.isdisjoint(vals) else 1
                if pi is None or least[i] < least[pi]:
                    pi = i
                    if least[i] == 1:
                        break
        if pi is None:
            break
        # the lowest column of that |entry|: row pi is zero left of column s
        pj = next(compress(range(s, cols), map({least[pi], -least[pi]}.__contains__,
                                                map(d[pi].get, range(s, cols)))))
        if least[pi] == 1 and units == s:
            units += 1
        if pi != s:
            _swap(row_side, s, pi)
            least[s], least[pi] = least[pi], least[s]
        if pj != s:  # a swap has determinant -1: `_swap` makes it on the transforms
            _columns(d[s:], ((), ()), s, pj, 0, 1, 1, 0)
            _swap(col_side, s, pj)
            moved[s], moved[pj] = moved.get(pj, pj), moved.get(s, s)
        # clearing one entry leaves the others in the pivot row and column
        # as they were, so only the nonzero ones are visited
        while True:
            long = len(d[s]) > LONG_ROW
            for i in [i for i in range(s + 1, rows) if s in d[i]]:
                _pair(row_side, s, i, *_coefficients(d[s][s], d[i][s]), long)
                least[i] = 0
            if len(d[s]) == 1:
                break
            u = d[s][s]
            # a unit divides every entry without reading the row
            if u in (1, -1) or not any(map(u.__rmod__, d[s].values())):
                # column s is zero below the pivot, so each subtraction
                # clears its entry of row s and changes no other row of D
                if any(col_side):
                    for j, x in sorted(d[s].items())[1:]:
                        _pair(col_side, s, j, 1, 0, -(x // u), 1)
                d[s] = {s: u}
                break
            live = [d[s]]  # the rows nonzero in column s
            for j in sorted(d[s])[1:]:
                x, y, ca, cb = _coefficients(d[s][s], d[s][j])
                # a subtraction reads column s only, which only `live` holds,
                # and leaves it there, so a row clear resets their cache; a
                # Bezout step may rewrite any row, and a later one may clear
                # column s from it again, so the cache below is reset
                _columns(d[s:] if y else live, col_side, s, j, x, y, ca, cb)
                if y:
                    live = [row for row in d[s:] if s in row]
                    least[s + 1:] = [0] * (rows - s - 1)
            if len(live) == 1:
                break
        if d[s][s] < 0:
            for m in (*row_side[0], *row_side[1]):
                m[s] = {j: -x for j, x in m[s].items()}

    # enforce the divisibility chain d1 | d2 | ...
    rank = sum(1 for i in range(min(rows, cols)) if i in d[i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                _fold_pair(d, row_side, col_side, i)
                changed = True
    if budget is not None:
        _check(held, budget)
    return {**kept, "unit_columns": [moved.get(j, j) for j in range(units)]}


def _check(held, budget):
    nonzeros = sum(len(row) for m in held for row in m)
    if nonzeros > budget:
        raise BudgetError(f"Smith form holds {nonzeros} nonzeros, past budget {budget}")


def _coefficients(aa: int, bb: int) -> tuple[int, int, int, int]:
    """[[x, y], [ca, cb]] of determinant 1 taking (aa, bb) to (gcd, 0): a
    subtraction (y = 0) when aa divides bb, else the Bezout pair from the
    extended Euclidean algorithm, which reaches the gcd in one step."""
    if bb % aa == 0:
        return 1, 0, -(bb // aa), 1
    x, nx, y, ny, g, ng = 1, 0, 0, 1, aa, bb
    while ng:
        q = g // ng
        x, nx, y, ny, g, ng = nx, x - q * nx, ny, y - q * ny, ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, -(bb // g), aa // g


def _add(target: Row, source: Row, q: int) -> None:
    """target += q * source, in place."""
    if q:
        get = target.get
        for j, x in source.items():
            y = get(j, 0) + q * x
            if y:
                target[j] = y
            else:
                del target[j]


def _added(target: Row, source: Row, q: int) -> Row:
    """target + q * source, the shorter row added into the longer: into
    target in place, or into one copy of q * source, which is returned.
    Adding entry by entry costs a lookup and an insertion per entry, and
    a long pivot row mostly brings columns new to the row it clears."""
    if len(target) >= len(source):
        _add(target, source, q)
        return target
    # q is 1 at nearly every call, and dict() copies the hash table as it is
    row = dict(source) if q == 1 else {j: q * x for j, x in source.items()}
    _add(row, target, 1)
    return row


def _mix(ra: Row, rb: Row, x, y, ca, cb) -> tuple[Row, Row]:
    """The rows x*ra + y*rb and ca*ra + cb*rb."""
    na, nb = {}, {}
    for j in ra.keys() | rb.keys():
        p, q = ra.get(j, 0), rb.get(j, 0)
        u, w = x * p + y * q, ca * p + cb * q
        if u:
            na[j] = u
        if w:
            nb[j] = w
    return na, nb


# Row operations on a side: (forward, inverse-transpose) lists of sparse row
# matrices.  Each operation M on the forward rows is M^-T on the
# inverse-transpose rows, so the pairs stay mutually inverse.

def _swap(side, a, b):
    for m in (*side[0], *side[1]):
        m[a], m[b] = m[b], m[a]


def _pair(side, a, b, x, y, ca, cb, long=False):
    # forward rows (a, b) by [[x, y], [ca, cb]], inverse transpose by
    # [[cb, -ca], [-y, x]]; a subtraction (y = 0) rewrites one row, in
    # place unless row a is `long` and the longer of the two
    fwds, invs = side
    for m in fwds:
        if y:
            m[a], m[b] = _mix(m[a], m[b], x, y, ca, cb)
        elif long:
            m[b] = _added(m[b], m[a], ca)
        else:
            _add(m[b], m[a], ca)
    for m in invs:
        if y:
            m[a], m[b] = _mix(m[a], m[b], cb, -ca, -y, x)
        else:
            _add(m[a], m[b], -ca)


def _columns(rows, col_side, a, b, x, y, ca, cb):
    # columns (a, b) by [[x, ca], [y, cb]] in the rows of D that hold either
    # column, and the same operation, of determinant 1, on the transforms
    for row in rows:
        if a in row or b in row:
            p, r = row.pop(a, 0), row.pop(b, 0)
            for j, z in ((a, x * p + y * r), (b, ca * p + cb * r)):
                if z:
                    row[j] = z
    _pair(col_side, a, b, x, y, ca, cb)


def _fold_pair(d, row_side, col_side, i):
    """Replace adjacent diagonal entries (a, b) by (gcd, a*b/gcd), keeping
    the factorization exact; assumes their rows and columns are otherwise
    zero, which the main loop guarantees, and the entries positive."""
    _columns(d[i:i + 2], col_side, i + 1, i, 1, 0, 1, 1)  # column i += column i + 1
    _pair(row_side, i, i + 1, *_coefficients(d[i][i], d[i + 1][i]))  # rows (g, y*b), (0, a*b/g)
    _columns(d[i:i + 2], col_side, i, i + 1, 1, 0, -(d[i].get(i + 1, 0) // d[i][i]), 1)


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

    ranks[p] for 0 <= p <= top; boundaries[p] is the differential from
    degree p to degree p-1 for 1 <= p <= top, stored as ranks[p-1] sparse
    rows with columns below ranks[p], and boundaries[0] is empty.  A row
    holding an explicit 0 is refused, and the composite of consecutive
    boundaries is checked to vanish at construction time.
    """

    def __init__(self, ranks: list[int], boundaries: list[list[Row]]):
        self.ranks = ranks
        self.top = len(ranks) - 1
        self.boundaries = boundaries
        for p in range(1, self.top + 1):
            cols = ranks[p]
            if len(boundaries[p]) != ranks[p - 1] or any(not 0 <= j < cols
                                                        for row in boundaries[p] for j in row):
                raise ValueError(f"boundary {p} does not fit shape {(ranks[p - 1], cols)}")
            if any(0 in row.values() for row in boundaries[p]):
                raise ValueError(f"boundary {p} holds an explicit zero")
        for p in range(2, self.top + 1):
            above = boundaries[p]
            for row in boundaries[p - 1]:
                # row of d_(p-1) @ d_p; entries are summed, never deleted, so
                # a sum that cancels stays as an explicit 0, which `any` passes
                image = {}
                for s, x in row.items():
                    for j, y in above[s].items():
                        image[j] = image.get(j, 0) + x * y
                if any(image.values()):
                    raise ValueError(f"boundary composite in degree {p} is nonzero")

    def boundary(self, p: int) -> Matrix:
        """The differential out of degree p as a dense matrix."""
        if p < 1 or p > self.top:
            raise TruncationError(f"boundary {p} outside 1..{self.top}", required=p)
        return [[row.get(j, 0) for j in range(self.ranks[p])] for row in self.boundaries[p]]


def normalized_chain_complex(X: TruncatedSimplicialSet, top: int | None = None) -> ChainComplex:
    """Normalized chains: one generator per nondegenerate simplex, with
    faces that land on degenerate simplices contributing zero."""
    top = X.d if top is None else top
    if top > X.d:
        raise TruncationError(f"requested top degree {top} beyond truncation {X.d}", required=top)
    basis = [X.nondegenerate_indices(p) for p in range(top + 1)]
    ranks = [len(b) for b in basis]
    boundaries: list[list[Row]] = [[]]
    for p in range(1, top + 1):
        row_of = [-1] * len(X.levels[p - 1])
        for r, k in enumerate(basis[p - 1]):
            row_of[k] = r
        signed = [(table, -1 if i % 2 else 1) for i, table in enumerate(X.faces[p])]
        rows: list[Row] = [{} for _ in basis[p - 1]]
        for j, k in enumerate(basis[p]):
            faces = {}  # the simplex's faces summed first, so that cancelling ones leave nothing
            for table, sign in signed:
                r = row_of[table[k]]
                if r >= 0:
                    faces[r] = faces.get(r, 0) + sign
            for r, x in faces.items():
                if x:
                    rows[r][j] = x
        boundaries.append(rows)
    return ChainComplex(ranks, boundaries)


def _require_boundaries(C: ChainComplex, q: int, negative_ok: bool) -> None:
    """Refuse degree q unless C has boundaries up to degree q + 1, and a
    negative q unless negative_ok (no homology group lies below degree 0)."""
    if q + 1 > C.top or q < 0 and not negative_ok:
        raise TruncationError(
            f"homology in degree {q} needs boundaries up to degree {q + 1}; "
            f"complex stops at {C.top}", required=q + 1)


def homology_groups(C: ChainComplex, top: int, budget: int | None = None) -> list[HomologyGroup]:
    """H_0 .. H_top of C: H_q is Z^(n_q - rank d_q - rank d_(q+1)) plus the
    torsion of d_(q+1).  Each d_p goes to `smith_rows` without transforms,
    cleared first by d_(p-1): the rows that name its leading unit pivot
    columns are dropped.  Past a `budget`, BudgetError names the boundary."""
    _require_boundaries(C, top, negative_ok=True)
    invariants, cleared = [(0, ())], set()
    for p in range(1, top + 2):
        # Exact over Z: the rows W of U @ d_(p-1) at the leading unit pivots
        # are +-(unit triangular) on the pivot columns and W @ d_p = 0, so
        # each dropped row is an integer combination of the kept ones, and
        # the row lattice, the rank and the invariant factors stay the same.
        d = [dict(row) for r, row in enumerate(C.boundaries[p]) if row and r not in cleared]
        try:
            cleared = set(smith_rows(d, C.ranks[p], (), budget)["unit_columns"])
        except BudgetError as exc:
            raise BudgetError(f"homology boundary {p}: {exc}") from exc
        factors = [row[i] for i, row in enumerate(d) if i in row]
        invariants.append((len(factors), tuple(x for x in factors if x > 1)))
    return [HomologyGroup(C.ranks[q] - invariants[q][0] - invariants[q + 1][0],
                          invariants[q + 1][1]) for q in range(top + 1)]


class HomologyPresentation:
    """Canonical presentation of one homology group of a chain complex.

    The columns of V past the rank in the Smith form U_1 @ d_p @ V = D are
    a basis of the cycle lattice: a p-chain z is a cycle exactly when the
    first rank coordinates of V^-1 z vanish, and the rest are its
    coordinates in that basis.  The relations, V^-1's rows past the rank
    times the next boundary's rows, are diagonalized keeping U and U^-1.
    Canonical coordinates list torsion positions first (in divisibility
    order), then free positions.  A presentation holds, as sparse rows,
    only what its readers read: one representative cycle per coordinate,
    the columns of V^-1, and those of U's rows at the canonical positions,
    besides `chains`, the number of p-chains.  With a `budget`, BudgetError
    is raised as soon as the relations or the eliminations hold more
    nonzeros; the stored cycles and columns stay outside that count.
    """

    def __init__(self, C: ChainComplex, p: int, budget: int | None = None):
        _require_boundaries(C, p, negative_ok=False)
        self.degree, self.chains = p, C.ranks[p]
        n_next = C.ranks[p + 1]
        d = [dict(row) for row in C.boundaries[p]]  # reduced in place
        try:
            kept = smith_rows(d, self.chains, ("v", "v_inv"), budget)
            self._rank = sum(1 for i, row in enumerate(d) if i in row)
            kernel, v_inv = kept["v"][self._rank:], kept["v_inv"]
            left = None if budget is None else (budget - sum(map(len, kernel))
                                                - sum(map(len, v_inv)))
            # the next boundary in kernel coordinates: relation k is the sum
            # of V^-1[rank + k][r] times boundary row r
            relations, nonzeros = [], 0
            for row in v_inv[self._rank:]:
                relations.append(_apply(C.boundaries[p + 1], row))
                nonzeros += len(relations[-1])
                if left is not None and nonzeros > left:
                    raise BudgetError(f"relations hold {nonzeros} nonzeros, past budget {left}")
            kept = smith_rows(relations, n_next, ("u", "u_inv"), left)
        except BudgetError as exc:
            raise BudgetError(f"homology presentation in degree {p}: nonzeros held "
                              f"exceed budget {budget}") from exc
        diag = [row.get(i, 0) for i, row in enumerate(relations[:n_next])]
        rel_rank = sum(1 for x in diag if x)
        # coordinate layout: torsion positions then free positions
        torsion_positions = [i for i in range(rel_rank) if diag[i] > 1]
        self.torsion = tuple(diag[i] for i in torsion_positions)
        self.free_positions = list(range(rel_rank, self.chains - self._rank))
        positions = torsion_positions + self.free_positions
        # column pos of U^-1, kept transposed, in the kernel basis
        self._cycles = [_apply(kernel, kept["u_inv"][pos]) for pos in positions]
        self._v_inv_columns = _transposed(v_inv, self.chains)
        self._u_columns = [{}] * self._rank + _transposed([kept["u"][pos] for pos in positions],
                                                          len(kernel))

    def group(self) -> HomologyGroup:
        return HomologyGroup(len(self.free_positions), self.torsion)

    def coordinates(self, cycles: list[Row]) -> tuple[tuple[int, ...], ...]:
        """Canonical coordinates of sparse cycles in the chain basis: row i
        holds coordinate i of every cycle, torsion coordinates reduced mod
        their order.  Raises ValueError if some chain has an index outside
        0..chains-1 or is not a cycle.

        A chain z goes through V^-1 and then through U's rows at the
        canonical positions, each applied as Σ_r z[r] * (column r), so a
        product reads only the columns where z is nonzero.  z is a cycle
        exactly when V^-1 z vanishes in the first rank coordinates."""
        if any(cycle and (min(cycle) < 0 or max(cycle) >= self.chains) for cycle in cycles):
            raise ValueError(f"a chain index lies outside 0..{self.chains - 1} "
                             f"in degree {self.degree}")
        coords = [_apply(self._v_inv_columns, cycle) for cycle in cycles]
        if any(i < self._rank for c in coords for i in c):
            raise ValueError("not a cycle")
        coords = [_apply(self._u_columns, c) for c in coords]
        orders = self.torsion + (0,) * len(self.free_positions)
        return tuple(tuple(c.get(i, 0) % t if t else c.get(i, 0) for c in coords)
                     for i, t in enumerate(orders))

    def generator_cycles(self) -> list[Row]:
        """Representative cycles as sparse chains, one per canonical
        coordinate, shared by every call."""
        return self._cycles


def _apply(rows: list[Row], chain: Row) -> Row:
    """The sparse sum of chain[r] * rows[r]: the chain times the matrix of
    `rows`, or the transpose of that matrix times the chain, reading only
    the rows where the chain is nonzero."""
    image = {}
    for r, x in chain.items():
        _add(image, rows[r], x)
    return image


def _transposed(rows: list[Row], cols: int) -> list[Row]:
    """The `cols` columns of sparse `rows`, as sparse rows."""
    columns = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def induced_map_on_homology(f: SimplicialMap, source_pres: HomologyPresentation,
                            target_pres: HomologyPresentation) -> tuple[tuple[int, ...], ...]:
    """The map f induces on H_p, p the degree of both presentations, from
    the presentation of its source to that of its target: column j is the
    image of the j-th source generator, row i its target coordinate i,
    torsion rows reduced mod their order.  Each generator, a sparse cycle,
    is pushed through the chain map: its entry on a source simplex is added
    onto the entry of that simplex's image, and an image that is degenerate
    drops out.  Raises ValueError unless both presentations are of degree p
    and on as many p-chains as f has nondegenerate p-simplices on that side."""
    p = source_pres.degree
    fits = target_pres.degree == p <= f.source.d
    if fits:
        sources, targets = (X.nondegenerate_indices(p) for X in (f.source, f.target))
        fits = (source_pres.chains, target_pres.chains) == (len(sources), len(targets))
    if not fits:
        raise ValueError(f"presentations of degrees {p} and {target_pres.degree} "
                         f"do not fit the chains of f in degree {p}")
    row_of = {k: i for i, k in enumerate(targets)}
    table = f.tables[p]
    to = [row_of.get(table[k]) for k in sources]
    images = []
    for cycle in source_pres.generator_cycles():
        image = {}
        for r, x in cycle.items():
            if to[r] is not None:
                image[to[r]] = image.get(to[r], 0) + x
        images.append({i: x for i, x in image.items() if x})
    return target_pres.coordinates(images)


# ---------------------------------------------------------------------------
# Dense helpers on Matrix (lists of int rows).  The homology path above never
# calls them; the tests and the benchmark tracer, which looks them up by
# name, do.

def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def eye(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in cols] for row in a]


def smith_normal_form(a: Matrix, track: tuple[str, ...] = ("u", "v")) -> tuple[Matrix, ...]:
    """Return D followed by the transforms named in `track`, in that order,
    out of "u", "u_inv", "v" and "v_inv": U @ a @ V = D with U and V
    unimodular, D diagonal with each entry dividing the next, and U^-1 and
    V^-1 their exact inverses.  By default (D, U, V).  `smith_rows` on
    dense matrices."""
    cols = len(a[0]) if a else 0
    d = [{j: x for j, x in enumerate(row) if x} for row in a]
    kept = smith_rows(d, cols, track)
    # U^-1 and V are kept transposed
    return (_dense(d, cols), *(_dense(kept[name], len(kept[name]), name in ("u_inv", "v"))
                               for name in track))


def _dense(rows: list[Row], cols: int, transpose: bool = False) -> Matrix:
    m = [[row.get(j, 0) for j in range(cols)] for row in rows]
    return [list(col) for col in zip(*m)] if transpose else m


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


