"""Truncated simplicial sets with tabulated faces and degeneracies,
simplicial maps, skeletons, and the reduced suspension of a pointed set.

Level sets are ordered sequences of hashable simplices: lists, or levels
that decode their simplices on demand.  Faces, degeneracies and the levels
of a simplicial map are integer index tables: entry k of a table is the
position, in the target level, of the image of the k-th simplex.  Labels
are read only to name witnesses.  Everything is finite and immutable once
constructed, so values can be shared freely.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None
    witness: tuple | None = None


class TruncatedSimplicialSet:
    """Simplicial set truncated at dimension d.

    levels[p] is the sequence of p-simplices, listed or decoded on demand;
    faces[p][i] is the index table of the i-th face out of level p for
    1 <= p <= d, 0 <= i <= p; degeneracies[p][i] is the index table of the
    i-th degeneracy out of level p for 0 <= p < d, 0 <= i <= p.
    """

    def __init__(self, d: int, levels: list, faces: list[list[list[int]]],
                 degeneracies: list[list[list[int]]]):
        self.d = d
        self.levels = levels
        self.faces = faces
        self.degeneracies = degeneracies
        self._degenerate: list[bytearray | None] = [None] * (d + 1)

    def degenerate_mask(self, p: int) -> bytearray:
        """Entry k is 1 when the k-th p-simplex is the image of a degeneracy."""
        if self._degenerate[p] is None:
            mask = bytearray(len(self.levels[p]))
            for table in self.degeneracies[p - 1] if p else ():
                for k in table:
                    mask[k] = 1
            self._degenerate[p] = mask
        return self._degenerate[p]

    def nondegenerate_indices(self, p: int) -> list[int]:
        return [k for k, degenerate in enumerate(self.degenerate_mask(p)) if not degenerate]

    def nondegenerate(self, p: int) -> list:
        level = self.levels[p]
        return [level[k] for k in self.nondegenerate_indices(p)]

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]


def composite(a: list[int], b: list[int]) -> list[int]:
    """Index table of a after b."""
    return [a[k] for k in b]


def _check_tables(X: TruncatedSimplicialSet, what: str, tables, p: int, q: int, ranges=True):
    """Arity, totality and, with ranges set, range of the structure maps out
    of level p into level q; the first violation, or None."""
    if len(tables) != p + 1:
        return ValidationReport(False, f"{what} table arity", (p,))
    size, target = len(X.levels[p]), len(X.levels[q])
    for i, table in enumerate(tables):
        if len(table) != size:
            witness = (p, i, X.levels[p][len(table)]) if len(table) < size else (p, i)
            return ValidationReport(False, f"{what} not total", witness)
        if ranges and table and not (0 <= min(table) and max(table) < target):
            k = next(k for k, y in enumerate(table) if not 0 <= y < target)
            return ValidationReport(False, f"{what} lands outside level", (p, i, X.levels[p][k]))
    return None


def _face_identities(X: TruncatedSimplicialSet, p: int):
    """The identities d_i d_j = d_{j-1} d_i on level p as (name, (p, i, j),
    lhs, rhs): both sides are index tables over level p, produced one
    identity at a time in checking order."""
    F = X.faces
    for j in range(1, p + 1):
        for i in range(j):
            yield ("d_i d_j = d_{j-1} d_i", (p, i, j),
                   composite(F[p - 1][i], F[p][j]), composite(F[p - 1][j - 1], F[p][i]))


def _degeneracy_identities(X: TruncatedSimplicialSet):
    """Every identity within the truncation that involves a degeneracy, in
    the form of _face_identities and in checking order."""
    F, S = X.faces, X.degeneracies
    for p in range(X.d - 1):
        for j in range(p + 1):
            for i in range(j + 1):
                yield ("s_i s_j = s_{j+1} s_i", (p, i, j),
                       composite(S[p + 1][i], S[p][j]), composite(S[p + 1][j + 1], S[p][i]))
    # mixed identities on level p, 0 <= p < d; at p = 0 only d_i s_j = id occurs
    for p in range(X.d):
        identity = list(range(len(X.levels[p])))
        for j in range(p + 1):
            for i in range(p + 2):
                lhs = composite(F[p + 1][i], S[p][j])
                if i == j or i == j + 1:
                    yield "d_i s_j = id", (p, i, j), lhs, identity
                elif i < j:
                    yield ("d_i s_j = s_{j-1} d_i", (p, i, j),
                           lhs, composite(S[p - 1][j - 1], F[p][i]))
                else:
                    yield ("d_i s_j = s_j d_{i-1}", (p, i, j),
                           lhs, composite(S[p - 1][j], F[p][i - 1]))


def _first_violation(X: TruncatedSimplicialSet, identities) -> ValidationReport | None:
    """The first identity whose sides differ, or None.  Each identity is
    (name, where, lhs, rhs) with lhs and rhs index tables over level
    where[0] of X; a violation is named (*where, first differing simplex)."""
    for name, where, lhs, rhs in identities:
        if lhs != rhs:
            k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return ValidationReport(False, name, (*where, X.levels[where[0]][k]))
    return None


_CHUNK = 1024  # simplices per gather in _faces_commute, to keep its byte strings small


def _faces_commute(X: TruncatedSimplicialSet, p: int) -> bool:
    """Whether every d_i d_j = d_{j-1} d_i holds on level p, compared byte
    for byte.  The faces out of level p - 1 must be in range, and those out
    of level p total: the face vectors are keyed by position, so an entry
    outside level p - 1, negative or past it, raises KeyError in the gather.

    The face vector of a (p-1)-simplex y is the bytes of d_0 y ... d_{p-1} y,
    each face w bytes wide, where w is the bytes that |X_{p-2}| - 1 needs.
    Gathered along d_j over a chunk of p-simplices, the vectors give one
    string whose record for x holds d_i d_j x at offset i*w, so an identity
    is w strided slice comparisons of two such strings.
    """
    F, G = X.faces[p], X.faces[p - 1]
    w = max(1, (len(X.levels[p - 2]) - 1).bit_length() + 7 >> 3)
    vectors = dict(enumerate(b"".join(map(int.to_bytes, faces, itertools.repeat(w),
                                          itertools.repeat("big"))) for faces in zip(*G)))
    sides = [(j, i * w + b, i, (j - 1) * w + b)
             for j in range(1, p + 1) for i in range(j) for b in range(w)]
    for a in range(0, len(X.levels[p]), _CHUNK):
        # a leading vector 0 keeps the itemgetter's result a tuple on a one-row chunk
        M = [b"".join(operator.itemgetter(0, *table[a:a + _CHUNK])(vectors)[1:]) for table in F]
        if any(M[j][s::p * w] != M[i][t::p * w] for j, s, i, t in sides):
            return False
    return True


def _first_violation_in_order(X: TruncatedSimplicialSet, quick: bool) -> ValidationReport | None:
    """The first violation in checking order, or None: face table ranges,
    degeneracy table ranges, the face identities level by level, then the
    degeneracy identities.  The face identities of a level are checked
    together by _faces_commute, and table by table only where that fails.
    With quick set, the face tables out of levels 2 and up are checked only
    for arity and length, so a report may pass over an earlier range defect,
    and an entry outside the level below fails its key lookup in the gather."""
    for p in range(1, X.d + 1):
        report = _check_tables(X, "face", X.faces[p], p, p - 1, ranges=not quick or p == 1)
        if report:
            return report
    for p in range(X.d):
        report = _check_tables(X, "degeneracy", X.degeneracies[p], p, p + 1)
        if report:
            return report
    for p in range(2, X.d + 1):
        if not _faces_commute(X, p):
            report = _first_violation(X, _face_identities(X, p))
            if report:
                return report
    return _first_violation(X, _degeneracy_identities(X))


def validate(X: TruncatedSimplicialSet) -> ValidationReport:
    """Check every simplicial identity expressible within the truncation.

    Exhaustive: the face identities of each level are compared together
    through face vectors by _faces_commute, in chunks of _CHUNK simplices,
    and every other identity compares two composite index tables over a
    whole level.  A quick run reads the face tables out of levels 2 and up
    for arity and length only; an entry outside the level below fails its
    key lookup in the gather.  Only a failed quick run is run again in full,
    ranges first and failing levels table by table, so that the report
    names the first violation's identity, level, indices, and simplex.
    """
    try:
        if _first_violation_in_order(X, quick=True) is None:
            return ValidationReport(True)
    except LookupError:  # KeyError in a gather, IndexError in a table-by-table composite
        pass
    return _first_violation_in_order(X, quick=False) or ValidationReport(True)


class SimplicialMap:
    """Levelwise map between truncated simplicial sets of the same bound.

    tables[p][k] is the position, in target level p, of the image of the
    k-th source p-simplex.
    """

    def __init__(self, source: TruncatedSimplicialSet, target: TruncatedSimplicialSet,
                 tables: list[list[int]]):
        if source.d != target.d:
            raise ValueError("source and target truncations differ")
        self.source = source
        self.target = target
        self.tables = tables

    def check(self) -> ValidationReport:
        """Totality, range and commutation with every face and degeneracy,
        each commutation one comparison of two composite tables.  The
        witness is the first offending source simplex in level order."""
        X, Y, T = self.source, self.target, self.tables
        for p in range(X.d + 1):
            table, size, target = T[p], len(X.levels[p]), len(Y.levels[p])
            if table and not (0 <= min(table) and max(table) < target):
                k = next(k for k, y in enumerate(table) if not 0 <= y < target)
                if k < size:
                    return ValidationReport(False, "map lands outside level", (p, X.levels[p][k]))
            if len(table) != size:
                witness = (p, X.levels[p][len(table)]) if len(table) < size else (p,)
                return ValidationReport(False, "map not total", witness)
        faces = (("map commutes with faces", (p, i), composite(T[p - 1], X.faces[p][i]),
                  composite(Y.faces[p][i], T[p])) for p in range(1, X.d + 1) for i in range(p + 1))
        degeneracies = (("map commutes with degeneracies", (p, i),
                         composite(T[p + 1], X.degeneracies[p][i]),
                         composite(Y.degeneracies[p][i], T[p])) for p in range(X.d) for i in range(p + 1))
        return _first_violation(X, itertools.chain(faces, degeneracies)) or ValidationReport(True)

    def is_levelwise_bijection(self) -> bool:
        return all(len(set(table)) == len(self.source.levels[p]) == len(self.target.levels[p])
                   for p, table in enumerate(self.tables))


def point(d: int) -> TruncatedSimplicialSet:
    """One simplex per level, everything degenerate."""
    return TruncatedSimplicialSet(d, [["*"] for _ in range(d + 1)],
                                  [[[0] for _ in range(p + 1)] if p else [] for p in range(d + 1)],
                                  [[[0] for _ in range(p + 1)] if p < d else []
                                   for p in range(d + 1)])


def suspension(points, base, d: int) -> TruncatedSimplicialSet:
    """Reduced suspension of a finite pointed set: a wedge of circles, one
    per non-basepoint element.

    A p-simplex is either the collapsed basepoint "*" or a pair (a, bits)
    with a a non-basepoint element and bits a weakly increasing, nonconstant
    0/1 tuple of length p+1 recording a monotone surjection onto the edge.
    Level p lists "*" first, then the words of the j-th loop (j from 0) with
    t zeros, 1 <= t <= p, at position j*p + t.
    """
    loops = [a for a in points if a != base]
    levels = [["*"] + [(a, (0,) * t + (1,) * (p + 1 - t)) for a in loops for t in range(1, p + 1)]
              for p in range(d + 1)]

    def table(p: int, q: int, i: int, step: int) -> list[int]:
        """Index table from level p to level q of the structure map that
        removes (step -1) or doubles (step +1) bit i: that bit is a zero
        exactly when i < t.  A constant word goes to "*"."""
        out = [0]
        for j in range(len(loops)):
            for t in range(1, p + 1):
                s = t + step if i < t else t
                out.append(j * q + s if 0 < s <= q else 0)
        return out

    faces = [[table(p, p - 1, i, -1) for i in range(p + 1)] if p else [] for p in range(d + 1)]
    degeneracies = [[table(p, p + 1, i, 1) for i in range(p + 1)] if p < d else []
                    for p in range(d + 1)]
    return TruncatedSimplicialSet(d, levels, faces, degeneracies)


def _skeleton_positions(X: TruncatedSimplicialSet, k: int) -> list[list[int]]:
    """Positions in X of the simplices of its k-skeleton, in level order."""
    keep: list = []
    for p in range(X.d + 1):
        if p <= k:
            keep.append(range(len(X.levels[p])))
        else:
            keep.append(sorted({table[a] for table in X.degeneracies[p - 1] for a in keep[p - 1]}))
    return keep


def skeleton(X: TruncatedSimplicialSet, k: int) -> TruncatedSimplicialSet:
    """Subobject generated by the simplices of dimension at most k."""
    keep = _skeleton_positions(X, k)
    renumber = [{a: r for r, a in enumerate(kept)} for kept in keep]

    def restrict(tables, p, q):
        return [[renumber[q][table[a]] for a in keep[p]] for table in tables[p]]

    return TruncatedSimplicialSet(X.d, [[X.levels[p][a] for a in keep[p]] for p in range(X.d + 1)],
                                  [restrict(X.faces, p, p - 1) for p in range(X.d + 1)],
                                  [restrict(X.degeneracies, p, p + 1) for p in range(X.d + 1)])


def skeleton_inclusion(S: TruncatedSimplicialSet, X: TruncatedSimplicialSet) -> SimplicialMap:
    """Inclusion of a skeleton S of X.  The levels S shares whole with X
    come first, so S is the skeleton of the last of them."""
    whole = next((p for p in range(X.d + 1) if len(S.levels[p]) != len(X.levels[p])), X.d + 1)
    return SimplicialMap(S, X, [list(kept) for kept in _skeleton_positions(X, whole - 1)])
