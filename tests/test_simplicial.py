import random

import pytest

from gammaspaces import classifying as cb
from gammaspaces import presheaves as ps
from gammaspaces import simplicial as ss
from gammaspaces.algebra import cyclic, klein_four, max_monoid, trivial_monoid
from oracles import (TruncatedBisimplicialSet, compose_maps, constant_map_to_point, diagonal,
                     identity_map, label_suspension, map_from_label_maps, nerve_of_monoid,
                     pairwise_validate)


class TestValidate:
    def test_point_passes(self):
        assert ss.validate(ss.point(3)).ok

    def test_nerve_z2_passes(self):
        assert ss.validate(nerve_of_monoid(cyclic(2), 3)).ok

    def test_nerve_max_monoid_passes(self):
        assert ss.validate(nerve_of_monoid(max_monoid(2), 3)).ok

    def test_corrupted_face_fails_with_named_identity(self):
        X = nerve_of_monoid(cyclic(2), 3)
        old = X.faces[2][1][1]
        X.faces[2][1][1] = next(k for k in range(len(X.levels[1])) if k != old)
        report = ss.validate(X)
        assert not report.ok
        assert (report.violation, report.witness) == \
            ("d_i d_j = d_{j-1} d_i", (3, 0, 2, (0, 0, 1)))

    def test_corrupted_degeneracy_breaks_s_i_s_j(self):
        X = nerve_of_monoid(cyclic(2), 3)
        X.degeneracies[1][0][X.levels[1].index((1,))] = X.levels[2].index((1, 1))
        report = ss.validate(X)
        assert (report.violation, report.witness) == ("s_i s_j = s_{j+1} s_i", (1, 0, 0, (1,)))

    def test_corrupted_degeneracy_breaks_d_i_s_j(self):
        # s_0 of the nondegenerate (1, 1) is not an image of s_i s_j, so
        # only the mixed identity d_0 s_0 = id sees it
        X = nerve_of_monoid(cyclic(2), 3)
        X.degeneracies[2][0][X.levels[2].index((1, 1))] = X.levels[3].index((0, 0, 0))
        report = ss.validate(X)
        assert (report.violation, report.witness) == ("d_i s_j = id", (2, 0, 0, (1, 1)))

    def test_short_table_is_not_total(self):
        X = nerve_of_monoid(cyclic(2), 3)
        del X.faces[2][1][3:]
        report = ss.validate(X)
        assert (report.violation, report.witness) == ("face not total", (2, 1, (1, 1)))

    def test_entry_past_the_target_level_lands_outside(self):
        X = nerve_of_monoid(cyclic(2), 3)
        X.degeneracies[1][1][1] = len(X.levels[2])
        report = ss.validate(X)
        assert (report.violation, report.witness) == \
            ("degeneracy lands outside level", (1, 1, (1,)))

    def test_suspension_passes(self):
        assert ss.validate(ss.suspension([0, 1, 2], 0, 3)).ok


@pytest.fixture(scope="module")
def z2_twice():
    """The Z/2 k=2 d=4 bar, sizes 1, 2, 16, 512, 65536: the face vectors of
    level 4 are gathered in 64 chunks."""
    return cb.iterate_bar(ps.build_gamma_set(cyclic(2), 16), 2, 4).space


@pytest.fixture(scope="module")
def klein_once():
    """The Klein four k=1 d=5 bar, sizes 4**p: each level is four times the
    level below, and every face is one byte wide."""
    return cb.iterate_bar(ps.build_gamma_set(klein_four(), 5), 1, 5).space


@pytest.fixture(scope="module")
def klein_wide():
    """The Klein four k=1 d=7 bar, sizes 4**p: level 5 has 1024 simplices,
    so the face vectors of level 6, gathered for level 7, are two bytes a
    face."""
    return cb.iterate_bar(ps.build_gamma_set(klein_four(), 7), 1, 7).space


def with_fresh_faces(X, p):
    """X with copies of the face tables out of level p, free to corrupt."""
    faces = [[list(t) for t in tables] if q == p else tables for q, tables in enumerate(X.faces)]
    return ss.TruncatedSimplicialSet(X.d, X.levels, faces, X.degeneracies)


class TestFaceVectorCheck:
    """validate compares the face identities of every level through face
    vectors; its reports must be those of the table-by-table oracle."""

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once", "klein_wide"])
    def test_quick_check_runs_on_every_level_from_two(self, request, monkeypatch, name):
        X, seen, faces_commute = request.getfixturevalue(name), [], ss._faces_commute
        monkeypatch.setattr(ss, "_faces_commute", lambda X, p: seen.append(p) or faces_commute(X, p))
        assert ss.validate(X) == pairwise_validate(X) == ss.ValidationReport(True)
        assert seen == list(range(2, X.d + 1))

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once", "klein_wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_moved_entry_reports_as_the_oracle(self, request, name, seed):
        X, rng = request.getfixturevalue(name), random.Random(seed)
        for p in (X.d, X.d - 1):
            Y = with_fresh_faces(X, p)
            table = rng.choice(Y.faces[p])
            k = rng.randrange(len(table))
            table[k] = rng.choice([y for y in range(len(X.levels[p - 1])) if y != table[k]])
            report = ss.validate(Y)
            assert not report.ok
            assert report == pairwise_validate(Y)

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once", "klein_wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_swapped_entries_report_as_the_oracle(self, request, name, seed):
        # a swap keeps the entries of the table, only their positions change
        X, rng = request.getfixturevalue(name), random.Random(100 + seed)
        for p in (X.d, X.d - 1):
            Y = with_fresh_faces(X, p)
            table = rng.choice(Y.faces[p])
            k = rng.randrange(len(table))
            m = rng.choice([m for m, y in enumerate(table) if y != table[k]])
            table[k], table[m] = table[m], table[k]
            report = ss.validate(Y)
            assert not report.ok
            assert report == pairwise_validate(Y)

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("corruption",
                             ["negative", "far_negative", "past_the_level", "short", "long"])
    def test_misshapen_table_reports_as_the_ordered_checks(self, request, name, p, i, corruption):
        # the quick pass reads these ranges only through the gathers; the
        # reports here are those of the range checks run before any identity
        X = request.getfixturevalue(name)
        Y, k = with_fresh_faces(X, p), len(X.levels[p]) // 3 + i
        table = Y.faces[p][i]
        if corruption == "negative":  # names the same simplex if read as a list index
            table[k] -= len(X.levels[p - 1])
        elif corruption == "far_negative":  # past the front of the level if read as a list index
            table[k] = -len(X.levels[p - 1]) - 1 - i
        elif corruption == "past_the_level":
            table[k] = len(X.levels[p - 1])
        elif corruption == "short":
            del table[k:]
        else:
            table.append(0)
        expected = {"negative": ("face lands outside level", (p, i, X.levels[p][k])),
                    "far_negative": ("face lands outside level", (p, i, X.levels[p][k])),
                    "past_the_level": ("face lands outside level", (p, i, X.levels[p][k])),
                    "short": ("face not total", (p, i, X.levels[p][k])),
                    "long": ("face not total", (p, i))}[corruption]
        assert ss.validate(Y) == ss.ValidationReport(False, *expected)

    @pytest.mark.parametrize("p, entry", [(5, 256), (6, 256 ** 2), (7, 256 ** 2)])
    def test_entry_wider_than_its_face_reports_as_the_ordered_checks(self, klein_wide, p, entry):
        # entry needs one byte more than the faces of level p + 1 hold; the
        # gather of level p fails on it first, so it is never encoded
        X = klein_wide
        Y, k = with_fresh_faces(X, p), len(X.levels[p]) // 3
        Y.faces[p][1][k] = entry
        assert ss.validate(Y) == ss.ValidationReport(
            False, "face lands outside level", (p, 1, X.levels[p][k]))

    def test_faces_differing_in_their_high_bytes_alone_fail(self, klein_wide):
        # d_0 of a 7-simplex moved to a 6-simplex whose faces share its low
        # bytes: only the high bytes of the two-byte face vectors differ
        X = klein_wide
        Y, G = with_fresh_faces(X, 7), X.faces[6]
        table, k = Y.faces[7][0], len(X.levels[7]) // 3
        low = [G[i][table[k]] % 256 for i in range(7)]
        table[k] = next(y for y in range(len(X.levels[6])) if y != table[k]
                        and [G[i][y] % 256 for i in range(7)] == low
                        and any(G[i][y] != G[i][table[k]] for i in range(7)))
        assert not ss._faces_commute(Y, 7)
        report = ss.validate(Y)
        assert not report.ok
        assert report == pairwise_validate(Y)

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_extra_table_reports_the_arity(self, request, name, p):
        Y = with_fresh_faces(request.getfixturevalue(name), p)
        Y.faces[p].append(list(Y.faces[p][0]))
        assert ss.validate(Y) == ss.ValidationReport(False, "face table arity", (p,))

    def test_misshapen_table_is_named_with_its_label(self, z2_twice):
        Y = with_fresh_faces(z2_twice, 2)
        Y.faces[2][1][5] = 2
        assert ss.validate(Y) == ss.ValidationReport(
            False, "face lands outside level", (2, 1, (0, 1, 0, 1)))
        del Y.faces[2][0][7:]
        assert ss.validate(Y) == ss.ValidationReport(False, "face not total", (2, 0, (0, 1, 1, 1)))

    @pytest.mark.parametrize("second", ["degeneracy_range", "face_swap", "same_level_swap"])
    def test_range_report_wins_over_a_later_defect(self, z2_twice, second):
        # level 4's faces are read only through the gather of level 4, so a
        # quick pass meets the second defect first: a degeneracy range, a
        # level 2 swap, or a level 4 identity in chunk 0, whose table by
        # table search then meets the range defect as an IndexError; the
        # report is still the range check's, which comes first in checking order
        X, i = z2_twice, 0 if second == "degeneracy_range" else 1
        Y, k = with_fresh_faces(X, 4), len(X.levels[4]) // 3
        Y.faces[4][i][k] = len(X.levels[3])
        if second == "degeneracy_range":
            Y.degeneracies = [[list(t) for t in X.degeneracies[0]]] + X.degeneracies[1:]
            Y.degeneracies[0][0][0] = len(X.levels[1])
        else:
            q = 2 if second == "face_swap" else 4
            Y.faces[q] = [list(t) for t in Y.faces[q]]
            table = Y.faces[q][0]
            m = next(m for m, y in enumerate(table) if y != table[0])
            table[0], table[m] = table[m], table[0]
            if q == 4:
                assert not ss._faces_commute(Y, 4)  # fails in chunk 0, before entry k
        assert ss.validate(Y) == ss.ValidationReport(
            False, "face lands outside level", (4, i, X.levels[4][k]))

    @pytest.mark.parametrize("name", ["z2_twice", "klein_once", "klein_wide"])
    def test_quick_pass_reads_the_top_level_only_through_the_gather(self, request, name):
        # a top face table that refuses to be iterated: a scan of it, such as
        # a sign check, raises, and slices and lookups of it do not
        class Unscannable(list):
            def __iter__(self):
                raise AssertionError("top face table scanned")

        X = request.getfixturevalue(name)
        Y = with_fresh_faces(X, X.d)
        Y.faces[X.d] = [Unscannable(t) for t in Y.faces[X.d]]
        assert ss.validate(Y) == pairwise_validate(X) == ss.ValidationReport(True)

    def test_face_vectors_name_their_byte_order(self, z2_twice, monkeypatch):
        # int.to_bytes takes no default byte order before Python 3.11
        class StrictInt(int):
            @staticmethod
            def to_bytes(n, length, byteorder):
                return int.to_bytes(n, length, byteorder)

        monkeypatch.setattr(ss, "int", StrictInt, raising=False)
        assert all(ss._faces_commute(z2_twice, p) for p in range(2, 5))

    def test_one_element_levels_gather_one_byte_faces(self):
        X = cb.iterate_bar(ps.build_gamma_set(trivial_monoid(), 16), 2, 4).space
        assert X.level_sizes() == [1] * 5
        assert all(ss._faces_commute(X, p) for p in range(2, 5))
        assert ss.validate(X) == pairwise_validate(X) == ss.ValidationReport(True)


class TestSuspension:
    def test_basepoint_only_gives_point(self):
        X = ss.suspension([0], 0, 3)
        assert X.level_sizes() == [1, 1, 1, 1]

    def test_two_points_give_circle(self):
        X = ss.suspension([0, 1], 0, 2)
        assert X.level_sizes() == [1, 2, 3]
        assert len(X.nondegenerate(1)) == 1
        assert X.nondegenerate(2) == []

    def test_tables_match_label_oracle(self):
        for points, base in [(["a"], "a"), ([0, 1], 0), ([0, 1, 2], 1), (["x", "y", "z", "w"], "w")]:
            for d in range(5):
                X = ss.suspension(points, base, d)
                Y = label_suspension(points, base, d)
                assert (X.levels, X.faces, X.degeneracies) == (Y.levels, Y.faces, Y.degeneracies)
                assert ss.validate(X).ok

    def test_nondegenerate_edges_count(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        assert len(X.nondegenerate(1)) == 2
        assert len(X.nondegenerate(0)) == 1


class TestSkeleton:
    def test_skeleton_of_point(self):
        S = ss.skeleton(ss.point(3), 1)
        assert S.level_sizes() == [1, 1, 1, 1]

    def test_one_skeleton_of_nerve(self):
        X = nerve_of_monoid(cyclic(3), 3)
        S = ss.skeleton(X, 1)
        assert ss.validate(S).ok
        assert S.level_sizes()[0] == 1
        assert S.level_sizes()[1] == 3
        # level 2 keeps only degenerate images of level-1 simplices
        assert set(S.levels[2]) == {X.levels[2][table[X.levels[1].index(x)]]
                                    for table in X.degeneracies[1] for x in S.levels[1]}

    def test_skeleton_inclusion_is_simplicial(self):
        X = nerve_of_monoid(cyclic(2), 3)
        S = ss.skeleton(X, 1)
        incl = ss.skeleton_inclusion(S, X)
        assert incl.check().ok


class TestSimplicialMap:
    def test_identity_checks(self):
        X = nerve_of_monoid(cyclic(2), 3)
        assert identity_map(X).check().ok

    def test_constant_map_checks(self):
        X = nerve_of_monoid(cyclic(3), 3)
        assert constant_map_to_point(X).check().ok

    def test_loop_swap_is_simplicial_but_partial_collapse_is_not(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        level_maps = []
        for p in range(3):
            table = {}
            for x in X.levels[p]:
                if x == "*":
                    table[x] = "*"
                else:
                    a, bits = x
                    table[x] = ({1: 2, 2: 1}[a], bits)
            level_maps.append(table)
        assert map_from_label_maps(X, X, level_maps).check().ok
        # collapsing one edge but not its degeneracies breaks naturality
        level_maps[1][(2, (0, 1))] = "*"
        report = map_from_label_maps(X, X, level_maps).check()
        assert (report.violation, report.witness) == \
            ("map commutes with faces", (2, 0, (2, (0, 0, 1))))

    def test_short_table_is_not_total(self):
        X = nerve_of_monoid(cyclic(2), 2)
        tables = identity_map(X).tables
        del tables[2][X.levels[2].index((1, 0)):]
        report = ss.SimplicialMap(X, X, tables).check()
        assert (report.violation, report.witness) == ("map not total", (2, (1, 0)))

    def test_entry_past_the_target_level_lands_outside(self):
        X = nerve_of_monoid(cyclic(2), 2)
        tables = identity_map(X).tables
        tables[1][X.levels[1].index((1,))] = len(X.levels[1])
        report = ss.SimplicialMap(X, X, tables).check()
        assert (report.violation, report.witness) == ("map lands outside level", (1, (1,)))

    def test_long_table_is_not_total(self):
        X = nerve_of_monoid(cyclic(2), 2)
        tables = identity_map(X).tables
        tables[1].append(len(X.levels[1]))
        report = ss.SimplicialMap(X, X, tables).check()
        assert (report.violation, report.witness) == ("map not total", (1,))

    def test_first_offending_simplex_wins_within_a_level(self):
        # an entry out of range comes before the end of a short table
        X = nerve_of_monoid(cyclic(2), 2)
        tables = identity_map(X).tables
        tables[2][X.levels[2].index((0, 1))] = -1
        del tables[2][X.levels[2].index((1, 1)):]
        report = ss.SimplicialMap(X, X, tables).check()
        assert (report.violation, report.witness) == ("map lands outside level", (2, (0, 1)))

    def test_edge_off_a_degenerate_simplex_breaks_degeneracies(self):
        # faces of the loop are both the basepoint, so only s_0 sees it
        P = ss.point(1)
        Y = ss.suspension([0, 1], 0, 1)
        report = ss.SimplicialMap(P, Y, [[0], [Y.levels[1].index((1, (0, 1)))]]).check()
        assert (report.violation, report.witness) == ("map commutes with degeneracies", (0, 0, "*"))

    def test_composition(self):
        X = nerve_of_monoid(cyclic(2), 2)
        f = identity_map(X)
        g = constant_map_to_point(X)
        gf = compose_maps(g, f)
        assert gf.check().ok
        assert gf.target.levels == [["*"]] * 3
        assert gf.tables == [[0] * len(level) for level in X.levels]


class TestBisimplicialDiagonal:
    @staticmethod
    def product_bisimplicial(M, d):
        """Bisimplicial set (p, q) |-> tuples of length p in one monoid
        direction and q in the other; used as a small structured example."""
        nerve = nerve_of_monoid(M, d)
        L = nerve.levels
        faces = [[dict(zip(L[p], map(L[p - 1].__getitem__, table))) for table in nerve.faces[p]]
                 for p in range(d + 1)]
        degens = [[dict(zip(L[p], map(L[p + 1].__getitem__, table)))
                   for table in nerve.degeneracies[p]] for p in range(d + 1)]
        levels = [[[(x, y) for x in nerve.levels[p] for y in nerve.levels[q]]
                   for q in range(d + 1)] for p in range(d + 1)]
        h_faces = [[[{(x, y): (table[x], y) for (x, y) in levels[p][q]}
                     for table in faces[p]] for q in range(d + 1)]
                   for p in range(d + 1)]
        h_degens = [[[{(x, y): (table[x], y) for (x, y) in levels[p][q]}
                      for table in degens[p]] for q in range(d + 1)]
                    for p in range(d + 1)]
        v_faces = [[[{(x, y): (x, table[y]) for (x, y) in levels[p][q]}
                     for table in faces[q]] for q in range(d + 1)]
                   for p in range(d + 1)]
        v_degens = [[[{(x, y): (x, table[y]) for (x, y) in levels[p][q]}
                      for table in degens[q]] for q in range(d + 1)]
                    for p in range(d + 1)]
        return TruncatedBisimplicialSet(d, levels, h_faces, h_degens, v_faces, v_degens)

    def test_structure_checks(self):
        B = self.product_bisimplicial(cyclic(2), 2)
        assert B.check_structure().ok

    def test_diagonal_of_constant_point(self):
        levels = [[["*"] for _ in range(3)] for _ in range(3)]
        star = {"*": "*"}
        h_faces = [[[star] * (p + 1) if p else [] for _ in range(3)] for p in range(3)]
        h_degens = [[[star] * (p + 1) if p < 2 else [] for _ in range(3)] for p in range(3)]
        v_faces = [[[star] * (q + 1) if q else [] for q in range(3)] for _ in range(3)]
        v_degens = [[[star] * (q + 1) if q < 2 else [] for q in range(3)] for _ in range(3)]
        B = TruncatedBisimplicialSet(2, levels, h_faces, h_degens, v_faces, v_degens)
        D = diagonal(B)
        assert ss.validate(D).ok
        assert D.level_sizes() == [1, 1, 1]

    def test_diagonal_of_product_is_valid_and_sized(self):
        M = cyclic(2)
        B = self.product_bisimplicial(M, 2)
        D = diagonal(B)
        assert ss.validate(D).ok
        assert D.level_sizes() == [1, 4, 16]

    def test_diagonal_commutes_with_levelwise_maps(self):
        # inverting one factor is a levelwise bisimplicial map; restricting
        # it to the diagonal must again be simplicial and match pointwise
        Z3 = cyclic(3)
        B = self.product_bisimplicial(Z3, 2)
        D = diagonal(B)
        inv = Z3.inverse
        tables = [{(x, y): (tuple(inv[i] for i in x), y) for (x, y) in D.levels[p]}
                  for p in range(3)]
        f = map_from_label_maps(D, D, tables)
        assert f.check().ok
        for p in range(3):
            assert [D.levels[p][k] for k in f.tables[p]] == \
                [(tuple(inv[i] for i in x), y) for (x, y) in D.levels[p]]
