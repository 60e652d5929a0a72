import dataclasses
import functools
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from gammaspaces import algebra as alg
from gammaspaces import classifying as cb
from gammaspaces import homology as hm
from gammaspaces import presheaves as ps
from gammaspaces import simplicial as ss
from gammaspaces.errors import BudgetError, StrictnessError, TruncationError
from gammaspaces.homology import HomologyGroup, HomologyPresentation
from oracles import (TruncatedBisimplicialSet, bar_budget, bar_budget_counts,
                     bar_face_preimages, bar_resolution_homology, compose_maps, diagonal,
                     em_two_homology, map_from_label_maps, moore_complex, nerve_of_monoid,
                     snf_diagonal)

Z2 = alg.cyclic(2)
Z3 = alg.cyclic(3)
Z4 = alg.cyclic(4)
KLEIN = alg.klein_four()
ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
ACTION_FIXTURES = ["z2_inversion_on_z3", "z2_swap_on_klein", "z2_trivial_on_z2"]


def z3_with_unit(unit):
    """The order-3 group with element k standing for k - unit mod 3."""
    return alg.FinAbGroup((0, 1, 2), unit,
                          tuple(tuple((i + j - unit) % 3 for j in range(3)) for i in range(3)))


def relabelled(A, perm):
    """The group A with element i moved to index perm[i]."""
    table = [[0] * A.size for _ in range(A.size)]
    elements = [None] * A.size
    for i in range(A.size):
        elements[perm[i]] = A.elements[i]
        for j in range(A.size):
            table[perm[i]][perm[j]] = perm[A.table[i][j]]
    return alg.FinAbGroup(tuple(elements), perm[A.unit], tuple(map(tuple, table)))


class TestBar:
    def test_evaluation_at_zero_is_point(self):
        for M in (Z2, Z3, alg.max_monoid(2)):
            X = ps.build_gamma_set(M, 3)
            B = cb.bar(X, 0, 3)
            assert B.space.level_sizes() == [1, 1, 1, 1]
            assert ss.validate(B.space).ok

    def test_level_cardinalities(self):
        X = ps.build_gamma_set(Z3, 4)
        B = cb.bar(X, 1, 4)
        assert B.space.level_sizes() == [1, 3, 9, 27, 81]

    @pytest.mark.parametrize("M", [Z2, Z3, Z4, KLEIN, alg.max_monoid(2)],
                             ids=["Z2", "Z3", "Z4", "Klein", "max2"])
    def test_matches_hand_coded_nerve(self, M):
        X = ps.build_gamma_set(M, 4)
        B = cb.bar(X, 1, 4)
        nerve = nerve_of_monoid(M, 4)
        assert B.space.levels == nerve.levels
        assert B.space.faces == nerve.faces
        assert B.space.degeneracies == nerve.degeneracies

    def test_bar_validates(self):
        X = ps.build_gamma_set(Z2, 4)
        assert ss.validate(cb.bar(X, 2, 2).space).ok

    def test_truncation_guard(self):
        X = ps.build_gamma_set(Z2, 3)
        with pytest.raises(TruncationError) as err:
            cb.bar(X, 2, 2)
        assert err.value.required == 4

    def test_budget_guard(self):
        X = ps.build_gamma_set(Z4, 6)
        with pytest.raises(BudgetError):
            cb.bar(X, 1, 6, budget=100)

    def test_budget_counts_the_labels_of_one_element_levels(self):
        # levels of one simplex each, whose labels hold 0, 1, 8, 27 entries
        X = ps.build_gamma_set(alg.trivial_monoid(), 27)
        assert cb.iterate_bar(X, 3, 3, budget=36).space.level_sizes() == [1, 1, 1, 1]
        with pytest.raises(BudgetError, match="^predicted 36 label entries in one-element "
                                              "bar levels exceeds budget 35$"):
            cb.iterate_bar(X, 3, 3, budget=35)

    def test_budget_at_zero_is_refused_without_the_walk(self):
        # every level is the point, so 10**12 + 1 simplices are counted, not walked
        X = ps.build_gamma_set(Z2, 2)
        with pytest.raises(BudgetError, match="^predicted 1000000000001 simplices "
                                              "exceeds budget 10000000$"):
            cb.bar(X, 0, 10 ** 12)
        # 5 simplices, on which validate makes 69 identity checks
        assert cb._check_budget(Z2.size, 3, 4, 0, 69) == [0] * 5
        with pytest.raises(BudgetError, match="^predicted 69 identity checks on one-element "
                                              "bar levels exceeds budget 68$"):
            cb._check_budget(Z2.size, 3, 4, 0, 68)

    def test_bar_stores_its_level_objects(self):
        B = cb.iterate_bar(ps.build_gamma_set(Z2, 9), 2, 3)
        assert B.objects == [0, 1, 4, 9]
        assert B.space.level_sizes() == [2 ** m for m in B.objects]


class TestBudgetWalk:
    @pytest.mark.parametrize("name", ["trivial", "Z2", "Z3", "Z4"])
    def test_check_budget_agrees_with_the_level_by_level_oracle(self, name):
        size = {"trivial": 1, "Z2": 2, "Z3": 3, "Z4": 4}[name]
        level_size = functools.partial(pow, size)
        for k, d, n in itertools.product(range(1, 4), range(7), range(3)):
            _, entries, total, checks = bar_budget_counts(level_size, k, d, n)
            thresholds = {max(1, t + step) for t in (*entries, total, checks)
                          for step in (-1, 0, 1)}
            for budget in sorted(thresholds):
                try:
                    expected = bar_budget(level_size, k, d, n, budget)
                except BudgetError as exc:
                    with pytest.raises(BudgetError) as err:
                        cb._check_budget(size, k, d, n, budget)
                    assert str(err.value) == str(exc), (k, d, n, budget)
                else:
                    assert cb._check_budget(size, k, d, n, budget) == expected, (k, d, n, budget)

    def test_a_presheaf_with_no_monoid_has_no_bar(self):
        X = ps.build_gamma_set(Z2, 3)
        unsized = ps.TruncatedGammaSet(3, X.level, X.action_table)
        with pytest.raises(ValueError, match="built from a monoid or a G-monoid"):
            cb.iterate_bar(unsized, 1, 3)


class TestGActionOnBar:
    def test_identity_acts_as_identity(self):
        A = alg.inversion_action(Z3)
        B = cb.bar(ps.build_ggamma_set(A, 3), 1, 3)
        act = cb.g_action_on_bar(B, 0)
        assert act.check().ok
        assert act.tables == [list(range(len(level))) for level in B.space.levels]

    def test_inversion_acts_levelwise(self):
        A = alg.inversion_action(Z3)
        B = cb.bar(ps.build_ggamma_set(A, 3), 1, 3)
        act = cb.g_action_on_bar(B, 1)
        assert act.check().ok
        L = B.space.levels
        assert L[1][act.tables[1][L[1].index((1,))]] == (2,)
        assert L[2][act.tables[2][L[2].index((1, 2))]] == (2, 1)

    def test_involution_composes_to_identity(self):
        A = alg.swap_action()
        B = cb.bar(ps.build_ggamma_set(A, 2), 1, 2)
        act = cb.g_action_on_bar(B, 1)
        square = compose_maps(act, act)
        assert square.tables == [list(range(len(level))) for level in B.space.levels]

    @pytest.mark.parametrize("name", ACTION_FIXTURES)
    def test_tables_match_elementwise_action(self, name):
        # g acts on a p-simplex, a tuple of monoid elements, entry by entry
        A = alg.GMonoid.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        B = cb.bar(ps.build_ggamma_set(A, 3), 1, 3)
        for g in range(A.group.size):
            act = cb.g_action_on_bar(B, g)
            expected = map_from_label_maps(
                B.space, B.space,
                [{x: tuple(A.action[g][m] for m in x) for x in level} for level in B.space.levels])
            assert act.tables == expected.tables
            assert act.check().ok

    def test_assignment_is_group_homomorphism(self):
        A = alg.inversion_action(Z3)
        B = cb.bar(ps.build_ggamma_set(A, 3), 1, 3)
        acts = [cb.g_action_on_bar(B, g) for g in range(2)]
        for g in range(2):
            for h in range(2):
                composite = compose_maps(acts[g], acts[h])
                expected = acts[A.group.table[g][h]]
                assert composite.tables == expected.tables


class TestStructureMap:
    def test_plain_monoid_iso(self):
        X = ps.build_gamma_set(Z3, 3)
        result = cb.structure_map(cb.bar(X, 1, 3))
        assert result.iso.check().ok
        assert result.iso.is_levelwise_bijection()
        assert result.suspension_space.level_sizes() == result.one_skeleton.level_sizes()
        assert result.inclusion.check().ok

    def test_vertex_counts(self):
        X = ps.build_gamma_set(Z4, 2)
        result = cb.structure_map(cb.bar(X, 1, 2))
        assert result.suspension_space.level_sizes()[0] == 1
        assert result.one_skeleton.level_sizes()[0] == 1

    def test_nondegenerate_edges_biject_with_nonunit_elements(self):
        X = ps.build_gamma_set(KLEIN, 2)
        result = cb.structure_map(cb.bar(X, 1, 2))
        assert len(result.suspension_space.nondegenerate(1)) == 3
        assert len(result.one_skeleton.nondegenerate(1)) == 3

    def test_equivariant_for_inversion_fixture(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 3)
        result = cb.structure_map(cb.bar(X, 1, 3))
        assert result.iso.check().ok
        assert result.equivariant is True

    @staticmethod
    def edge(f):
        op = getattr(f, "f", f)
        return (op.source, op.target, tuple(op.values)) == (1, 2, (0, 1))

    @staticmethod
    def swap_loops(f, table):
        table[1], table[2] = table[2], table[1]
        return table

    @staticmethod
    def collide(f, table):
        table[2] = table[1]
        return table

    @staticmethod
    def off_skeleton(f, table):
        return table[:1] + [5 + k for k in range(len(table) - 1)]

    @staticmethod
    def tamper_after_bar(monkeypatch, X, applies, tamper):
        """Build the bar space of X, then replace the tables of X that
        `applies` selects by `tamper(f, table)`, so the bar still validates."""
        B = cb.bar(X, 1, 3)
        table = X.action_table
        monkeypatch.setattr(X, "action_table",
                            lambda f: tamper(f, list(table(f))) if applies(f) else table(f))
        return B

    @pytest.mark.parametrize("tamper, message", [
        ("swap_loops", "structure map is not simplicial: map commutes with faces at "
                       "(2, 1, ((1,), (0, 1, 1)))"),
        ("collide", "structure map not injective at level 2"),
        ("off_skeleton", "structure map not onto the 1-skeleton at level 2: "
                         "missing ['(1, 0)'], extra ['(1, 2)']"),
    ])
    def test_tampered_edges_name_the_failure(self, monkeypatch, tamper, message):
        X = ps.build_ggamma_set(alg.inversion_action(Z3), 3)
        B = self.tamper_after_bar(monkeypatch, X, self.edge, getattr(self, tamper))
        with pytest.raises(StrictnessError) as err:
            cb.structure_map(B)
        assert str(err.value) == message

    def test_equivariant_with_the_unit_listed_last(self):
        X = ps.build_ggamma_set(alg.inversion_action(z3_with_unit(2)), 3)
        assert cb.structure_map(cb.bar(X, 1, 3)).equivariant is True

    @pytest.mark.parametrize("unit", [0, 2])
    @pytest.mark.parametrize("wedge", [1, 2])
    def test_tampered_group_action_is_not_equivariant(self, monkeypatch, wedge, unit):
        # on level 1 every element goes to the unit; on level 2 a shuffle
        def applies(f):
            return getattr(f, "g", 0) == 1 and f.f.source == f.f.target == wedge

        def tamper(f, table):
            return [unit] * len(table) if wedge == 1 else sorted(table, key=lambda v: v * 7 % len(table))

        X = ps.build_ggamma_set(alg.inversion_action(z3_with_unit(unit)), 3)
        B = self.tamper_after_bar(monkeypatch, X, applies, tamper)
        assert cb.structure_map(B).equivariant is False

    def test_broken_level_zero_raises(self):
        Y = ps.build_gamma_set(Z2, 3)
        X = ps.TruncatedGammaSet(3, lambda n: [(0,), (1,)] if n == 0 else Y.level(n),
                                 Y.action_table)
        # the bar of X fails validation first, so the bar read is that of Y
        B = dataclasses.replace(cb.bar(Y, 1, 2), presheaf=X)
        with pytest.raises(StrictnessError, match="^level 0 has 2 elements"):
            cb.structure_map(B)

    def test_dimension_guard(self):
        X = ps.build_gamma_set(Z2, 3)
        with pytest.raises(TruncationError):
            cb.structure_map(cb.bar(X, 1, 1))

    @pytest.mark.parametrize("k, n", [(2, 1), (1, 0), (1, 2)])
    def test_needs_the_once_delooped_bar_at_one(self, k, n):
        X = ps.build_gamma_set(Z2, 8)
        with pytest.raises(ValueError, match="once-delooped bar at the 1-wedge"):
            cb.structure_map(cb.iterate_bar(X, k, 2, n=n))


class TestIterateBar:
    def test_once_is_bar(self):
        X = ps.build_gamma_set(Z2, 3)
        B1 = cb.iterate_bar(X, 1, 3)
        B = cb.bar(X, 1, 3)
        assert B1.space.levels == B.space.levels
        assert B1.space.faces == B.space.faces

    def test_twice_level_sizes(self):
        X = ps.build_gamma_set(Z2, 9)
        B2 = cb.iterate_bar(X, 2, 3)
        assert B2.space.level_sizes() == [1, 2, 16, 512]
        assert ss.validate(B2.space).ok

    def test_broken_face_table_raises_strictness_error(self):
        X = ps.build_gamma_set(Z2, 3)

        def broken(f):  # every face out of level 2 lands on the first simplex
            table = X.action_table(f)
            return [0] * len(table) if (f.source, f.target) == (2, 1) else table

        with pytest.raises(StrictnessError, match=r"failed validation: d_i s_j = id at"):
            cb.iterate_bar(ps.TruncatedGammaSet(3, X.level, broken, algebra=Z2), 1, 3)

    def test_witness_names_a_label_of_a_decoded_level(self):
        B = cb.iterate_bar(ps.build_gamma_set(Z2, 16), 2, 4)
        face = B.space.faces[4][0]  # out of bar level 4, presheaf level 16
        face[40000] = (face[40000] + 1) % len(B.space.levels[3])
        report = ss.validate(B.space)
        assert (report.violation, report.witness) == (
            "d_i d_j = d_{j-1} d_i", (4, 0, 1, (1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)))

    def test_levels_are_not_materialized(self):
        tracemalloc.start()
        try:
            ps.build_gamma_set(Z2, 16).level(16)  # 65,536 16-tuples, 11.6 MB as a list
            level_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cb.iterate_bar(ps.build_gamma_set(Z2, 16), 2, 4)  # 20.0 MB with listed levels
            bar_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert level_peak < 4096
        assert bar_peak < 12 * 2 ** 20

    def test_tables_share_their_position_objects(self):
        tracemalloc.start()
        try:
            B = cb.iterate_bar(ps.build_gamma_set(Z2, 16), 2, 4)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live < 3.5 * 2 ** 20  # 6.87 MB with an int object of its own per entry
        # level 3 holds 512 simplices
        assert all(len(set(map(id, table))) <= 512 for table in B.space.faces[4])

    def test_twice_at_zero_is_point(self):
        X = ps.build_gamma_set(Z2, 4)
        B = cb.iterate_bar(X, 2, 2, n=0)
        assert B.space.level_sizes() == [1, 1, 1]

    def test_matches_generic_bisimplicial_diagonal(self):
        # independent route: build the full bisimplicial square and take
        # its diagonal; must agree with the direct construction
        X = ps.build_gamma_set(Z2, 4)
        from gammaspaces import gammacat as gc

        d = 2
        levels = [[list(X.level(p * q)) for q in range(d + 1)] for p in range(d + 1)]

        def tab(op, p_src, q_src):
            table = X.action_table(op)
            src = levels[p_src][q_src]
            return table, src

        h_faces = []
        for p in range(d + 1):
            row = []
            for q in range(d + 1):
                maps = []
                if p >= 1:
                    for i in range(p + 1):
                        op = gc.smash_morphisms(gc.face_gamma_op(p, i), gc.identity(q))
                        table, src = tab(op, p, q)
                        tgt = levels[p - 1][q]
                        maps.append({x: tgt[table[j]] for j, x in enumerate(src)})
                row.append(maps)
            h_faces.append(row)
        h_degens = []
        for p in range(d + 1):
            row = []
            for q in range(d + 1):
                maps = []
                if p < d:
                    for i in range(p + 1):
                        op = gc.smash_morphisms(gc.degeneracy_gamma_op(p, i), gc.identity(q))
                        table, src = tab(op, p, q)
                        tgt = levels[p + 1][q]
                        maps.append({x: tgt[table[j]] for j, x in enumerate(src)})
                row.append(maps)
            h_degens.append(row)
        v_faces = []
        for p in range(d + 1):
            row = []
            for q in range(d + 1):
                maps = []
                if q >= 1:
                    for i in range(q + 1):
                        op = gc.smash_morphisms(gc.identity(p), gc.face_gamma_op(q, i))
                        table, src = tab(op, p, q)
                        tgt = levels[p][q - 1]
                        maps.append({x: tgt[table[j]] for j, x in enumerate(src)})
                row.append(maps)
            v_faces.append(row)
        v_degens = []
        for p in range(d + 1):
            row = []
            for q in range(d + 1):
                maps = []
                if q < d:
                    for i in range(q + 1):
                        op = gc.smash_morphisms(gc.identity(p), gc.degeneracy_gamma_op(q, i))
                        table, src = tab(op, p, q)
                        tgt = levels[p][q + 1]
                        maps.append({x: tgt[table[j]] for j, x in enumerate(src)})
                row.append(maps)
            v_degens.append(row)

        bis = TruncatedBisimplicialSet(d, levels, h_faces, h_degens, v_faces, v_degens)
        assert bis.check_structure().ok
        diag = diagonal(bis)
        direct = cb.iterate_bar(X, 2, 2)
        assert diag.levels == direct.space.levels
        assert diag.faces == direct.space.faces
        assert diag.degeneracies == direct.space.degeneracies

    def test_enforced_truncation(self):
        X = ps.build_gamma_set(Z2, 8)
        with pytest.raises(TruncationError) as err:
            cb.iterate_bar(X, 2, 3)
        assert err.value.required == 9


class TestDeloopingReports:
    @pytest.mark.parametrize("A,h1", [
        (Z2, HomologyGroup(0, (2,))),
        (Z3, HomologyGroup(0, (3,))),
        (Z4, HomologyGroup(0, (4,))),
        (KLEIN, HomologyGroup(0, (2, 2))),
    ], ids=["Z2", "Z3", "Z4", "Klein"])
    def test_first_delooping_h1(self, A, h1):
        X = ps.build_gamma_set(A, 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 2)
        assert report.homology[0] == HomologyGroup(1)
        assert report.homology[1] == h1
        assert report.homology[2] == bar_resolution_homology(A, 2)
        assert all(m is True for m in report.matches)

    def test_z3_h2_vanishes(self):
        X = ps.build_gamma_set(Z3, 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 2)
        assert report.homology[2] == HomologyGroup(0)

    def test_induced_inversion_action_on_h1(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 1)
        assert report.homology[1] == HomologyGroup(0, (3,))
        assert report.g_action_on_h["0"][1] == [[1]]
        assert report.g_action_on_h["1"][1] == [[2]]

    @pytest.mark.parametrize("name, d, h1_matrix", [("z2_inversion_on_z3", 4, ((2,),)),
                                                    ("z2_trivial_on_z2", 5, ((1,),))])
    def test_induced_maps_refuse_presentations_that_do_not_fit(self, name, d, h1_matrix):
        # on the trivial action every chain rank is 1, so only the degrees
        # tell P1 from P3 there; a Klein four nerve has 3 chains in degree 1
        A = alg.GMonoid.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        B = cb.bar(ps.build_ggamma_set(A, d), 1, d)
        C = hm.normalized_chain_complex(B.space)
        g = cb.g_action_on_bar(B, 1)
        P1, P3 = HomologyPresentation(C, 1), HomologyPresentation(C, 3)
        Q1 = HomologyPresentation(hm.normalized_chain_complex(nerve_of_monoid(KLEIN, 2)), 1)
        for source, target in ((P1, P3), (P3, P1), (P1, Q1), (Q1, P1)):
            with pytest.raises(ValueError) as refused:
                hm.induced_map_on_homology(g, source, target)
            assert str(refused.value) == (
                f"presentations of degrees {source.degree} and {target.degree} "
                f"do not fit the chains of f in degree {source.degree}")
        assert hm.induced_map_on_homology(g, P1, P1) == h1_matrix

    def test_induced_swap_action_on_h1(self):
        X = ps.build_ggamma_set(alg.swap_action(), 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 1)
        assert report.homology[1] == HomologyGroup(0, (2, 2))
        assert report.g_action_on_h["0"][1] == [[1, 0], [0, 1]]
        assert report.g_action_on_h["1"][1] == [[1, 0], [1, 1]]

    @pytest.mark.parametrize("name, k, d, top", [
        pytest.param(name, k, d, top, id=f"{name}-k{k}",
                     marks=[pytest.mark.slow] if (name, k) == ("z2_swap_on_klein", 2) else [])
        for name in ACTION_FIXTURES for k, d, top in [(1, 5, 4), (2, 3, 2)]])
    def test_the_action_on_homology_is_a_representation(self, name, k, d, top):
        # in every degree M(e) = I and M(g) M(h) = M(gh), row i of the
        # product reduced mod the order of target coordinate i (0: free)
        A = alg.GMonoid.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        report = cb.delooping_report(cb.iterate_bar(ps.build_ggamma_set(A, 16), k, d), top)
        M = [report.g_action_on_h[str(g)] for g in A.group.elements]
        for q, group in enumerate(report.homology):
            orders = group.torsion + (0,) * group.rank
            n = len(orders)
            assert M[0][q] == [[int(i == j) for j in range(n)] for i in range(n)]
            for g, h in itertools.product(range(A.group.size), repeat=2):
                product = [[sum(M[g][q][i][m] * M[h][q][m][j] for m in range(n))
                            for j in range(n)] for i in range(n)]
                assert [[x % t if t else x for x in row] for row, t in zip(product, orders)] \
                    == M[A.group.table[g][h]][q], (q, g, h)

    @pytest.mark.parametrize("algebra, built", [
        (KLEIN, 0), (alg.swap_action(), 3)], ids=["klein", "swap_on_klein"])
    def test_presentations_only_for_induced_maps(self, monkeypatch, algebra, built):
        # a plain report takes its groups from the cleared boundaries; only
        # a group action needs cycles, and its presentations give the groups
        presentations, eliminations = [], []
        monkeypatch.setattr(cb, "HomologyPresentation",
                            lambda C, q, budget: presentations.append(q) or
                            HomologyPresentation(C, q, budget))
        monkeypatch.setattr(cb, "homology_groups",
                            lambda C, top, budget: eliminations.append(top) or
                            hm.homology_groups(C, top, budget))
        build = ps.build_ggamma_set if built else ps.build_gamma_set
        report = cb.delooping_report(cb.bar(build(algebra, 3), 1, 3), 2)
        assert presentations == list(range(built))
        assert eliminations == ([] if built else [2])
        assert report.homology[1] == HomologyGroup(0, (2, 2))

    def test_monoid_report_has_no_oracle(self):
        X = ps.build_gamma_set(alg.max_monoid(2), 3)
        report = cb.delooping_report(cb.bar(X, 1, 3), 1)
        assert report.expected == [None, None]

    def test_truncation_guard(self):
        X = ps.build_gamma_set(Z2, 4)
        with pytest.raises(TruncationError):
            cb.delooping_report(cb.bar(X, 1, 2), 2)


class TestHurewicz:
    @pytest.mark.parametrize("name, k", [
        pytest.param(name, k, id=f"{name}-k{k}",
                     marks=[pytest.mark.slow] if (name, k) == ("z2_swap_on_klein", 2) else [])
        for name in ACTION_FIXTURES for k in (1, 2)])
    def test_g_action_on_h_follows_the_action_on_a(self, name, k):
        # H_k of the k-fold delooping is A through Hurewicz: a goes to the
        # class of its Moore cycle, the k-simplex whose faces all lie at the
        # basepoint.  g moves a to g.a, so M(g) h(a) = h(g.a), with h read
        # off single simplices rather than pushed chains
        A = alg.GMonoid.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        X = ps.build_ggamma_set(A, (k + 1) ** k)
        B = cb.iterate_bar(X, k, k + 1)
        S = B.space
        base = 0  # the level-0 point, degenerated up to level k - 1
        for p in range(k - 1):
            base = S.degeneracies[p][0][base]
        moore = [a for a in range(len(S.levels[k])) if all(t[a] == base for t in S.faces[k])]
        assert len(moore) == A.monoid.size
        row_of = {a: r for r, a in enumerate(S.nondegenerate_indices(k))}
        pres = HomologyPresentation(hm.normalized_chain_complex(S, k + 1), k)
        coordinates = pres.coordinates([{row_of[a]: 1} if a in row_of else {} for a in moore])
        h = dict(zip(moore, zip(*coordinates)))
        assert len(set(h.values())) == len(moore)
        report = cb.delooping_report(B, k)
        orders = pres.torsion + (0,) * len(pres.free_positions)
        for g, label in enumerate(A.group.elements):
            M = report.g_action_on_h[str(label)][k]
            act = X.action_table(X.group_action(B.objects[k], g))
            for a in moore:
                image = (sum(x * y for x, y in zip(row, h[a])) for row in M)
                assert tuple(x % t if t else x for x, t in zip(image, orders)) == h[act[a]], (g, a)


class TestDoldKan:
    # for a group A, bar level p at the 1-wedge is A^(p**k) with faces F_i
    # over A, so by Dold-Kan pi_q of the bar is H_q of the integer Moore
    # complex tensored with A; with that homology Z in degree k alone,
    # universal coefficients give pi_k = A and pi_q = 0 in every other degree
    @pytest.mark.parametrize("k, d", [(1, 14), (2, 12), (3, 8), (4, 6)])
    def test_the_integer_moore_complex_is_z_in_degree_k(self, k, d):
        groups = hm.homology_groups(moore_complex(k, d), d - 1)
        assert groups == [HomologyGroup(int(q == k)) for q in range(d)]

    @pytest.mark.parametrize("A, k, d", [(Z2, 2, 4), (Z3, 2, 3), (KLEIN, 1, 5)],
                             ids=["Z2-k2", "Z3-k2", "Klein-k1"])
    def test_bar_faces_are_the_preimage_matrices_over_a(self, A, k, d):
        space = cb.iterate_bar(ps.build_gamma_set(A, d ** k), k, d).space
        for p in range(1, d + 1):
            level, below = space.levels[p], space.levels[p - 1]
            assert len(level) == A.size ** p ** k
            for i, table in enumerate(space.faces[p]):
                preimages = bar_face_preimages(p, i, k)
                for s, x in enumerate(level):
                    image = []
                    for points in preimages:
                        total = A.unit
                        for c in points:
                            total = A.table[total][x[c]]
                        image.append(total)
                    assert below[table[s]] == tuple(image), (p, i, s)


class TestExpectedPattern:
    def test_cyclic_first_delooping(self):
        assert cb.expected_em_homology(Z3, 1, 0) == HomologyGroup(1)
        assert cb.expected_em_homology(Z3, 1, 1) == HomologyGroup(0, (3,))
        assert cb.expected_em_homology(Z3, 1, 2) == HomologyGroup(0)
        assert cb.expected_em_homology(Z3, 1, 3) == HomologyGroup(0, (3,))

    def test_klein_first_delooping(self):
        assert cb.expected_em_homology(KLEIN, 1, 1) == HomologyGroup(0, (2, 2))
        assert cb.expected_em_homology(KLEIN, 1, 2) == HomologyGroup(0, (2,))

    def test_second_delooping_pattern(self):
        assert cb.expected_em_homology(Z2, 2, 1) == HomologyGroup(0)
        assert cb.expected_em_homology(Z2, 2, 2) == HomologyGroup(0, (2,))
        assert cb.expected_em_homology(Z2, 2, 3) == HomologyGroup(0)
        assert cb.expected_em_homology(Z2, 2, 4) is None

    def test_a_monoid_that_is_not_a_group_is_refused(self):
        # the powers of a non-invertible element never meet the unit, so a
        # walk of element orders would not return: a child process bounds it
        monoids = [alg.max_monoid(2), *alg.enumerate_abelian_monoids(4)]
        script = ("import json\n"
                  "from gammaspaces import algebra as alg, classifying as cb\n"
                  "def values(M):\n"
                  "    try:\n"
                  "        return [[(h.rank, h.torsion) for h in (cb.expected_em_homology(M, k, q)\n"
                  "                 for q in range(5 - k))] for k in (1, 2)]\n"
                  "    except ValueError as exc:\n"
                  "        return str(exc)\n"
                  "print(json.dumps([values(M) for M in [alg.max_monoid(2),\n"
                  "                                      *alg.enumerate_abelian_monoids(4)]]))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        groups = 0
        for M, values in zip(monoids, json.loads(proc.stdout), strict=True):
            if M.is_group():
                groups += 1
                assert values == [[[h.rank, list(h.torsion)] for h in group]
                                  for group in ([bar_resolution_homology(M, q) for q in range(4)],
                                                [em_two_homology(M, q) for q in range(3)])]
            else:
                assert values == ("expected homology needs a group, "
                                  "not a monoid without inverses")
        assert groups == 2

    def test_cyclic_decomposition(self):
        assert cb._cyclic_decomposition(Z4) == [4]
        assert cb._cyclic_decomposition(KLEIN) == [2, 2]
        assert cb._cyclic_decomposition(alg.cyclic(6)) == [6]
        assert cb._cyclic_decomposition(alg.cyclic(1)) == []
        prod = alg.direct_product
        assert cb._cyclic_decomposition(prod(Z2, Z4)) == [2, 4]
        assert cb._cyclic_decomposition(prod(prod(Z2, Z2), Z2)) == [2, 2, 2]
        assert cb._cyclic_decomposition(prod(Z2, Z3)) == [6]
        assert cb._cyclic_decomposition(prod(Z3, Z3)) == [3, 3]
        assert cb._cyclic_decomposition(alg.cyclic(8)) == [8]

    def test_invariant_factors_agree_with_smith_form(self):
        # every abelian group of order up to 16, up to isomorphism, as built
        # and in two random relabellings that move the unit, where the
        # subgroup walk starts, off index 0
        rng = random.Random(16)
        c = alg.cyclic
        built = [c(n) for n in range(1, 17)] + [
            functools.reduce(alg.direct_product, map(c, orders)) for orders in (
                (2, 2), (2, 3), (2, 4), (4, 2), (2, 2, 2), (3, 3), (2, 3, 2), (2, 8), (4, 4),
                (2, 2, 4), (2, 2, 2, 2))]
        groups = []
        for A in built:
            groups.append(A)
            for _ in range(2 if A.size > 1 else 0):
                perm = list(range(A.size))
                while perm[A.unit] == 0:
                    rng.shuffle(perm)
                groups.append(relabelled(A, perm))
        for A in groups:
            relations = []  # e_a + e_b - e_ab, one column per element
            for a in range(A.size):
                for b in range(a, A.size):
                    row = [0] * A.size
                    row[a] += 1
                    row[b] += 1
                    row[A.table[a][b]] -= 1
                    relations.append(row)
            invariants = cb._cyclic_decomposition(A)
            assert invariants == [x for x in snf_diagonal(relations) if x > 1]
            for orders in (invariants, [0] + invariants[::-1], [6, 4, 0, 9][:A.size],
                           [1, 0] + invariants + [1], [1, 6, 0, 4, 1, 9, 0, 10, 1, 15][:A.size]):
                diag = snf_diagonal([[x if i == j else 0 for j in range(len(orders))]
                                     for i, x in enumerate(orders)]) if orders else []
                assert cb._canonical_group(orders) == HomologyGroup(
                    diag.count(0), tuple(x for x in diag if x > 1))


class TestSecondDelooping:
    def test_z2_second_delooping_homology(self):
        X = ps.build_gamma_set(Z2, 16)
        report = cb.delooping_report(cb.iterate_bar(X, 2, 4, budget=10 ** 7), 2)
        assert report.levels == [1, 2, 16, 512, 65536]
        assert report.homology[0] == HomologyGroup(1)
        assert report.homology[1] == HomologyGroup(0)
        assert report.homology[2] == HomologyGroup(0, (2,))
        assert report.matches[1] is True and report.matches[2] is True
        # independent oracle: the normalized-cocycle model of the same space
        assert em_two_homology(Z2, 1) == report.homology[1]
        assert em_two_homology(Z2, 2) == report.homology[2]
