import itertools
import random

import pytest
from hypothesis import given, strategies as st

from gammaspaces.errors import CompositionError, DisjointnessError
from gammaspaces import gammacat as gc
from oracles import (compose_delta, compose_gamma, delta_identity, edge_from_zero,
                     gamma_identity, to_power_set_form)


def gamma_op_maps(max_size=4):
    def build(draw_src, draw_tgt, tail):
        return gc.GammaOpMap(draw_src, draw_tgt, (0,) + tuple(tail))

    return st.integers(0, max_size).flatmap(
        lambda m: st.integers(0, max_size).flatmap(
            lambda n: st.lists(st.integers(0, n), min_size=m, max_size=m).map(
                lambda tail: build(m, n, tail))))


def delta_maps(max_size=4):
    def build(m, n, vals):
        return gc.DeltaMap(m, n, tuple(sorted(vals)))

    return st.integers(0, max_size).flatmap(
        lambda m: st.integers(0, max_size).flatmap(
            lambda n: st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1).map(
                lambda vals: build(m, n, vals))))


class TestGammaOpMap:
    def test_identity_composes_trivially(self):
        f = gc.GammaOpMap(2, 3, (0, 3, 1))
        assert gc.compose(gc.identity(3), f) == f
        assert gc.compose(f, gc.identity(2)) == f

    def test_projection_after_map_gives_zero(self):
        # 1 -> 2 sending 1 to 2, then the first projection 2 -> 1: kills everything
        f = gc.GammaOpMap(1, 2, (0, 2))
        proj = gc.segal_family(2)[0]
        assert gc.compose(proj, f) == gc.zero_map(1, 1)

    def test_mismatched_composition_raises(self):
        with pytest.raises(CompositionError):
            gc.compose(gc.identity(3), gc.identity(2))

    @pytest.mark.parametrize("m,n", list(itertools.product(range(4), repeat=2)))
    def test_hom_set_size(self, m, n):
        assert len(list(gc.enumerate_maps(m, n))) == (n + 1) ** m

    def test_basepoint_violation_rejected(self):
        with pytest.raises(ValueError):
            gc.GammaOpMap(1, 1, (1, 0))

    def test_key_roundtrip(self):
        for f in gc.enumerate_maps(2, 3):
            assert gc.GammaOpMap.from_key(f.key()) == f

    def test_associativity_exhaustive_small(self):
        maps = {(m, n): list(gc.enumerate_maps(m, n)) for m in range(4) for n in range(4)}
        for m, n, p, q in itertools.product(range(4), repeat=4):
            for f in maps[(m, n)]:
                for g in maps[(n, p)]:
                    for h in maps[(p, q)]:
                        assert gc.compose(gc.compose(h, g), f) == gc.compose(h, gc.compose(g, f))

    @given(gamma_op_maps())
    def test_identity_laws(self, f):
        assert gc.compose(gc.identity(f.target), f) == f
        assert gc.compose(f, gc.identity(f.source)) == f


class TestSegalAndBousfieldFamilies:
    def test_projection_tables(self):
        assert gc.segal_family(2)[0].values == (0, 1, 0)
        assert gc.segal_family(2)[1].values == (0, 0, 1)
        assert gc.segal_family(3)[1].values == (0, 0, 1, 0)

    def test_single_projection_is_identity(self):
        assert gc.segal_family(1) == [gc.identity(1)]

    def test_empty_family(self):
        assert gc.segal_family(0) == []
        assert gc.bousfield_family(0) == []

    def test_initial_segment_tables(self):
        fam = gc.bousfield_family(2)
        assert [f.values for f in fam] == [(0, 1, 0), (0, 1, 1)]

    def test_single_fold_is_identity(self):
        assert gc.bousfield_family(1) == [gc.identity(1)]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bousfield_family_agrees_with_interval_functor_route(self, n):
        # dual route: the k-th member must be the image of the k-1st edge from zero
        fam = gc.bousfield_family(n)
        for k in range(1, n + 1):
            via_delta = gc.from_power_set_form(gc.delta_to_gamma(edge_from_zero(n, k - 1)))
            assert fam[k - 1] == via_delta

    def test_fold_map_tables(self):
        assert gc.fold_map(2).values == (0, 1, 1)
        assert gc.fold_map(1) == gc.identity(1)

    def test_fold_map_permutation_invariant(self):
        fold3 = gc.fold_map(3)
        for perm in itertools.permutations([1, 2, 3]):
            sigma = gc.GammaOpMap(3, 3, (0,) + perm)
            assert gc.compose(fold3, sigma) == fold3


class TestPowerSetForm:
    def test_identity_has_singleton_images(self):
        theta = to_power_set_form(gc.identity(2))
        assert theta.images == (frozenset({1}), frozenset({2}))

    def test_projection_preimage(self):
        theta = to_power_set_form(gc.segal_family(2)[0])
        assert theta.source == 1 and theta.target == 2
        assert theta.image(1) == frozenset({1})

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            gc.GammaMap(2, 2, (frozenset({1, 2}), frozenset({2})))

    @pytest.mark.parametrize("m,n", list(itertools.product(range(4), repeat=2)))
    def test_mutually_inverse_exhaustive(self, m, n):
        seen = set()
        for f in gc.enumerate_maps(m, n):
            theta = to_power_set_form(f)
            assert gc.from_power_set_form(theta) == f
            seen.add(theta)
        # to_power_set_form is injective onto the disjoint-assignment set
        all_disjoint = _enumerate_disjoint_assignments(n, m)
        assert seen == all_disjoint


def _enumerate_disjoint_assignments(src, tgt):
    """All power-set maps src -> tgt with disjoint images: each element of
    {1..tgt} is claimed by at most one of the src slots."""
    result = set()
    for owner in itertools.product(range(src + 1), repeat=tgt):
        images = tuple(frozenset(j + 1 for j in range(tgt) if owner[j] == i + 1)
                       for i in range(src))
        result.add(gc.GammaMap(src, tgt, images))
    return result


class TestDeltaToGamma:
    def test_identity_to_identity(self):
        for n in range(5):
            assert gc.delta_to_gamma(delta_identity(n)) == gamma_identity(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_edges_map_to_projections(self, n):
        # the k-th projection comes from the k-1st edge: index shift between
        # the 0-based edge family and the 1-based projection family
        for k in range(1, n + 1):
            img = gc.delta_to_gamma(gc.edge(n, k - 1))
            assert gc.from_power_set_form(img) == gc.segal_family(n)[k - 1]

    def test_edge_from_zero_interval(self):
        theta = gc.delta_to_gamma(edge_from_zero(2, 1))
        assert theta.image(1) == frozenset({1, 2})

    @given(st.data())
    def test_preserves_composition(self, data):
        f = data.draw(delta_maps())
        tail = data.draw(st.lists(st.integers(0, 4), min_size=f.target + 1, max_size=f.target + 1))
        g = gc.DeltaMap(f.target, 4, tuple(sorted(tail)))
        lhs = gc.delta_to_gamma(compose_delta(g, f))
        rhs = compose_gamma(gc.delta_to_gamma(g), gc.delta_to_gamma(f))
        assert lhs == rhs

    def test_contravariant_against_pointed_form(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            f = gc.DeltaMap(m, n, tuple(sorted(rng.randint(0, n) for _ in range(m + 1))))
            g = gc.DeltaMap(n, p, tuple(sorted(rng.randint(0, p) for _ in range(n + 1))))
            lhs = gc.from_power_set_form(gc.delta_to_gamma(compose_delta(g, f)))
            rhs = gc.compose(gc.from_power_set_form(gc.delta_to_gamma(f)),
                             gc.from_power_set_form(gc.delta_to_gamma(g)))
            assert lhs == rhs


class TestSmash:
    def test_no_factors_is_identity_of_one(self):
        assert gc.smash_morphisms() == gc.identity(1)

    @given(gamma_op_maps())
    def test_one_factor_is_itself(self, f):
        assert gc.smash_morphisms(f) == f

    def test_identity_smash(self):
        assert gc.smash_morphisms(gc.identity(2), gc.identity(3)) == gc.identity(6)

    @given(gamma_op_maps(3), gamma_op_maps(3), gamma_op_maps(3))
    def test_three_factors_nest(self, f, g, h):
        smash = gc.smash_morphisms(f, g, h)
        assert smash == gc.smash_morphisms(gc.smash_morphisms(f, g), h)
        assert smash == gc.smash_morphisms(f, gc.smash_morphisms(g, h))

    def test_pairs_row_major_first_factor_slowest(self):
        # the element (i, j) of the smash of 2 and 3 sits at (i - 1) * 3 + j
        f = gc.GammaOpMap(2, 2, (0, 2, 0))
        g = gc.GammaOpMap(3, 3, (0, 3, 1, 2))
        assert gc.smash_morphisms(f, g).values == (0, 6, 4, 5, 0, 0, 0)

    @given(st.data())
    def test_functorial(self, data):
        maps = []
        for _ in range(2):
            f1 = data.draw(gamma_op_maps(3))
            tail = data.draw(st.lists(st.integers(0, 3), min_size=f1.target, max_size=f1.target))
            f2 = gc.GammaOpMap(f1.target, 3, (0,) + tuple(tail))
            maps.append((f1, f2))
        (f1, f2), (g1, g2) = maps
        lhs = gc.smash_morphisms(gc.compose(f2, f1), gc.compose(g2, g1))
        rhs = gc.compose(gc.smash_morphisms(f2, g2), gc.smash_morphisms(f1, g1))
        assert lhs == rhs

    def test_smash_power_unfolds(self):
        # the bar's k-fold smash of a face map with the identity of the n-wedge
        f = gc.GammaOpMap(2, 1, (0, 1, 0))
        assert gc.smash_morphisms(*[f] * 2, gc.identity(3)) == \
            gc.smash_morphisms(gc.smash_morphisms(f, f), gc.identity(3))
        assert gc.smash_morphisms(*[f] * 2, gc.identity(1)).values == (0, 1, 0, 0, 0)


class TestSimplicialOperatorImages:
    def test_face_images_against_hand_tables(self):
        # interval functor on the three cofaces of [2]
        assert gc.face_gamma_op(2, 0).values == (0, 0, 1)
        assert gc.face_gamma_op(2, 1).values == (0, 1, 1)
        assert gc.face_gamma_op(2, 2).values == (0, 1, 0)

    def test_degeneracy_images_against_hand_tables(self):
        assert gc.degeneracy_gamma_op(1, 0).values == (0, 2)
        assert gc.degeneracy_gamma_op(2, 0).values == (0, 2, 3)
        assert gc.degeneracy_gamma_op(2, 1).values == (0, 1, 3)

    def test_cosimplicial_identity_transfers(self):
        # coface relation delta^j delta^i = delta^i delta^{j+1} (i <= j) lands in
        # the pointed-map presentation contravariantly
        for p in range(2, 5):
            for i in range(p):
                for j in range(i, p):
                    lhs = compose_delta(gc.coface(p, i), gc.coface(p - 1, j))
                    rhs = compose_delta(gc.coface(p, j + 1), gc.coface(p - 1, i))
                    assert lhs == rhs
                    assert (gc.compose(gc.from_power_set_form(gc.delta_to_gamma(gc.coface(p - 1, j))),
                                       gc.from_power_set_form(gc.delta_to_gamma(gc.coface(p, i))))
                            == gc.from_power_set_form(gc.delta_to_gamma(rhs)))
