import itertools
import random

import pytest

from gammaspaces import gammacat as gc
from gammaspaces import ggamma as gg
from gammaspaces.algebra import cyclic_group, trivial_group
from gammaspaces.errors import CompositionError
from oracles import wedge_action_table, wedge_apply, wedge_object

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)


class TestWedgeObject:
    def test_z2_wedge_elements(self):
        w = wedge_object(2, Z2)
        assert set(w.elements) == {0, (1, 0), (2, 0), (1, 1), (2, 1)}

    def test_trivial_group_recovers_ordinal(self):
        w = wedge_object(3, trivial_group())
        assert w.size == 4

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("gsize", [1, 2, 3, 6])
    def test_cardinality(self, n, gsize):
        w = wedge_object(n, cyclic_group(gsize))
        assert w.size == n * gsize + 1
        assert len(w.elements) == w.size


class TestGGammaMap:
    def test_group_action_relabels(self):
        act = gg.group_action_map(2, 1, Z2)
        assert wedge_apply(act, (1, 0)) == (1, 1)
        assert wedge_apply(act, (2, 1)) == (2, 0)
        assert wedge_apply(act, 0) == 0

    def test_pair_composition_rule(self):
        f1 = gc.GammaOpMap(2, 2, (0, 2, 1))
        f2 = gc.GammaOpMap(2, 1, (0, 1, 0))
        a = gg.GGammaMap(f1, 1, Z3)
        b = gg.GGammaMap(f2, 2, Z3)
        c = gg.compose(b, a)
        assert c.f == gc.compose(f2, f1)
        assert c.g == 0  # 2 + 1 mod 3

    def test_generators_commute(self):
        for n in range(4):
            for group in [Z2, Z3]:
                for f in gc.enumerate_maps(n, n):
                    for g in range(group.size):
                        lhs = gg.compose(gg.diag_inclusion(f, group), gg.group_action_map(n, g, group))
                        rhs = gg.compose(gg.group_action_map(n, g, group), gg.diag_inclusion(f, group))
                        assert wedge_action_table(lhs) == wedge_action_table(rhs)
                        assert lhs == rhs

    def test_key_roundtrip(self):
        for a in gg.enumerate_ggamma_maps(2, 3, Z3):
            assert gg.GGammaMap.from_key(a.key(), Z3) == a

    def test_zero_map_normalization(self):
        zero = gc.zero_map(2, 2)
        for g in range(2):
            m = gg.GGammaMap(zero, g, Z2)
            assert m.g == 0
            assert wedge_action_table(m) == wedge_action_table(gg.GGammaMap(zero, 0, Z2))

    def test_mismatch_raises(self):
        with pytest.raises(CompositionError, match="^cannot compose 2->2 after 3->3$"):
            gg.compose(gg.group_action_map(2, 0, Z2), gg.group_action_map(3, 0, Z2))
        with pytest.raises(CompositionError, match="^cannot compose 2->2 after 3->1$"):
            gg.compose(gg.group_action_map(2, 0, Z2), gg.GGammaMap(gc.zero_map(3, 1), 1, Z2))
        with pytest.raises(CompositionError, match="^morphisms over different groups$"):
            gg.compose(gg.group_action_map(2, 0, Z2), gg.group_action_map(2, 0, Z3))

    def test_pair_presentation_faithful(self):
        # exhaustive for source, target <= 2 over the order-2 group
        for m, n in itertools.product(range(3), repeat=2):
            maps = list(gg.enumerate_ggamma_maps(m, n, Z2))
            tables = [wedge_action_table(a) for a in maps]
            for i in range(len(maps)):
                for j in range(len(maps)):
                    assert (maps[i] == maps[j]) == (tables[i] == tables[j])

    @pytest.mark.parametrize("group", [Z2, Z3], ids=["Z2", "Z3"])
    def test_associativity_and_units_exhaustive(self, group):
        sizes = range(3)
        maps = {(m, n): list(gg.enumerate_ggamma_maps(m, n, group))
                for m in sizes for n in sizes}
        for m, n in itertools.product(sizes, repeat=2):
            for a in maps[(m, n)]:
                assert gg.compose(gg.group_action_map(n, 0, group), a) == a
                assert gg.compose(a, gg.group_action_map(m, 0, group)) == a
        for m, n, p, q in itertools.product(sizes, repeat=4):
            for a in maps[(m, n)]:
                for b in maps[(n, p)]:
                    for c in maps[(p, q)]:
                        assert gg.compose(gg.compose(c, b), a) == gg.compose(c, gg.compose(b, a))

    def test_associativity_randomized_beyond(self):
        rng = random.Random(11)
        maps = {(m, n): list(gg.enumerate_ggamma_maps(m, n, Z3))
                for m in range(4) for n in range(4)}
        for _ in range(400):
            m, n, p, q = (rng.randint(0, 3) for _ in range(4))
            a = rng.choice(maps[(m, n)])
            b = rng.choice(maps[(n, p)])
            c = rng.choice(maps[(p, q)])
            assert gg.compose(gg.compose(c, b), a) == gg.compose(c, gg.compose(b, a))

    def test_pair_equals_pointwise_composite(self):
        # composing the concrete functions agrees with the pair rule
        rng = random.Random(23)
        for _ in range(200):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            a = rng.choice(list(gg.enumerate_ggamma_maps(m, n, Z3)))
            b = rng.choice(list(gg.enumerate_ggamma_maps(n, p, Z3)))
            composite = gg.compose(b, a)
            src = wedge_object(m, Z3).elements
            assert ([wedge_apply(composite, x) for x in src]
                    == [wedge_apply(b, wedge_apply(a, x)) for x in src])


class TestGroupHomomorphismIntoAutomorphisms:
    def test_action_maps_compose_by_group_table(self):
        for group in [Z2, Z3]:
            for g, h in itertools.product(range(group.size), repeat=2):
                lhs = gg.compose(gg.group_action_map(3, g, group), gg.group_action_map(3, h, group))
                rhs = gg.group_action_map(3, group.table[g][h], group)
                assert lhs == rhs

    def test_identity_acts_as_identity(self):
        assert gg.group_action_map(3, 0, Z3) == gg.diag_inclusion(gc.identity(3), Z3)


class TestProjectionAndInclusion:
    def test_projection_formula(self):
        p = gg.diag_inclusion(gc.segal_family(2)[0], Z2)
        assert wedge_apply(p, (1, 0)) == (1, 0)
        assert wedge_apply(p, (1, 1)) == (1, 1)
        assert wedge_apply(p, (2, 0)) == 0
        assert wedge_apply(p, (2, 1)) == 0

    def test_projection_on_singleton_is_identity(self):
        assert gg.diag_inclusion(gc.segal_family(1)[0], Z3) == gg.group_action_map(1, 0, Z3)

    def test_inclusion_is_functor(self):
        assert gg.diag_inclusion(gc.identity(3), Z2) == gg.group_action_map(3, 0, Z2)
        rng = random.Random(5)
        for _ in range(100):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            f = rng.choice(list(gc.enumerate_maps(m, n)))
            g = rng.choice(list(gc.enumerate_maps(n, p)))
            assert (gg.diag_inclusion(gc.compose(g, f), Z2)
                    == gg.compose(gg.diag_inclusion(g, Z2), gg.diag_inclusion(f, Z2)))

    def test_inclusion_realizes_fold(self):
        incl = gg.diag_inclusion(gc.fold_map(2), Z2)
        for g in range(2):
            assert wedge_apply(incl, (1, g)) == (1, g)
            assert wedge_apply(incl, (2, g)) == (1, g)

    def test_inclusion_sends_projections_to_projections(self):
        # position i of every summand is kept, with its group label
        for n in range(1, 4):
            for i in range(1, n + 1):
                p = gg.diag_inclusion(gc.segal_family(n)[i - 1], Z2)
                assert all(wedge_apply(p, (k, g)) == ((1, g) if k == i else 0)
                           for k in range(1, n + 1) for g in range(2))
