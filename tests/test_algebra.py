import pytest

from gammaspaces import algebra as alg
from gammaspaces.errors import AxiomError, InputError


class TestGroups:
    def test_cyclic_checks(self):
        for n in range(1, 7):
            alg.cyclic_group(n).check()

    def test_identity_must_be_first(self):
        bad = alg.FiniteGroup((0, 1), ((1, 0), (0, 1)))
        with pytest.raises(AxiomError, match="identity"):
            bad.check()

    @pytest.mark.parametrize("entry", [5, -1], ids=["past_the_end", "negative"])
    def test_entry_out_of_range_is_named(self, entry):
        bad = alg.FiniteGroup((0, 1, 2), ((0, 1, 2), (1, entry, 0), (2, 0, 1)))
        with pytest.raises(AxiomError, match="table entry range") as info:
            bad.check()
        assert info.value.witness == entry

    def test_json_roundtrip(self):
        g = alg.cyclic_group(3)
        assert alg.FiniteGroup.from_json(g.to_json()) == g

    def test_json_roundtrip_string_labels(self):
        g = alg.FiniteGroup(("id", "flip"), ((0, 1), (1, 0)))
        data = g.to_json()
        assert data["table"] == [["id", "flip"], ["flip", "id"]]
        assert alg.FiniteGroup.from_json(data) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(InputError):
            alg.FiniteGroup.from_json({"elements": [0, 1]})

    def test_index_entries_rejected_with_clear_message(self):
        with pytest.raises(InputError, match="labels drawn from"):
            alg.FiniteGroup.from_json({"elements": ["id", "flip"],
                                       "table": [[0, 1], [1, 0]]})


class TestMonoids:
    def test_fixtures_check(self):
        for m in [alg.trivial_monoid(), alg.cyclic(2), alg.cyclic(4),
                  alg.klein_four(), alg.max_monoid(2)]:
            m.check()

    def test_max_monoid_not_group(self):
        assert not alg.max_monoid(2).is_group()
        assert alg.max_monoid(2).inverse_of(1) is None

    def test_cyclic_is_group(self):
        assert alg.cyclic(4).is_group()

    def test_nonassociative_rejected(self):
        table = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
        with pytest.raises(AxiomError, match="associativity"):
            alg.FinAbMonoid((0, 1, 2), 0, table).check()

    def test_noncommutative_rejected(self):
        table = ((0, 1), (0, 1))
        with pytest.raises(AxiomError):
            alg.FinAbMonoid((0, 1), 0, table).check()

    def test_group_inverse_table(self):
        g = alg.cyclic(4)
        assert g.inverse == (0, 3, 2, 1)

    def test_json_roundtrip(self):
        m = alg.max_monoid(2)
        again = alg.FinAbMonoid.from_json(m.to_json())
        assert again.index_table() == m.index_table()

    def test_product_of_groups_is_group(self):
        p = alg.direct_product(alg.cyclic(2), alg.cyclic(3))
        assert isinstance(p, alg.FinAbGroup)
        assert alg.monoid_isomorphic(p, alg.cyclic(6))


class TestGMonoids:
    def test_fixture_actions_check(self):
        alg.trivial_action(alg.cyclic(2), alg.cyclic_group(2)).check()
        alg.inversion_action(alg.cyclic(3)).check()
        alg.swap_action().check()

    def test_inversion_is_nontrivial(self):
        gm = alg.inversion_action(alg.cyclic(3))
        assert gm.action[1][1] == 2
        assert gm.action[1][gm.action[1][1]] == 1

    def test_non_automorphism_rejected(self):
        m = alg.cyclic(3)
        action = ((0, 1, 2), (0, 2, 1))
        gm = alg.GMonoid(m, alg.cyclic_group(2), action)
        gm.check()  # inversion written out by hand is fine
        bad = alg.GMonoid(alg.max_monoid(2), alg.cyclic_group(2), ((0, 1), (1, 0)))
        with pytest.raises(AxiomError):
            bad.check()

    def test_non_homomorphism_rejected(self):
        m = alg.klein_four()
        # order-2 group pretending to act by an order-4... there is none; instead
        # break the homomorphism by letting the nonidentity element act as swap
        # but the identity act as inversion-like permutation
        bad = alg.GMonoid(m, alg.cyclic_group(2), (tuple((0, 2, 1, 3)), tuple(range(4))))
        with pytest.raises(AxiomError, match="identity acts trivially"):
            bad.check()

    def test_json_roundtrip(self):
        gm = alg.inversion_action(alg.cyclic(3))
        again = alg.GMonoid.from_json(gm.to_json())
        assert again.action == gm.action
        assert again.monoid.index_table() == gm.monoid.index_table()


class TestEnumeration:
    def test_counts_small_orders(self):
        assert len(alg.enumerate_abelian_monoids(1)) == 1
        assert len(alg.enumerate_abelian_monoids(2)) == 2
        assert len(alg.enumerate_abelian_monoids(3)) == 5

    def test_all_enumerated_check(self):
        for order in range(1, 4):
            for m in alg.enumerate_abelian_monoids(order):
                m.check()

    def test_enumerated_pairwise_nonisomorphic(self):
        ms = alg.enumerate_abelian_monoids(3)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                assert not alg.monoid_isomorphic(ms[i], ms[j])

    def test_groups_up_to_order_four(self):
        assert len(alg.enumerate_abelian_groups(1)) == 1
        assert len(alg.enumerate_abelian_groups(2)) == 1
        assert len(alg.enumerate_abelian_groups(3)) == 1
        groups4 = alg.enumerate_abelian_groups(4)
        assert len(groups4) == 2
        assert any(alg.monoid_isomorphic(g, alg.cyclic(4)) for g in groups4)
        assert any(alg.monoid_isomorphic(g, alg.klein_four()) for g in groups4)
