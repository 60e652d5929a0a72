import random

import pytest
from hypothesis import given, settings, strategies as st

from gammaspaces import algebra as alg
from gammaspaces import gammacat as gc
from gammaspaces import ggamma as gg
from gammaspaces import presheaves as ps
from gammaspaces.errors import InputError, StrictnessError, TruncationError
from oracles import summed_preimage_table

Z2 = alg.cyclic(2)
Z3 = alg.cyclic(3)
Z4 = alg.cyclic(4)
KLEIN = alg.klein_four()
MAX2 = alg.max_monoid(2)
MONOIDS = [M for order in range(1, 5) for M in alg.enumerate_abelian_monoids(order)]
ACTIONS = [alg.trivial_action(Z2, alg.cyclic_group(2)), alg.inversion_action(Z3),
           alg.swap_action()]


@st.composite
def gamma_op_maps(draw, max_size=4):
    """A pointed map between ordinals of size at most max_size."""
    m, n = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    tail = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return gc.GammaOpMap(m, n, (0, *tail))


def short_level_two():
    """The presheaf of Z/2 truncated at 2 with its last level cut to three
    elements, actions restricted to match."""
    Y = ps.build_gamma_set(Z2, 2)
    return ps.TruncatedGammaSet(
        2, lambda n: Y.level(n)[:3] if n == 2 else Y.level(n),
        lambda f: Y.action_table(f)[:3] if f.source == 2 else Y.action_table(f))


class TestBuildGammaSet:
    def test_level_sizes(self):
        X = ps.build_gamma_set(Z2, 3)
        assert [X.level_size(n) for n in range(4)] == [1, 2, 4, 8]

    def test_fold_acts_by_addition(self):
        X = ps.build_gamma_set(Z3, 2)
        for a in range(3):
            for b in range(3):
                assert X.act(gc.fold_map(2), (a, b)) == ((a + b) % 3,)

    def test_projection_acts_by_selection(self):
        X = ps.build_gamma_set(Z3, 2)
        proj1 = gc.segal_family(2)[0]
        assert X.act(proj1, (1, 2)) == (1,)

    def test_functoriality_random_pairs(self):
        X = ps.build_gamma_set(Z3, 3)
        rng = random.Random(17)
        maps = {(m, n): list(gc.enumerate_maps(m, n)) for m in range(4) for n in range(4)}
        for _ in range(200):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            f = rng.choice(maps[(m, n)])
            g = rng.choice(maps[(n, p)])
            for x in X.level(m):
                assert X.act(gc.compose(g, f), x) == X.act(g, X.act(f, x))

    def test_identity_acts_trivially(self):
        X = ps.build_gamma_set(Z4, 2)
        for n in range(3):
            for x in X.level(n):
                assert X.act(gc.identity(n), x) == x

    def test_truncation_errors(self):
        X = ps.build_gamma_set(Z2, 2)
        with pytest.raises(TruncationError):
            X.level(3)
        with pytest.raises(TruncationError):
            X.act(gc.fold_map(3), (0, 0, 0))


class TestActionTables:
    """Mixed-radix tables against the per-element sum-of-preimages oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(MONOIDS), gamma_op_maps())
    def test_gamma_tables_match_oracle(self, M, f):
        X = ps.build_gamma_set(M, 4)
        assert X.action_table(f) == summed_preimage_table(M, range(M.size), f)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ACTIONS), gamma_op_maps(), st.data())
    def test_ggamma_tables_match_oracle(self, A, f, data):
        a = gg.GGammaMap(f, data.draw(st.integers(0, A.group.size - 1)), A.group)
        X = ps.build_ggamma_set(A, 4)
        assert X.action_table(a) == summed_preimage_table(A.monoid, A.action[a.g], f)


class TestBuildGGammaSet:
    def test_group_element_acts_on_level_one(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 2)
        act = gg.group_action_map(1, 1, A.group)
        assert X.act(act, (1,)) == (2,)
        assert X.act(act, (0,)) == (0,)

    def test_trivial_group_matches_plain_build(self):
        A = alg.trivial_action(Z3)
        X = ps.build_ggamma_set(A, 3)
        Y = ps.build_gamma_set(Z3, 3)
        for n in range(4):
            assert X.level(n) == Y.level(n)
        for f in gc.enumerate_maps(2, 3):
            via_g = X.action_table(gg.diag_inclusion(f, A.group))
            assert via_g == Y.action_table(f)

    def test_functoriality_random_pairs(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 3)
        rng = random.Random(29)
        maps = {(m, n): list(gg.enumerate_ggamma_maps(m, n, A.group))
                for m in range(4) for n in range(4)}
        for _ in range(200):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            a = rng.choice(maps[(m, n)])
            b = rng.choice(maps[(n, p)])
            for x in X.level(m):
                assert X.act(gg.compose(b, a), x) == X.act(b, X.act(a, x))


class TestStrictSegal:
    def test_monoid_builds_pass(self):
        for M in (Z2, Z3, Z4, KLEIN, MAX2):
            X = ps.build_gamma_set(M, 4)
            assert ps.check_strict_segal(X, 4).passed

    def test_upto_one_passes_trivially(self):
        X = ps.build_gamma_set(Z2, 1)
        assert ps.check_strict_segal(X, 1).passed

    def test_wrong_level_size_fails_at_two(self):
        X = short_level_two()
        report = ps.check_strict_segal(X, 2)
        assert not report.passed
        assert report.failed_at == 2
        assert "surjective" in report.witness

    def test_collision_reported_with_witness(self):
        M = MAX2
        X = ps.build_gamma_set(M, 2)
        report = ps.check_strict_bousfield(X, 2)
        assert not report.passed
        assert report.failed_at == 2
        assert "(1, 0)" in report.witness and "(1, 1)" in report.witness

    def test_non_pointed_fails(self):
        X = ps.TruncatedGammaSet(2, lambda n: [(0,)] * 2 if n == 0 else [], lambda f: [])
        report = ps.check_strict_segal(X, 2)
        assert not report.passed
        assert report.failed_at == 0


class TestStrictBousfield:
    def test_group_builds_pass(self):
        for A in (Z2, Z3, Z4, KLEIN):
            X = ps.build_gamma_set(A, 3)
            assert ps.check_strict_bousfield(X, 3).passed

    def test_partial_sums_bijective_for_groups(self):
        X = ps.build_gamma_set(Z3, 2)
        images = ps._assembled_map(X, 2, "bousfield")
        assert images == [(a, (a + b) % 3) for (a, b) in X.level(2)]
        assert len(set(images)) == 9

    def test_non_group_monoid_fails(self):
        X = ps.build_gamma_set(MAX2, 2)
        assert not ps.check_strict_bousfield(X, 2).passed

    def test_upto_one_passes(self):
        X = ps.build_gamma_set(MAX2, 1)
        assert ps.check_strict_bousfield(X, 1).passed

    def test_pass_iff_group_over_enumeration(self):
        for order in range(1, 5):
            for M in alg.enumerate_abelian_monoids(order):
                X = ps.build_gamma_set(M, 2)
                assert ps.check_strict_segal(X, 2).passed
                assert ps.check_strict_bousfield(X, 2).passed == M.is_group()


class TestExtractMonoid:
    @pytest.mark.parametrize("M", [Z2, Z4, KLEIN, MAX2, alg.trivial_monoid()],
                             ids=["Z2", "Z4", "Klein", "max2", "trivial"])
    def test_roundtrip_identity_on_tables(self, M):
        X = ps.build_gamma_set(M, 3)
        out = ps.extract_monoid(X)
        assert out.index_table() == M.index_table()
        assert out.elements == tuple((i,) for i in range(M.size))

    def test_extracted_table_is_commutative(self):
        out = ps.extract_monoid(ps.build_gamma_set(Z4, 2))
        for i in range(out.size):
            for j in range(out.size):
                assert out.table[i][j] == out.table[j][i]

    def test_refusal_carries_report(self):
        X = short_level_two()
        with pytest.raises(StrictnessError) as err:
            ps.extract_monoid(X)
        assert err.value.report is not None
        assert not err.value.report.passed

    def test_truncation_refusal(self):
        X = ps.build_gamma_set(Z2, 1)
        with pytest.raises(TruncationError):
            ps.extract_monoid(X)


class TestExtractGMonoid:
    @pytest.mark.parametrize("A", [alg.trivial_action(Z2, alg.cyclic_group(2)),
                                   alg.inversion_action(Z3),
                                   alg.swap_action()],
                             ids=["trivial-on-Z2", "inversion-on-Z3", "swap-on-Klein"])
    def test_roundtrip(self, A):
        X = ps.build_ggamma_set(A, 3)
        out = ps.extract_g_monoid(X)
        assert out.monoid.index_table() == A.monoid.index_table()
        assert out.action == A.action
        assert out.group == A.group

    def test_extracted_action_is_automorphic(self):
        A = alg.inversion_action(Z3)
        out = ps.extract_g_monoid(ps.build_ggamma_set(A, 2))
        out.check()


class TestExtractGroupBousfield:
    def test_difference_operation_on_z3(self):
        X = ps.build_gamma_set(Z3, 2)
        d, size = ps._difference_operation(X)
        for x in range(3):
            for y in range(3):
                assert d(x, y) == (y - x) % 3
        assert len({d(a, a) for a in range(3)}) == 1

    @pytest.mark.parametrize("A", [alg.cyclic(1), Z2, Z3, Z4, KLEIN],
                             ids=["trivial", "Z2", "Z3", "Z4", "Klein"])
    def test_roundtrip(self, A):
        X = ps.build_gamma_set(A, 3)
        out = ps.extract_group_bousfield(X)
        assert out.index_table() == A.index_table()

    def test_equivariant_roundtrip(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 3)
        out = ps.extract_g_group_bousfield(X)
        assert out.monoid.index_table() == A.monoid.index_table()
        assert out.action == A.action

    def test_non_group_refused(self):
        X = ps.build_gamma_set(MAX2, 2)
        with pytest.raises(StrictnessError):
            ps.extract_group_bousfield(X)


class TestPresheafFiles:
    def test_json_roundtrip_gamma(self):
        X = ps.build_gamma_set(Z3, 3)
        data = ps.presheaf_to_json(X)
        Y = ps.presheaf_from_json(data)
        assert Y.N == 3
        assert ps.check_strict_segal(Y, 3).passed
        assert ps.extract_monoid(Y).index_table() == Z3.index_table()

    def test_json_roundtrip_ggamma(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 2)
        data = ps.presheaf_to_json(X)
        Y = ps.presheaf_from_json(data)
        out = ps.extract_g_monoid(Y)
        assert out.action == A.action

    def test_digests_are_stable(self):
        X = ps.build_gamma_set(Z2, 2)
        d1 = ps.presheaf_to_json(X)["digests"]
        d2 = ps.presheaf_to_json(ps.build_gamma_set(Z2, 2))["digests"]
        assert d1 == d2

    def test_corrupted_table_fails_checker(self):
        X = ps.build_gamma_set(Z2, 2)
        data = ps.presheaf_to_json(X)
        key = gc.segal_family(2)[0].key()
        data["maps"][key] = [0] * len(data["maps"][key])
        Y = ps.presheaf_from_json(data)
        report = ps.check_strict_segal(Y, 2)
        assert not report.passed
        with pytest.raises(StrictnessError):
            ps.extract_monoid(Y)

    def test_malformed_file_rejected(self):
        with pytest.raises(InputError):
            ps.presheaf_from_json({"kind": "gamma", "N": 2, "levels": [[0]], "maps": {}})
        X = ps.build_gamma_set(Z2, 2)
        data = ps.presheaf_to_json(X)
        data["maps"]["2>1:0,1,0"] = [9, 9, 9, 9]
        with pytest.raises(InputError):
            ps.presheaf_from_json(data)

    def test_unstored_morphism_rejected_on_use(self):
        X = ps.build_gamma_set(Z2, 3)
        Y = ps.presheaf_from_json(ps.presheaf_to_json(X))
        with pytest.raises(InputError):
            Y.act(gc.zero_map(3, 3), (0, 0, 0))

    def test_string_and_nested_labels_are_frozen(self):
        levels = [["*"], ["a", ["b", ["c"]]], [[0, 1], [1, 0]], [[0, "x"], [[1], 2]]]
        X = ps.presheaf_from_json({"kind": "gamma", "N": 3, "levels": levels, "maps": {}})
        assert X.level(0) == ["*"]
        assert X.level(1) == ["a", ("b", ("c",))]
        assert X.level(2) == [(0, 1), (1, 0)]
        assert X.level(3) == [(0, "x"), ((1,), 2)]
        assert X.index(1, ("b", ("c",))) == 1
        assert X.index(3, ((1,), 2)) == 1

    @pytest.mark.parametrize("N", ["3", 3.0, True])
    def test_level_bound_must_be_a_json_integer(self, N):
        data = ps.presheaf_to_json(ps.build_gamma_set(Z2, 3))
        data["N"] = N
        with pytest.raises(InputError, match="N must be a JSON integer"):
            ps.presheaf_from_json(data)

    def test_non_injective_file_reports_first_collision(self):
        # the expected reports are those of the per-element walk they replace
        data = ps.presheaf_to_json(ps.build_gamma_set(MAX2, 3))
        report = ps.check_strict_bousfield(ps.presheaf_from_json(data), 3)
        assert report.as_dict() == {
            "kind": "bousfield", "passed": False, "upto": 3, "failed_at": 2,
            "witness": "not injective at n=2: (1, 0) and (1, 1) share image (1, 1)"}
        data = ps.presheaf_to_json(ps.build_gamma_set(Z3, 3))
        table = data["maps"]["3>1:0,0,0,1"] = list(data["maps"]["3>1:0,0,0,1"])
        table[14] = table[13]
        report = ps.check_strict_segal(ps.presheaf_from_json(data), 3)
        assert (report.failed_at, report.witness) == (
            3, "not injective at n=3: (1, 1, 1) and (1, 1, 2) share image (1, 1, 1)")
