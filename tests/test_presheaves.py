import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gammaspaces import algebra as alg
from gammaspaces import gammacat as gc
from gammaspaces import ggamma as gg
from gammaspaces import presheaves as ps
from gammaspaces.errors import InputError, StrictnessError, TruncationError
from gammaspaces.simplicial import composite
from oracles import strict_check, summed_preimage_table

Z2 = alg.cyclic(2)
Z3 = alg.cyclic(3)
Z4 = alg.cyclic(4)
KLEIN = alg.klein_four()
MAX2 = alg.max_monoid(2)
UNIT_LAST = alg.FinAbGroup((0, 1), 1, ((1, 0), (0, 1)))  # Z/2 whose unit is element 1
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
        assert [X.level(1)[k] for k in X.action_table(gc.fold_map(2))] == \
            [((a + b) % 3,) for (a, b) in X.level(2)]

    def test_projection_acts_by_selection(self):
        X = ps.build_gamma_set(Z3, 2)
        proj1 = gc.segal_family(2)[0]
        assert [X.level(1)[k] for k in X.action_table(proj1)] == [(a,) for (a, b) in X.level(2)]

    def test_functoriality_random_pairs(self):
        X = ps.build_gamma_set(Z3, 3)
        rng = random.Random(17)
        maps = {(m, n): list(gc.enumerate_maps(m, n)) for m in range(4) for n in range(4)}
        for _ in range(200):
            m, n, p = (rng.randint(0, 3) for _ in range(3))
            f = rng.choice(maps[(m, n)])
            g = rng.choice(maps[(n, p)])
            assert X.action_table(gc.compose(g, f)) == \
                composite(X.action_table(g), X.action_table(f))

    def test_identity_acts_trivially(self):
        X = ps.build_gamma_set(Z4, 2)
        for n in range(3):
            assert X.action_table(gc.identity(n)) == list(range(X.level_size(n)))

    @pytest.mark.parametrize("build, algebra", [
        (ps.build_gamma_set, Z2), (ps.build_ggamma_set, alg.inversion_action(Z3))],
        ids=["gamma", "ggamma"])
    @pytest.mark.parametrize("N", [0, -1])
    def test_level_bound_must_be_at_least_one(self, build, algebra, N):
        with pytest.raises(ValueError, match="^level bound must be at least 1$"):
            build(algebra, N)

    def test_truncation_errors(self):
        X = ps.build_gamma_set(Z2, 2)
        with pytest.raises(TruncationError):
            X.level(3)
        with pytest.raises(TruncationError):
            X.action_table(gc.fold_map(3))


class TestTupleLevel:
    """A monoid-built level is decoded on demand and reads as the list of
    tuples it stands for."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 6))
    def test_reads_as_the_list_of_tuples(self, size, n):
        level = ps.TupleLevel(size, n)
        expected = list(itertools.product(range(size), repeat=n))
        assert list(level) == expected
        assert len(level) == len(expected)
        assert [level[k] for k in range(-len(expected), len(expected))] == expected + expected
        for k in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                level[k]
        assert level == expected and expected == level
        assert level != expected[:-1] and expected[:-1] != level

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 6), st.data())
    def test_slices_as_a_list(self, size, n, data):
        level = ps.TupleLevel(size, n)
        expected = list(itertools.product(range(size), repeat=n))
        bound = st.none() | st.integers(-len(expected) - 2, len(expected) + 2)
        step = st.none() | st.integers(-5, 5).filter(bool)
        cut = slice(data.draw(bound), data.draw(bound), data.draw(step))
        assert level[cut] == expected[cut]

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            ps.build_gamma_set(Z2, 3).level(-1)


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


def random_map(rng, m: int) -> gc.GammaOpMap:
    n = rng.randint(1, m)
    return gc.GammaOpMap(m, n, (0, *(rng.randint(0, n) for _ in range(m))))


def bar_smash_maps(op, p: int):
    """The maps behind the tables of op out of level p of a twice-delooped bar."""
    return [gc.smash_morphisms(op(p, i), op(p, i), gc.identity(1)) for i in range(p + 1)]


class TestBlockTables:
    """Tables over more than ps._BLOCK_TUPLES entries are outer sums of
    block tables; they must match the per-element oracle."""

    @pytest.mark.parametrize("m", range(9, 17))
    def test_random_z2_maps(self, m):
        rng = random.Random(m)
        for M in (Z2, UNIT_LAST):  # the all-unit tuple of UNIT_LAST is not position 0
            for f in (random_map(rng, m), random_map(rng, m)):
                assert ps.build_gamma_set(M, m).action_table(f) == \
                    summed_preimage_table(M, range(2), f)

    @pytest.mark.parametrize("m", range(5, 9))
    def test_random_klein_maps_with_identity_and_relabelling_rows(self, m):
        rng, A = random.Random(m), alg.swap_action()
        for f in (random_map(rng, m), random_map(rng, m)):
            assert ps.build_gamma_set(KLEIN, m).action_table(f) == \
                summed_preimage_table(KLEIN, range(4), f)
            for g in range(A.group.size):
                assert ps.build_ggamma_set(A, m).action_table(gg.GGammaMap(f, g, A.group)) == \
                    summed_preimage_table(KLEIN, A.action[g], f)

    @pytest.mark.parametrize("M, m, n", [(Z2, 14, 8), (Z2, 14, 9), (UNIT_LAST, 14, 9),
                                         (KLEIN, 7, 4), (KLEIN, 7, 5)],
                             ids=["z2_256", "z2_512", "unit_last_512", "klein_256", "klein_1024"])
    def test_monotone_maps_around_the_shared_positions(self, M, m, n):
        # a monotone map's fibres are intervals, so its table is laid out in
        # blocks; past 256 target positions the block images are read out of
        # one list of positions, except that steps below 0 (UNIT_LAST) add
        rng = random.Random(m * n)
        for _ in range(3):
            f = gc.GammaOpMap(m, n, (0, *sorted(rng.randint(0, n) for _ in range(m))))
            assert len(ps._fibre_closed_blocks(f.values, M.size)) > 1
            table = ps.build_gamma_set(M, m).action_table(f)
            assert table == summed_preimage_table(M, range(M.size), f)
            if M.unit == 0:
                assert len(set(map(id, table))) <= M.size ** n

    def test_one_block_tables_share_their_positions(self):
        # the last block's walk is read through the list of positions too,
        # so a table holds one int object per position, one block or many
        rng = random.Random(14)
        X = ps.build_gamma_set(Z2, 14)
        for _ in range(20):
            f = gc.GammaOpMap(14, 9, (0, *(rng.randint(0, 9) for _ in range(14))))
            table = X.action_table(f)
            assert table == summed_preimage_table(Z2, range(2), f)
            assert len(set(map(id, table))) <= 512

    def test_one_element_monoid_needs_no_walk(self, monkeypatch):
        walks = []
        monkeypatch.setattr(ps, "_digit_walk", lambda *args: walks.append(args) or [])
        X, rng = ps.build_gamma_set(alg.trivial_monoid(), 20), random.Random(1)
        for f in [random_map(rng, 20) for _ in range(5)] + bar_smash_maps(gc.face_gamma_op, 4):
            assert X.action_table(f) == [0] == summed_preimage_table(alg.trivial_monoid(), [0], f)
        assert walks == []

    def test_bar_faces_out_of_level_four(self):
        X = ps.build_gamma_set(Z2, 16)
        for f in bar_smash_maps(gc.face_gamma_op, 4):
            assert X.action_table(f) == summed_preimage_table(Z2, range(2), f)

    def test_bar_degeneracies_out_of_level_four(self):
        # an outer and an inner one; level 25 is never listed
        X = ps.build_gamma_set(Z2, 25)
        for f in [bar_smash_maps(gc.degeneracy_gamma_op, 4)[i] for i in (0, 2)]:
            assert X.action_table(f) == summed_preimage_table(Z2, range(2), f)

    @pytest.mark.parametrize("m", range(5, 17))
    def test_blocks_start_at_the_first_closed_position_that_fits(self, m):
        rng, most = random.Random(m), ps._BLOCK_TUPLES
        for s in (2, 4):
            maps = [random_map(rng, m) for _ in range(20)]
            if s == 2:
                maps += bar_smash_maps(gc.face_gamma_op, 4)
            for f in maps:
                v = f.values
                # c is closed when no fibre met by positions 1..c has a position after c
                closed = [0] + [c for c in range(1, f.source + 1)
                                if not {j for j in v[1:c + 1] if j} & set(v[c + 1:])]
                blocks = ps._fibre_closed_blocks(v, s)
                assert [j for block in blocks for j in block] == list(v[1:])
                if s ** f.source <= most:
                    assert len(blocks) == 1
                    continue
                ends = list(itertools.accumulate(map(len, blocks)))
                for start, end in zip([0] + ends, ends):
                    assert start in closed
                    assert s ** (end - start) <= most or start == max(c for c in closed if c < end)
                    earlier = [c for c in closed if c < start]
                    assert not earlier or s ** (end - earlier[-1]) > most


class TestBuildGGammaSet:
    def test_group_element_acts_on_level_one(self):
        A = alg.inversion_action(Z3)
        X = ps.build_ggamma_set(A, 2)
        act = gg.group_action_map(1, 1, A.group)
        assert [X.level(1)[k] for k in X.action_table(act)] == [(0,), (2,), (1,)]

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
            assert X.action_table(gg.compose(b, a)) == \
                composite(X.action_table(b), X.action_table(a))


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
        codes = ps._assembled_codes(X, 2, "bousfield")
        assert codes == [3 * a + (a + b) % 3 for (a, b) in X.level(2)]
        assert sorted(codes) == list(range(9))

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


def corrupted_file(rng: random.Random):
    """The presheaf file of a random monoid of order 1 to 4 at 2 to 4
    levels, with one to three defects at random levels n >= 2: a table
    entry moved to a random level-1 element, an element dropped, or an
    element added that copies the entries of another."""
    M = rng.choice(MONOIDS)
    N = rng.randint(2, 4)
    data = json.loads(json.dumps(ps.presheaf_to_json(ps.build_gamma_set(M, N))))
    for extra in range(rng.randint(1, 3)):
        n = rng.randint(2, N)
        level = data["levels"][n]
        tables = [table for key, table in data["maps"].items()
                  if gc.GammaOpMap.from_key(key).source == n]
        defect = rng.choice(["entry", "drop", "add"])
        if defect == "entry" and level:
            table = rng.choice(tables)
            table[rng.randrange(len(table))] = rng.randrange(M.size)
        elif defect == "drop" and level:
            p = rng.randrange(len(level))
            del level[p]
            for table in tables:
                del table[p]
        else:
            p = rng.randrange(len(level)) if level else None
            level.append([M.size + extra] * n)  # a label that no tuple over M is
            for table in tables:
                table.append(rng.randrange(M.size) if p is None else table[p])
    return M, data


class TestStrictOracle:
    def test_checks_agree_with_the_tuple_oracle_on_corrupted_files(self):
        witnessed = collections.defaultdict(set)
        for seed in range(400):
            M, data = corrupted_file(random.Random(seed))
            X = ps.presheaf_from_json(data)
            for upto in range(X.N + 1):
                for kind, check in (("segal", ps.check_strict_segal),
                                    ("bousfield", ps.check_strict_bousfield)):
                    report = check(X, upto).as_dict()
                    assert report == strict_check(X, upto, kind), (seed, upto, kind)
                    witnessed[M.size].add((report["witness"] or "passed").split(" at ")[0])
        for size in range(1, 5):
            assert {"not injective", "not surjective"} <= witnessed[size], size


class TestFamilyReads:
    def test_each_family_is_read_once_per_level(self, monkeypatch):
        N = 40
        X = ps.build_gamma_set(alg.trivial_monoid(), N)
        reads = collections.Counter()
        for name in ("segal_family", "bousfield_family"):
            def counted(n, family=getattr(gc, name), name=name):
                reads[name, n] += 1
                return family(n)
            monkeypatch.setattr(gc, name, counted)
        runs = [(lambda: ps.presheaf_to_json(X)["N"] == N,
                 ("segal_family", "bousfield_family")),
                (lambda: ps.check_strict_segal(X, N).passed, ("segal_family",)),
                (lambda: ps.check_strict_bousfield(X, N).passed, ("bousfield_family",))]
        for run, names in runs:
            reads.clear()
            assert run()
            assert reads == {(name, n): 1 for name in names for n in range(2, N + 1)}


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
        assert err.value.report.kind == "segal"
        assert str(err.value) == ("presheaf is not strict up to level 2 (witness: not "
                                  "surjective at n=2: 3 elements cover 4 tuples)")

    def test_truncation_refusal(self):
        X = ps.build_gamma_set(Z2, 1)
        with pytest.raises(TruncationError) as err:
            ps.extract_monoid(X)
        assert (str(err.value), err.value.required) == ("extraction needs levels up to 2", 2)

    @pytest.mark.parametrize("extract", [ps.extract_g_monoid, ps.extract_g_group_bousfield])
    def test_equivariant_truncation_refusal(self, extract):
        with pytest.raises(TruncationError, match="^extraction needs levels up to 2$"):
            extract(ps.build_ggamma_set(alg.inversion_action(Z3), 1))


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

    def test_truncation_refusal(self):
        with pytest.raises(TruncationError) as err:
            ps.extract_group_bousfield(ps.build_gamma_set(Z2, 1))
        assert (str(err.value), err.value.required) == ("extraction needs levels up to 2", 2)

    def test_non_group_refused(self):
        X = ps.build_gamma_set(MAX2, 2)
        with pytest.raises(StrictnessError) as err:
            ps.extract_group_bousfield(X)
        assert err.value.report.kind == "bousfield"
        assert str(err.value) == ("presheaf is not strictly Bousfield up to level 2 (witness: "
                                  "not injective at n=2: (1, 0) and (1, 1) share image (1, 1))")


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
            Y.action_table(gc.zero_map(3, 3))

    def test_string_and_nested_labels_are_frozen(self):
        levels = [["*"], ["a", ["b", ["c"]]], [[0, 1], [1, 0]], [[0, "x"], [[1], 2]]]
        X = ps.presheaf_from_json({"kind": "gamma", "N": 3, "levels": levels, "maps": {}})
        assert X.level(0) == ["*"]
        assert X.level(1) == ["a", ("b", ("c",))]
        assert X.level(2) == [(0, 1), (1, 0)]
        assert X.level(3) == [(0, "x"), ((1,), 2)]
        assert X.level(1).index(("b", ("c",))) == 1
        assert X.level(3).index(((1,), 2)) == 1

    def test_negative_level_bound_rejected(self):
        with pytest.raises(InputError, match="N must be nonnegative"):
            ps.presheaf_from_json({"kind": "gamma", "N": -1, "levels": [], "maps": {}})

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
