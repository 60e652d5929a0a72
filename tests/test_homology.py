import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gammaspaces import homology as hm
from gammaspaces import simplicial as ss
from gammaspaces.algebra import cyclic, klein_four, max_monoid
from gammaspaces.errors import BudgetError, TruncationError
from oracles import (bar_resolution_boundaries, bar_resolution_homology, chain_complex,
                     compose_maps, constant_map_to_point, determinantal_homology,
                     determinantal_invariants, em_two_cocycle_space, full_chain_complex,
                     identity_map, map_from_label_maps, nerve_of_monoid, presentation_group,
                     snf_diagonal, verify_snf)

int_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


class TestSmithNormalForm:
    def test_zero_matrix(self):
        d, u, v = hm.smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert u == hm.eye(2) and v == hm.eye(2)

    def test_identity(self):
        d, u, v = hm.smith_normal_form(hm.eye(3))
        assert d == hm.eye(3)

    def test_worked_example(self):
        d, u, v = hm.smith_normal_form([[2, 4], [6, 8]])
        assert [d[0][0], d[1][1]] == [2, 4]
        assert verify_snf([[2, 4], [6, 8]], d, u, v)

    def test_divisibility_forced(self):
        a = [[2, 0], [0, 3]]
        d, u, v = hm.smith_normal_form(a)
        assert [d[0][0], d[1][1]] == [1, 6]
        assert verify_snf(a, d, u, v)

    @settings(max_examples=150)
    @given(int_matrices)
    def test_certificate_random(self, a):
        d, u, v = hm.smith_normal_form(a)
        assert verify_snf(a, d, u, v)

    def test_deterministic(self):
        rng = random.Random(3)
        a = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(4)]
        first = hm.smith_normal_form(a)
        again = hm.smith_normal_form(a)
        assert first == again

    def test_rectangular_shapes(self):
        for a in ([[1, 2, 3]], [[1], [2], [3]], [[0, 0, 4]]):
            d, u, v = hm.smith_normal_form(a)
            assert verify_snf(a, d, u, v)

    @settings(max_examples=150)
    @given(int_matrices)
    def test_tracked_inverses_are_exact(self, a):
        d, u, u_inv, v, v_inv = hm.smith_normal_form(a, ("u", "u_inv", "v", "v_inv"))
        assert (d, u, v) == hm.smith_normal_form(a)
        assert hm.mat_mul(u, u_inv) == hm.eye(len(a))
        assert hm.mat_mul(v_inv, v) == hm.eye(len(a[0]))
        # the transforms kept change nothing else, and come back in the order named
        assert hm.smith_normal_form(a, ("v_inv", "u_inv")) == (d, v_inv, u_inv)
        assert hm.smith_normal_form(a, ()) == (d,)

    def test_tracked_inverses_of_pinned_matrices(self):
        for a in pinned_matrices():
            d, u, u_inv, v, v_inv = hm.smith_normal_form(a, ("u", "u_inv", "v", "v_inv"))
            assert hm.mat_mul(u_inv, u) == hm.eye(len(a))
            assert hm.mat_mul(v, v_inv) == hm.eye(len(a[0]))

    def test_outputs_pinned(self):
        # (D, U, V) of 200 seeded matrices, 19 of which need a divisibility fold
        outputs = [hm.smith_normal_form(a) for a in pinned_matrices()]
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        assert digest == "994184263114c4c7e9e8685d34ae03bf708b5ae367317143255d30d6c44c54c3"

    def test_inverse_outputs_pinned(self):
        # (U^-1, V^-1) of the same matrices, recorded from the dense elimination
        outputs = [hm.smith_normal_form(a, ("u_inv", "v_inv"))[1:] for a in pinned_matrices()]
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        assert digest == "3b21c6f14ee6abe6834a033d74daf826f1f799cc6da5c2bc52bf66a2a1861989"


def pinned_matrices():
    """Entries in -3..3 (every other one without units), shapes up to 7 x 7,
    after six small matrices whose diagonals need folding, such as diag(2, 3)."""
    rng = random.Random(9)
    mats = [[[2, 0], [0, 3]], [[4, 6], [6, 4]], [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
            [[6, 0], [0, 4]], [[0, 2], [3, 0]], [[2, 0], [0, 3], [0, 0]]]
    for k in range(200 - len(mats)):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        values = (-3, -2, -1, 0, 1, 2, 3) if k % 2 else (0, 0, 2, -2, 3, -3)
        mats.append([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
    return mats


class TestExactSolve:
    @settings(max_examples=80)
    @given(int_matrices, st.integers(1, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=15))
    def test_solve_consistent_systems(self, a, k, entries):
        cols = len(a[0])
        x0 = [[entries[(i * k + j) % len(entries)] for j in range(k)] for i in range(cols)]
        rhs = hm.mat_mul(a, x0)
        assert hm.mat_mul(a, hm.solve_exact(a, rhs)) == rhs

    def test_unsolvable_raises(self):
        with pytest.raises(ValueError):
            hm.solve_exact([[2]], [[1]])
        with pytest.raises(ValueError):  # one bad column among good ones
            hm.solve_exact([[2, 0], [0, 1]], [[2, 1], [5, 5]])

    def test_invert_unimodular(self):
        u = [[1, 2], [0, 1]]
        assert hm.invert_unimodular(u) == [[1, -2], [0, 1]]
        with pytest.raises(ValueError):
            hm.invert_unimodular([[2, 0], [0, 1]])
        rng = random.Random(5)
        for n in range(1, 6):
            u = hm.eye(n)
            for _ in range(3 * n):  # random product of elementary matrices
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    u[i] = [-x for x in u[i]]
                else:
                    q = rng.randint(-3, 3)
                    u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            assert hm.mat_mul(u, hm.invert_unimodular(u)) == hm.eye(n)


class TestChainComplexes:
    def test_point_ranks(self):
        C = hm.normalized_chain_complex(ss.point(3))
        assert C.ranks == [1, 0, 0, 0]

    def test_nerve_z2_ranks(self):
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(2), 2))
        assert C.ranks == [1, 1, 1]

    def test_circle_boundary_is_zero(self):
        circle = ss.suspension([0, 1], 0, 2)
        C = hm.normalized_chain_complex(circle)
        assert C.boundary(1) == [[0]]

    def test_boundary_composite_vanishes(self):
        for M in (cyclic(3), klein_four(), max_monoid(2)):
            C = hm.normalized_chain_complex(nerve_of_monoid(M, 3))
            for p in range(2, C.top + 1):
                prod = hm.mat_mul(C.boundary(p - 1), C.boundary(p))
                assert not any(any(row) for row in prod)

    def test_json_export(self):
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(2), 2))
        assert C.ranks == [1, 1, 1]
        # the doubling map: both outer faces of the nondegenerate 2-simplex
        # hit the generator, the inner face lands on the degenerate unit
        assert C.boundary(2) == [[2]]
        assert C.boundary(1) == [[0]]


class TestHomology:
    def test_point(self):
        C = hm.normalized_chain_complex(ss.point(3))
        assert presentation_group(C, 0) == hm.HomologyGroup(1)
        assert presentation_group(C, 1) == hm.HomologyGroup(0)

    def test_circle(self):
        C = hm.normalized_chain_complex(ss.suspension([0, 1], 0, 2))
        assert presentation_group(C, 0) == hm.HomologyGroup(1)
        assert presentation_group(C, 1) == hm.HomologyGroup(1)

    def test_wedge_of_two_circles(self):
        C = hm.normalized_chain_complex(ss.suspension([0, 1, 2], 0, 2))
        assert presentation_group(C, 1) == hm.HomologyGroup(2)

    def test_nerve_z3_h1(self):
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(3), 3))
        assert presentation_group(C, 1) == hm.HomologyGroup(0, (3,))

    def test_insufficient_truncation(self):
        C = hm.normalized_chain_complex(ss.point(2))
        with pytest.raises(TruncationError, match="insufficient|needs"):
            hm.HomologyPresentation(C, 2).group()
        with pytest.raises(TruncationError, match="needs boundaries up to degree 3"):
            hm.homology_groups(C, 2)

    def test_agrees_with_bar_resolution_oracle(self):
        for M, q, expected in [
            (cyclic(2), 1, hm.HomologyGroup(0, (2,))),
            (cyclic(3), 1, hm.HomologyGroup(0, (3,))),
            (cyclic(4), 2, hm.HomologyGroup(0)),
            (klein_four(), 2, hm.HomologyGroup(0, (2,))),
        ]:
            assert bar_resolution_homology(M, q) == expected
            C = hm.normalized_chain_complex(nerve_of_monoid(M, q + 1))
            assert presentation_group(C, q) == expected

    def test_zero_rank_below_degree(self):
        # the boundary out of degree 2 has no rows, so every 2-chain is a cycle
        X = em_two_cocycle_space(cyclic(2), 3)
        C = hm.normalized_chain_complex(X)
        assert C.ranks == [1, 0, 1, 4]
        assert presentation_group(C, 2) == hm.HomologyGroup(0, (2,))
        assert hm.induced_map_on_homology(identity_map(X), 2).matrix == ((1,),)

    def test_normalized_vs_full_agreement(self):
        fixtures = [ss.point(2), ss.suspension([0, 1], 0, 2), nerve_of_monoid(cyclic(2), 2)]
        for X in fixtures:
            Cn = hm.normalized_chain_complex(X)
            Cf = full_chain_complex(X)
            for p in range(X.d):
                assert presentation_group(Cn, p) == presentation_group(Cf, p)


entries = st.integers(-3, 3)
unitless = st.sampled_from([0, 2, -2, 3, -3, 6])


def shaped_matrices(values, most=6):
    """(column count, matrix) pairs, 0 x n and n x 0 included."""
    return st.integers(0, most).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.lists(values, min_size=c, max_size=c),
                                                 max_size=most)))


@st.composite
def split_complexes(draw):
    """Up to five chain groups of rank at most 4.  Each boundary sends
    distinct basis vectors to multiples of distinct ones, from
    {+-1, 2, 3, 4, 6}, and the complex is then seen in random integer
    bases: a change of basis E on degree p is E @ d_(p+1) and d_p @ E^-1."""
    ranks = draw(st.lists(st.integers(0, 4), min_size=3, max_size=5))
    boundaries = [None] + [[[0] * ranks[p] for _ in range(ranks[p - 1])]
                           for p in range(1, len(ranks))]
    sources = 0  # basis vectors of degree p - 1 that d_(p-1) does not kill
    for p in range(1, len(ranks)):
        sources = draw(st.integers(0, min(ranks[p], ranks[p - 1] - sources)))
        for i in range(sources):
            boundaries[p][ranks[p - 1] - 1 - i][i] = draw(st.sampled_from([1, -1, 2, 3, 4, 6]))
    for p, n in enumerate(ranks):
        if n < 2:
            continue
        ops = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(-2, 2))
        for i, step, q in draw(st.lists(ops, max_size=6)):
            j = (i + step) % n  # basis vector i += q * basis vector j
            if p + 1 < len(ranks):
                d = boundaries[p + 1]
                d[i] = [x + q * y for x, y in zip(d[i], d[j])]
            for row in boundaries[p] if p else ():
                row[j] -= q * row[i]
    return chain_complex(ranks, boundaries)


def dense_invariants(a):
    diag = snf_diagonal(a)
    return sum(1 for x in diag if x), tuple(x for x in diag if x > 1)


def cokernel(a, invariants):
    """Z^(rows - rank) plus the torsion, from (rank, torsion)."""
    rank, torsion = invariants
    return hm.HomologyGroup(len(a) - rank, torsion)


def h0(cols, a):
    """H_0 of the complex whose one boundary is a, with cols columns."""
    return hm.homology_groups(chain_complex([len(a), cols], [None, a]), 0)[0]


class TestSparseElimination:
    @settings(max_examples=200)
    @given(shaped_matrices(entries))
    def test_agrees_with_smith_diagonal(self, shaped):
        cols, a = shaped
        assert h0(cols, a) == cokernel(a, dense_invariants(a))

    @settings(max_examples=100)
    @given(shaped_matrices(unitless))
    def test_agrees_without_unit_entries(self, shaped):
        cols, a = shaped
        assert h0(cols, a) == cokernel(a, dense_invariants(a))

    @pytest.mark.parametrize("values", [entries, unitless], ids=["entries", "unitless"])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_agrees_with_determinantal_divisors(self, values, data):
        cols, a = data.draw(shaped_matrices(values, most=4))
        factors = determinantal_invariants(a)
        assert h0(cols, a) == cokernel(a, (len(factors), tuple(x for x in factors if x > 1)))

    @settings(max_examples=100)
    @given(shaped_matrices(entries, most=4), st.integers(0, 4), st.integers(0, 4))
    def test_zero_rows_and_columns_change_nothing(self, shaped, i, j):
        cols, a = shaped
        padded = [row[:j] + [0] + row[j:] for row in a]
        padded.insert(min(i, len(padded)), [0] * (cols + 1))
        expected = dense_invariants(a)
        assert dense_invariants(padded) == expected
        assert h0(cols + 1, padded) == cokernel(padded, expected)

    def test_empty_shapes(self):
        assert h0(0, []) == hm.HomologyGroup(0)
        assert h0(3, []) == hm.HomologyGroup(0)
        assert h0(0, [[], [], []]) == hm.HomologyGroup(3)

    def test_residual_needs_the_divisibility_chain(self):
        # no unit entry: the Smith form turns diag(2, 3) into diag(1, 6)
        assert h0(2, [[2, 0], [0, 3]]) == hm.HomologyGroup(0, (6,))
        assert h0(2, [[4, 6], [6, 4]]) == hm.HomologyGroup(0, (2, 10))

    def test_groups_agree_with_presentations(self):
        spaces = [ss.point(3), ss.suspension([0, 1, 2], 0, 3), em_two_cocycle_space(cyclic(2), 3)]
        spaces += [nerve_of_monoid(M, 4) for M in (cyclic(2), cyclic(4), klein_four(), max_monoid(2))]
        for X in spaces:
            for C in (hm.normalized_chain_complex(X), full_chain_complex(X)):
                assert hm.homology_groups(C, C.top - 1) == \
                    [hm.HomologyPresentation(C, q).group() for q in range(C.top)]

    def test_unit_columns_are_the_leading_unit_pivots(self):
        # the pivot 1 lies in column 1; the next pivot, 2, is not a unit
        assert hm.smith_rows([{1: 1, 2: 3}, {0: 2}], 3)["unit_columns"] == [1]
        # the first pivot is 2, and Bezout then turns it into 1, which is no
        # leading unit pivot; nor is a unit pivot that comes after it
        assert hm.smith_rows([{0: 2, 1: 3}], 2)["unit_columns"] == []
        assert hm.smith_rows([{0: 2, 1: 2}, {0: 2, 1: 3}], 2)["unit_columns"] == []

    def test_a_unit_after_a_nonunit_pivot_clears_nothing(self):
        # clearing d_2's row 0 by the unit that Bezout makes from d_1's
        # first pivot would leave [[-2]] and report H_1 = Z/2
        C = chain_complex([1, 2, 1], [None, [[2, 3]], [[3], [-2]]])
        assert hm.homology_groups(C, 1) == [hm.HomologyGroup(0), hm.HomologyGroup(0)]
        assert determinantal_homology(C, 1) == [hm.HomologyGroup(0), hm.HomologyGroup(0)]
        # d_1's pivots are 2, then 1; clearing d_2's row 0 by that unit
        # would leave [[-4], [2]]
        C = chain_complex([2, 3, 1], [None, [[2, 2, 3], [2, 3, 5]], [[1], [-4], [2]]])
        assert hm.homology_groups(C, 1) == [hm.HomologyGroup(0), hm.HomologyGroup(0)]
        assert determinantal_homology(C, 1) == [hm.HomologyGroup(0), hm.HomologyGroup(0)]

    @settings(max_examples=200, deadline=None)
    @given(split_complexes())
    def test_clearing_agrees_with_presentations_and_determinantal_divisors(self, C):
        groups = hm.homology_groups(C, C.top - 1)
        assert groups == [hm.HomologyPresentation(C, q).group() for q in range(C.top)]
        assert groups == determinantal_homology(C, C.top - 1)

    def test_tampered_boundary_fails_the_composite_check(self):
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(3), 3))
        boundaries = [[dict(row) for row in level] for level in C.boundaries]
        row = next(row for row in boundaries[3] if row)
        col = next(iter(row))
        row[col] += 1  # -1 becomes an explicit 0, which the check reads as it stands
        with pytest.raises(ValueError, match="^boundary composite in degree 3 is nonzero$"):
            hm.ChainComplex(C.ranks, boundaries)

    def test_misshapen_boundary_rejected(self):
        with pytest.raises(ValueError, match="does not fit shape"):
            hm.ChainComplex([1, 1], [[], [{1: 1}]])
        with pytest.raises(ValueError, match="does not fit shape"):
            hm.ChainComplex([1, 1], [[], []])

    def test_dense_boundary_on_demand(self):
        C = chain_complex([2, 3], [[], [[1, 0, -1], [0, 2, 0]]])
        assert C.boundaries[1] == [{0: 1, 2: -1}, {1: 2}]
        assert C.boundary(1) == [[1, 0, -1], [0, 2, 0]]


def contract_complexes():
    """Every complex the homology tests build: normalized and unnormalized
    chains of the test spaces, and the hand-written bar resolutions."""
    spaces = [ss.point(3), ss.suspension([0, 1], 0, 2), ss.suspension([0, 1, 2], 0, 3),
              em_two_cocycle_space(cyclic(2), 3)]
    spaces += [nerve_of_monoid(M, 4) for M in (cyclic(2), cyclic(3), cyclic(4), klein_four(),
                                               max_monoid(2))]
    complexes = [C for X in spaces for C in (hm.normalized_chain_complex(X), full_chain_complex(X))]
    for M, q in [(cyclic(2), 1), (cyclic(3), 1), (cyclic(4), 2), (klein_four(), 2)]:
        complexes.append(chain_complex(*bar_resolution_boundaries(M, q + 1)))
    return complexes


class TestPresentationContract:
    def test_kernel_times_relations_is_the_next_boundary(self):
        for C in contract_complexes():
            for p in range(C.top):
                pres = hm.HomologyPresentation(C, p)
                boundary = C.boundary(p + 1)
                # the kernel basis and the relations are sparse: kernel[k] is
                # a chain, relations[k] the k-th coordinate of every column
                relations = pres.relation_rows(C.boundaries[p + 1])
                kernel = [[vec.get(r, 0) for vec in pres.kernel] for r in range(C.ranks[p])]
                dense = [[row.get(j, 0) for j in range(C.ranks[p + 1])] for row in relations]
                product = [[sum(k * r[j] for k, r in zip(row, dense))
                            for j in range(C.ranks[p + 1])] for row in kernel]
                assert product == boundary
                assert dense == hm.solve_exact(kernel, boundary)

    def test_generators_have_unit_coordinates(self):
        for C in contract_complexes():
            for p in range(C.top):
                pres = hm.HomologyPresentation(C, p)
                n = len(pres.positions)
                assert pres.coordinates(pres.generator_cycles()) == \
                    tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def test_coordinates_ignore_boundaries(self):
        # a seeded combination of the generators plus the boundary of a
        # random chain has the combination's coordinates, mod torsion
        rng = random.Random(19)
        for C in contract_complexes():
            for p in range(C.top):
                pres = hm.HomologyPresentation(C, p)
                orders = pres.torsion + (0,) * len(pres.free_positions)
                for _ in range(5):
                    combination = [rng.randint(-5, 5) for _ in orders]
                    below = [rng.randint(-3, 3) for _ in range(C.ranks[p + 1])]
                    chain = {r: sum(x * below[j] for j, x in row.items())
                             for r, row in enumerate(C.boundaries[p + 1])}
                    for a, cycle in zip(combination, pres.generator_cycles()):
                        for r, x in cycle.items():
                            chain[r] = chain.get(r, 0) + a * x
                    assert pres.coordinates([{r: x for r, x in chain.items() if x}]) == \
                        tuple((a % t if t else a,) for a, t in zip(combination, orders))

    def test_non_cycle_raises(self):
        for C in contract_complexes():
            for p in range(1, C.top):
                pres = hm.HomologyPresentation(C, p)
                # the basis chains with a nonzero boundary
                for j in sorted(set().union(*C.boundaries[p])):
                    with pytest.raises(ValueError, match="not a cycle"):
                        pres.coordinates([{j: 1}])


class TestPresentationBudget:
    def test_budget_bounds_the_nonzeros_held(self):
        # where degree 3 of the Klein four nerve counts its nonzeros (relation
        # rows plus kept transforms), they peak at 464
        C = hm.normalized_chain_complex(nerve_of_monoid(klein_four(), 4))
        assert hm.HomologyPresentation(C, 3, 464).group() == hm.HomologyGroup(0, (2, 2, 2))
        with pytest.raises(BudgetError, match="^homology presentation in degree 3: "
                                              "nonzeros held exceed budget 463$"):
            hm.HomologyPresentation(C, 3, 463)


class TestHomologyGroupType:
    def test_str(self):
        assert str(hm.HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert str(hm.HomologyGroup(0)) == "0"

    def test_bad_torsion_rejected(self):
        with pytest.raises(ValueError):
            hm.HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            hm.HomologyGroup(0, (4, 2))


class TestInducedMaps:
    def test_identity_induces_identity(self):
        X = nerve_of_monoid(cyclic(3), 2)
        ind = hm.induced_map_on_homology(identity_map(X), 1)
        assert ind.source == ind.target == hm.HomologyGroup(0, (3,))
        assert ind.matrix == ((1,),)

    def test_inversion_induces_minus_one(self):
        Z3 = cyclic(3)
        X = nerve_of_monoid(Z3, 2)
        inv_tables = [{x: tuple(Z3.inverse[i] for i in x) for x in X.levels[p]}
                      for p in range(3)]
        f = map_from_label_maps(X, X, inv_tables)
        assert f.check().ok
        ind = hm.induced_map_on_homology(f, 1)
        assert ind.target == hm.HomologyGroup(0, (3,))
        assert ind.matrix == ((2,),)

    def test_map_to_point_kills_h1(self):
        X = nerve_of_monoid(cyclic(3), 2)
        f = constant_map_to_point(X)
        ind = hm.induced_map_on_homology(f, 1)
        assert ind.target == hm.HomologyGroup(0)
        assert ind.matrix == ()

    def test_functorial_on_composites(self):
        Z4 = cyclic(4)
        X = nerve_of_monoid(Z4, 2)
        neg = [{x: tuple(Z4.inverse[i] for i in x) for x in X.levels[p]} for p in range(3)]
        f = map_from_label_maps(X, X, neg)
        gf = compose_maps(f, f)
        direct = hm.induced_map_on_homology(gf, 1)
        f_star = hm.induced_map_on_homology(f, 1)
        composed = _compose_induced(f_star, f_star)
        assert direct.matrix == composed.matrix

    def test_insufficient_truncation_propagates(self):
        X = nerve_of_monoid(cyclic(2), 1)
        with pytest.raises(TruncationError):
            hm.induced_map_on_homology(identity_map(X), 1)

    def test_free_rank_identity_on_wedge(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        ind = hm.induced_map_on_homology(identity_map(X), 1)
        assert ind.source == ind.target == hm.HomologyGroup(2)
        assert ind.matrix == ((1, 0), (0, 1))

    def test_loop_swap_permutes_free_generators(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        tables = []
        for p in range(3):
            table = {}
            for x in X.levels[p]:
                table[x] = x if x == "*" else ({1: 2, 2: 1}[x[0]], x[1])
            tables.append(table)
        ind = hm.induced_map_on_homology(map_from_label_maps(X, X, tables), 1)
        assert ind.source == hm.HomologyGroup(2)
        flat = sorted(abs(v) for row in ind.matrix for v in row)
        assert flat == [0, 0, 1, 1]  # a signed permutation of the two generators
        square = _compose_induced(ind, ind)
        assert square.source == square.target
        assert square.matrix == ((1, 0), (0, 1))

    def test_fold_adds_loops_sent_to_one_simplex(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        Y = ss.suspension([0, 1], 0, 2)
        tables = [{x: x if x == "*" else (1, x[1]) for x in X.levels[p]} for p in range(3)]
        f = map_from_label_maps(X, Y, tables)
        assert f.check().ok
        ind = hm.induced_map_on_homology(f, 1)
        assert (ind.source, ind.target) == (hm.HomologyGroup(2), hm.HomologyGroup(1))
        # both loops land on the one loop, so their images add up
        assert ind.matrix == ((1, 1),)


def _compose_induced(g: hm.InducedMap, f: hm.InducedMap) -> hm.InducedMap:
    rows = len(g.matrix)
    mid = len(f.matrix)
    cols = len(f.matrix[0]) if f.matrix else 0
    torsion = list(g.target.torsion) + [0] * g.target.rank
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            val = sum(g.matrix[i][k] * f.matrix[k][j] for k in range(mid))
            if torsion[i]:
                val %= torsion[i]
            row.append(val)
        out.append(tuple(row))
    return hm.InducedMap(f.source, g.target, tuple(out))
