import functools
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import example, find, given, settings, strategies as st

from gammaspaces import homology as hm
from gammaspaces import simplicial as ss
from gammaspaces.algebra import cyclic, klein_four, max_monoid
from gammaspaces.errors import BudgetError, TruncationError
from oracles import (bar_resolution_boundaries, bar_resolution_homology, chain_complex,
                     compose_maps, constant_map_to_point, determinantal_homology,
                     determinantal_invariants, elementary, em_two_cocycle_space,
                     full_chain_complex, identity_map, map_from_label_maps, nerve_of_monoid,
                     presentation_group, reference_smith, snf_diagonal, verify_snf)

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

    @pytest.mark.parametrize("q", [2, 3, -1])
    def test_degree_guard_message(self, q):
        C = hm.normalized_chain_complex(ss.point(2))
        message = (f"homology in degree {q} needs boundaries up to degree {q + 1}; "
                   f"complex stops at 2")
        with pytest.raises(TruncationError) as err:
            hm.HomologyPresentation(C, q)
        assert (str(err.value), err.value.required) == (message, q + 1)
        if q >= 0:
            with pytest.raises(TruncationError) as err:
                hm.homology_groups(C, q)
            assert (str(err.value), err.value.required) == (message, q + 1)

    def test_negative_top_lists_no_group(self):
        # only a presentation refuses a negative degree; H_0 .. H_-1 is empty
        C = hm.normalized_chain_complex(ss.point(2))
        assert hm.homology_groups(C, -1) == []
        assert hm.homology_groups(C, -2) == []

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
        assert induced(identity_map(X), 2)[2] == ((1,),)

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

    def test_an_unknown_transform_is_refused(self):
        with pytest.raises(ValueError, match=r"keeps u, u_inv, v and v_inv$"):
            hm.smith_rows([{0: 1}, {1: 1}], 2, ("vinv",))

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
        row[col] *= 2  # the entry stays nonzero, so only the composite check fails
        with pytest.raises(ValueError, match="^boundary composite in degree 3 is nonzero$"):
            hm.ChainComplex(C.ranks, boundaries)

    @pytest.mark.parametrize("ranks, boundaries, p, h0", [
        ([1, 1], [[], [{0: 0}]], 1, hm.HomologyGroup(1)),
        ([2, 2], [[], [{0: 2, 1: 0}, {}]], 1, hm.HomologyGroup(1, (2,))),
        ([1, 1, 1], [[], [{}], [{0: 0}]], 2, hm.HomologyGroup(1)),
    ], ids=["lone-zero", "zero-beside-two", "zero-above"])
    def test_explicit_zero_refused(self, ranks, boundaries, p, h0):
        # homology would read an explicit 0 as an entry: H_0 of the first
        # complex came out 0, not Z, and the second failed inside smith_rows
        with pytest.raises(ValueError, match=f"^boundary {p} holds an explicit zero$"):
            hm.ChainComplex(ranks, boundaries)
        nonzero = [[{j: x for j, x in row.items() if x} for row in level] for level in boundaries]
        assert hm.homology_groups(hm.ChainComplex(ranks, nonzero), 0) == [h0]

    def test_misshapen_boundary_rejected(self):
        with pytest.raises(ValueError, match="does not fit shape"):
            hm.ChainComplex([1, 1], [[], [{1: 1}]])
        with pytest.raises(ValueError, match="does not fit shape"):
            hm.ChainComplex([1, 1], [[], []])

    def test_dense_boundary_on_demand(self):
        C = chain_complex([2, 3], [[], [[1, 0, -1], [0, 2, 0]]])
        assert C.boundaries[1] == [{0: 1, 2: -1}, {1: 2}]
        assert C.boundary(1) == [[1, 0, -1], [0, 2, 0]]


TRACKS = [t for k in range(5) for t in itertools.combinations(("u", "u_inv", "v", "v_inv"), k)]


def _refilled_rows():
    """Each pivot row [p, a, b] whose column sweep takes two Bezout steps,
    with the row [0, c, e] below it, in lowest terms, whose column 0 the
    first step fills and the second clears again; kept where the least
    |entry| of [0, c, e] is none of its |entries| after the sweep, so that
    this least |entry|, read before the sweep, is stale after it."""
    for p, a, b in itertools.product([*range(-12, -1), *range(2, 13)], range(-30, 31),
                                     range(-40, 41)):
        g = math.gcd(p, a)
        if abs(a) > abs(p) < abs(b) and a % p and b % g:
            _, y1, _, cb1 = elementary(p, a)
            x2, y2, ca2, cb2 = elementary(g, b)
            c, e = y2, -x2 * y1  # column 0: y1 * c after the first step, 0 after the second
            if min(abs(c), abs(e)) not in {abs(cb1 * c), abs(ca2 * y1 * c + cb2 * e)}:
                yield [p, a, b], [0, c, e]


REFILLED_ROWS = list(_refilled_rows())


@st.composite
def refilled_rows(draw):
    """(3, [[p, a, b], [0, c, e]]) from REFILLED_ROWS, the lower row scaled
    by a multiple of |p| so that p stays the pivot, as in the pinned
    [[10, 15, 17], [0, 10, 35]]."""
    top, below = draw(st.sampled_from(REFILLED_ROWS))
    t = abs(top[0]) * draw(st.sampled_from([1, -1, 2]))
    return 3, [top, [t * x for x in below]]


@st.composite
def reference_matrices(draw):
    """(column count, matrix): entries with units, or without them so that
    Bezout steps and folds run, or entries such as 10, 15 and 17, where
    one column sweep takes several Bezout steps, or rows that such a sweep
    fills and clears again; with zero rows and columns spliced in."""
    values = st.sampled_from([entries, unitless, st.sampled_from([0, 0, 1, -1, 2, -4, 6]),
                              st.sampled_from([0, 0, 10, -15, 17, 35])])
    cols, a = draw(st.one_of(values.flatmap(lambda v: shaped_matrices(v, most=5)),
                             refilled_rows()))
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, cols))
        a, cols = [row[:j] + [0] + row[j:] for row in a], cols + 1
    for _ in range(draw(st.integers(0, 2))):
        a.insert(draw(st.integers(0, len(a))), [0] * cols)
    return cols, a


def sparse_rows(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def long_rows():
    """(1,600, five rows) whose first pivot row passes LONG_ROW: row 0 has
    1,201 entries and its +-1 pivot in column 0, and goes into the 301 of
    row 1 as a copy, into the 251 of row 4 as a copy scaled by -2 and
    into the 1,401 of row 2 in place; row 3, zero in column 0 and with no unit,
    meets only the longer rows that follow.  Entries of +-1 and +-2 make
    some shared columns cancel."""
    rng = random.Random(28)
    cols, a = 1600, []
    for n, values in [(1200, [1, -1, 2, -2]), (300, [1, -1, 2, -2, 3]),
                      (1400, [1, -1, 2, -2, 3]), (1100, [2, -2, 3, 4]), (250, [1, -1, 2])]:
        support = set(rng.sample(range(1, cols), n))
        a.append([rng.choice(values) if j in support else 0 for j in range(cols)])
    for row, x in zip(a, [1, -1, 1, 0, 2]):
        row[0] = x
    return cols, a


@functools.cache
def long_rows_reference():
    cols, a = long_rows()
    return reference_smith(a, cols, ("u", "u_inv", "v", "v_inv"))


class TestEliminationMatchesReference:
    """`smith_rows` against `oracles.reference_smith`, the same pivot rule
    and steps on dense lists: every reduced row, every transform, the unit
    columns and the nonzero count at which a budget refuses."""

    @pytest.mark.parametrize("track", TRACKS, ids=lambda t: "+".join(t) or "none")
    @settings(max_examples=40, deadline=None)
    @given(shaped=reference_matrices())
    # at pivot 10 the steps (10, 15) and (5, 17) first put column 0 into
    # row 1, then clear it again: row 1 ends as {1: 20, 2: 5}, whose least
    # |entry| is no longer the 10 read before the sweep
    @example(shaped=(3, [[10, 15, 17], [0, 10, 35]]))
    def test_rows_transforms_and_unit_columns(self, track, shaped):
        cols, a = shaped
        expected = reference_smith(a, cols, track)
        d = sparse_rows(a)
        kept = hm.smith_rows(d, cols, track)
        assert [[row.get(j, 0) for j in range(cols)] for row in d] == expected["d"]
        for name in track:  # U^-1 and V are kept transposed
            n = len(kept[name])
            dense = [[row.get(j, 0) for j in range(n)] for row in kept[name]]
            assert (dense if name in ("u", "v_inv") else [list(c) for c in zip(*dense)]) == \
                expected[name], name
        assert kept["unit_columns"] == expected["unit_columns"]

    @pytest.mark.parametrize("track", TRACKS, ids=lambda t: "+".join(t) or "none")
    def test_long_pivot_rows(self, track):
        cols, a = long_rows()
        lengths = [len(row) for row in sparse_rows(a)]
        assert lengths[4] < lengths[1] < lengths[0] < lengths[2] and lengths[0] > hm.LONG_ROW
        expected = long_rows_reference()
        d = sparse_rows(a)
        kept = hm.smith_rows(d, cols, track)
        assert d == sparse_rows(expected["d"])
        for name in track:  # U^-1 and V are kept transposed
            dense = expected[name] if name in ("u", "v_inv") else [list(c) for c in
                                                                    zip(*expected[name])]
            assert kept[name] == sparse_rows(dense), name
        assert kept["unit_columns"] == expected["unit_columns"]
        # the nonzeros at each pivot: a budget one below each count refuses
        # at the first pivot that holds as many
        counts = [sum(held[name] for name in ("d", *track)) for held in expected["held"]]
        for budget in [n - 1 for n in counts]:
            past = next(n for n in counts if n > budget)
            with pytest.raises(BudgetError, match=f"^Smith form holds {past} nonzeros, "):
                hm.smith_rows(sparse_rows(a), cols, track, budget)

    @settings(max_examples=200, deadline=None)
    @given(reference_matrices(), st.sampled_from(TRACKS), st.data())
    def test_budget_refuses_at_the_first_count_past_it(self, shaped, track, data):
        cols, a = shaped
        counts = reference_smith(a, cols, track)["nonzeros"]
        budget = data.draw(st.integers(0, max(counts)))
        past = [n for n in counts if n > budget]
        if past:
            with pytest.raises(BudgetError, match=f"^Smith form holds {past[0]} nonzeros, "
                                                  f"past budget {budget}$"):
                hm.smith_rows(sparse_rows(a), cols, track, budget)
        else:
            hm.smith_rows(sparse_rows(a), cols, track, budget)

    def test_budget_trips_mid_elimination(self):
        # d_4 of the nerve of Z/4 keeping V and V^-1 holds 483 nonzeros
        # before the first pivot, 1105 before the eighth, and 1486 at the end
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(4), 4))
        counts = reference_smith(C.boundary(4), C.ranks[4], ("v", "v_inv"))["nonzeros"]
        assert (counts[0], counts[7], counts[-1], len(counts)) == (483, 1105, 1486, 23)
        with pytest.raises(BudgetError, match="^Smith form holds 1105 nonzeros, past budget 1000$"):
            hm.smith_rows([dict(row) for row in C.boundaries[4]], C.ranks[4], ("v", "v_inv"), 1000)

    @pytest.mark.parametrize("step", ["bezout_columns", "bezout_sweeps", "refills_cleared",
                                      "folds"])
    def test_the_strategy_reaches_every_step(self, step):
        cols, a = find(reference_matrices(), lambda shaped: any(
            not any(row) for row in shaped[1]) and any(not any(c) for c in zip(*shaped[1]))
            and reference_smith(shaped[1], shaped[0])["steps"][step])
        assert reference_smith(a, cols)["steps"][step]


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
    def test_generators_are_cycles_and_boundaries_have_zero_coordinates(self):
        for C in contract_complexes():
            for p in range(C.top):
                pres = hm.HomologyPresentation(C, p)
                for z in pres.generator_cycles():
                    assert all(sum(x * z.get(j, 0) for j, x in row.items()) == 0
                               for row in C.boundaries[p])
                # column j of d_(p+1), read off its rows
                columns = [{r: row[j] for r, row in enumerate(C.boundaries[p + 1]) if j in row}
                           for j in range(C.ranks[p + 1])]
                assert pres.coordinates(columns) == \
                    tuple((0,) * len(columns) for _ in pres.generator_cycles())

    def test_generators_have_unit_coordinates(self):
        for C in contract_complexes():
            for p in range(C.top):
                pres = hm.HomologyPresentation(C, p)
                n = len(pres.torsion) + len(pres.free_positions)
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

    @pytest.mark.parametrize("chain", [{-1: 1}, {5: 1}, {0: 1, 2: -1}])
    def test_chain_indices_outside_the_degree_are_refused(self, chain):
        # degree 1 of the nerve of Z/3 has the 2 chains 0 and 1
        C = hm.normalized_chain_complex(nerve_of_monoid(cyclic(3), 3))
        pres = hm.HomologyPresentation(C, 1)
        assert pres.chains == 2
        with pytest.raises(ValueError, match=r"^a chain index lies outside 0\.\.1 in degree 1$"):
            pres.coordinates([{0: 1}, chain])


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


def induced(f, p):
    """(source group, target group, matrix) of the map f induces on H_p,
    read off presentations of the normalized chains of both ends."""
    source, target = (hm.HomologyPresentation(hm.normalized_chain_complex(X, p + 1), p)
                      for X in (f.source, f.target))
    return source.group(), target.group(), hm.induced_map_on_homology(f, source, target)


class TestInducedMaps:
    def test_identity_induces_identity(self):
        X = nerve_of_monoid(cyclic(3), 2)
        source, target, matrix = induced(identity_map(X), 1)
        assert source == target == hm.HomologyGroup(0, (3,))
        assert matrix == ((1,),)

    def test_inversion_induces_minus_one(self):
        Z3 = cyclic(3)
        X = nerve_of_monoid(Z3, 2)
        inv_tables = [{x: tuple(Z3.inverse[i] for i in x) for x in X.levels[p]}
                      for p in range(3)]
        f = map_from_label_maps(X, X, inv_tables)
        assert f.check().ok
        _, target, matrix = induced(f, 1)
        assert target == hm.HomologyGroup(0, (3,))
        assert matrix == ((2,),)

    def test_map_to_point_kills_h1(self):
        X = nerve_of_monoid(cyclic(3), 2)
        f = constant_map_to_point(X)
        _, target, matrix = induced(f, 1)
        assert target == hm.HomologyGroup(0)
        assert matrix == ()

    def test_functorial_on_composites(self):
        Z4 = cyclic(4)
        X = nerve_of_monoid(Z4, 2)
        neg = [{x: tuple(Z4.inverse[i] for i in x) for x in X.levels[p]} for p in range(3)]
        f = map_from_label_maps(X, X, neg)
        gf = compose_maps(f, f)
        _, _, direct = induced(gf, 1)
        _, target, f_star = induced(f, 1)
        assert direct == _compose_induced(f_star, f_star, target)

    def test_free_rank_identity_on_wedge(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        source, target, matrix = induced(identity_map(X), 1)
        assert source == target == hm.HomologyGroup(2)
        assert matrix == ((1, 0), (0, 1))

    def test_loop_swap_permutes_free_generators(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        tables = []
        for p in range(3):
            table = {}
            for x in X.levels[p]:
                table[x] = x if x == "*" else ({1: 2, 2: 1}[x[0]], x[1])
            tables.append(table)
        source, target, matrix = induced(map_from_label_maps(X, X, tables), 1)
        assert source == target == hm.HomologyGroup(2)
        flat = sorted(abs(v) for row in matrix for v in row)
        assert flat == [0, 0, 1, 1]  # a signed permutation of the two generators
        assert _compose_induced(matrix, matrix, target) == ((1, 0), (0, 1))

    def test_fold_adds_loops_sent_to_one_simplex(self):
        X = ss.suspension([0, 1, 2], 0, 2)
        Y = ss.suspension([0, 1], 0, 2)
        tables = [{x: x if x == "*" else (1, x[1]) for x in X.levels[p]} for p in range(3)]
        f = map_from_label_maps(X, Y, tables)
        assert f.check().ok
        source, target, matrix = induced(f, 1)
        assert (source, target) == (hm.HomologyGroup(2), hm.HomologyGroup(1))
        # both loops land on the one loop, so their images add up
        assert matrix == ((1, 1),)


def _compose_induced(g, f, target: hm.HomologyGroup):
    """The matrix product g @ f of two induced maps, row i reduced mod the
    order of coordinate i of g's target group (0: free)."""
    mid = len(f)
    cols = len(f[0]) if f else 0
    torsion = list(target.torsion) + [0] * target.rank
    out = []
    for i in range(len(g)):
        row = []
        for j in range(cols):
            val = sum(g[i][k] * f[k][j] for k in range(mid))
            if torsion[i]:
                val %= torsion[i]
            row.append(val)
        out.append(tuple(row))
    return tuple(out)
