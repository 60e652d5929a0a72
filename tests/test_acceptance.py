"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; everything asserts exactly (no tolerances anywhere).
"""

import itertools
import pathlib
import random

from gammaspaces import algebra as alg
from gammaspaces import classifying as cb
from gammaspaces import cli
from gammaspaces import gammacat as gc
from gammaspaces import ggamma as gg
from gammaspaces import presheaves as ps
from gammaspaces.homology import (HomologyGroup, mat_mul, normalized_chain_complex,
                                  smith_normal_form)
from gammaspaces.simplicial import composite
from oracles import (bar_resolution_homology, em_two_homology, full_chain_complex,
                     nerve_of_monoid, presentation_group, verify_snf)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

GMONOID_FIXTURES = [
    alg.trivial_action(alg.cyclic(2), alg.cyclic_group(2)),
    alg.inversion_action(alg.cyclic(3)),
    alg.swap_action(),
]


def verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_strict_equivalence_roundtrips():
    monoids = [m for order in range(1, 5) for m in alg.enumerate_abelian_monoids(order)]
    assert len(monoids) == 1 + 2 + 5 + 19
    for M in monoids:
        out = ps.extract_monoid(ps.build_gamma_set(M, 3))
        assert out.index_table() == M.index_table()
    for A in GMONOID_FIXTURES:
        out = ps.extract_g_monoid(ps.build_ggamma_set(A, 3))
        assert out.monoid.index_table() == A.monoid.index_table()
        assert out.action == A.action
        assert out.group == A.group
    groups = [g for order in range(1, 5) for g in alg.enumerate_abelian_groups(order)]
    assert len(groups) == 5
    for A in groups:
        out = ps.extract_group_bousfield(ps.build_gamma_set(A, 3))
        assert out.index_table() == A.index_table()
    verdict(1, True, f"{len(monoids)} monoid, {len(GMONOID_FIXTURES)} equivariant, "
                     f"{len(groups)} group roundtrips all exact")


def test_criterion_2_segal_bousfield_discrimination():
    checked = 0
    for order in range(1, 5):
        for M in alg.enumerate_abelian_monoids(order):
            X = ps.build_gamma_set(M, 5)
            assert ps.check_strict_segal(X, 5).passed
            assert ps.check_strict_bousfield(X, 5).passed == M.is_group()
            checked += 1
    verdict(2, True, f"{checked} monoids pass strict Segal up to n=5 and pass "
                     f"strict Bousfield exactly when they are groups")


def test_criterion_3_interval_functor_compatibility():
    for n in range(1, 5):
        edge_images = [gc.from_power_set_form(gc.delta_to_gamma(gc.edge(n, k)))
                       for k in range(n)]
        assert edge_images == gc.segal_family(n)
    verdict(3, True, "interval-functor images of the edge maps equal the "
                     "projection family for n <= 4")


def test_criterion_4_bar_at_zero_is_point():
    fixture_presheaves = [
        ps.build_gamma_set(alg.trivial_monoid(), 2),
        ps.build_gamma_set(alg.cyclic(2), 2),
        ps.build_gamma_set(alg.cyclic(3), 2),
        ps.build_gamma_set(alg.cyclic(4), 2),
        ps.build_gamma_set(alg.klein_four(), 2),
        ps.build_gamma_set(alg.max_monoid(2), 2),
    ] + [ps.build_ggamma_set(A, 2) for A in GMONOID_FIXTURES]
    for X in fixture_presheaves:
        B = cb.bar(X, 0, 3)
        assert B.space.level_sizes() == [1, 1, 1, 1]
    verdict(4, True, f"bar at the zero object is the point for all "
                     f"{len(fixture_presheaves)} fixture presheaves")


def test_criterion_5_structure_map_strict_and_equivariant():
    A = alg.inversion_action(alg.cyclic(3))
    X = ps.build_ggamma_set(A, 3)
    result = cb.structure_map(cb.bar(X, 1, 3))
    assert result.iso.check().ok
    assert result.iso.is_levelwise_bijection()
    assert result.equivariant is True
    verdict(5, True, "suspension-to-skeleton map is a simplicial isomorphism "
                     "and commutes with the order-2 action at d=3")


def test_criterion_6_first_delooping_homology():
    for A in (alg.cyclic(2), alg.cyclic(3), alg.cyclic(4), alg.klein_four()):
        X = ps.build_gamma_set(A, 4)
        B = cb.bar(X, 1, 4)
        report = cb.delooping_report(B, 2)
        C = normalized_chain_complex(B.space, 3)
        assert report.homology == [presentation_group(C, q) for q in range(3)]
        assert report.homology[0] == HomologyGroup(1)
        assert report.homology[1] == cb.expected_em_homology(A, 1, 1)
        assert report.homology[1].torsion == tuple(cb._cyclic_decomposition(A))
        assert report.homology[2] == bar_resolution_homology(A, 2)
    inv = alg.inversion_action(alg.cyclic(3))
    report = cb.delooping_report(cb.bar(ps.build_ggamma_set(inv, 4), 1, 4), 1)
    assert report.g_action_on_h["1"][1] == [[2]]
    verdict(6, True, "H_0=Z, H_1=A, H_2 matches the bar-resolution oracle for "
                     "the four groups; inversion acts on H_1 as -1")


def test_criterion_7_second_delooping():
    X = ps.build_gamma_set(alg.cyclic(2), 16)
    B = cb.iterate_bar(X, 2, 4, budget=10 ** 7)
    report = cb.delooping_report(B, 2)
    C = normalized_chain_complex(B.space, 3)
    assert report.homology == [presentation_group(C, q) for q in range(3)]
    assert report.homology[1] == HomologyGroup(0)
    assert report.homology[2] == HomologyGroup(0, (2,))
    assert em_two_homology(alg.cyclic(2), 1) == report.homology[1]
    assert em_two_homology(alg.cyclic(2), 2) == report.homology[2]
    verdict(7, True, "second delooping of the order-2 group has H_1=0 and "
                     "H_2=Z/2 at d=4, agreeing with the cocycle-model oracle")


def test_criterion_8_property_suites():
    rng = random.Random(2024)

    # category laws in the plain pointed-map category
    maps = {(m, n): list(gc.enumerate_maps(m, n)) for m in range(3) for n in range(3)}
    for m, n, p, q in itertools.product(range(3), repeat=4):
        for f in maps[(m, n)]:
            for g in maps[(n, p)]:
                for h in maps[(p, q)]:
                    assert gc.compose(gc.compose(h, g), f) == gc.compose(h, gc.compose(g, f))
    for m, n in itertools.product(range(5), repeat=2):
        for f in gc.enumerate_maps(m, n):
            assert gc.compose(gc.identity(n), f) == f
            assert gc.compose(f, gc.identity(m)) == f

    # category laws in the wedge-indexed category
    Z2g = alg.cyclic_group(2)
    gmaps = {(m, n): list(gg.enumerate_ggamma_maps(m, n, Z2g))
             for m in range(3) for n in range(3)}
    for _ in range(300):
        m, n, p, q = (rng.randint(0, 2) for _ in range(4))
        a = rng.choice(gmaps[(m, n)])
        b = rng.choice(gmaps[(n, p)])
        c = rng.choice(gmaps[(p, q)])
        assert gg.compose(gg.compose(c, b), a) == gg.compose(c, gg.compose(b, a))
        assert gg.compose(gg.group_action_map(n, 0, Z2g), a) == a
        assert gg.compose(a, gg.group_action_map(m, 0, Z2g)) == a

    # functoriality of built presheaves on 200+ random composable pairs, at
    # every element of the source level
    X = ps.build_gamma_set(alg.cyclic(3), 3)
    plain = {(m, n): list(gc.enumerate_maps(m, n)) for m in range(4) for n in range(4)}
    for _ in range(200):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        f = rng.choice(plain[(m, n)])
        g = rng.choice(plain[(n, p)])
        assert X.action_table(gc.compose(g, f)) == \
            composite(X.action_table(g), X.action_table(f))
    Y = ps.build_ggamma_set(alg.inversion_action(alg.cyclic(3)), 3)
    wedge = {(m, n): list(gg.enumerate_ggamma_maps(m, n, Y.group))
             for m in range(4) for n in range(4)}
    for _ in range(200):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        a = rng.choice(wedge[(m, n)])
        b = rng.choice(wedge[(n, p)])
        assert Y.action_table(gg.compose(b, a)) == \
            composite(Y.action_table(b), Y.action_table(a))

    # boundary composites vanish on every produced chain complex
    complexes = []
    for M in (alg.cyclic(2), alg.cyclic(3), alg.cyclic(4), alg.klein_four(), alg.max_monoid(2)):
        B = cb.bar(ps.build_gamma_set(M, 3), 1, 3)
        complexes.append(normalized_chain_complex(B.space))
        complexes.append(full_chain_complex(B.space))
    for C in complexes:
        for p in range(2, C.top + 1):
            prod = mat_mul(C.boundary(p - 1), C.boundary(p))
            assert not any(any(row) for row in prod)
        for q in range(C.top):
            presentation_group(C, q)

    # Smith certificates on every factorization drawn here
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(a)
        assert verify_snf(a, d, u, v)
    for C in complexes[:4]:
        for p in range(1, C.top + 1):
            a = C.boundary(p)
            if a and a[0]:
                d, u, v = smith_normal_form(a)
                assert verify_snf(a, d, u, v)

    # normalized and unnormalized chains agree on the small fixture set
    from gammaspaces.simplicial import point, suspension
    small = [point(2), suspension([0, 1], 0, 2), nerve_of_monoid(alg.cyclic(2), 2)]
    for space in small:
        Cn = normalized_chain_complex(space)
        Cf = full_chain_complex(space)
        for p in range(space.d):
            assert presentation_group(Cn, p) == presentation_group(Cf, p)

    verdict(8, True, "category laws, presheaf functoriality (200+ pairs each), "
                     "vanishing boundary composites, Smith certificates, and "
                     "normalized/unnormalized agreement all hold")


def test_criterion_9_cli_determinism(tmp_path):
    presheaf = tmp_path / "presheaf.json"
    build_args = ["build", "--input", str(FIXTURES / "z2_inversion_on_z3.json"),
                  "--levels", "2", "--seed", "11", "--out", str(presheaf)]
    assert cli.main(build_args) == 0
    first = presheaf.read_bytes()
    assert cli.main(build_args) == 0
    assert presheaf.read_bytes() == first

    classify_args = ["classify", "--input", str(presheaf), "--dim", "3",
                     "--homology", "1", "--seed", "11"]
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(classify_args + ["--out", str(out1)]) == 0
    assert cli.main(classify_args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    check1, check2 = tmp_path / "k1.json", tmp_path / "k2.json"
    check_args = ["check", "--input", str(presheaf), "--bousfield", "--seed", "11"]
    assert cli.main(check_args + ["--out", str(check1)]) == 0
    assert cli.main(check_args + ["--out", str(check2)]) == 0
    assert check1.read_bytes() == check2.read_bytes()
    verdict(9, True, "build, classify, and check reports are byte-identical "
                     "across repeated runs with a fixed config and seed")
