import math
import random
from fractions import Fraction

import pytest

from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.qres import (
    RequiresG3,
    compute_qresolution,
    exceptional_genus,
    rupture_census,
    strict_self_intersection,
)
from conftest import random_zhs_semigroup


def qres_of(beta):
    return compute_qresolution(derive_from_generators(beta))


def test_worked_example_census():
    qr = qres_of((8, 12, 26, 53))
    assert qr.r == (4, 2, 1)
    assert qr.N[1:] == (6, 26)
    assert qr.d_point == (3, 1, 1)          # Q0 order 3, Q1 and Q2 smooth
    assert qr.d_edge[1:] == (7,)
    assert qr.d_last == 1                   # P smooth
    q0 = qr.points("Q0")[0]
    assert q0.total == 4 and q0.per_component == 2
    assert (q0.hj.d, q0.hj.q) == (3, 1)
    edge = qr.points("edge")[0]
    assert edge.total == 2
    assert (edge.hj.d, edge.hj.q) == (7, 3)


def test_integral_example_all_levels_irreducible():
    qr = qres_of((70, 105, 215, 1511))
    cd = qr.cd
    assert all(r == 1 for r in qr.r)
    for k in range(1, 3):
        assert qr.N[k] == cd.n[k] * cd.beta[k]


def test_pairwise_coprime_orders_equal_exponents():
    # with pairwise coprime exponents every Q_k order is n_k itself
    qr = qres_of((70, 105, 215, 1511))
    for k in range(1, 3):
        assert qr.N[k] // qr.M[k] == qr.cd.n[k]


def test_genus_worked_example():
    qr = qres_of((8, 12, 26, 53))
    assert exceptional_genus(qr, 2) == 0
    assert qr.genus[1:] == (0, 0)


def test_genus_nonzero_example():
    # gcd(2, 12) = 2 and gcd(3, 12) = 3 leave genus (2-1)(3-1)/2 = 1
    qr = qres_of((24, 36, 75, 311))
    assert exceptional_genus(qr, 1) == 1


def test_genus_vanishes_for_coprime_data():
    qr = qres_of((70, 105, 215, 1511))
    assert qr.genus[1:] == (0, 0)


def test_self_intersections_worked_example():
    qr = qres_of((8, 12, 26, 53))
    assert qr.a[1] == Fraction(13, 21)
    assert qr.a[2] == Fraction(1, 7)


def test_order_three_ways_and_distribution():
    rng = random.Random(21)
    for trial in range(120):
        g = rng.choice([2, 3, 4, 5])
        beta = random_plane_semigroup(g, 4, seed=f"21:{trial}")
        cd = derive_from_generators(beta)
        qr = compute_qresolution(cd)
        for k in range(1, g):
            L = cd.lcm_tail(k)
            dk = qr.N[k] // qr.M[k]
            assert dk == cd.n[k] * qr.r[k] // qr.r[k - 1]
            assert dk == cd.n[k] // math.gcd(cd.n[k], L)
        for k in range(1, g - 1):
            assert qr.p[k] == qr.r[k] // qr.r[k + 1]
            assert qr.r[k] % qr.r[k + 1] == 0


def test_edge_order_formula_matches_reduction_on_random_inputs():
    # the closed-form edge order is asserted against the constructive
    # two-row reduction inside compute_qresolution on every call
    count = 0
    for trial in range(200):
        g = 3 + trial % 4
        beta = random_plane_semigroup(g, 4, seed=f"77:{trial}")
        qr = qres_of(beta)
        count += len(qr.d_edge) - 1
    assert count > 200


def test_zhs_simplifications():
    rng = random.Random(5)
    for trial in range(40):
        g = rng.choice([3, 4, 5])
        beta = random_zhs_semigroup(g, rng)
        cd = derive_from_generators(beta)
        qr = compute_qresolution(cd)
        for k in range(1, g - 1):
            assert qr.d_edge[k] == qr.N[k + 1] - qr.N[k]
        assert qr.a[g - 1] == Fraction(1, qr.d_edge[g - 2])
        for k in range(2, g - 1):
            assert qr.a[k] == Fraction(
                qr.N[k + 1] - qr.N[k - 1], qr.d_edge[k - 1] * qr.d_edge[k]
            )


def test_g2_reduces_to_single_blowup():
    qr = qres_of((6, 10, 31))
    assert qr.r == (1, 1)
    assert qr.a[1] == Fraction(1, 30)
    assert strict_self_intersection(qr, 1) == -2


def test_strict_self_intersections_worked_example():
    qr = qres_of((8, 12, 26, 53))
    assert strict_self_intersection(qr, 1) == -2
    assert strict_self_intersection(qr, 2) == -1


def test_rupture_census_worked_example():
    qr = qres_of((8, 12, 26, 53))
    rc = rupture_census(qr)
    assert rc.rupture_count == 2
    assert rc.e_last_contraction_possible
    assert rc.e_last_contractible == "yes"


def test_rupture_census_irreducible_penultimate():
    # r_{g-2} = 1 forces the last curve to be rupture
    qr = qres_of((70, 105, 215, 1511))
    rc = rupture_census(qr)
    assert rc.e_last_rupture
    assert rc.e_last_contractible == "no"
    assert rc.rupture_count == 1 + 1


def test_rupture_census_requires_g3():
    with pytest.raises(RequiresG3):
        rupture_census(qres_of((6, 10, 31)))


def test_rupture_count_lower_bound_g_minus_1():
    rng = random.Random(31)
    for trial in range(60):
        g = rng.choice([3, 4, 5])
        beta = random_plane_semigroup(g, 4, seed=f"31:{trial}")
        qr = qres_of(beta)
        assert rupture_census(qr).rupture_count >= g - 1


def test_partial_resolution_half_never_expands_a_chain(monkeypatch):
    # g = 10, dim A = 511 and about 3.9e5 plumbing vertices once expanded
    from branchlink import detcalc
    from branchlink.quotient import BambooChain

    def refuse(self):
        raise AssertionError("chain expanded")

    monkeypatch.setattr(BambooChain, "kappas", property(refuse))
    gens = (1024, 2560, 5888, 12160, 24512, 49248, 98544, 197112, 394228, 788466, 1576937)
    cd = derive_from_generators(gens)
    qr = compute_qresolution(cd)
    assert sum(len(pt.chain) for pt in qr.census) > 100_000
    matrix = detcalc.build_intersection_matrix(qr)
    assert matrix.n == 511
    assert detcalc.det_exact(matrix) == detcalc.det_closed_form(qr)
    assert detcalc.det_S(cd, qr) > 0
    rupture_census(qr)
    for k in range(1, cd.g):
        strict_self_intersection(qr, k)
