import math
import random
from fractions import Fraction

import pytest

from branchlink.quotient import (
    BadInput,
    BambooChain,
    CyclicType,
    HJType,
    NotNormalized,
    PlanarLattice,
    TwoRowType,
    cyclic_to_hj,
    hj_continued_fraction,
    normalize_cyclic,
    reduce_two_row,
    to_hj,
)
from conftest import curve_boundary_intersections, hj_kappas_oracle, naive_det


def chain_matrix(kappas):
    n = len(kappas)
    rows = [[0] * n for _ in range(n)]
    for i, k in enumerate(kappas):
        rows[i][i] = -k
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


def test_normalize_full_collapse():
    assert normalize_cyclic(CyclicType(6, 2, 3)) == CyclicType(1, 0, 0)


def test_normalize_already_normalized_is_identity():
    t = CyclicType(7, 1, 3)
    assert normalize_cyclic(t) == t


def test_normalize_common_factor():
    assert normalize_cyclic(CyclicType(4, 2, 2)) == CyclicType(2, 1, 1)


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(300):
        t = CyclicType(rng.randint(1, 60), rng.randint(0, 59), rng.randint(0, 59))
        once = normalize_cyclic(t)
        assert normalize_cyclic(once) == once
        assert once.is_normalized


def test_to_hj_requires_normalized():
    with pytest.raises(NotNormalized):
        to_hj(CyclicType(4, 2, 1))


def test_to_hj_of_q0_type_from_worked_example():
    # local type at the Q0 points of (8,12,26,53)
    hj = cyclic_to_hj(CyclicType(12, 8, -1))
    assert (hj.d, hj.q) == (3, 1)


def test_to_hj_identity_on_standard_form():
    hj = to_hj(CyclicType(11, 1, 4))
    assert (hj.d, hj.q) == (11, 4)
    assert hj.q * hj.qprime % 11 == 1


def test_reduce_two_row_worked_example_edge_point():
    # two-row type at the level-1/level-2 intersection of (8,12,26,53)
    t = TwoRowType(d1=14, a11=1, a12=-1, d2=56, a21=-26, a22=12)
    hj = cyclic_to_hj(reduce_two_row(t))
    assert (hj.d, hj.q) == (7, 3)


def test_reduce_two_row_diagonal_input():
    # second row already acts on the second axis only
    t = TwoRowType(d1=12, a11=5, a12=7, d2=12, a21=0, a22=4)
    out = reduce_two_row(t)
    assert out == CyclicType(12, 5, 12 // math.gcd(12, 4) * 7 % 12)


def test_reduce_two_row_order_divides_product_of_orders():
    rng = random.Random(3)
    for _ in range(300):
        t = TwoRowType(
            d1=rng.randint(1, 20),
            a11=rng.randint(0, 19),
            a12=rng.randint(0, 19),
            d2=rng.randint(1, 20),
            a21=rng.randint(0, 19),
            a22=rng.randint(0, 19),
        )
        d = normalize_cyclic(reduce_two_row(t)).d
        assert t.d1 * t.d2 % d == 0


def test_reduce_two_row_matches_lattice_oracle():
    # the toric covolume recovers the normalized order independently
    rng = random.Random(5)
    for _ in range(200):
        t = TwoRowType(
            d1=rng.randint(1, 15),
            a11=rng.randint(0, 14),
            a12=rng.randint(0, 14),
            d2=rng.randint(1, 15),
            a21=rng.randint(0, 14),
            a22=rng.randint(0, 14),
        )
        lat = PlanarLattice.of(t)
        v0 = lat.primitive_on_ray(1, 0)
        vend = lat.primitive_on_ray(0, 1)
        order = Fraction(v0[0] * vend[1] - v0[1] * vend[0], lat.covolume)
        assert order.denominator == 1
        assert int(order) == normalize_cyclic(reduce_two_row(t)).d


def test_continued_fraction_7_3():
    chain = hj_continued_fraction(7, 3)
    assert chain.kappas == (3, 2, 2)
    # 3 - 1/(2 - 1/2) = 7/3
    value = Fraction(3) - 1 / (Fraction(2) - Fraction(1, 2))
    assert value == Fraction(7, 3)


def test_continued_fraction_d_over_1():
    assert hj_continued_fraction(9, 1).kappas == (9,)


def test_continued_fraction_d_over_d_minus_1():
    assert hj_continued_fraction(6, 5).kappas == (2,) * 5


def test_continued_fraction_bad_input():
    for d, q in [(6, 2), (5, 0), (5, 5), (0, 1)]:
        with pytest.raises(BadInput):
            hj_continued_fraction(d, q)


def test_chain_determinant_identities_sample():
    for d in range(2, 80):
        for q in range(1, d):
            if math.gcd(d, q) != 1:
                continue
            chain = hj_continued_fraction(d, q)
            qprime = pow(q, -1, d)
            assert chain.determinant == d
            assert chain.det_without_first == q
            assert chain.det_without_last == qprime
            assert all(k >= 2 for k in chain.kappas)


def runs_of(kappas):
    """Run-length form of an expanded chain."""
    runs = []
    for k in kappas:
        if runs and runs[-1][0] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
    return tuple((k, count) for k, count in runs)


def assert_runs_well_formed(chain):
    assert all(k >= 2 and count >= 1 for k, count in chain.runs)
    assert all(a[0] != b[0] for a, b in zip(chain.runs, chain.runs[1:]))


def test_runs_match_term_by_term_expansion_below_400():
    checked = 0
    for d in range(2, 400):
        for q in range(1, d):
            if math.gcd(d, q) != 1:
                continue
            chain = hj_continued_fraction(d, q)
            expected = hj_kappas_oracle(d, q)
            assert chain.runs == runs_of(expected)
            assert chain.kappas == expected
            assert len(chain) == len(expected)
            assert_runs_well_formed(chain)
            checked += 1
    assert checked == 48517


def test_runs_match_term_by_term_expansion_on_large_seeded_pairs():
    rng = random.Random(2026)
    checked = 0
    while checked < 2000:
        d = rng.randint(2, 10 ** rng.randint(1, 15))
        q = rng.randint(1, d - 1)
        if math.gcd(d, q) != 1:
            continue
        chain = hj_continued_fraction(d, q)
        expected = hj_kappas_oracle(d, q)
        assert chain.runs == runs_of(expected)
        assert len(chain) == len(expected)
        assert_runs_well_formed(chain)
        assert chain.determinant == d
        assert chain.det_without_first == q
        assert chain.det_without_last == pow(q, -1, d)
        checked += 1


def test_long_run_of_twos_is_never_expanded(monkeypatch):
    def refuse(self):
        raise AssertionError("chain expanded")

    monkeypatch.setattr(BambooChain, "kappas", property(refuse))
    d = 10**12 + 1
    chain = hj_continued_fraction(d, 10**12)
    assert chain.runs == ((2, 10**12),)
    assert len(chain) == 10**12
    assert chain.determinant == d
    assert chain.det_without_first == 10**12
    assert chain.det_without_last == pow(10**12, -1, d) == 10**12


def test_chain_determinant_matches_matrix_determinant():
    for d, q in [(7, 3), (11, 4), (12, 5), (25, 7)]:
        chain = hj_continued_fraction(d, q)
        assert abs(naive_det(chain_matrix(chain.kappas))) == d


def test_axis_corrections():
    assert cyclic_to_hj(CyclicType(7, 1, 3)) == HJType(7, 3, 5)
    assert cyclic_to_hj(CyclicType(1, 0, 0)) == HJType(1, 0, 0)


def test_lattice_walk_matches_continued_fraction():
    # boundary from the weight-1 axis is the reversed expansion of d/q
    rng = random.Random(11)
    for _ in range(150):
        d = rng.randint(2, 120)
        q = rng.randint(1, d - 1)
        if math.gcd(d, q) != 1:
            continue
        lat = PlanarLattice.of(CyclicType(d, 1, q))
        walked = lat.chain_kappas_from_first_axis()
        assert walked == tuple(reversed(hj_continued_fraction(d, q).kappas))


def test_lattice_curve_attachment_smooth_chart():
    # {x2^2 = x1^54} on the chart of type (2; -1, 26): meets the first-axis
    # divisor twice, corresponding to the worked example's curve at P
    lat = PlanarLattice.of(CyclicType(2, -1, 26))
    hits = curve_boundary_intersections(lat, exp_second=2, exp_first=54)
    assert hits == [(0, 2), (1, 27)]


def test_lattice_curve_attachment_singular_chart():
    # type (2; -1, 15) resolves to a single -2 curve; {x2^2 = x1^32} meets it
    lat = PlanarLattice.of(CyclicType(2, -1, 15))
    assert lat.chain_kappas_from_first_axis() == (2,)
    hits = curve_boundary_intersections(lat, exp_second=2, exp_first=32)
    assert hits == [(1, 2), (2, 15)]
