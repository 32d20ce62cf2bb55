import math
import random
from fractions import Fraction

import pytest

from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.qres import compute_qresolution
from branchlink._linalg import TreeKernel
from branchlink.detcalc import (
    IndexOutOfRange,
    LinkKind,
    MismatchedLengths,
    build_intersection_matrix,
    census_order_product,
    classify_brieskorn_pham,
    classify_link,
    det_S,
    det_b_matrices,
    det_closed_form,
    det_exact,
    r_sequence,
)
from conftest import dense, dense_rows, naive_det, r_direct, random_forest, random_zhs_semigroup


def qres_of(beta):
    return compute_qresolution(derive_from_generators(beta))


def test_worked_example_matrix():
    qr = qres_of((8, 12, 26, 53))
    m = build_intersection_matrix(qr)
    f = Fraction
    assert m.n == 3
    assert dense_rows(m) == [
        [f(-13, 21), 0, f(1, 7)],
        [0, f(-13, 21), f(1, 7)],
        [f(1, 7), f(1, 7), f(-1, 7)],
    ]
    assert m.negative_definite()


def test_worked_example_determinant():
    qr = qres_of((8, 12, 26, 53))
    m = build_intersection_matrix(qr)
    assert det_exact(m) == Fraction(-13, 441)
    assert det_exact(m) == naive_det(dense_rows(m))
    assert det_closed_form(qr) == Fraction(-13, 441)


def test_det_exact_trivial_cases():
    a1 = Fraction(13, 21)
    assert det_exact(TreeKernel([-a1], [])) == -a1
    # a weighted path of two, next to two isolated vertices
    block = TreeKernel([-2, -2, -3, -5], [(0, 1, Fraction(1, 3))])
    top = det_exact(TreeKernel([-2, -2], [(0, 1, Fraction(1, 3))]))
    assert top == 4 - Fraction(1, 9)
    assert det_exact(block) == top * 15
    # leaf-first pivots -1, then -4 + 2^2 = 0: no division, so no fallback
    zero_pivot = TreeKernel([-1, -4, -1], [(0, 1, 1), (1, 2, 2)])
    assert zero_pivot.D[1] == 0
    assert det_exact(zero_pivot) == naive_det(dense_rows(zero_pivot)) == 1


def test_det_exact_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(17)
    weights = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(1, 7))
    kinds = {"definite": 0, "indefinite": 0, "zero pivot": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        diag = [Fraction(rng.randint(-6, 2), rng.randint(1, 4)) for _ in range(n)]
        edges = [
            (i, j, rng.choice(weights))
            for i, j in random_forest(rng, n, rng.randint(1, min(n, 2)))
        ]
        tree = TreeKernel(diag, edges)
        assert det_exact(tree) == naive_det(dense(diag, edges))
        if any(d == 0 for d in tree.D):
            kinds["zero pivot"] += 1
        elif tree.negative_definite():
            kinds["definite"] += 1
        else:
            kinds["indefinite"] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def test_r_sequence_base_and_low_terms():
    a = (0, Fraction(2), Fraction(3), Fraction(5))
    p = (0, 2, 3)
    d = (0, 5, 7)
    R = r_sequence(a, p, d)
    assert R[0] == 1
    assert R[1] == a[1]
    assert R[2] == a[1] * a[2] - Fraction(p[1], d[1] ** 2)
    assert R[3] == (
        a[1] * a[2] * a[3]
        - Fraction(p[1], d[1] ** 2) * a[3]
        - Fraction(p[2], d[2] ** 2) * a[1]
    )


def test_r_sequence_mismatched_lengths():
    with pytest.raises(MismatchedLengths):
        r_sequence((0, 1, 2), (0,), (0, 1, 1))


def test_r_sequence_recurrence_equals_direct_for_random_rationals():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(2, 8)
        a = (0,) + tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)
        )
        p = (0,) + tuple(
            Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(m - 1)
        )
        d = (0,) + tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m - 1)
        )
        R = r_sequence(a, p, d)
        for l in range(m + 1):
            assert R[l] == r_direct(a, p, d, l)


def test_g2_routes_agree_with_brieskorn_pham():
    # at g = 2 the general formulas run unchanged: one level, no edges
    for trial in range(300):
        max_n = 2 + trial % 9
        cd = derive_from_generators(random_plane_semigroup(2, max_n, seed=f"g2:{trial}"))
        qr = compute_qresolution(cd)
        assert qr.a[1] == Fraction(cd.n[2], qr.d_last * qr.N[1])
        det_a = det_exact(build_intersection_matrix(qr))
        assert det_closed_form(qr) == det_a == -qr.a[1]
        bp = classify_brieskorn_pham(cd.n[0], cd.n[1], cd.n[2])
        assert det_S(cd, qr) == bp.determinant == abs(det_a) * census_order_product(qr)


def test_det_closed_form_equals_elimination_on_randoms():
    for trial in range(60):
        g = 3 + trial % 4
        qr = qres_of(random_plane_semigroup(g, 4, seed=f"det:{trial}"))
        assert det_closed_form(qr) == det_exact(build_intersection_matrix(qr))


def test_tridiagonal_case_reduces_to_last_r():
    rng = random.Random(41)
    for trial in range(30):
        g = rng.choice([3, 4, 5])
        beta = random_zhs_semigroup(g, rng)
        qr = qres_of(beta)
        assert all(r == 1 for r in qr.r)
        det = det_closed_form(qr)
        assert abs(det_exact(build_intersection_matrix(qr))) == abs(det)


def test_b_matrix_bounds():
    qr = qres_of((8, 12, 26, 53))
    with pytest.raises(IndexOutOfRange):
        det_b_matrices(qr, 0)
    with pytest.raises(IndexOutOfRange):
        det_b_matrices(qr, 3)


def test_b_matrix_last_is_one_by_one():
    qr = qres_of((8, 12, 26, 53))
    tail, head = det_b_matrices(qr, 2)
    assert tail == -qr.a[2]


def test_b_prime_closed_form_on_integral_links():
    # det B'_s = (-1)^s N_{s+1} / (N_1 prod d_{l(l+1)}) in the integral case
    rng = random.Random(43)
    for trial in range(25):
        g = rng.choice([3, 4, 5])
        qr = qres_of(random_zhs_semigroup(g, rng))
        for s in range(1, g - 1):
            _, head = det_b_matrices(qr, s)
            expected = Fraction((-1) ** s * qr.N[s + 1], qr.N[1])
            for l in range(1, s + 1):
                expected /= qr.d_edge[l]
            assert head == expected


def test_head_chain_identity_at_first_collapse_level():
    # at the first level t with a single component, the two tridiagonal tails
    # recombine the full determinant
    found = 0
    for trial in range(200):
        g = 4 + trial % 3
        qr = qres_of(random_plane_semigroup(g, 4, seed=f"recomb:{trial}"))
        t = next(k for k in range(1, g) if qr.r[k] == 1)
        if not 2 <= t <= g - 2:
            continue
        found += 1
        Rseq = r_sequence(qr.a, qr.p, qr.d_edge)
        tail_t, _ = det_b_matrices(qr, t)
        tail_t1, _ = det_b_matrices(qr, t + 1)
        lhs = Rseq[t - 1] * tail_t + Fraction(qr.p[t - 1] * Rseq[t - 2], qr.d_edge[t - 1] ** 2) * tail_t1
        assert lhs == (-1) ** (g - t) * Rseq[g - 1]
    assert found >= 10


def test_det_S_examples():
    assert det_S(derive_from_generators((70, 105, 215, 1511))) == 1
    value = det_S(derive_from_generators((70, 105, 225, 1579)))
    assert value > 1
    assert det_S(derive_from_generators((8, 12, 26, 53))) == 117


def test_det_S_collapses_for_fully_coprime_data():
    rng = random.Random(47)
    for trial in range(20):
        g = rng.choice([3, 4])
        beta = random_zhs_semigroup(g, rng)
        assert det_S(derive_from_generators(beta)) == 1


def test_det_S_equals_blowup_route():
    for trial in range(40):
        g = 3 + trial % 3
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"ds:{trial}"))
        qr = compute_qresolution(cd)
        value = det_S(cd, qr)
        assert value == abs(det_closed_form(qr)) * census_order_product(qr)


def test_classify_link_examples():
    zhs = classify_link(derive_from_generators((70, 105, 215, 1511)))
    assert zhs.kind is LinkKind.ZHS
    assert any(w.gcd_quot_e == 1 for w in zhs.witnesses if w.k == 2)

    qhs = classify_link(derive_from_generators((70, 105, 225, 1579)))
    assert qhs.kind is LinkKind.QHS
    w2 = next(w for w in qhs.witnesses if w.k == 2)
    assert w2.gcd_quot_e == 5  # gcd(225/5, 5)

    bad = classify_link(derive_from_generators((24, 36, 75, 311)))
    assert bad.kind is LinkKind.NOT_QHS
    w1 = next(w for w in bad.witnesses if w.k == 1)
    assert (w1.gcd_n_lcm, w1.gcd_quot_lcm) == (2, 3)


def test_worked_example_is_qhs_not_zhs():
    link = classify_link(derive_from_generators((8, 12, 26, 53)))
    assert link.kind is LinkKind.QHS


def test_zhs_iff_det_one_and_rational():
    for trial in range(60):
        g = 3 + trial % 3
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"iff:{trial}"))
        qr = compute_qresolution(cd)
        link = classify_link(cd)
        topological = (
            det_S(cd, qr) == 1
            and all(x == 0 for x in qr.genus[1:])
        )
        assert link.is_zhs == topological


def test_brieskorn_pham_examples():
    bp = classify_brieskorn_pham(2, 3, 5)
    assert (bp.kind, bp.genus, bp.determinant) == (LinkKind.ZHS, 0, 1)

    bp = classify_brieskorn_pham(2, 2, 2)
    assert bp.kind is LinkKind.QHS
    assert bp.e == 2 and bp.alpha == (1, 1, 1)

    bp = classify_brieskorn_pham(6, 10, 15)
    assert bp.kind is LinkKind.NOT_QHS
    assert bp.genus == 11


def test_g2_family_matches_brieskorn_pham():
    for trial in range(80):
        cd = derive_from_generators(random_plane_semigroup(2, 6, seed=f"bp:{trial}"))
        bp = classify_brieskorn_pham(cd.n[0], cd.n[1], cd.n[2])
        assert classify_link(cd).kind == bp.kind
        assert det_S(cd) == bp.determinant


def test_negative_definiteness_random():
    for trial in range(40):
        g = 3 + trial % 4
        qr = qres_of(random_plane_semigroup(g, 4, seed=f"nd:{trial}"))
        m = build_intersection_matrix(qr)
        assert m.negative_definite()
    assert not TreeKernel([1], []).negative_definite()
    assert not TreeKernel([0], []).negative_definite()
    assert not TreeKernel([-1, -1], [(0, 1, 2)]).negative_definite()
