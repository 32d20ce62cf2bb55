import math
import random

import pytest

from branchlink import semigroup
from branchlink.semigroup import (
    CharacteristicData,
    NotAPlaneSemigroup,
    NotMinimal,
    compute_b_coefficients,
    derive_from_generators,
    monomial_curve_equations,
    random_plane_semigroup,
)
from conftest import box_representations


def test_worked_example_characteristic_data():
    cd = derive_from_generators((8, 12, 26, 53))
    assert cd.g == 3
    assert cd.e == (8, 4, 2, 1)
    assert cd.n == (3, 2, 2, 2)
    assert cd.b_row(2) == (5, 1)
    assert cd.b_row(3) == (10, 0, 1)


def test_integral_example_characteristic_data():
    cd = derive_from_generators((70, 105, 215, 1511))
    assert cd.e == (70, 35, 5, 1)
    assert cd.n == (3, 2, 7, 5)


def test_third_example_by_gcd_oracle():
    beta = (24, 36, 75, 311)
    cd = derive_from_generators(beta)
    # independent gcd-chain oracle
    e = [beta[0]]
    for x in beta[1:]:
        e.append(math.gcd(e[-1], x))
    assert cd.e == tuple(e) == (24, 12, 3, 1)
    assert cd.n == (3, 2, 4, 3)


def test_g1_is_rejected():
    for beta in [(), (8,), (2, 3)]:
        with pytest.raises(NotAPlaneSemigroup, match=f"3 or more generators, got {len(beta)}$"):
            derive_from_generators(beta)


@pytest.mark.parametrize(
    "bad",
    [
        (8, 12, 26),        # gcd chain does not reach 1
        (12, 8, 26, 53),    # not increasing
        (8, 12, 53, 26),    # not increasing
        (4, 6, 8, 11),      # n_2*beta_2 = 16 >= beta_3 fails the growth condition
        (0, 12, 26, 53),    # nonpositive
    ],
)
def test_invalid_inputs_rejected(bad):
    with pytest.raises(NotAPlaneSemigroup):
        derive_from_generators(bad)


def test_redundant_generator_rejected_as_not_minimal():
    # 22 = 8 + 14 lies in <4, 6, 7>... 18 = 4 + 14: use an actual member
    with pytest.raises(NotMinimal):
        derive_from_generators((4, 6, 13, 17))  # 17 = 4 + 13


def test_b_coefficients_examples():
    cd = derive_from_generators((8, 12, 26, 53))
    assert compute_b_coefficients(cd, 2) == (5, 1)
    assert 5 * 8 + 1 * 12 == 2 * 26
    assert compute_b_coefficients(cd, 3) == (10, 0, 1)
    assert 10 * 8 + 1 * 26 == 2 * 53
    # i = 1 is the forced single-term case
    assert compute_b_coefficients(cd, 1) == (cd.n[1] * cd.beta[1] // cd.beta[0],)


def test_b_representation_round_trip():
    for beta in [(8, 12, 26, 53), (70, 105, 215, 1511), (24, 36, 75, 311)]:
        cd = derive_from_generators(beta)
        for i in range(1, cd.g + 1):
            row = cd.b_row(i)
            assert sum(c * cd.beta[j] for j, c in enumerate(row)) == cd.n[i] * cd.beta[i]
            assert all(0 <= c < cd.n[j] for j, c in enumerate(row) if j >= 1)


def test_e_equals_product_of_later_n():
    for beta in [(8, 12, 26, 53), (70, 105, 215, 1511)]:
        cd = derive_from_generators(beta)
        for i in range(cd.g):
            assert cd.e[i] == math.prod(cd.n[i + 1:])


def test_monomial_curve_equations_worked_example():
    cd = derive_from_generators((8, 12, 26, 53))
    eqs = monomial_curve_equations(cd)
    assert [str(e) for e in eqs] == ["x1^2 - x0^3", "x2^2 - x0^5*x1", "x3^2 - x0^10*x2"]


def test_monomial_curve_equations_integral_example_first():
    cd = derive_from_generators((70, 105, 215, 1511))
    assert str(monomial_curve_equations(cd)[0]) == "x1^2 - x0^3"


def test_equations_are_beta_homogeneous():
    for beta in [(8, 12, 26, 53), (24, 36, 75, 311)]:
        cd = derive_from_generators(beta)
        for eq in monomial_curve_equations(cd):
            lhs = sum(c * b for c, b in zip(eq.lhs, cd.beta))
            rhs = sum(c * b for c, b in zip(eq.rhs, cd.beta))
            assert lhs == rhs == cd.n[eq.index] * cd.beta[eq.index]


def test_random_semigroup_deterministic():
    a = random_plane_semigroup(4, 5, seed=99)
    b = random_plane_semigroup(4, 5, seed=99)
    assert a == b
    assert a != random_plane_semigroup(4, 5, seed=100)


def test_random_semigroups_always_validate():
    failures = 0
    for i in range(1000):
        g = 2 + i % 5
        beta = random_plane_semigroup(g, 2 + i % 5, seed=i)
        try:
            cd = derive_from_generators(beta)
        except NotAPlaneSemigroup:
            failures += 1
            continue
        assert cd.beta == tuple(beta)
    assert failures == 0


def gcd_chain_ratios(beta):
    """(0, n_1, ..., n_m) for the longest prefix whose gcd chain strictly drops."""
    e, n = beta[0], [0]
    for b in beta[1:]:
        nxt = math.gcd(e, b)
        if nxt == e:
            break
        n.append(e // nxt)
        e = nxt
    return n


def perturbed(rng, beta):
    """A seeded near-miss of a valid generator list."""
    beta = list(beta)
    i = rng.randrange(len(beta))
    kind = rng.randrange(5)
    if kind == 0:
        beta[i] += rng.choice((-2, -1, 1, 2))
    elif kind == 1:
        beta[i] += beta[0] * rng.randint(1, 3)
    elif kind == 2 and i >= 2:
        beta[i] = beta[rng.randrange(i)] + beta[rng.randrange(i)]  # in the semigroup
    elif kind == 3:
        beta[i] *= rng.choice((2, 3))
    else:
        beta.insert(i, beta[i] + 1)
    return tuple(sorted(set(beta)))  # keep it increasing, so later checks are reached


def test_bounded_representation_matches_the_box():
    rng = random.Random(6)
    found = missing = 0
    for t in range(400):
        beta = random_plane_semigroup(2 + t % 5, rng.randint(2, 4), seed=f"box:{t}")
        if t % 2:
            beta = perturbed(rng, beta)
        n = gcd_chain_ratios(beta)
        upto = len(n)
        targets = [beta[i] for i in range(1, upto)]
        targets += [n[i] * beta[i] for i in range(1, upto)]
        targets += [rng.randrange(4 * beta[upto - 1] + 2) for _ in range(5)]
        for target in targets:
            rep = semigroup._bounded_representation(beta, n, target, upto)
            assert box_representations(beta, n, target, upto) == ([] if rep is None else [rep])
            found += rep is not None
            missing += rep is None
    assert found > 1000 and missing > 500


def outcome(beta):
    try:
        cd = semigroup.derive_from_generators(beta)
    except NotAPlaneSemigroup as exc:
        return type(exc), str(exc), exc.witness
    return cd


def test_derive_from_generators_matches_the_box(monkeypatch):
    rng = random.Random(7)
    inputs = []
    for t in range(300):
        beta = random_plane_semigroup(2 + t % 5, rng.randint(2, 4), seed=f"derive:{t}")
        inputs.append(beta if t % 3 == 0 else perturbed(rng, beta))
    fast = [outcome(beta) for beta in inputs]

    def box_one(beta, n, target, upto):
        sols = box_representations(beta, n, target, upto, limit=2)
        assert len(sols) <= 1
        return sols[0] if sols else None

    monkeypatch.setattr(semigroup, "_bounded_representation", box_one)
    slow = [outcome(beta) for beta in inputs]
    assert fast == slow
    kinds = [r[0] if isinstance(r, tuple) else CharacteristicData for r in fast]
    assert kinds.count(CharacteristicData) >= 100
    assert kinds.count(NotMinimal) >= 10
    assert kinds.count(NotAPlaneSemigroup) >= 50
