"""Arithmetic of plane-branch semigroups.

The value semigroup of an irreducible plane curve singularity has a unique
minimal generating set b_0 < b_1 < ... < b_g.  This module validates a
candidate generating set, derives the characteristic integers attached to it
(the gcd chain e_i, the exponents n_i, the rewriting coefficients b_ij) and
produces the binomial equations of the associated monomial space curve.
Every downstream computation reads its arithmetic from here.

Membership and the bounded representations behind the b_ij are solved
residue by residue down the gcd chain, in O(g) steps per target rather than
by enumerating the box of prod n_j coefficient vectors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class NotAPlaneSemigroup(ValueError):
    """Input is not a minimal generating set of a plane-branch semigroup."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMinimal(NotAPlaneSemigroup):
    """Some generator already lies in the semigroup of its predecessors."""


class NoRepresentation(NotAPlaneSemigroup):
    """n_i * b_i has no canonical representation over earlier generators."""


@dataclass(frozen=True)
class CharacteristicData:
    """Characteristic integers of a plane-branch semigroup.

    Attributes
    ----------
    beta : tuple
        Minimal generators b_0 < b_1 < ... < b_g with gcd 1.
    e : tuple
        e_i = gcd(b_0, ..., b_i); strictly decreasing from b_0 to e_g = 1.
    n : tuple
        n[0] = n_0 = b_10 and n[i] = e_{i-1} / e_i >= 2 for i = 1, ..., g.
    b : tuple of tuples
        Row i-1 holds (b_i0, ..., b_i(i-1)), the unique coefficients with
        n_i * beta_i = sum_j b_ij * beta_j and 0 <= b_ij < n_j for j >= 1.
    """

    beta: tuple[int, ...]
    e: tuple[int, ...]
    n: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]

    @property
    def g(self) -> int:
        return len(self.beta) - 1

    def b_row(self, i: int) -> tuple[int, ...]:
        """Coefficients (b_i0, ..., b_i(i-1)) for 1 <= i <= g."""
        return self.b[i - 1]

    def lcm_tail(self, k: int) -> int:
        """lcm(n_{k+1}, ..., n_g); the empty lcm (k = g) is 1."""
        return math.lcm(*self.n[k + 1:]) if k < self.g else 1


def _bounded_representation(beta, n, target: int, upto: int):
    """The representation target = sum_{j<upto} c_j * beta_j with 0 <= c_j < n_j.

    c_0 is only required to be nonnegative, and n_j must be e_{j-1}/e_j, the
    ratios of the gcd chain e_0 = beta_0, e_j = gcd(e_{j-1}, beta_j).
    Returns the coefficient tuple (c_0, ..., c_{upto-1}), or None when there
    is no such representation; there is never more than one.

    Walks down the gcd chain from j = upto - 1 in O(upto) steps: every
    beta_i with i < j is a multiple of e_{j-1}, so modulo e_{j-1} only
    c_j * beta_j is left of the open terms, and c_j solves
    c_j * (beta_j/e_j) = rem/e_j mod n_j.  Since
    gcd(beta_j/e_j, n_j) = gcd(beta_j, e_{j-1})/e_j = 1, beta_j/e_j is a
    unit mod n_j, so c_j is forced.
    """
    e = [beta[0]]
    for j in range(1, upto):
        e.append(e[-1] // n[j])
    rem = target
    coeffs = []
    for j in range(upto - 1, 0, -1):
        if rem % e[j]:
            return None
        c = rem // e[j] * pow(beta[j] // e[j], -1, n[j]) % n[j]
        rem -= c * beta[j]
        if rem < 0:
            return None
        coeffs.append(c)
    if rem % beta[0]:
        return None
    coeffs.append(rem // beta[0])
    return tuple(reversed(coeffs))


def compute_b_coefficients(data: CharacteristicData, i: int) -> tuple[int, ...]:
    """The unique bounded representation of n_i * beta_i, for 1 <= i <= g."""
    if not 1 <= i <= data.g:
        raise ValueError(f"index i={i} out of range 1..{data.g}")
    return _b_row(data.beta, data.n, i)


def _b_row(beta, n, i: int) -> tuple[int, ...]:
    row = _bounded_representation(beta, n, n[i] * beta[i], i)
    if row is None:
        raise NoRepresentation(
            f"n_{i}*beta_{i} = {n[i] * beta[i]} is not representable over "
            f"{beta[:i]} with the canonical bounds",
            witness=(i, n[i] * beta[i]),
        )
    return row


def derive_from_generators(beta) -> CharacteristicData:
    """Validate generators and derive all characteristic integers.

    Raises NotAPlaneSemigroup (with a witness of the failed condition) or
    NotMinimal when some generator is redundant.
    """
    beta = tuple(int(x) for x in beta)
    if len(beta) < 3:
        raise NotAPlaneSemigroup(
            f"need g >= 2: 3 or more generators, got {len(beta)}", witness=beta
        )
    if any(x <= 0 for x in beta):
        raise NotAPlaneSemigroup("generators must be positive", witness=beta)
    if any(x >= y for x, y in zip(beta, beta[1:])):
        raise NotAPlaneSemigroup("generators must be strictly increasing", witness=beta)
    g = len(beta) - 1

    e = [beta[0]]
    for x in beta[1:]:
        e.append(math.gcd(e[-1], x))
    # minimality is checked per index before the exponent condition, against
    # the bounds built from the already-validated earlier stages
    n_tail = []
    for i in range(1, g + 1):
        n_partial = (0,) + tuple(n_tail) + (2,) * (g + 1 - i)
        if _bounded_representation(beta, n_partial, beta[i], i) is not None:
            raise NotMinimal(
                f"beta_{i} = {beta[i]} lies in the semigroup of {beta[:i]}",
                witness=(i, beta[i]),
            )
        if e[i - 1] == e[i]:
            raise NotAPlaneSemigroup(
                f"n_{i} = e_{i - 1}/e_{i} = 1 < 2", witness=(i, e[i - 1], e[i])
            )
        n_tail.append(e[i - 1] // e[i])
    if e[-1] != 1:
        raise NotAPlaneSemigroup(f"gcd of generators is {e[-1]}, not 1", witness=tuple(e))

    # e_i = gcd(e_{i-1}, beta_i) alone gives n_j | e_{j-1} | beta_i for
    # i < j and gcd(beta_i/e_i, n_i) = gcd(beta_i, e_{i-1})/e_i = 1
    for i in range(1, g):
        if n_tail[i - 1] * beta[i] >= beta[i + 1]:
            raise NotAPlaneSemigroup(
                f"n_{i}*beta_{i} = {n_tail[i - 1] * beta[i]} not < beta_{i + 1} = {beta[i + 1]}",
                witness=(i, n_tail[i - 1] * beta[i], beta[i + 1]),
            )

    n = (0,) + tuple(n_tail)  # placeholder n_0, fixed below
    rows = tuple(_b_row(beta, n, i) for i in range(1, g + 1))
    n0 = rows[0][0]
    if n0 * beta[0] != n_tail[0] * beta[1]:
        raise ArithmeticError("b_10 inconsistent with n_1*beta_1/beta_0")
    # so n_0 = beta_1/e_1 and n_1 = beta_0/e_1 are coprime
    return CharacteristicData(beta=beta, e=tuple(e), n=(n0,) + tuple(n_tail), b=rows)


@dataclass(frozen=True)
class BinomialEquation:
    """One equation x_i^{n_i} - prod_j x_j^{b_ij} of the monomial curve.

    Exponent vectors are indexed by the variables x_0, ..., x_g.
    """

    index: int
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __str__(self) -> str:
        return f"{_monomial(self.lhs)} - {_monomial(self.rhs)}"


def _monomial(exponents) -> str:
    parts = []
    for j, c in enumerate(exponents):
        if c == 1:
            parts.append(f"x{j}")
        elif c > 1:
            parts.append(f"x{j}^{c}")
    return "*".join(parts) if parts else "1"


def monomial_curve_equations(data: CharacteristicData) -> list[BinomialEquation]:
    """The g binomial equations f_i = x_i^{n_i} - prod x_j^{b_ij}."""
    nvars = data.g + 1
    eqs = []
    for i in range(1, data.g + 1):
        lhs = [0] * nvars
        lhs[i] = data.n[i]
        rhs = [0] * nvars
        for j, c in enumerate(data.b_row(i)):
            rhs[j] = c
        eqs.append(BinomialEquation(index=i, lhs=tuple(lhs), rhs=tuple(rhs)))
    return eqs


def random_plane_semigroup(g: int, max_n: int, seed=None) -> tuple[int, ...]:
    """Random valid minimal generating set with the given number of stages.

    Exponents n_1, ..., n_g are drawn from [2, max_n]; the generators are
    then built so that every validity condition holds by construction, so
    derive_from_generators always succeeds on the output.  Deterministic for
    a fixed seed.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    rng = random.Random(seed)
    n = [rng.randint(2, max_n) for _ in range(g)]  # n_1, ..., n_g
    e = [math.prod(n[i:]) for i in range(g + 1)]  # e_i = n_{i+1} * ... * n_g

    m = n[0] + 1 + rng.randrange(0, 2 * max_n)
    while math.gcd(m, n[0]) != 1:
        m += 1
    beta = [e[0], m * e[1]]
    for i in range(1, g):
        lo = n[i - 1] * beta[i] // e[i + 1] + 1
        c = lo + rng.randrange(0, 3 * max_n)
        while math.gcd(c, n[i]) != 1:
            c += 1
        beta.append(c * e[i + 1])
    out = tuple(beta)
    derive_from_generators(out)  # construction is total; fail loudly otherwise
    return out
