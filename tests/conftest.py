"""Shared test helpers: oracles and targeted generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from branchlink.semigroup import derive_from_generators


def naive_det(rows) -> Fraction:
    """Cofactor-expansion determinant; the independent oracle for small sizes."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * naive_det(minor)
    return total


_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def random_zhs_semigroup(g: int, rng: random.Random):
    """Random generator list whose surface has an integral homology sphere link.

    Takes pairwise coprime exponents (distinct primes) and quotients coprime
    to the remaining gcd levels, which is exactly the classification
    criterion.
    """
    n = list(rng.sample(_PRIMES, g))  # n_1, ..., n_g, pairwise coprime
    e = [math.prod(n[i:]) for i in range(g + 1)]
    m = n[0] + 1 + rng.randrange(0, 8)
    while math.gcd(m, e[0]) != 1:
        m += 1
    beta = [e[0], m * e[1]]
    for i in range(1, g):
        lo = n[i - 1] * beta[i] // e[i + 1] + 1
        c = lo + rng.randrange(0, 10)
        # coprime to n_{i+1} for validity and to e_{i+1} for the integral link
        while math.gcd(c, e[i]) != 1:
            c += 1
        beta.append(c * e[i + 1])
    out = tuple(beta)
    derive_from_generators(out)
    return out


def dense_invariant_factors(matrix) -> list[int]:
    """Nonzero invariant factors of a dense integer matrix, over Z.

    The independent Smith normal form oracle: pivot on the entry of least
    magnitude, clear its row and column by division with remainder, and
    restart whenever a smaller remainder shows up.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        pos = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pos is None or abs(A[i][j]) < abs(A[pos[0]][pos[1]])):
                    pos = (i, j)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            if i0 != t:
                A[t], A[i0] = A[i0], A[t]
            if j0 != t:
                for row in A:
                    row[t], row[j0] = row[j0], row[t]
            # clear column t, restarting whenever a smaller remainder shows up
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        pos = (i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        pos = (t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # enforce divisibility of the remaining block
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            for j in range(t, n):
                A[t][j] += A[culprit][j]
            pos = (t, t)
        factors.append(abs(A[t][t]))
        t += 1
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, "broken divisibility chain in Smith normal form"
    return [f for f in factors if f]
