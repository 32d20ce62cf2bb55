"""Combinatorics of the partial resolution of the embedding surface.

For a plane-branch semigroup this computes, level by level, everything the
weighted blow-up resolution of the generic embedding surface carries:
component counts r_k, multiplicities N_k and M_k, the full census of
singular points with their Hirzebruch-Jung data and resolution chains,
component genera, and the rational self-intersection numbers of the
exceptional curves.  All quantities are exact; several of them are computed
along independent routes and checked against each other on every run.
Each census point carries its resolution chain run-length encoded
(``quotient.BambooChain``), so the whole computation does O(number of runs)
work per point and never expands a chain; only the assembly of the full
plumbing graph does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .semigroup import CharacteristicData
from .quotient import (
    BambooChain,
    CyclicType,
    HJType,
    TwoRowType,
    cyclic_to_hj,
    hj_continued_fraction,
    reduce_two_row,
)


class RequiresG3(ValueError):
    """Operation needs at least three stages (g >= 3)."""


@dataclass(frozen=True)
class CensusPoint:
    """One class of singular points on the partial resolution.

    kind is one of:
      'Q0'   points where the first exceptional divisor meets {x_0 = 0};
      'Q'    points where level-k divisor meets {x_k = 0}, level = k;
      'edge' points on the intersection of levels k and k+1, level = k;
      'P'    the point where the strict transform of the curve sticks.

    curves lists the incident exceptional levels with their coordinate slot
    in the local type: slot 1 means the curve is cut out by the first local
    coordinate, slot 2 by the second.  The class has `total` points, and
    one incidence rule glues them all: copy c = 0, ..., total - 1 lies on
    component c // (total / r_k) of each level k in curves, so every
    component of level k carries total / r_k of them, and the chain of a
    copy (oriented as in ``quotient.BambooChain``) meets the slot-2 curve
    at its first vertex and the slot-1 curve at its last.  A smooth point
    has an empty chain: with two curves they meet there transversally.
    ``plumbing.assemble_full_resolution`` builds the graph by this rule and
    ``strict_self_intersection`` subtracts its corrections by it.
    per_component is total / r_level for Q0 (of r_1), Q and P points, and
    p_k = total / r_(k+1) for edge points.
    """

    kind: str
    level: int
    total: int
    per_component: int
    raw: CyclicType | TwoRowType
    hj: HJType
    chain: BambooChain
    curves: tuple[tuple[int, int], ...]

    @property
    def d(self) -> int:
        return self.hj.d

    @property
    def is_smooth(self) -> bool:
        return self.hj.d == 1

    def correction_for_level(self, k: int) -> Fraction:
        """Self-intersection correction the level-k curve loses here.

        When the germ 1/d(1, q) is resolved, the strict transform of the
        weight-1 axis {x1 = 0} (slot 1) loses q'/d from its
        self-intersection and the weight-q axis {x2 = 0} (slot 2) loses q/d;
        both are 0 at a smooth point.
        """
        for level, slot in self.curves:
            if level == k:
                return Fraction((self.hj.qprime, self.hj.q)[slot - 1], self.hj.d)
        raise KeyError(f"level {k} does not pass through this point")


@dataclass(frozen=True)
class QResolutionData:
    """Complete combinatorial description of the partial resolution.

    Index conventions: tuples are indexed by the level subscript, so r[k] is
    r_k for k = 0..g-1, N[k] and d_point[k] cover k = 1..g-1 with N[0] = 0
    unused, M[k] covers k = 0..g-1, a[k] and genus[k] cover k = 1..g-1 with
    slot 0 unused, d_edge[k] covers k = 1..g-2 (empty when g = 2), d_point[0]
    is the order d_0 at the Q0 points and d_last the order at P.
    """

    cd: CharacteristicData
    r: tuple[int, ...]
    N: tuple[int, ...]
    M: tuple[int, ...]
    p: tuple[int, ...]
    d_point: tuple[int, ...]
    d_edge: tuple[int, ...]
    d_last: int
    genus: tuple[int, ...]
    a: tuple[Fraction, ...]
    census: tuple[CensusPoint, ...]

    @property
    def g(self) -> int:
        return self.cd.g

    def points(self, kind: str):
        return [pt for pt in self.census if pt.kind == kind]

    def points_on_level(self, k: int):
        return [pt for pt in self.census if any(lv == k for lv, _ in pt.curves)]


def _check(ok: bool, what: str) -> None:
    """Raise ArithmeticError unless a cross-check holds; kept under python -O."""
    if not ok:
        raise ArithmeticError(what)


def _genus_formula(cd: CharacteristicData, k: int) -> int:
    L = cd.lcm_tail(k)
    f1 = math.gcd(cd.n[k], L) - 1
    f2 = math.gcd(cd.beta[k] // cd.e[k], L) - 1
    _check(f1 * f2 % 2 == 0, f"odd genus numerator at level {k}")
    return f1 * f2 // 2


def exceptional_genus(qr: QResolutionData, k: int) -> int:
    """Genus of each component of the level-k exceptional divisor."""
    if not 1 <= k <= qr.g - 1:
        raise ValueError(f"level {k} out of range 1..{qr.g - 1}")
    return _genus_formula(qr.cd, k)


def _census_point(kind, level, total, per_component, raw, curves) -> CensusPoint:
    cyc = reduce_two_row(raw) if isinstance(raw, TwoRowType) else raw
    hj = cyclic_to_hj(cyc)
    return CensusPoint(
        kind=kind,
        level=level,
        total=total,
        per_component=per_component,
        raw=raw,
        hj=hj,
        chain=hj_continued_fraction(hj.d, hj.q),
        curves=curves,
    )


def compute_qresolution(cd: CharacteristicData) -> QResolutionData:
    """All resolution combinatorics for a validated semigroup.

    The local type of every singular point is taken from the blow-up charts
    and pushed through the quotient-type reduction; closed-form orders (the
    three expressions for d_k, the edge order formula, the order at P) are
    checked against the constructive route on every call.
    """
    g = cd.g
    beta, e, n = cd.beta, cd.e, cd.n
    L = [cd.lcm_tail(k) for k in range(g + 1)]

    r = tuple(e[k] // L[k] for k in range(g))
    _check(r[g - 1] == 1, "r_(g-1) is not 1")
    M = tuple(math.lcm(beta[k] // e[k], L[k]) for k in range(g))
    N = (0,) + tuple(math.lcm(beta[k] // e[k], n[k], L[k]) for k in range(1, g))
    p = (0,) + tuple(r[k] // r[k + 1] for k in range(1, g - 1))
    for k in range(1, g - 1):
        _check(r[k] % r[k + 1] == 0, f"r_{k + 1} does not divide r_{k}")

    census = []

    # Q0 points, on the first divisor, local coordinates (x_0, x_1)
    _check(beta[0] % M[0] == 0, "M_0 does not divide beta_0")
    D0 = n[0] * beta[0] // M[0]
    q0_total = beta[0] // M[0]
    _check(q0_total % r[1] == 0, "Q0 count is not a multiple of r_1")
    q0 = _census_point(
        "Q0",
        level=0,
        total=q0_total,
        per_component=q0_total // r[1],
        raw=CyclicType(D0, beta[0], -1),
        curves=((1, 2),),
    )
    d0 = N[1] // M[0]
    _check(N[1] % M[0] == 0 and q0.d == d0, "Q0 order routes disagree")
    census.append(q0)

    # Q_k points, k = 1..g-1, local coordinates (x_0, x_k)
    d_point = [d0]
    for k in range(1, g):
        Dk = n[k] * beta[k] // M[k]
        total = beta[k] // M[k]
        _check(beta[k] % M[k] == 0 and total % r[k] == 0, f"Q_{k} count not a multiple of r_{k}")
        pt = _census_point(
            "Q",
            level=k,
            total=total,
            per_component=total // r[k],
            raw=CyclicType(Dk, -1, beta[k]),
            curves=((k, 1),),
        )
        dk = N[k] // M[k]
        routes = (dk, n[k] * r[k] // r[k - 1], n[k] // math.gcd(n[k], L[k]), pt.d)
        _check(N[k] % M[k] == 0 and len(set(routes)) == 1, f"Q_{k} order routes disagree")
        d_point.append(dk)
        census.append(pt)

    # edge points between consecutive levels, local coordinates (x_0, x_{k+1})
    d_edge = [0]
    for k in range(1, g - 1):
        delta = n[k + 1] * beta[k + 1] - n[k] * beta[k]
        ok = delta > 0 and delta % L[k] == 0 and (n[k] * beta[k]) % n[k + 1] == 0
        _check(ok, f"edge data at level {k} out of range")
        raw = TwoRowType(
            d1=delta // L[k],
            a11=1,
            a12=-1,
            d2=delta * e[k + 1],
            a21=-beta[k + 1],
            a22=n[k] * beta[k] // n[k + 1],
        )
        pt = _census_point(
            "edge",
            level=k,
            total=r[k],
            per_component=p[k],
            raw=raw,
            curves=((k, 1), (k + 1, 2)),
        )
        num = r[k] * N[k] * N[k + 1] * delta
        den = n[k] * n[k + 1] * beta[k] * beta[k + 1]
        _check(num % den == 0 and pt.d == num // den, f"edge {k} order routes disagree")
        d_edge.append(pt.d)
        census.append(pt)

    # the point P on the last divisor, local coordinates (x_0, x_g)
    _check(beta[g - 1] % n[g] == 0, "n_g does not divide beta_(g-1)")
    p_pt = _census_point(
        "P",
        level=g - 1,
        total=1,
        per_component=1,
        raw=CyclicType(n[g], -1, n[g - 1] * beta[g - 1] // n[g]),
        curves=((g - 1, 1),),
    )
    d_last = n[g] // (math.gcd(n[g - 1], n[g]) * math.gcd(beta[g - 1] // n[g], n[g]))
    _check(p_pt.d == d_last, "order at P routes disagree")
    census.append(p_pt)

    genus = (0,) + tuple(_genus_formula(cd, k) for k in range(1, g))
    a = _self_intersections(g, n, r, N, tuple(d_edge), d_last)

    qr = QResolutionData(
        cd=cd,
        r=r,
        N=N,
        M=M,
        p=p,
        d_point=tuple(d_point),
        d_edge=tuple(d_edge),
        d_last=d_last,
        genus=genus,
        a=a,
        census=tuple(census),
    )
    _check_euler_accounting(qr)
    return qr


def _self_intersections(g, n, r, N, d_edge, d_last) -> tuple[Fraction, ...]:
    # a_k = (below + above) / N_k: nothing lies below level 1, and above the
    # last level only the strict-transform branch remains
    a = [Fraction(0)]
    for k in range(1, g):
        below = Fraction(r[k - 1] * N[k - 1], r[k] * d_edge[k - 1]) if k > 1 else 0
        above = Fraction(N[k + 1], d_edge[k]) if k < g - 1 else Fraction(n[g], d_last)
        a.append((below + above) / N[k])
    return tuple(a)


def self_intersections(qr: QResolutionData) -> tuple[Fraction, ...]:
    """Positive rationals a_k with E_kj^2 = -a_k, indexed a[1..g-1]."""
    return qr.a


def _check_euler_accounting(qr: QResolutionData) -> None:
    """chi(E_k) from the puncture count matches the genus formula."""
    cd, g = qr.cd, qr.g
    for k in range(1, g):
        chi = Fraction(-cd.n[k] * cd.beta[k], qr.N[k])
        chi += Fraction(cd.beta[k], qr.M[k])  # the Q_k punctures
        if k == 1:
            chi += Fraction(cd.beta[0], qr.M[0])
        else:
            chi += qr.r[k - 1]
        if k == g - 1:
            chi += 1
        else:
            chi += qr.r[k]
        expected = qr.r[k] * (2 - 2 * qr.genus[k])
        _check(chi == expected, f"Euler characteristic mismatch at level {k}")


def strict_self_intersection(qr: QResolutionData, k: int) -> Fraction:
    """Self-intersection of the level-k strict transform after resolving.

    Subtracts, from the rational self-intersection -a_k, the chain-end
    correction of each of the total / r_k points of a class that lie on one
    component (the incidence rule of CensusPoint).  Integrality of the
    result is the calibration check for the chain orientation convention.
    """
    total = -qr.a[k]
    for pt in qr.points_on_level(k):
        total -= pt.total // qr.r[k] * pt.correction_for_level(k)
    return total


@dataclass(frozen=True)
class RuptureCensus:
    """Which exceptional curves are forced rupture, and the fate of the last.

    e_last_contractible is 'no' when the last curve is itself rupture
    (r_{g-2} = 1) or has too many neighbours (r_{g-2} >= 3); in the
    borderline case r_{g-2} = 2, where contraction is merely possible, the
    explicit self-intersection check settles it to 'yes' or 'no'.
    """

    rupture_count: int
    e_last_rupture: bool
    e_last_contraction_possible: bool
    e_last_contractible: str


def rupture_census(qr: QResolutionData) -> RuptureCensus:
    """Count guaranteed rupture curves in the resolved model (g >= 3)."""
    g = qr.g
    if g < 3:
        raise RequiresG3("rupture census needs g >= 3")
    base = sum(qr.r[k] for k in range(1, g - 1))
    r_pen = qr.r[g - 2]
    if r_pen == 1 or r_pen >= 3:
        return RuptureCensus(
            rupture_count=base + 1,
            e_last_rupture=True,
            e_last_contraction_possible=False,
            e_last_contractible="no",
        )
    # r_{g-2} = 2: the last curve has exactly two neighbours among the strict
    # transforms; it contracts iff it is rational with self-intersection -1
    # and carries no further chains.
    dangling = any(
        not pt.is_smooth and len(pt.curves) == 1 for pt in qr.points_on_level(g - 1)
    )
    contractible = (
        qr.genus[g - 1] == 0
        and not dangling
        and strict_self_intersection(qr, g - 1) == -1
    )
    return RuptureCensus(
        rupture_count=base,
        e_last_rupture=False,
        e_last_contraction_possible=True,
        e_last_contractible="yes" if contractible else "no",
    )
