"""Abelian quotient surface singularities and their resolution chains.

Cyclic types (d; a, b), two-row types, Hirzebruch-Jung data and the bamboo
chains coming from continued fractions.  A chain is stored run-length
encoded, as (kappa, count) runs: a type d/q needs O(number of runs) steps
and memory, however long the chain (a run of 2s can be 10^5 vertices long
while the whole chain has a dozen runs).  Only the assembly of the full
plumbing graph expands the runs into vertices.  A small planar-lattice
toolkit at the end gives an independent toric route to the same chains; the
main pipeline uses it only to check the chain at the last singular point,
the tests use it as an oracle everywhere.  Every internal check raises
ArithmeticError, so it also runs under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import continuant, xgcd


class NotNormalized(ValueError):
    pass


class BadInput(ValueError):
    pass


@dataclass(frozen=True)
class CyclicType:
    """Quotient of C^2 by mu_d acting with weights (a, b) on the two axes."""

    d: int
    a: int
    b: int

    @property
    def is_normalized(self) -> bool:
        return math.gcd(self.d, self.a) == 1 and math.gcd(self.d, self.b) == 1


@dataclass(frozen=True)
class TwoRowType:
    """Quotient of C^2 by mu_d1 x mu_d2 with one weight row per factor."""

    d1: int
    a11: int
    a12: int
    d2: int
    a21: int
    a22: int

    def rows(self):
        return ((self.d1, self.a11, self.a12), (self.d2, self.a21, self.a22))


@dataclass(frozen=True)
class HJType:
    """Hirzebruch-Jung type 1/d(1, q), with q*q' = 1 mod d.

    The same germ is 1/d(q', 1) with the axis roles swapped, so q and q'
    trade places when the two coordinates are interchanged.  d = 1 encodes a
    smooth point (q = q' = 0).
    """

    d: int
    q: int
    qprime: int


@dataclass(frozen=True)
class BambooChain:
    """Self-intersection magnitudes (all >= 2) of the resolution of d/q.

    The chain is the continued-fraction expansion of d/q read leading term
    first, stored as runs ((kappa, count), ...) with adjacent kappas
    distinct and every count >= 1.  The first end of the chain meets the
    strict transform of the weight-q axis {x2 = 0}; the last end meets the
    weight-1 axis {x1 = 0}.  ``qres.CensusPoint`` turns this orientation
    into the incidence rule that glues the census chains to the exceptional
    curves.  Dropping the first vertex leaves a chain of determinant q,
    dropping the last leaves q'.
    """

    runs: tuple[tuple[int, int], ...]

    @property
    def kappas(self) -> tuple[int, ...]:
        """The expanded chain, one term per vertex (built on every access)."""
        return tuple(k for k, count in self.runs for _ in range(count))

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    @property
    def determinant(self) -> int:
        return continuant(self.runs)

    @property
    def det_without_first(self) -> int:
        return continuant(_drop_end(self.runs, 0))

    @property
    def det_without_last(self) -> int:
        return continuant(_drop_end(self.runs, -1))


def _drop_end(runs, end: int):
    """The runs of a chain without its first (end = 0) or last (end = -1) vertex."""
    runs = list(runs)
    if runs:
        kappa, count = runs[end]
        if count == 1:
            del runs[end]
        else:
            runs[end] = (kappa, count - 1)
    return runs


def normalize_cyclic(t: CyclicType) -> CyclicType:
    """Normalized form of (d; a, b): both weights coprime to the order.

    Divides out gcd(d, a, b), then applies
    (d; a, b) -> (d/((d,a)(d,b)); a/(d,a), b/(d,b)).  Idempotent; a type
    that collapses entirely comes back as the smooth point (1; 0, 0).
    """
    if t.d < 1:
        raise BadInput(f"order must be positive, got {t.d}")
    d = t.d
    a, b = t.a % d, t.b % d
    k = math.gcd(math.gcd(a, b), d)
    d //= k
    a = (a // k) % d
    b = (b // k) % d
    da = math.gcd(d, a)
    db = math.gcd(d, b)
    d2 = d // (da * db)
    out = CyclicType(d2, (a // da) % d2, (b // db) % d2)
    if not out.is_normalized:
        raise ArithmeticError(f"normalizing {t} gave {out}, which is not normalized")
    return out


def to_hj(t: CyclicType) -> HJType:
    """Hirzebruch-Jung data of a normalized cyclic type.

    Rescales the group generator so the first weight becomes 1; q is then
    the second weight.  Raises NotNormalized on non-normalized input.
    """
    if not t.is_normalized:
        raise NotNormalized(f"{t} is not normalized")
    ainv = pow(t.a % t.d, -1, t.d)
    q = (ainv * t.b) % t.d
    return HJType(t.d, q, pow(q, -1, t.d))


def cyclic_to_hj(t: CyclicType) -> HJType:
    return to_hj(normalize_cyclic(t))


def axis_corrections(hj: HJType) -> tuple[int, int]:
    """Self-intersection correction numerators for the two axis curves.

    When the germ at a chain point is resolved, the strict transform of the
    weight-1 axis {x1 = 0} loses q'/d from its self-intersection and the
    weight-q axis {x2 = 0} loses q/d.  Returns (slot-1, slot-2) numerators;
    (0, 0) for a smooth point.
    """
    return (hj.qprime, hj.q)


def reduce_two_row(t: TwoRowType) -> CyclicType:
    """Collapse a two-row type to a single cyclic type.

    Scales both rows to a common order, eliminates the first weight of the
    second row with a Bezout combination (taking 0 <= beta < a1/gcd for
    determinism), and converts the resulting upper-triangular type to a
    cyclic one.  The output is generally not normalized yet.
    """
    (d1, a1, a2), (d2, a3, a4) = t.rows()
    if d1 < 1 or d2 < 1:
        raise BadInput("orders must be positive")
    rows = []
    for d, u, v in ((d1, a1, a2), (d2, a3, a4)):
        u, v = u % d, v % d
        c = math.gcd(math.gcd(u, v), d)
        d, u, v = d // c, (u // c), (v // c)
        rows.append((d, u % d, v % d))
    D = math.lcm(rows[0][0], rows[1][0])
    a1 = rows[0][1] * (D // rows[0][0]) % D
    a2 = rows[0][2] * (D // rows[0][0]) % D
    a3 = rows[1][1] * (D // rows[1][0]) % D
    a4 = rows[1][2] * (D // rows[1][0]) % D
    if a1 == 0 and a3 == 0:
        # both rows act on the second axis only
        return CyclicType(D // math.gcd(D, math.gcd(a2, a4)), 0, 1)
    if a1 == 0:
        a1, a2, a3, a4 = a3, a4, a1, a2
    h, alpha, beta = xgcd(a1, a3)
    mod = a1 // h
    if mod:
        shift = (beta % mod - beta) // mod
        beta += shift * mod
        alpha -= shift * (a3 // h)
    if alpha * a1 + beta * a3 != h:
        raise ArithmeticError(f"Bezout coefficients of ({a1}, {a3}) are wrong")
    new_a2 = (alpha * a2 + beta * a4) % D
    new_a4 = (a1 * a4 - a2 * a3) // h % D
    g4 = math.gcd(D, new_a4)
    return CyclicType(D, h % D, (D // g4) * new_a2 % D)


def hj_continued_fraction(d: int, q: int) -> BambooChain:
    """Chain of d/q: the expansion d/q = k_1 - 1/(k_2 - 1/(...)), k_i >= 2.

    Requires gcd(d, q) = 1 and 0 < q < d, or (d, q) = (1, 0) for the empty
    chain of a smooth point.  Takes O(number of runs) steps, which is
    O(log d): see ``_hj_runs``.
    """
    if d < 1:
        raise BadInput(f"d must be positive, got {d}")
    if d == 1:
        if q != 0:
            raise BadInput(f"(1, {q}) is not a valid chain type")
        return BambooChain(())
    if not 0 < q < d or math.gcd(d, q) != 1:
        raise BadInput(f"need 0 < q < d with gcd(d, q) = 1, got ({d}, {q})")
    runs = _hj_runs(d, q)
    if any(k < 2 or count < 1 for k, count in runs) or any(
        a[0] == b[0] for a, b in zip(runs, runs[1:])
    ):
        raise ArithmeticError(f"malformed chain runs {runs} for {d}/{q}")
    return BambooChain(runs)


def _hj_runs(d: int, q: int) -> tuple[tuple[int, int], ...]:
    """Runs of the expansion of d/q, one step per run of 2s.

    A step with k = ceil(d/q) maps (d, q) to (q, k*q - d).  Along a run of
    2s (q >= s) the difference s = d - q does not change, so the run has
    length c = q // s and ends at (d - c*s, q - c*s); every other step is
    taken singly and merged into the previous run if its kappa repeats.
    """
    runs: list[list[int]] = []
    while q:
        s = d - q
        if q >= s:
            k, count = 2, q // s
            d, q = d - count * s, q - count * s
        else:
            k, count = -(-d // q), 1
            d, q = q, k * q - d
        if runs and runs[-1][0] == k:
            runs[-1][1] += count
        else:
            runs.append([k, count])
    return tuple((k, count) for k, count in runs)


def chain_for(hj: HJType) -> BambooChain:
    return hj_continued_fraction(hj.d, hj.q)


# ---------------------------------------------------------------------------
# Planar lattice toolkit (toric route)
# ---------------------------------------------------------------------------


def _hnf2(vectors) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of the sublattice of Z^2 spanned by the given integer vectors."""
    vs = [list(v) for v in vectors if v[0] or v[1]]
    pivot = None
    rest = []
    for v in vs:
        if pivot is None:
            pivot = v
            continue
        while v[0]:
            qq = pivot[0] // v[0]
            pivot = [pivot[0] - qq * v[0], pivot[1] - qq * v[1]]
            pivot, v = v, pivot
        rest.append(v)
    if pivot is None or pivot[0] == 0:
        raise ArithmeticError("degenerate lattice")
    g2 = 0
    for v in rest:
        g2 = math.gcd(g2, v[1])
    if g2 == 0:
        raise ArithmeticError("degenerate lattice")
    if pivot[0] < 0:
        pivot = [-pivot[0], -pivot[1]]
    pivot[1] %= g2
    return (tuple(pivot), (0, g2))


Point = tuple[Fraction, Fraction]


def _cross(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class PlanarLattice:
    """Rank-2 lattice Z^2 + sum_i Z * (1/d_i)(u_i, v_i) inside Q^2."""

    basis: tuple[Point, Point]

    @classmethod
    def from_rows(cls, rows) -> "PlanarLattice":
        """rows: iterable of (d, u, v) fractional generators."""
        rows = list(rows)
        D = math.lcm(*(d for d, _, _ in rows)) if rows else 1
        gens = [(D, 0), (0, D)]
        for d, u, v in rows:
            s = D // d
            gens.append((u % d * s, v % d * s))
        b1, b2 = _hnf2(gens)
        return cls(
            basis=(
                (Fraction(b1[0], D), Fraction(b1[1], D)),
                (Fraction(b2[0], D), Fraction(b2[1], D)),
            )
        )

    @classmethod
    def of(cls, t) -> "PlanarLattice":
        if isinstance(t, CyclicType):
            return cls.from_rows([(t.d, t.a, t.b)])
        if isinstance(t, TwoRowType):
            return cls.from_rows([(t.d1, t.a11, t.a12), (t.d2, t.a21, t.a22)])
        raise TypeError(f"unsupported type {t!r}")

    @property
    def covolume(self) -> Fraction:
        return abs(_cross(self.basis[0], self.basis[1]))

    def coordinates(self, p: Point) -> tuple[Fraction, Fraction]:
        (b00, b01), (b10, b11) = self.basis
        det = b00 * b11 - b01 * b10
        x = (p[0] * b11 - p[1] * b10) / det
        y = (b00 * p[1] - b01 * p[0]) / det
        return (x, y)

    def contains(self, p: Point) -> bool:
        x, y = self.coordinates(p)
        return x.denominator == 1 and y.denominator == 1

    def primitive_on_ray(self, x, y) -> Point:
        """Smallest lattice point on the ray through (x, y) != 0."""
        cx, cy = self.coordinates((Fraction(x), Fraction(y)))
        L = math.lcm(cx.denominator, cy.denominator)
        G = math.gcd(int(cx * L), int(cy * L))
        t = Fraction(L, G)
        p = (Fraction(x) * t, Fraction(y) * t)
        if not self.contains(p):
            raise ArithmeticError(f"primitive point {p} is not in the lattice")
        return p

    def fan_boundary(self) -> list[Point]:
        """Ray generators of the resolved first-quadrant cone, e1 side first.

        The interior points v_1, ..., v_r are the exceptional curves of the
        minimal resolution of the corresponding quotient germ, ordered from
        the {x1 = 0} axis; consecutive points satisfy v_{i-1} + v_{i+1} =
        kappa_i * v_i with kappa_i >= 2.
        """
        v0 = self.primitive_on_ray(1, 0)
        vend = self.primitive_on_ray(0, 1)
        d = _cross(v0, vend) / self.covolume
        if d.denominator != 1 or d <= 0:
            raise ArithmeticError(f"fan order {d} is not a positive integer")
        d = int(d)
        if d == 1:
            return [v0, vend]
        v1 = None
        for j in range(1, d):
            cand = (
                (j * v0[0] + vend[0]) / d,
                (j * v0[1] + vend[1]) / d,
            )
            if self.contains(cand):
                v1 = cand
                break
        if v1 is None:
            raise ArithmeticError("no basis completion found on the hull")
        pts = [v0, v1]
        while True:
            d_prev = _cross(pts[-2], vend)
            d_cur = _cross(pts[-1], vend)
            if d_cur == 0:
                break
            kappa = math.ceil(d_prev / d_cur)
            nxt = (
                kappa * pts[-1][0] - pts[-2][0],
                kappa * pts[-1][1] - pts[-2][1],
            )
            pts.append(nxt)
            if _cross(nxt, vend) == 0:
                if nxt != vend:
                    raise ArithmeticError("fan walk did not land on the second axis")
                break
        return pts

    def chain_kappas_from_first_axis(self) -> tuple[int, ...]:
        """Chain weights read from the {x1 = 0} end (reverse of BambooChain.kappas)."""
        pts = self.fan_boundary()
        ks = []
        for i in range(1, len(pts) - 1):
            prev, cur, nxt = pts[i - 1], pts[i], pts[i + 1]
            coord = 0 if cur[0] else 1
            k = (prev[coord] + nxt[coord]) / cur[coord]
            if k.denominator != 1 or k < 2:
                raise ArithmeticError(f"fan weight {k} is not an integer >= 2")
            ks.append(int(k))
        return tuple(ks)
