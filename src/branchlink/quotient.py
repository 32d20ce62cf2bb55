"""Abelian quotient surface singularities and their resolution chains.

Cyclic types (d; a, b), two-row types, Hirzebruch-Jung data and the bamboo
chains coming from continued fractions.  A chain is stored run-length
encoded, as (kappa, count) runs: a type d/q needs O(number of runs) steps
and memory, however long the chain (a run of 2s can be 10^5 vertices long
while the whole chain has a dozen runs).  Only the assembly of the full
plumbing graph expands the runs into vertices.  A small planar-lattice
toolkit at the end gives an independent toric route to the same chains, in
integers: the lattice is held by its Hermite basis and walked one fan point
per chain vertex.  The main pipeline uses it only to check the chain at the
last singular point, the tests use it as an oracle everywhere.  Every
internal check raises ArithmeticError, so it also runs under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


Point = tuple[int, int]


def _cross(u: Point, v: Point) -> int:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class PlanarLattice:
    """Rank-2 lattice N = Z^2 + sum_i Z * (1/d_i)(u_i, v_i) inside Q^2.

    Held as the integer lattice scale*N, scale = lcm(d_i), by its Hermite
    basis (a, b), (0, c) with a, c > 0 and 0 <= b < c; every point is an
    integer pair in units of 1/scale, which no chain read off the fan
    depends on.
    """

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, t) -> "PlanarLattice":
        """The lattice of a CyclicType or TwoRowType: rows (d, u, v) of generators."""
        if isinstance(t, CyclicType):
            rows = [(t.d, t.a, t.b)]
        elif isinstance(t, TwoRowType):
            rows = t.rows()
        else:
            raise TypeError(f"unsupported type {t!r}")
        D = math.lcm(*(d for d, _, _ in rows))
        gens = [(D, 0), (0, D)] + [(u % d * (D // d), v % d * (D // d)) for d, u, v in rows]
        (a, b), (_, c) = _hnf2(gens)
        return cls(a, b, c)

    @property
    def covolume(self) -> int:
        return self.a * self.c

    def contains(self, p: Point) -> bool:
        x, y = p
        return x % self.a == 0 and (y - (x // self.a) * self.b) % self.c == 0

    def primitive_on_ray(self, x: int, y: int) -> Point:
        """Smallest lattice point t*(x, y) on the ray through the integer point
        (x, y) != 0: with (x, y) reduced, a | t*x takes s = a/gcd(a, x) | t, and
        then c | (t/s)*(s*y - (s*x/a)*b)."""
        h = math.gcd(x, y)
        x, y = x // h, y // h
        a, b, c = self.a, self.b, self.c
        s = a // math.gcd(a, x)
        t = s * c // math.gcd(c, s * y - (s * x // a) * b)
        p = (t * x, t * y)
        if not self.contains(p):
            raise ArithmeticError(f"primitive point {p} is not in the lattice")
        return p

    def fan_boundary(self) -> list[Point]:
        """Ray generators of the resolved first-quadrant cone, e1 side first.

        The interior points v_1, ..., v_r are the exceptional curves of the
        minimal resolution of the corresponding quotient germ, ordered from
        the {x1 = 0} axis; consecutive points satisfy v_{i-1} + v_{i+1} =
        kappa_i * v_i with kappa_i >= 2.  With g = gcd(b, c) the axes give
        v0 = (a*c/g, 0) and vend = (0, c), of fan order d = c/g, and
        v1 = (j*v0 + vend)/d = (j*a, g) lies in the lattice for j*b/g = 1 mod d.
        Each step takes kappa = ceil(x_{i-1}/x_i), so x falls strictly to 0.
        """
        v0 = self.primitive_on_ray(1, 0)
        vend = self.primitive_on_ray(0, 1)
        area = _cross(v0, vend)
        d, rem = divmod(area, self.covolume)
        g = math.gcd(self.b, self.c)
        if rem or d * g != self.c:
            raise ArithmeticError(f"fan order {area}/{self.covolume} is not the integer c/g > 0")
        if d == 1:
            return [v0, vend]
        v1 = (pow(self.b // g, -1, d) * self.a, g)
        if not self.contains(v1):
            raise ArithmeticError("no basis completion found on the hull")
        pts = [v0, v1]
        while pts[-1][0]:
            (x0, y0), (x1, y1) = pts[-2:]
            kappa = -(-x0 // x1)
            pts.append((kappa * x1 - x0, kappa * y1 - y0))
        if pts[-1] != vend:
            raise ArithmeticError("fan walk did not land on the second axis")
        return pts

    def chain_kappas_from_first_axis(self) -> tuple[int, ...]:
        """Chain weights read from the {x1 = 0} end (reverse of BambooChain.kappas)."""
        xs = [x for x, _ in self.fan_boundary()]
        ks = []
        for prev, cur, nxt in zip(xs, xs[1:], xs[2:]):
            k, rem = divmod(prev + nxt, cur)
            if rem or k < 2:
                raise ArithmeticError(f"fan weight ({prev} + {nxt})/{cur} is not an integer >= 2")
            ks.append(k)
        return tuple(ks)
