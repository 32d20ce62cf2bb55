"""Exact intersection-matrix determinants and link classification.

Builds the intersection matrix of the partial resolution as a weighted
tree (``_linalg.TreeKernel``), evaluates its determinant both by the tree
recurrence and by the closed-form product of the R-sequence, computes the
surface determinant along two independent routes, and classifies the link
of the singularity (rational / integral homology sphere / neither) by the
gcd criterion.  Every dual-route check raises ArithmeticError on a
mismatch, so it also runs under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import _linalg
from .semigroup import CharacteristicData
from .qres import QResolutionData, compute_qresolution


class MismatchedLengths(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class LinkKind(str, Enum):
    NOT_QHS = "not_QHS"
    QHS = "QHS"
    ZHS = "ZHS"


@dataclass(frozen=True)
class LevelWitness:
    """gcd evidence at one level of the classification criterion."""

    k: int
    gcd_n_lcm: int
    gcd_quot_lcm: int
    gcd_quot_e: int | None


@dataclass(frozen=True)
class LinkClass:
    kind: LinkKind
    witnesses: tuple[LevelWitness, ...]
    noncoprime_pairs: tuple[tuple[int, int, int], ...]

    @property
    def is_zhs(self) -> bool:
        return self.kind is LinkKind.ZHS


def build_intersection_matrix(qr: QResolutionData) -> _linalg.TreeKernel:
    """Tree kernel of the intersection matrix of the partial resolution.

    One vertex per exceptional component, levels in increasing order; the
    diagonal holds -a_k and each level-(k+1) component meets p_k consecutive
    level-k components with intersection number 1/d_{k(k+1)}.  Every
    level-k component meets at most one component of level k+1, so the
    matrix is a weighted forest and no dense rows are built.
    """
    g = qr.g
    offsets = [0]
    for k in range(1, g):
        offsets.append(offsets[-1] + qr.r[k])
    diag = [-qr.a[k] for k in range(1, g) for _ in range(qr.r[k])]
    edges = []
    for k in range(1, g - 1):
        w = Fraction(1, qr.d_edge[k])
        for j2 in range(qr.r[k + 1]):
            for t in range(qr.p[k]):
                j1 = j2 * qr.p[k] + t
                edges.append((offsets[k - 1] + j1, offsets[k] + j2, w))
    return _linalg.TreeKernel(diag, edges)


def det_exact(m: _linalg.TreeKernel) -> Fraction:
    """Exact determinant of the partial-resolution matrix."""
    return m.det


def r_sequence(a, p, d) -> tuple[Fraction, ...]:
    """(R_0, ..., R_m) for self-intersections a[1..m], ratios p[1..m-1], orders d[1..m-1].

    R_0 = 1, R_1 = a_1 and R_{l+1} = a_{l+1} R_l - p_l R_{l-1} / d_{l(l+1)}^2.
    Inputs are 1-indexed sequences of ints or Fractions (index 0 ignored);
    raises MismatchedLengths when the lengths disagree.
    """
    m = len(a) - 1
    if len(p) != m or len(d) != m:
        raise MismatchedLengths(
            f"lengths must satisfy len(p) = len(d) = len(a) - 1, "
            f"got len(a) = {len(a)}, len(p) = {len(p)}, len(d) = {len(d)}"
        )
    values = [Fraction(1)]
    if m >= 1:
        values.append(Fraction(a[1]))
    for l in range(1, m):
        values.append(a[l + 1] * values[l] - p[l] * values[l - 1] / d[l] ** 2)
    return tuple(values)


def _explicit_quotient(qr: QResolutionData) -> tuple[int, int]:
    """|det A| as an integer pair (num, den), by the explicit quotient

    n_g prod_{k=2}^{g-1} N_k^{r_{k-1}-r_k} / (N_1^{r_1} d prod_{k=1}^{g-2} d_{k(k+1)}^{r_k})

    with d the order at P.  No exponent is negative: r_{k+1} divides r_k.
    """
    g = qr.g
    num = qr.cd.n[g]
    for k in range(2, g):
        num *= qr.N[k] ** (qr.r[k - 1] - qr.r[k])
    den = qr.N[1] ** qr.r[1] * qr.d_last
    for k in range(1, g - 1):
        den *= qr.d_edge[k] ** qr.r[k]
    return num, den


def det_closed_form(qr: QResolutionData) -> Fraction:
    """det of the intersection matrix by the R-product formula, for every g >= 2.

    The sign is (-1)^(r_1 + ... + r_{g-1}).  Checks the product against the
    explicit quotient of ``_explicit_quotient``; ArithmeticError if they
    differ.  At g = 2 both reduce to -a_1.
    """
    g = qr.g
    R = r_sequence(qr.a, qr.p, qr.d_edge)
    sign = (-1) ** sum(qr.r[1:])
    det = sign * R[g - 1]
    for l in range(1, g - 1):
        det *= R[l] ** (qr.r[l] - qr.r[l + 1])
    num, den = _explicit_quotient(qr)
    if det != sign * Fraction(num, den):
        raise ArithmeticError("R-product and explicit determinant disagree")
    return det


def det_b_matrices(qr: QResolutionData, s: int) -> tuple[Fraction, Fraction]:
    """(det B_s, det B'_s): tail and head tridiagonal determinants.

    B_s is tridiagonal in -a_s, ..., -a_{g-1}; B'_s in -a_1, ..., -a_s; the
    off-diagonal entries are the 1/d_{k(k+1)}.  Both are weighted paths, so
    the tree kernel evaluates them.
    """
    g = qr.g
    if not 1 <= s <= g - 1:
        raise IndexOutOfRange(f"s = {s} out of range 1..{g - 1}")

    def path_det(ks):
        diag = [-qr.a[k] for k in ks]
        edges = [(i, i + 1, Fraction(1, qr.d_edge[k])) for i, k in enumerate(ks[:-1])]
        return _linalg.TreeKernel(diag, edges).det

    tail = path_det(range(s, g))
    head = path_det(range(1, s + 1))
    return tail, head


def census_order_product(qr: QResolutionData) -> int:
    """Product of the singular-point orders of the partial resolution."""
    prod = 1
    for pt in qr.census:
        prod *= pt.d ** pt.total
    return prod


def det_S(cd: CharacteristicData, qr: QResolutionData | None = None) -> int:
    """Determinant of the surface singularity (torsion order of the link).

    Evaluates the product formula over the levels and checks it against the
    independent route |det A| * prod(orders), with |det A| the explicit
    quotient, as one integer identity.  At g = 2 the singularity is
    Brieskorn-Pham with exponents (n_0, n_1, n_2), and its determinant is
    one more check.  Every route must agree on a positive integer.
    """
    if qr is None:
        qr = compute_qresolution(cd)
    g = cd.g
    product = 1
    for k in range(1, g):
        dk = qr.N[k] // qr.M[k]
        exp1 = cd.beta[k] // qr.M[k] - qr.r[k]
        lcm_from_k = math.lcm(cd.n[k], cd.lcm_tail(k))
        if qr.N[k] % lcm_from_k:
            raise ArithmeticError(f"N_{k} is not a multiple of lcm(n_{k}, ..., n_g)")
        exp2 = qr.r[k - 1] - qr.r[k]
        if exp1 < 0 or exp2 < 0:
            raise ArithmeticError(f"negative exponent at level {k} of det(S)")
        product *= dk ** exp1 * (qr.N[k] // lcm_from_k) ** exp2
    # census_order_product already includes the order at P
    num, den = _explicit_quotient(qr)
    if num * census_order_product(qr) != product * den:
        raise ArithmeticError("det(S) routes disagree")
    if g == 2 and classify_brieskorn_pham(cd.n[0], cd.n[1], cd.n[2]).determinant != product:
        raise ArithmeticError("Brieskorn-Pham and product determinants disagree")
    return product


def classify_link(cd: CharacteristicData) -> LinkClass:
    """Link classification by the gcd criterion on the exponents.

    QHS iff at every level one of the two gcds with the tail lcm is 1; ZHS
    iff the exponents n_0, ..., n_g are pairwise coprime and the middle
    quotients are coprime to their gcd levels.  Witness gcds are recorded
    for every level either way.
    """
    g = cd.g
    witnesses = []
    qhs = True
    for k in range(1, g):
        L = cd.lcm_tail(k)
        w1 = math.gcd(cd.n[k], L)
        w2 = math.gcd(cd.beta[k] // cd.e[k], L)
        w3 = math.gcd(cd.beta[k] // cd.e[k], cd.e[k]) if 2 <= k <= g - 1 else None
        witnesses.append(LevelWitness(k=k, gcd_n_lcm=w1, gcd_quot_lcm=w2, gcd_quot_e=w3))
        if w1 != 1 and w2 != 1:
            qhs = False
    pairs = tuple(
        (i, j, math.gcd(cd.n[i], cd.n[j]))
        for i in range(g + 1)
        for j in range(i + 1, g + 1)
        if math.gcd(cd.n[i], cd.n[j]) != 1
    )
    zhs = not pairs and all(
        w.gcd_quot_e == 1 for w in witnesses if w.gcd_quot_e is not None
    )
    if zhs:
        if not qhs:
            raise ArithmeticError("integral link that is not a rational homology sphere")
        kind = LinkKind.ZHS
    elif qhs:
        kind = LinkKind.QHS
    else:
        kind = LinkKind.NOT_QHS
    return LinkClass(kind=kind, witnesses=tuple(witnesses), noncoprime_pairs=pairs)


@dataclass(frozen=True)
class BPClassification:
    """Link data of x^a1 + y^a2 + z^a3 = 0."""

    exponents: tuple[int, int, int]
    kind: LinkKind
    genus: int
    determinant: int
    e: int
    alpha: tuple[int, int, int]
    d: tuple[int, int, int]


def classify_brieskorn_pham(a1: int, a2: int, a3: int) -> BPClassification:
    """Classify a Brieskorn-Pham surface link and compute genus/determinant."""
    if min(a1, a2, a3) < 2:
        raise ValueError("exponents must be at least 2")
    a = (a1, a2, a3)
    e = math.gcd(math.gcd(a1, a2), a3)
    alpha = tuple(
        math.gcd(a[j], a[l]) // e
        for j, l in ((1, 2), (0, 2), (0, 1))
    )
    num = e * e * alpha[0] * alpha[1] * alpha[2] - e * sum(alpha) + 2
    if num % 2:
        raise ArithmeticError("odd Brieskorn-Pham genus numerator")
    genus = num // 2
    d = []
    for i in range(3):
        aj, al = alpha[(i + 1) % 3], alpha[(i + 2) % 3]
        if a[i] % (e * aj * al):
            raise ArithmeticError(f"exponent {a[i]} is not a multiple of {e * aj * al}")
        d.append(a[i] // (e * aj * al))
    determinant = e
    for i in range(3):
        determinant *= d[i] ** (e * alpha[i] - 1)
    pairwise = all(math.gcd(a[i], a[j]) == 1 for i in range(3) for j in range(i + 1, 3))
    qhs = (alpha == (1, 1, 1) and e == 2) or any(
        alpha[i] == alpha[j] == 1 and e == 1
        for i in range(3)
        for j in range(i + 1, 3)
    )
    if pairwise:
        kind = LinkKind.ZHS
        if genus != 0 or determinant != 1:
            raise ArithmeticError("pairwise coprime exponents with genus or det != 1")
    elif qhs:
        kind = LinkKind.QHS
    else:
        kind = LinkKind.NOT_QHS
    return BPClassification(
        exponents=a,
        kind=kind,
        genus=genus,
        determinant=determinant,
        e=e,
        alpha=alpha,
        d=tuple(d),
    )
