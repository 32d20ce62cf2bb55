"""Exact linear algebra: determinants, solves, Smith normal form.

Everything works over arbitrary-precision integers and fractions; no
floating point anywhere.  Every intersection matrix in the package is a
tree: the plumbing graph with edge weights 1 and the partial-resolution
matrix with edge weights 1/d_{k(k+1)}.  So one exact tree kernel
(``TreeKernel``) gives all their determinants and definiteness signs from
one leaf-to-root pass, each cut determinant from a walk to the root, and
their solves.  The Smith normal form works modulo the
determinant: sparse unit-pivot elimination first, then a small dense core
over Z/|det|.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class ZeroPivot(ArithmeticError):
    """The tree solve hit a zero pivot."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def continuant(runs) -> int:
    """|det| of the bamboo given as runs ((k, count), ...) of self-intersection -k.

    Satisfies D_i = k_i * D_{i-1} - D_{i-2}; the empty chain gives 1.  One
    step acts on (D_i, D_{i-1}) by [[k, -1], [1, 0]], and a run of L 2s by
    its closed-form power [[L+1, -L], [L, 1-L]], so a run of 2s costs one
    step whatever its length.
    """
    prev, cur = 0, 1
    for k, count in runs:
        if k == 2:
            prev, cur = count * cur - (count - 1) * prev, (count + 1) * cur - count * prev
        else:
            for _ in range(count):
                prev, cur = cur, k * cur - prev
    return cur


class NotATree(ValueError):
    """The graph of the matrix has a cycle, so the tree kernel does not apply."""


class TreeKernel:
    """Exact kernel for a symmetric matrix whose graph is a forest.

    The matrix has the diagonal ``diag`` and the entry w at (i, j) and
    (j, i) for every weighted edge (i, j, w) of the sequence ``edges``,
    which is read twice (the shape first, then the weights); a cycle, a
    repeated edge or a loop raises NotATree.  Entries are ints or Fractions;
    only the solve divides, so a zero pivot needs no fallback and integer
    data keeps integer determinants.  Each component is rooted at its least
    vertex and one leaf-to-root pass gives, for every vertex v,

        D[v] = det of the subtree at v,  P[v] = det of that subtree minus v,

    by the pair recurrence (D, P) <- (D*D_c - w_c^2*P*P_c, P*D_c) over the
    children c, from (diag[v], 1), where w_c weighs the edge from c up to v.
    D[v]/P[v] is the pivot of v in a leaf-first symmetric elimination, so
    the determinant and the signs of every pivot come from this one pass; a
    cut determinant is some D[u] or, toward the parent, one walk to the
    root with the same recurrence, and a back-substitution gives the solve
    (Neumann, *A calculus for plumbing*, 1981; Eisenbud and Neumann, 1985).
    """

    def __init__(self, diag, edges):
        n = len(diag)
        adj = [[] for _ in range(n)]
        count = 0
        for i, j, _ in edges:
            adj[i].append(j)
            adj[j].append(i)
            count += 1
        parent = [-1] * n
        seen = [False] * n
        order = []
        roots = []
        for r in range(n):
            if seen[r]:
                continue
            seen[r] = True
            roots.append(r)
            head = len(order)
            order.append(r)
            while head < len(order):
                v = order[head]
                head += 1
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        parent[u] = v
                        order.append(u)
        if count != n - len(roots):
            raise NotATree(
                f"{count} edges on {n} vertices in {len(roots)} components: not a forest"
            )
        weight = [0] * n  # weight of the edge up to the parent; 0 at a root
        for i, j, w in edges:
            weight[j if parent[j] == i else i] = w
        D = list(diag)
        P = [1] * n
        for v in reversed(order):  # children before parents
            u = parent[v]
            if u >= 0:
                D[u], P[u] = D[u] * D[v] - weight[v] ** 2 * P[u] * P[v], P[u] * D[v]
        self.n = n
        self.diag = diag
        self.parent = parent
        self.weight = weight
        self.order = order
        self.roots = roots
        self.D = D
        self.P = P
        self._child_ranges = None  # built by the first child_ranges()

    @property
    def det(self):
        """Determinant of the whole matrix: the product over the components."""
        return math.prod(self.D[r] for r in self.roots)

    def negative_definite(self) -> bool:
        """Every leaf-first pivot D[v]/P[v] is negative, with P[v] != 0."""
        return all(d < 0 < p or p < 0 < d for d, p in zip(self.D, self.P))

    def child_ranges(self) -> tuple[list[int], list[int]]:
        """(first, stop) such that the children of v are order[first[v]:stop[v]].

        The BFS appends the children of each vertex together, so they fill
        one slice of ``order``; a vertex without children gets an empty one.
        Built on first use, so callers that never ask pay nothing.
        """
        if self._child_ranges is None:
            first = [0] * self.n
            stop = [0] * self.n
            parent = self.parent
            for i, c in enumerate(self.order):
                u = parent[c]
                if u >= 0:
                    if not stop[u]:  # a child never sits at 0, so stop 0 means none yet
                        first[u] = i
                    stop[u] = i + 1
            self._child_ranges = first, stop
        return self._child_ranges

    def branch_determinant(self, v: int, u: int):
        """det of the component of the forest minus v that holds its neighbour u.

        Toward a child u this is D[u].  Toward the parent it walks from v up
        to the root, recomputing each ancestor's pair from its diagonal over
        its children: the child on the path gives the pair just recomputed,
        v itself gives (1, 0), which drops its branch, and every other child
        its stored (D, P).  The root's D is the answer.  One query costs the
        children met on the path, read from ``child_ranges``.
        """
        parent = self.parent
        if parent[u] == v:
            return self.D[u]
        if parent[v] != u:
            raise ValueError(f"{u} is not a neighbour of {v}")
        first, stop = self.child_ranges()
        D, P, diag, weight, order = self.D, self.P, self.diag, self.weight, self.order
        d, p = 1, 0
        while u >= 0:
            x, y = diag[u], 1
            for c in order[first[u]:stop[u]]:
                dc, pc = (d, p) if c == v else (D[c], P[c])
                x, y = x * dc - weight[c] ** 2 * y * pc, y * dc
            d, p = x, y
            v, u = u, parent[u]
        return d

    def solve(self, rhs) -> list:
        """Exact solution x of A x = rhs; ints where integral, else Fractions.

        Leaf-to-root elimination carries B[v], the rhs of v after its subtree
        is eliminated times P[v], by B <- B*D_c - w_c*P*B_c; back-substitution
        from the roots then gives x[v] = (B[v] - w_v*x[parent]*P[v]) / D[v].
        Raises ZeroPivot when some D[v] is 0, which no definite matrix has.
        """
        D, P, parent, weight = self.D, self.P, self.parent, self.weight
        B = list(rhs)
        partial = [1] * len(D)  # P[u] over the children folded in so far
        for v in reversed(self.order):
            u = parent[v]
            if u >= 0:
                B[u] = B[u] * D[v] - weight[v] * partial[u] * B[v]
                partial[u] *= D[v]
        x = [0] * len(D)
        for v in self.order:
            if D[v] == 0:
                raise ZeroPivot(f"zero pivot at index {v}")
            u = parent[v]
            num = B[v] if u < 0 else B[v] - weight[v] * x[u] * P[v]
            q, r = divmod(num, D[v])
            x[v] = q if r == 0 else Fraction(num, D[v])
        return x


def invariant_factors(rows, det: int) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_n of a nonsingular integer matrix.

    ``rows`` holds the square matrix as sparse integer rows {i: {j: value}}
    whose column indices are row indices; ``det`` is |det| of the matrix.
    The cokernel is killed by D = |det|, so all arithmetic runs in Z/D
    (Domich, Kannan and Trotter, 1987), in two phases:

    1. sparse: pivot on entries coprime to D, least Markowitz cost first,
       and drop the pivot row and column; each such pivot is a factor 1
       (unit-pivot pre-elimination, Dumas, Saunders and Villard, 2001);
    2. core: a dense Smith form over Z/D of what is left, each factor being
       gcd(pivot, D).

    With D as the modulus the factors come out as gcd(d_i, D): the product
    check below catches a D that is a proper multiple of the true |det|, but
    a D that divides it can pass (D = 1 always does).  Callers need an
    independent check of the torsion order against D.

    Raises ArithmeticError when the factor count, the product or the
    divisibility chain comes out wrong.
    """
    n = len(rows)
    if det < 1:
        raise ValueError(f"invariant_factors needs |det| >= 1, got {det}")
    if det == 1:
        return [1] * n
    ones, core = _unit_pivots(rows, det)
    factors = [1] * ones + _core_factors(core, det)
    if len(factors) != n:
        raise ArithmeticError(f"{len(factors)} invariant factors for dimension {n}")
    if math.prod(factors) != det:
        raise ArithmeticError("invariant factors do not multiply to |det|")
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise ArithmeticError("broken divisibility chain in Smith normal form")
    return factors


def _unit_pivots(rows, mod: int) -> tuple[int, list[list[int]]]:
    """Sparse phase: eliminate unit pivots mod ``mod`` by least Markowitz cost.

    Returns the number of pivots taken and the dense residual core.  Scaling
    the pivot row by the inverse of the pivot and clearing the pivot column
    are unimodular over Z/mod, and the cleared pivot row and column then
    split off a factor 1.
    """
    R = {}
    cols = {i: set() for i in rows}
    for i, row in rows.items():
        R[i] = {j: y for j, x in row.items() if (y := x % mod)}
        for j in R[i]:
            cols[j].add(i)

    heap = [
        ((len(row) - 1) * (len(cols[j]) - 1), i, j)
        for i, row in R.items()
        for j, x in row.items()
        if math.gcd(x, mod) == 1
    ]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = R.get(i)
        if row is None or j not in row or math.gcd(row[j], mod) != 1:
            continue  # stale: row dropped, entry gone or no longer a unit
        now = (len(row) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, j))
            continue
        del R[i]
        for k in row:
            cols[k].discard(i)
        inv = pow(row.pop(j), -1, mod)
        prow = {k: x * inv % mod for k, x in row.items()}
        for r in cols.pop(j):
            rr = R[r]
            f = rr.pop(j)
            for k, x in prow.items():
                y = (rr.get(k, 0) - f * x) % mod
                if y:
                    if k not in rr:
                        cols[k].add(r)
                    rr[k] = y
                elif k in rr:
                    del rr[k]
                    cols[k].discard(r)
            for k, y in rr.items():
                if math.gcd(y, mod) == 1:
                    heapq.heappush(heap, ((len(rr) - 1) * (len(cols[k]) - 1), r, k))
        pivots += 1
    order = sorted(cols)
    return pivots, [[R[i].get(j, 0) for j in order] for i in sorted(R)]


def _core_factors(A: list[list[int]], mod: int) -> list[int]:
    """Core phase: dense Smith form over Z/mod of a square matrix.

    Where the pivot already divides the entry, plain subtraction clears it;
    otherwise an xgcd step makes the pivot gcd(pivot, entry).  So the
    pivot's integer representative strictly decreases on every xgcd step,
    at most log2(mod) times per position.  (xgcd steps alone can cycle: an
    entry equal to the pivot moves its row into the pivot row.)  Rows and
    columns before position t are zero beyond their pivots, so every step
    works on the trailing block only.
    """
    m = len(A)
    factors = []
    for t in range(m):
        pos = _pick_pivot(A, t, mod)
        if pos is None:
            factors.extend([mod] * (m - t))  # zero block: gcd(0, mod) = mod
            break
        i0, j0 = pos
        A[t], A[i0] = A[i0], A[t]
        for row in A:
            row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    A[t][t:], A[i][t:] = _combine(A[t][t:], A[i][t:], mod)
            for j in range(t + 1, m):
                if A[t][j]:
                    col_t, col_j = _combine(
                        [A[r][t] for r in range(t, m)], [A[r][j] for r in range(t, m)], mod
                    )
                    for r, x, z in zip(range(t, m), col_t, col_j):
                        A[r][t], A[r][j] = x, z
            if any(A[i][t] for i in range(t + 1, m)):
                continue  # an xgcd column step refilled column t
            g = math.gcd(A[t][t], mod)
            culprit = next(
                (i for i in range(t + 1, m) if any(x % g for x in A[i][t + 1:])), None
            )
            if culprit is None:
                break
            # g must divide the whole block: fold the offending row into row t
            A[t][t:] = [(x + y) % mod for x, y in zip(A[t][t:], A[culprit][t:])]
        factors.append(g)
    return factors


def _pick_pivot(A, t: int, mod: int):
    """Position of the entry with least gcd(x, mod) in the first nonzero column."""
    for j in range(t, len(A)):
        col = [(math.gcd(A[i][j], mod), i) for i in range(t, len(A)) if A[i][j]]
        if col:
            return min(col)[1], j
    return None


def _combine(u: list[int], v: list[int], mod: int):
    """Unimodular 2x2 step on u, v that clears v[0] against the pivot u[0]."""
    p, y = u[0], v[0]
    if y % p == 0:
        q = y // p
        return u, [(b - q * a) % mod for a, b in zip(u, v)]
    g, s, r = xgcd(p, y)
    a, b = -(y // g), p // g
    return (
        [(s * x + r * z) % mod for x, z in zip(u, v)],
        [(a * x + b * z) % mod for x, z in zip(u, v)],
    )
