"""Shared test helpers: oracles and targeted generators."""

from __future__ import annotations

import heapq
import json
import math
import os
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from branchlink.plumbing import PlumbingGraph
from branchlink.quotient import _cross
from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.splice import SpliceDiagram


def src_env() -> dict:
    """The environment with the package source first on PYTHONPATH, for
    tests that run the package in a child Python process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


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


def dense(diag, edges):
    """Dense symmetric rows with ``diag`` on the diagonal and the weight w at
    (i, j) and (j, i) for every weighted edge (i, j, w)."""
    n = len(diag)
    m = [[0] * n for _ in range(n)]
    for i, d in enumerate(diag):
        m[i][i] = d
    for i, j, w in edges:
        m[i][j] = m[j][i] = w
    return m


def dense_rows(tree):
    """Dense rows of the matrix a TreeKernel holds: its diagonal and the
    weight of every vertex's edge to its parent."""
    edges = [(v, u, tree.weight[v]) for v, u in enumerate(tree.parent) if u >= 0]
    return dense(tree.diag, edges)


def random_forest(rng, n, components=1):
    """Random labelled forest: each vertex after the first few hangs off an
    earlier one, then the labels are shuffled so roots are not always 0."""
    edges = [(rng.randrange(i), i) for i in range(components, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[j]) for i, j in edges]


def rerooting_oracle(tree) -> list:
    """det of the branch above every vertex of a TreeKernel, by one
    root-to-leaf pass; the oracle for its parent-ward branch_determinant.

    The branch above v is the component of the forest minus v that holds
    the parent of v.  A branch with pair (D_b, P_b), joined to a vertex by
    an edge of weight w, acts on that vertex's pair as x*I - y*N with
    (x, y) = (D_b, w^2*P_b) and N nilpotent, so these actions commute and
    multiply as (x1*x2, x1*y2 + y1*x2).  The branch above a child c of w is
    w's pair from every branch at w but c's own: a prefix over the branches
    before c, starting with the branch above w, times a suffix over those
    after it.  A root has no branch above it: (1, 0).
    """
    D, diag, parent, weight = tree.D, tree.diag, tree.parent, tree.weight
    Y = [w * w * p for w, p in zip(weight, tree.P)]  # y of each subtree's action
    children = [[] for _ in D]
    for v in tree.order:
        if parent[v] >= 0:
            children[parent[v]].append(v)
    above_D = [1] * len(D)
    above_P = [0] * len(D)
    for w in tree.order:
        kids = children[w]
        if not kids:
            continue
        x, y = above_D[w], weight[w] ** 2 * above_P[w]
        suffix = [(1, 0)]
        for c in reversed(kids[1:]):
            sx, sy = suffix[-1]
            suffix.append((D[c] * sx, D[c] * sy + Y[c] * sx))
        for c in kids:
            sx, sy = suffix.pop()
            px, py = x * sx, x * sy + y * sx
            above_D[c], above_P[c] = diag[w] * px - py, px
            x, y = x * D[c], x * Y[c] + y * D[c]
    return above_D


def curve_boundary_intersections(lat, exp_second: int, exp_first: int):
    """Intersections of the germ {x2^A = x1^B} with the resolved boundary of
    the PlanarLattice ``lat``, by locating its ray in the fan.

    A = exp_second, B = exp_first.  Returns [(i, m), ...] where i indexes
    the fan_boundary points (0 = strict transform of {x1 = 0}, r + 1 =
    strict transform of {x2 = 0}) and m > 0 is the intersection number with
    that divisor.  The germ must be irreducible here, which holds whenever
    its defining vector is primitive in the dual lattice.  The oracle for
    the closed-form arrow of ``assemble_full_resolution``.
    """
    pts = lat.fan_boundary()
    w = lat.primitive_on_ray(exp_second, exp_first)
    for i in range(len(pts) - 1):
        if _cross(pts[i], w) >= 0 and _cross(w, pts[i + 1]) >= 0:
            det = _cross(pts[i], pts[i + 1])
            alpha = Fraction(_cross(w, pts[i + 1]), det)
            beta = Fraction(_cross(pts[i], w), det)
            assert alpha.denominator == 1 and beta.denominator == 1
            return [(j, int(m)) for j, m in ((i, alpha), (i + 1, beta)) if m]
    raise AssertionError("curve direction outside the first quadrant")


def r_direct(a, p, d, l: int) -> Fraction:
    """R_l by enumerating the non-adjacent subsets of {(k, k+1) : k < l}.

    The signed-sum definition of the R-sequence: each chosen pair (k, k+1)
    contributes -p_k / d_k^2 and each uncovered index k a factor a_k.  It
    takes 2^(l-1) subsets, so it is the oracle for the recurrence only.
    """
    pairs = list(range(1, l))  # pair (k, k+1) identified with k
    total = Fraction(0)
    for mask in range(1 << len(pairs)):
        ks = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if any(k2 - k1 == 1 for k1, k2 in zip(ks, ks[1:])):
            continue
        covered = set()
        for k in ks:
            covered.update((k, k + 1))
        term = Fraction((-1) ** len(ks))
        for k in ks:
            term *= Fraction(p[k]) / (Fraction(d[k]) ** 2)
        for k in range(1, l + 1):
            if k not in covered:
                term *= Fraction(a[k])
        total += term
    return total


def hj_kappas_oracle(d: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung expansion of d/q one term at a time: k = ceil(d/q),
    then (d, q) <- (q, k*q - d) until q = 0.  The oracle for the run-length
    chains."""
    ks = []
    while q:
        k = -(-d // q)
        ks.append(k)
        d, q = q, k * q - d
    return tuple(ks)


def box_representations(beta, n, target: int, upto: int, limit: int = 2):
    """Representations target = sum_{j<upto} c_j * beta_j with 0 <= c_j < n_j
    and c_0 >= 0, by enumerating the box of prod n_j coefficient vectors in
    lexicographic order; stops after ``limit`` hits.  The oracle for the
    residue-by-residue representation down the gcd chain."""
    sols = []
    for cs in product(*(range(n[j]) for j in range(1, upto))):
        rem = target - sum(c * beta[j] for j, c in enumerate(cs, start=1))
        if rem >= 0 and rem % beta[0] == 0:
            sols.append((rem // beta[0],) + cs)
            if len(sols) >= limit:
                break
    return sols


def lex_min_dfs(target: int, values) -> tuple[int, ...] | None:
    """Lexicographically least nonnegative integers with sum a_i*v_i = target.

    The memoised depth-first search over (index, remainder); the oracle for
    the residue-table witness search in ``splice``.
    """
    n = len(values)
    dead = set()

    def rec(idx, rem):
        if idx == n:
            return () if rem == 0 else None
        if (idx, rem) in dead:
            return None
        v = values[idx]
        for c in range(rem // v + 1):
            tail = rec(idx + 1, rem - c * v)
            if tail is not None:
                return (c,) + tail
        dead.add((idx, rem))
        return None

    return rec(0, target)


def apery_oracle(values) -> list:
    """Least combination of the positive ``values`` in each residue class
    modulo their least value m, or None, by marking every combination up to
    (m - 1) * max(values): a least one in its class is a sum of at most m - 1
    values (among m + 1 partial sums two share a residue, and the values
    between them could be dropped)."""
    m = min(values)
    bound = (m - 1) * max(values)
    reachable = [True] + [False] * bound
    for x in range(1, bound + 1):
        reachable[x] = any(v <= x and reachable[x - v] for v in values)
    table = [None] * m
    for x in range(bound, -1, -1):
        if reachable[x]:
            table[x % m] = x
    return table


def fraction_solve(rows, rhs=None):
    """Exact symmetric elimination over Fractions, least degree first.

    ``rows`` are sparse symmetric rows {i: {j: value}}.  Returns the pivots
    and, when ``rhs`` is given, the solution of A x = rhs by back-substitution.
    The independent oracle for the tree kernel; raises ZeroDivisionError on
    a zero pivot.
    """
    rows = {i: {j: Fraction(x) for j, x in row.items() if x} for i, row in rows.items()}
    b = {i: Fraction(rhs[i]) for i in rows} if rhs is not None else None
    alive = set(rows)
    heap = [(len(row), v) for v, row in rows.items()]
    heapq.heapify(heap)
    pivots, steps = [], []
    while heap:
        deg, v = heapq.heappop(heap)
        if v not in alive:
            continue
        if deg != len(rows[v]):
            heapq.heappush(heap, (len(rows[v]), v))
            continue
        alive.discard(v)
        row_v = rows[v]
        p = row_v.pop(v, Fraction(0))
        if p == 0:
            raise ZeroDivisionError(f"zero pivot at index {v}")
        pivots.append(p)
        nbrs = [j for j in row_v if j in alive]
        for i in nbrs:
            f = rows[i].pop(v) / p
            if b is not None:
                b[i] -= f * b[v]
            ri = rows[i]
            for j in nbrs:
                ri[j] = ri.get(j, Fraction(0)) - f * row_v[j]
                if ri[j] == 0:
                    del ri[j]
            heapq.heappush(heap, (len(ri), i))
        steps.append((v, p, {j: c for j, c in row_v.items() if j in alive}))
    if b is None:
        return pivots, None
    x = {}
    for v, p, row_v in reversed(steps):
        x[v] = (b[v] - sum((c * x[j] for j, c in row_v.items()), Fraction(0))) / p
    return pivots, [x[i] for i in sorted(x)]


def plumbing_graph(self_int, edges, genus=None):
    """PlumbingGraph on vertices 0..n-1 with the given self-intersections,
    edges and genera (all 0 by default), labelled v0, v1, ..., no strict
    transforms and no arrow."""
    n = len(self_int)
    return PlumbingGraph(
        genus=tuple(genus) if genus is not None else (0,) * n,
        self_int=tuple(self_int),
        labels=tuple(f"v{i}" for i in range(n)),
        edges=tuple(edges),
        strict=((),),
    )


def assembly_oracle(qr) -> PlumbingGraph:
    """The full plumbing graph by one branch per census kind.

    The per-kind assembly that ``plumbing.assemble_full_resolution``
    replaced, with its per-kind count of strict-transform corrections:
    Q0 chains hang off level 1 by their head, Q and P chains off their
    level by their tail, and edge chains join level k+1 (head) to level k
    (tail), p_k of them per level-(k+1) component.
    """
    g = qr.g
    genus, self_int, labels, edges, strict = [], [], [], [], []
    for k in range(1, g):
        e2 = -qr.a[k]
        for pt in qr.points_on_level(k):
            if pt.is_smooth:
                continue
            if pt.kind == "edge":
                count = pt.per_component if k == pt.level + 1 else 1
            else:
                count = pt.per_component
            e2 -= count * pt.correction_for_level(k)
        assert e2.denominator == 1
        strict.append(range(len(labels), len(labels) + qr.r[k]))
        genus.extend([qr.genus[k]] * qr.r[k])
        self_int.extend([int(e2)] * qr.r[k])
        labels.extend(f"E{k}.{j + 1}" for j in range(qr.r[k]))

    def add_chain(chain, label, head_vid=None, tail_vid=None) -> range:
        start = len(labels)
        self_int.extend(-kappa for kappa in chain.kappas)
        vids = range(start, len(self_int))
        genus.extend([0] * len(vids))
        labels.extend(f"{label}.{i + 1}" for i in range(len(vids)))
        edges.extend(zip(vids, vids[1:]))
        if vids:
            if head_vid is not None:
                edges.append((head_vid, start))
            if tail_vid is not None:
                edges.append((vids[-1], tail_vid))
        elif head_vid is not None and tail_vid is not None:
            edges.append((head_vid, tail_vid))
        return vids

    p_chain_vids = range(0)
    for pt in qr.census:
        if pt.kind == "Q0":
            for j in range(qr.r[1]):
                for c in range(pt.per_component):
                    if not pt.is_smooth:
                        add_chain(pt.chain, f"Q0[{j + 1}.{c + 1}]", head_vid=strict[0][j])
        elif pt.kind == "Q":
            k = pt.level
            for j in range(qr.r[k]):
                for c in range(pt.per_component):
                    if not pt.is_smooth:
                        add_chain(pt.chain, f"Q{k}[{j + 1}.{c + 1}]", tail_vid=strict[k - 1][j])
        elif pt.kind == "edge":
            k = pt.level
            for j2 in range(qr.r[k + 1]):
                for t in range(qr.p[k]):
                    j1 = j2 * qr.p[k] + t
                    add_chain(
                        pt.chain,
                        f"Q{k}{k + 1}[{j1 + 1}]",
                        head_vid=strict[k][j2],
                        tail_vid=strict[k - 1][j1],
                    )
        elif pt.kind == "P":
            if not pt.is_smooth:
                p_chain_vids = add_chain(pt.chain, "P", tail_vid=strict[g - 2][0])
        else:
            raise AssertionError(f"unknown census kind {pt.kind}")
    arrow_vid = p_chain_vids[0] if p_chain_vids else strict[g - 2][0]
    return PlumbingGraph(
        genus=tuple(genus),
        self_int=tuple(self_int),
        labels=tuple(labels),
        edges=tuple(edges),
        strict=tuple(tuple(vs) for vs in strict),
        arrow=((arrow_vid, qr.cd.n[g]),),
    )


def adjacency(pg) -> dict[int, list[int]]:
    """Neighbour lists of pg, built from its edge list alone."""
    adj = {v: [] for v in range(pg.n)}
    for i, j in pg.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def graph_rows(pg, keep=None):
    """Sparse Fraction rows of the intersection matrix of pg, or of the
    subgraph on the vertex ids in ``keep``."""
    rows = {
        v: {v: Fraction(s)} for v, s in enumerate(pg.self_int) if keep is None or v in keep
    }
    for i, j in pg.edges:
        if i in rows and j in rows:
            rows[i][j] = rows[i].get(j, 0) + 1
            rows[j][i] = rows[j].get(i, 0) + 1
    return rows


def oracle_cut_determinant(pg, v, toward) -> int:
    """|det| of the piece of pg that the edge v-toward cuts off beyond v."""
    adj = adjacency(pg)
    keep = set()
    stack = [toward]
    while stack:
        u = stack.pop()
        if u in keep or u == v:
            continue
        keep.add(u)
        stack.extend(adj[u])
    pivots, _ = fraction_solve(graph_rows(pg, keep))
    det = math.prod(pivots, start=Fraction(1))
    assert det.denominator == 1
    return abs(int(det))


def splice_walk_oracle(pg) -> SpliceDiagram:
    """Splice diagram of pg by walking every valency-2 chain vertex by vertex
    over an adjacency of its own, from each node in turn; the weight at a
    node is the cut determinant of the first vertex of the chain.  The
    oracle for the one-pass walk over the tree kernel's rooted order."""
    adj = adjacency(pg)
    degree = {v: len(adj[v]) for v in adj}
    keep = [v for v in adj if degree[v] != 2]
    nodes = frozenset(v for v in keep if degree[v] >= 3)
    leaves = frozenset(v for v in keep if degree[v] == 1)
    tree = pg.tree_kernel()
    edges = []
    weights = {}
    seen_pairs = set()
    for v in sorted(nodes):
        for first in adj[v]:
            prev, cur = v, first
            while degree[cur] == 2:
                nxt = [u for u in adj[cur] if u != prev][0]
                prev, cur = cur, nxt
            weights[(v, cur)] = abs(tree.branch_determinant(v, first))
            if (v, cur) not in seen_pairs:
                seen_pairs.add((v, cur))
                seen_pairs.add((cur, v))
                edges.append((v, cur))
    return SpliceDiagram(
        labels=pg.labels, nodes=nodes, leaves=leaves, edges=tuple(edges), weights=weights
    )


def linking_numbers_oracle(sd: SpliceDiagram, v: int, w: int) -> tuple[int, int]:
    """(l_vw, l'_vw) from the v-w path found by a parent-pointer walk: the
    products of the weights at the path's nodes off the path, l' without
    the contributions at v and w.  The oracle for ``SpliceDiagram.beyond``
    and ``linking_numbers``."""
    if v == w:
        return (1, 1)
    parent = {v: None}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in sd.neighbors(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = [w]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    on_path = set(zip(path, path[1:])) | set(zip(path[1:], path))
    full = 1
    inner = 1
    for x in path:
        if x not in sd.nodes:
            continue
        contrib = math.prod(sd.weight(x, u) for u in sd.neighbors(x) if (x, u) not in on_path)
        full *= contrib
        if x not in (v, w):
            inner *= contrib
    return (full, inner)


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


def acceptance_sample(size: int = 500) -> list[tuple[int, ...]]:
    """The seeded generator lists behind the acceptance criteria."""
    rng = random.Random(2024)
    gens = []
    for i in range(size):
        g = rng.choice([3, 4, 5, 6])
        max_n = 5 if g <= 4 else 3
        gens.append(random_plane_semigroup(g, max_n, seed=f"acc:{i}"))
    return gens


def criterion_8_extras() -> list:
    """The 30 integral-link inputs criterion 8 adds to the sample's own."""
    rng = random.Random(2025)
    return [
        derive_from_generators(random_zhs_semigroup(rng.choice([3, 4, 5]), rng))
        for _ in range(30)
    ]


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


def _enc(value):
    """Recursively stringify integers and fractions for JSON output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, (list, tuple)):
        return [_enc(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _enc(v) for k, v in value.items()}
    return value


def json_oracle(payload) -> str:
    """The JSON text ``cli._render`` must reproduce: the old ``--json`` route,
    ``json.dumps`` with ``indent=2`` of the value with every int and Fraction
    stringified."""
    return json.dumps(_enc(payload), indent=2)
