"""Decorated dual graphs of the fully resolved surface.

Expands every singular point of the partial resolution into its bamboo
chain, assembles the integer plumbing graph with the corrected strict
transform self-intersections, and locates the strict transform of the
curve (the arrow) on the resolved chain toric-style.  The graph is plain
data, vertex columns beside an edge list, and a tree: its determinant, the
negative-definiteness test, the pull-back solve and the splice walk all
read from one exact integer tree kernel (``_linalg.TreeKernel``).  The
first homology of the link comes from the Smith normal form of the
intersection matrix, computed modulo its determinant by sparse unit-pivot
elimination.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import _linalg
from ._linalg import NotATree  # raised by every layer that reads the tree kernel
from .detcalc import LinkClass, LinkKind
from .qres import QResolutionData, strict_self_intersection
from .quotient import PlanarLattice


class NonIntegralSelfIntersection(ArithmeticError):
    """A strict transform came out with a fractional self-intersection."""


class NotNegativeDefinite(ValueError):
    pass


@dataclass(frozen=True)
class PlumbingGraph:
    """Dual graph of a good resolution: decorated vertices plus an arrow.

    Vertex i is index i of the columns genus, self_int and labels.
    strict[k-1] holds the vertex ids of the level-k strict transforms.  The
    arrow records (vertex id, intersection number) pairs for the strict
    transform of the curve; it is empty for graphs assembled without one.
    """

    genus: tuple[int, ...]
    self_int: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    strict: tuple[tuple[int, ...], ...]
    arrow: tuple[tuple[int, int], ...] = ()

    @property
    def n(self) -> int:
        return len(self.self_int)

    def is_tree(self) -> bool:
        """One connected component and no cycle, read from the tree kernel."""
        try:
            return len(self.tree_kernel().roots) == 1
        except NotATree:
            return False

    def tree_kernel(self) -> _linalg.TreeKernel:
        """The integer tree kernel of the intersection matrix (vids 0..n-1).

        Built on the first call and kept on the instance, so every layer
        reads the same pass and no other topology.  Raises NotATree if the
        graph has a cycle.
        """
        tree = self.__dict__.get("_tree_kernel")
        if tree is None:
            tree = _linalg.TreeKernel(self.self_int, [(i, j, 1) for i, j in self.edges])
            self.__dict__["_tree_kernel"] = tree  # frozen: bypass __setattr__
        return tree


def assemble_full_resolution(qr: QResolutionData) -> PlumbingGraph:
    """Expand the census chains into the full decorated dual graph.

    The strict transforms come first, level by level, then the copies of
    each census point in census order, glued to them by the incidence rule
    of ``qres.CensusPoint``.  Per copy the edges are the chain's own, then
    (slot-2 curve, first vertex), then (last vertex, slot-1 curve); a
    smooth copy only joins its two curves, if it has two.  Integral
    strict-transform self-intersections are a consequence of that rule
    being the right one; a fractional value raises
    NonIntegralSelfIntersection.  This is the only layer that expands the
    run-length chains, one vertex per term.
    """
    g = qr.g
    genus: list[int] = []
    self_int: list[int] = []
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    strict: list[range] = []
    for k in range(1, g):
        e2 = strict_self_intersection(qr, k)
        if e2.denominator != 1:
            raise NonIntegralSelfIntersection(
                f"level {k} strict transform has self-intersection {e2}"
            )
        strict.append(range(len(labels), len(labels) + qr.r[k]))
        genus.extend([qr.genus[k]] * qr.r[k])
        self_int.extend([int(e2)] * qr.r[k])
        labels.extend(f"E{k}.{j + 1}" for j in range(qr.r[k]))

    starts = []  # the first vid of each census point's chains
    for pt in qr.census:
        starts.append(len(labels))
        if pt.is_smooth and len(pt.curves) == 1:
            continue
        # (slot, strict vids of the level, copies per component)
        incident = [(slot, strict[k - 1], pt.total // qr.r[k]) for k, slot in pt.curves]
        for c in range(pt.total):
            at = {slot: level[c // per] for slot, level, per in incident}
            if pt.is_smooth:
                edges.append((at[2], at[1]))
                continue
            start = len(labels)
            for kappa, count in pt.chain.runs:
                self_int.extend([-kappa] * count)
            vids = range(start, len(self_int))
            name = _chain_name(pt, c)
            genus.extend([0] * len(vids))
            labels.extend(f"{name}.{i + 1}" for i in range(len(vids)))
            edges.extend(zip(vids, vids[1:]))
            if 2 in at:
                edges.append((at[2], start))
            if 1 in at:
                edges.append((vids[-1], at[1]))

    arrow = _locate_arrow(qr, strict[g - 2][0], starts)
    return PlumbingGraph(
        genus=tuple(genus),
        self_int=tuple(self_int),
        labels=tuple(labels),
        edges=tuple(edges),
        strict=tuple(tuple(vs) for vs in strict),
        arrow=arrow,
    )


def _chain_name(pt, c: int) -> str:
    """Label stem of copy c of a census point's chain: Q0[j.i] and Qk[j.i]
    (copy i on component j), Qk(k+1)[c] and P."""
    if pt.kind == "P":
        return "P"
    if pt.kind == "edge":
        return f"Q{pt.level}{pt.level + 1}[{c + 1}]"
    j, i = divmod(c, pt.per_component)
    return f"Q{pt.level}[{j + 1}.{i + 1}]"


def _locate_arrow(qr, last_strict_vid, starts) -> tuple[tuple[int, int], ...]:
    """Where the strict transform of the curve meets the resolved graph.

    Once, with multiplicity n_g, at the head of the P chain, or at E_{g-1}
    when P is smooth.  At P the curve is the germ {x_g^{n_g} = x_0^delta},
    delta = n_g*beta_g - n_{g-1}*beta_{g-1}, on the quotient of raw type
    (n_g; -1, c) with c = n_{g-1}*beta_{g-1}/n_g (n_g = e_{g-1} divides
    beta_{g-1}).  In the planar-lattice picture:

    - the lattice is N = {(x, y) : n_g*x in Z, y + c*x in Z}, of covolume
      1/n_g;
    - the germ's ray (n_g, delta) has delta + c*n_g = n_g*beta_g, and
      gcd(n_g, beta_g) = e_g = 1, so its primitive point is
      w = (1, delta/n_g);
    - the last cone of the resolved fan is spanned by (1/n_g, y_r), with
      0 <= y_r < 1, and the axis (0, 1), so
      w = n_g*(1/n_g, y_r) + (delta/n_g - n_g*y_r)*(0, 1);
    - the second coefficient is at least 1, because
      delta/n_g = beta_g - c > c*(n_g - 1) >= n_g, as
      beta_g > n_{g-1}*beta_{g-1} and c >= 2.

    So the curve meets the fan point next to the axis n_g times, and the
    axis, which never enters the graph, elsewhere.  The fan is read from
    E_{g-1}, and the P chain hangs off E_{g-1} by its tail, so that point is
    the chain's head, the first vid ``starts`` records for P, or E_{g-1}
    itself when the chain is empty.  The fan walk still checks the chain.
    """
    i, p_pt = next((i, pt) for i, pt in enumerate(qr.census) if pt.kind == "P")
    walked = PlanarLattice.of(p_pt.raw).chain_kappas_from_first_axis()
    if walked != tuple(reversed(p_pt.chain.kappas)):
        raise ArithmeticError("fan walk disagrees with chain")
    return ((last_strict_vid if p_pt.is_smooth else starts[i], qr.cd.n[qr.g]),)


def integer_intersection_matrix(pg: PlumbingGraph) -> list[list[int]]:
    n = pg.n
    m = [[0] * n for _ in range(n)]
    for i, s in enumerate(pg.self_int):
        m[i][i] = s
    for i, j in pg.edges:
        m[i][j] += 1
        m[j][i] += 1
    return m


def graph_determinant(pg: PlumbingGraph) -> int:
    """|det| of the integer intersection matrix."""
    return abs(pg.tree_kernel().det)


def is_negative_definite(pg: PlumbingGraph) -> bool:
    return pg.tree_kernel().negative_definite()


@dataclass(frozen=True)
class H1Decomposition:
    """H_1 of the link: free rank and torsion invariant factors (> 1, each
    dividing the next); the torsion order equals |det| of the matrix."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def h1_link(pg: PlumbingGraph) -> H1Decomposition:
    """First homology of the link from the plumbing graph.

    Torsion is the cokernel of the intersection matrix.  One pass of the
    tree kernel gives both the negative-definiteness signs and |det|, and
    the Smith form then runs modulo |det|.  The kernel rejects graphs with
    loops, so the free rank is twice the total genus.
    """
    tree = pg.tree_kernel()
    if not tree.negative_definite():
        raise NotNegativeDefinite("intersection matrix is not negative definite")
    rows = {i: {i: s} for i, s in enumerate(pg.self_int)}
    for i, j in pg.edges:
        rows[i][j] = rows[j][i] = 1
    factors = _linalg.invariant_factors(rows, abs(tree.det))
    free_rank = 2 * sum(pg.genus)
    return H1Decomposition(
        free_rank=free_rank, torsion=tuple(f for f in factors if f > 1)
    )


def classify_topologically(pg: PlumbingGraph) -> LinkClass:
    """Link classification read off the resolved graph itself.

    Rational homology sphere iff the graph is a tree with only rational
    curves; integral additionally needs |det| = 1.  Independent of the gcd
    criterion, which it must always agree with.
    """
    tree = pg.is_tree()
    rational = not any(pg.genus)
    if not (tree and rational):
        kind = LinkKind.NOT_QHS
    elif graph_determinant(pg) == 1:
        kind = LinkKind.ZHS
    else:
        kind = LinkKind.QHS
    return LinkClass(kind=kind, witnesses=(), noncoprime_pairs=())


def pullback_on_full_resolution(pg: PlumbingGraph, qr: QResolutionData) -> list[int]:
    """Multiplicities of the total transform of the curve, indexed by vertex.

    Solves (pullback . E_i) = 0 for every exceptional vertex, with the
    strict transform of the curve entering through the arrow.  The solution
    must be a positive integer vector whose strict-transform entries are the
    multiplicities N_k; anything else raises ArithmeticError.  The tree
    kernel solves by leaf-to-root elimination and back-substitution.
    """
    rhs = [0] * pg.n
    for vid, mult in pg.arrow:
        rhs[vid] -= mult
    sol = pg.tree_kernel().solve(rhs)
    for vid, value in enumerate(sol):
        if not isinstance(value, int) or value <= 0:
            raise ArithmeticError(f"bad multiplicity {value} at vertex {vid}")
    for k in range(1, qr.g):
        for vid in pg.strict[k - 1]:
            if sol[vid] != qr.N[k]:
                raise ArithmeticError(f"level {k} multiplicity is not N_k")
    return sol


def minimize(pg: PlumbingGraph) -> tuple[PlumbingGraph, list[str]]:
    """Blow down (-1)-rational vertices of valency <= 2 until none remain.

    Returns the reduced graph and the labels contracted, in order.  The
    input graph is left untouched; |det| is invariant under the pass.  The
    arrow is dropped: the minimal model is a statement about the surface
    only, and the curve data does not survive contractions unchanged.
    Raises NotATree unless the graph is a forest: blowing down a vertex on
    a cycle can leave two curves that meet twice, which an edge list of
    simple edges cannot record.
    """
    pg.tree_kernel()
    genus, labels = pg.genus, pg.labels
    self_int = list(pg.self_int)
    alive = [True] * pg.n
    adj = [set() for _ in range(pg.n)]
    for i, j in pg.edges:
        adj[i].add(j)
        adj[j].add(i)

    def eligible(vid) -> bool:
        return alive[vid] and genus[vid] == 0 and self_int[vid] == -1 and len(adj[vid]) <= 2

    # always contract the least eligible vid; only the neighbours of a
    # contracted vertex change, so they are the only new candidates
    heap = [vid for vid in range(pg.n) if eligible(vid)]
    heapq.heapify(heap)
    contracted = []
    while heap:
        vid = heapq.heappop(heap)
        if not eligible(vid):
            continue
        contracted.append(labels[vid])
        alive[vid] = False
        nbrs, adj[vid] = adj[vid], set()
        for u in nbrs:
            adj[u].discard(vid)
            self_int[u] += 1
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        for u in nbrs:
            if eligible(u):
                heapq.heappush(heap, u)
    keep = [vid for vid in range(pg.n) if alive[vid]]
    relabel = {old: new for new, old in enumerate(keep)}
    edges = [(i, j) for i in keep for j in adj[i] if i < j]
    new_strict = tuple(
        tuple(relabel[vid] for vid in level if vid in relabel) for level in pg.strict
    )
    return (
        PlumbingGraph(
            genus=tuple(genus[vid] for vid in keep),
            self_int=tuple(self_int[vid] for vid in keep),
            labels=tuple(labels[vid] for vid in keep),
            edges=tuple(sorted((relabel[i], relabel[j]) for i, j in edges)),
            strict=new_strict,
            arrow=(),
        ),
        contracted,
    )


def to_dot(pg: PlumbingGraph) -> str:
    """Graphviz source; vertices are labelled "[genus, self-intersection]"."""
    lines = ["graph plumbing {"]
    for i, (genus, s) in enumerate(zip(pg.genus, pg.self_int)):
        lines.append(f'  v{i} [label="[{genus}, {s}]"];')
    for i, j in pg.edges:
        lines.append(f"  v{i} -- v{j};")
    if pg.arrow:
        lines.append('  arrow [shape=plaintext, label="curve"];')
        for vid, mult in pg.arrow:
            lines.append(f'  arrow -- v{vid} [style=dashed, label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(pg: PlumbingGraph) -> dict:
    return {
        "vertices": [
            {"id": i, "genus": genus, "selfint": s, "label": label}
            for i, (genus, s, label) in enumerate(zip(pg.genus, pg.self_int, pg.labels))
        ],
        "edges": [[i, j] for i, j in pg.edges],
        "arrow": [[vid, mult] for vid, mult in pg.arrow],
    }
