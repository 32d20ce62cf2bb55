"""Splice diagrams of integral homology sphere links and their equations.

A plumbing tree with |det| = 1 and rational vertices collapses, after
suppressing the valency-2 vertices, to a weighted splice diagram whose edge
weights are cut determinants; the plumbing graph's integer tree kernel
gives the chains and every weight, a stored subtree determinant below a
node and one walk to the root above it.  This module computes that
diagram, the closed-form diagram the family is expected to produce, linking
numbers, the semigroup condition with explicit witnesses, and the equations
built from admissible monomials.

The semigroup condition asks that every node-edge weight be a nonnegative
combination of the linking numbers l' of the leaves beyond the edge
(Neumann and Wahl, Geom. Topol. 9, 2005).  That condition, the equations'
admissible monomials and the linking numbers all read the leaves beyond an
edge and their l' from one walk, ``SpliceDiagram.beyond``.  Witnesses come
from Apery residue
tables, the least combination in each residue class modulo the least value,
built by the round robin of Boecker and Liptak (*A fast and simple algorithm
for the money changing problem*, Algorithmica 48, 2007): O(k*m) per edge for
k values of least value m, however large the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .semigroup import CharacteristicData
from .detcalc import classify_link
from .plumbing import PlumbingGraph, classify_topologically


class NotZHS(ValueError):
    pass


class ENViolation(ValueError):
    """An Eisenbud-Neumann condition failed (should not happen upstream)."""


class SemigroupConditionFails(ValueError):
    pass


@dataclass(frozen=True)
class SpliceDiagram:
    """Weighted tree with leaves and nodes of valency >= 3.

    weights maps (node, neighbour) to the weight sitting at the node end of
    that edge; leaf ends carry no weight.
    """

    labels: tuple[str, ...]
    nodes: frozenset[int]
    leaves: frozenset[int]
    edges: tuple[tuple[int, int], ...]
    weights: dict[tuple[int, int], int]

    def neighbors(self, v: int) -> list[int]:
        return [j if i == v else i for i, j in self.edges if v in (i, j)]

    def weight(self, v: int, u: int) -> int:
        return self.weights[(v, u)]

    def beyond(self, v: int, u: int) -> list[tuple[int, int]]:
        """(w, l'_vw) for each leaf w beyond the edge (v, u), sorted by leaf:
        l'_vw is the product of the weights off the v-w path at the nodes
        strictly between v and w, carried down one stack walk from u."""
        found = []
        stack = [(u, v, 1)]
        while stack:
            x, prev, lprime = stack.pop()
            if x in self.leaves:
                found.append((x, lprime))
                continue
            ahead = [y for y in self.neighbors(x) if y != prev]
            node = x in self.nodes
            for y in ahead:
                off = math.prod(self.weight(x, z) for z in ahead if z != y) if node else 1
                stack.append((y, x, lprime * off))
        return sorted(found)


def verify_en_conditions(sd: SpliceDiagram) -> None:
    """Raise ENViolation unless all three Eisenbud-Neumann conditions hold."""
    for v in sd.nodes:
        ws = [sd.weight(v, u) for u in sd.neighbors(v)]
        if any(w <= 0 for w in ws):
            raise ENViolation(f"non-positive weight at node {sd.labels[v]}")
        for a, b in combinations(ws, 2):
            if math.gcd(a, b) != 1:
                raise ENViolation(f"weights {a}, {b} at node {sd.labels[v]} share a factor")
        for u in sd.neighbors(v):
            if u in sd.leaves and sd.weight(v, u) <= 1:
                raise ENViolation(
                    f"node-to-leaf weight {sd.weight(v, u)} at {sd.labels[v]} is not > 1"
                )
    for edge, det_value in edge_determinants(sd).items():
        if det_value <= 0:
            raise ENViolation(f"edge determinant {det_value} on {edge} is not positive")


def edge_determinants(sd: SpliceDiagram) -> dict[tuple[int, int], int]:
    """Edge determinant for every node-node edge of the diagram."""
    out = {}
    for i, j in sd.edges:
        if i in sd.nodes and j in sd.nodes:
            near = sd.weight(i, j) * sd.weight(j, i)
            off_i = math.prod(sd.weight(i, u) for u in sd.neighbors(i) if u != j)
            off_j = math.prod(sd.weight(j, u) for u in sd.neighbors(j) if u != i)
            out[(i, j)] = near - off_i * off_j
    return out


def splice_from_plumbing(pg: PlumbingGraph) -> SpliceDiagram:
    """Splice diagram of a plumbing graph with an integral homology sphere.

    Suppresses valency-2 vertices, then assigns to each (node, edge) pair
    the determinant of the piece the edge cuts off.  One pass down the tree
    kernel's rooted order finds each kept vertex's chain up to the next
    kept vertex: the weight at the top is the subtree determinant of the
    chain's first vertex, the one at the bottom the branch above.  A root of
    valency 2 lies inside a chain, whose two ends below it form one edge.
    Raises NotZHS unless the graph is a rational tree of determinant one,
    and ENViolation if the produced diagram fails the Eisenbud-Neumann
    conditions, which would mean an upstream bug.
    """
    if not classify_topologically(pg).is_zhs:
        raise NotZHS("plumbing graph is not an integral homology sphere link")
    tree = pg.tree_kernel()
    parent = tree.parent
    first, stop = tree.child_ranges()
    degree = [s - f + (u >= 0) for f, s, u in zip(first, stop, parent)]
    nodes = frozenset(v for v, d in enumerate(degree) if d >= 3)
    leaves = frozenset(v for v, d in enumerate(degree) if d == 1)
    if not nodes:
        raise NotZHS("graph has no splice nodes (bamboo link)")
    # top[v]: the kept vertex, or the root, above v with only valency-2
    # vertices between; head[v]: the vertex right below top[v] toward v
    top = list(parent)
    head = list(range(len(parent)))
    for v in tree.order:
        u = parent[v]
        if u >= 0 and degree[u] == 2 and parent[u] >= 0:
            top[v], head[v] = top[u], head[u]
    edges = []
    weights = {}
    joined = []  # the kept ends below a root of valency 2
    for v in tree.order:
        u = top[v]
        if u < 0 or degree[v] == 2:
            continue
        if degree[u] == 2:
            joined.append(v)
            continue
        edges.append((u, v))
        if u in nodes:
            weights[(u, v)] = abs(tree.D[head[v]])
        if v in nodes:
            weights[(v, u)] = abs(tree.branch_determinant(v, parent[v]))
    if joined:
        a, b = joined
        edges.append((a, b))
        for v, u in ((a, b), (b, a)):
            if v in nodes:
                weights[(v, u)] = abs(tree.branch_determinant(v, parent[v]))
    sd = SpliceDiagram(
        labels=pg.labels,
        nodes=nodes,
        leaves=leaves,
        edges=tuple(edges),
        weights=weights,
    )
    verify_en_conditions(sd)
    return sd


def _closed_form_labels(g: int) -> tuple[str, ...]:
    """Labels of the closed-form layout: node k is vertex k - 1, leaf w is
    vertex g - 1 + w."""
    return tuple([f"node{k}" for k in range(1, g)] + [f"leaf{w}" for w in range(g + 1)])


def expected_splice_diagram(cd: CharacteristicData) -> SpliceDiagram:
    """Closed-form splice diagram of a family member with integral link.

    Nodes stand for the exceptional levels 1..g-1 in a row.  Node k carries
    the leaf n_k; node 1 carries the extra leaf n_0 and node g-1 the extra
    leaf n_g.  The internal edge between nodes k and k+1 carries e_k at the
    node-k end and beta_{k+1}/e_{k+1} at the other.
    """
    if not classify_link(cd).is_zhs:
        raise NotZHS("link is not an integral homology sphere")
    g = cd.g
    leaf = g - 1  # node k is vertex k - 1 and leaf w is vertex g - 1 + w
    edges = [(0, leaf)] + [(k - 1, leaf + k) for k in range(1, g)] + [(g - 2, leaf + g)]
    weights = {edge: cd.n[w] for w, edge in enumerate(edges)}  # edges[w] ends at leaf w
    for k in range(1, g - 1):
        edges.append((k - 1, k))
        weights[(k - 1, k)] = cd.e[k]
        weights[(k, k - 1)] = cd.beta[k + 1] // cd.e[k + 1]
    sd = SpliceDiagram(
        labels=_closed_form_labels(g),
        nodes=frozenset(range(g - 1)),
        leaves=frozenset(range(leaf, leaf + g + 1)),
        edges=tuple(edges),
        weights=weights,
    )
    verify_en_conditions(sd)
    return sd


def linking_numbers(sd: SpliceDiagram, v: int, w: int) -> tuple[int, int]:
    """(l_vw, l'_vw) for a leaf w: products of weights adjacent to, not on,
    the v-w path.

    l' omits the contributions at v, so l = l' times v's weights off the
    edge toward w.  Both are 1 when v == w (empty products).
    """
    if v == w:
        return (1, 1)
    for u in sd.neighbors(v):
        lprime = dict(sd.beyond(v, u)).get(w)
        if lprime is not None:
            off = math.prod(sd.weight(v, z) for z in sd.neighbors(v) if z != u)
            return (lprime * off, lprime)
    raise ValueError(f"{w} is not a leaf of the diagram")


@dataclass(frozen=True)
class EdgeWitness:
    """Semigroup-condition evidence for one (node, edge) pair."""

    node: int
    toward: int
    weight: int
    leaves: tuple[int, ...]
    lprimes: tuple[int, ...]
    alphas: tuple[int, ...] | None

    @property
    def satisfied(self) -> bool:
        return self.alphas is not None


@dataclass(frozen=True)
class SemigroupConditionReport:
    entries: tuple[EdgeWitness, ...]

    @property
    def satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)


def _apery_table(values) -> list:
    """Least combination of ``values`` in each residue class modulo their
    least value m, None where there is none, by the round robin of Boecker
    and Liptak: each further value a walks every cycle of m/gcd(a, m)
    residues once from its least entry, O(len(values) * m) steps in all."""
    m = min(values)
    table = [0] + [None] * (m - 1)
    for a in values:
        d = math.gcd(a, m)
        if d == m:  # a multiple of m adds nothing
            continue
        for p in range(d):
            n = min((x for x in table[p::d] if x is not None), default=None)
            if n is None:
                continue
            for _ in range(m // d - 1):
                n += a
                r = n % m
                if table[r] is not None and table[r] < n:
                    n = table[r]
                table[r] = n
    return table


def _lex_min_combination(target: int, values) -> tuple[int, ...] | None:
    """Lexicographically least nonnegative integers with sum a_i*v_i = target.

    x is a combination of the suffix values[i:] iff x >= t[x mod m], where m
    is the suffix's least value and t its Apery table, built on first use.
    Coordinate i takes the least c whose remainder the next suffix
    represents; c and c + m/gcd(v_i, m) leave the same residue and the
    second a smaller remainder, so only c below that period is tried.  The
    last coordinate is a division.  Tables that call the target a
    combination but yield no witness raise ArithmeticError.
    """
    k = len(values)
    if k == 0 or target <= 0:
        return (0,) * k if target == 0 else None
    tables = {}

    def representable(x, i):
        m = min(values[i:])
        if m > x or i == k - 1:  # one value, or only 0 lies below the least one
            return x % m == 0
        if i not in tables:
            tables[i] = _apery_table(values[i:])
        t = tables[i][x % m]
        return t is not None and x >= t

    if not representable(target, 0):
        return None
    alphas = []
    rem = target
    for i, v in enumerate(values[:-1]):
        m = min(values[i + 1:])
        tries = range(min(rem // v, m // math.gcd(v, m) - 1) + 1)
        c = next((c for c in tries if representable(rem - c * v, i + 1)), None)
        if c is None:
            break
        alphas.append(c)
        rem -= c * v
    else:
        c, left = divmod(rem, values[-1])
        if not left:
            return (*alphas, c)
    raise ArithmeticError(f"residue tables call {target} a sum of {values} but give no witness")


def check_semigroup_condition(sd: SpliceDiagram) -> SemigroupConditionReport:
    """Witness search for the semigroup condition at every node edge.

    For each node v and edge e at v the weight d_ve must be a nonnegative
    integer combination of the l'_vw over the leaves w cut off by e.
    Failure is reported, not raised.
    """
    entries = []
    for v in sorted(sd.nodes):
        for u in sd.neighbors(v):
            lvs, lprimes = zip(*sd.beyond(v, u))
            target = sd.weight(v, u)
            alphas = _lex_min_combination(target, lprimes)
            entries.append(EdgeWitness(v, u, target, lvs, lprimes, alphas))
    return SemigroupConditionReport(entries=tuple(entries))


@dataclass(frozen=True)
class Monomial:
    """Product of leaf variables with the given exponents (one per leaf)."""

    exponents: tuple[int, ...]

    def render(self, names) -> str:
        parts = []
        for name, c in zip(names, self.exponents):
            if c == 1:
                parts.append(name)
            elif c > 1:
                parts.append(f"{name}^{c}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class SpliceEquations:
    """Equations sum_e a_ie M_ve per node, with symbolic coefficient slots.

    The coefficients are not materialised; the recorded constraint is that
    every maximal minor of the coefficient matrix has full rank.  The
    rendered text uses unit coefficients.
    """

    variables: tuple[str, ...]
    equations: tuple[tuple[Monomial, ...], ...]
    coefficient_constraint: str

    def render(self) -> list[str]:
        return [
            " + ".join(m.render(self.variables) for m in eq) + " = 0"
            for eq in self.equations
        ]


def splice_equations(sd: SpliceDiagram, cd: CharacteristicData) -> SpliceEquations:
    """Strict splice equations of a family member with integral link.

    One equation per node: the leaf monomial z_k^{n_k}, the monomial
    z_{k+1}^{n_{k+1}} for the next level, and (at nodes past the first) the
    rewriting monomial prod z_j^{b_kj} for the backward edge.  A diagram
    with the closed-form labels is used as handed; any other must be
    isomorphic to ``expected_splice_diagram(cd)`` and is replaced by it.

    Each monomial must be admissible for its edge: its exponents sit on
    leaves beyond the edge, and sum c*l' over them is the edge weight.
    That makes every monomial's node weight d_v, since l = l'*(d_v/d_ve)
    for a leaf beyond the edge e, and the loop makes g - 1 equations for
    the g + 1 leaves, so neither is checked again.
    """
    g = cd.g
    if sd.labels != _closed_form_labels(g):
        expected = expected_splice_diagram(cd)
        if not diagrams_isomorphic(sd, expected):
            raise SemigroupConditionFails(
                "diagram does not match the closed-form family diagram"
            )
        sd = expected
    nvars = g + 1
    names = tuple(f"z{w}" for w in range(nvars))
    leaf = g - 1  # closed-form layout: node k is vertex k - 1, leaf w is vertex leaf + w

    def monomial(exps) -> Monomial:
        vec = [0] * nvars
        for w, c in exps.items():
            vec[w] = c
        return Monomial(exponents=tuple(vec))

    equations = []
    for k in range(1, g):
        v = k - 1
        # the leaf edge; the forward edge, toward the next node or at the last
        # node the n_g leaf; the backward edge, toward the n_0 leaf at the
        # first node and with the b-monomial after
        pairs = [
            (leaf + k, {k: cd.n[k]}),
            (k if k < g - 1 else leaf + g, {k + 1: cd.n[k + 1]}),
        ]
        if k == 1:
            pairs.append((leaf, {0: cd.n[0]}))
        else:
            row = cd.b_row(k)
            pairs.append((k - 2, {j: row[j] for j in range(k) if row[j]}))
        for toward, exps in pairs:
            lprime = dict(sd.beyond(v, toward))
            total = sum(c * lprime.get(leaf + w, 0) for w, c in exps.items())
            if any(leaf + w not in lprime for w in exps) or total != sd.weights.get((v, toward)):
                raise SemigroupConditionFails(
                    f"monomial for node {k} toward {sd.labels[toward]} is not admissible"
                )
        equations.append(tuple(monomial(exps) for _, exps in pairs))
    return SpliceEquations(
        variables=names,
        equations=tuple(equations),
        coefficient_constraint=(
            "all maximal minors of the coefficient matrix (a_ie) have full rank; "
            "unit coefficients shown"
        ),
    )


def _canonical(sd: SpliceDiagram, v: int, parent: int | None):
    kids = [u for u in sd.neighbors(v) if u != parent]
    if not kids:
        return ("leaf",)
    items = []
    for u in kids:
        wv = sd.weights.get((v, u))
        wu = sd.weights.get((u, v))
        items.append((wv, wu, _canonical(sd, u, v)))
    return ("node" if v in sd.nodes else "leaf", tuple(sorted(items, key=repr)))


def canonical_form(sd: SpliceDiagram):
    """Rooted canonical form, rooting at the tree centroid edge or vertex."""
    if not sd.edges:
        return ("point",)
    vertices = sorted(sd.nodes | sd.leaves)
    adj = {v: sd.neighbors(v) for v in vertices}
    degree = {v: len(adj[v]) for v in vertices}
    layer = [v for v in vertices if degree[v] <= 1]
    remaining = set(vertices)
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for u in adj[v]:
                if u in remaining:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = sorted(remaining)
    if len(centers) == 1:
        return _canonical(sd, centers[0], None)
    c1, c2 = centers
    halves = sorted(
        [
            (sd.weights.get((c1, c2)), sd.weights.get((c2, c1)), _canonical(sd, c1, c2)),
            (sd.weights.get((c2, c1)), sd.weights.get((c1, c2)), _canonical(sd, c2, c1)),
        ],
        key=repr,
    )
    return ("edge", tuple(halves))


def diagrams_isomorphic(s1: SpliceDiagram, s2: SpliceDiagram) -> bool:
    return canonical_form(s1) == canonical_form(s2)
