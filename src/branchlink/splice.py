"""Splice diagrams of integral homology sphere links and their equations.

A plumbing tree with |det| = 1 and rational vertices collapses, after
suppressing the valency-2 vertices, to a weighted splice diagram whose edge
weights are cut determinants; one rerooting pass of the plumbing graph's
integer tree kernel gives them all.  This module computes that diagram, the
closed-form diagram the family is expected to produce, linking numbers, the
semigroup condition with explicit witnesses, and the equations built from
admissible monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        out = []
        for i, j in self.edges:
            if i == v:
                out.append(j)
            elif j == v:
                out.append(i)
        return out

    def weight(self, v: int, u: int) -> int:
        return self.weights[(v, u)]

    def node_weight_product(self, v: int) -> int:
        return math.prod(self.weight(v, u) for u in self.neighbors(v))

    def leaves_beyond(self, v: int, u: int) -> list[int]:
        """Leaves in the component of the tree minus v that contains u."""
        seen = {v, u}
        stack = [u]
        found = []
        while stack:
            w = stack.pop()
            if w in self.leaves:
                found.append(w)
            for x in self.neighbors(w):
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        return sorted(found)

    def path(self, v: int, w: int) -> list[int]:
        parent = {v: None}
        stack = [v]
        while stack:
            x = stack.pop()
            if x == w:
                break
            for y in self.neighbors(x):
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        if w not in parent:
            raise ArithmeticError("vertices in different components")
        out = [w]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out[::-1]


def verify_en_conditions(sd: SpliceDiagram) -> None:
    """Raise ENViolation unless all three Eisenbud-Neumann conditions hold."""
    for v in sd.nodes:
        ws = [sd.weight(v, u) for u in sd.neighbors(v)]
        if any(w <= 0 for w in ws):
            raise ENViolation(f"non-positive weight at node {sd.labels[v]}")
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if math.gcd(ws[i], ws[j]) != 1:
                    raise ENViolation(
                        f"weights {ws[i]}, {ws[j]} at node {sd.labels[v]} share a factor"
                    )
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
    the determinant of the piece the edge cuts off, read from the tree
    kernel's rerooting pass.  Raises NotZHS unless
    the graph is a rational tree of determinant one, and ENViolation if the
    produced diagram fails the Eisenbud-Neumann conditions, which would mean
    an upstream bug.
    """
    if not classify_topologically(pg).is_zhs:
        raise NotZHS("plumbing graph is not an integral homology sphere link")
    adj = pg.adjacency()
    degree = {v: len(adj[v]) for v in adj}
    keep = [v for v in adj if degree[v] != 2]
    nodes = frozenset(v for v in keep if degree[v] >= 3)
    leaves = frozenset(v for v in keep if degree[v] == 1)
    if not nodes:
        raise NotZHS("graph has no splice nodes (bamboo link)")
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
    labels = tuple(v.label for v in pg.vertices)
    sd = SpliceDiagram(
        labels=labels,
        nodes=nodes,
        leaves=leaves,
        edges=tuple(edges),
        weights=weights,
    )
    verify_en_conditions(sd)
    return sd


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
    labels = []
    nodes = []
    leaves = []
    edges = []
    weights = {}

    def new_vertex(label):
        labels.append(label)
        return len(labels) - 1

    node_of = {}
    for k in range(1, g):
        node_of[k] = new_vertex(f"node{k}")
        nodes.append(node_of[k])
    leaf_of = {}
    for w in range(g + 1):
        leaf_of[w] = new_vertex(f"leaf{w}")
        leaves.append(leaf_of[w])

    def connect(v, u, weight_v):
        edges.append((v, u))
        weights[(v, u)] = weight_v

    connect(node_of[1], leaf_of[0], cd.n[0])
    for k in range(1, g):
        connect(node_of[k], leaf_of[k], cd.n[k])
    connect(node_of[g - 1], leaf_of[g], cd.n[g])
    for k in range(1, g - 1):
        edges.append((node_of[k], node_of[k + 1]))
        weights[(node_of[k], node_of[k + 1])] = cd.e[k]
        weights[(node_of[k + 1], node_of[k])] = cd.beta[k + 1] // cd.e[k + 1]
    sd = SpliceDiagram(
        labels=tuple(labels),
        nodes=frozenset(nodes),
        leaves=frozenset(leaves),
        edges=tuple(edges),
        weights=weights,
    )
    verify_en_conditions(sd)
    return sd


def linking_numbers(sd: SpliceDiagram, v: int, w: int) -> tuple[int, int]:
    """(l_vw, l'_vw): products of weights adjacent to, not on, the v-w path.

    l' omits the contributions at v and w themselves.  Both are 1 when
    v == w (empty products).
    """
    if v == w:
        return (1, 1)
    path = sd.path(v, w)
    on_path = set(zip(path, path[1:])) | set(zip(path[1:], path))
    full = 1
    inner = 1
    for x in path:
        if x not in sd.nodes:
            continue
        contrib = math.prod(
            sd.weight(x, u) for u in sd.neighbors(x) if (x, u) not in on_path
        )
        full *= contrib
        if x not in (v, w):
            inner *= contrib
    return (full, inner)


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


def _lex_min_combination(target: int, values) -> tuple[int, ...] | None:
    """Lexicographically least nonnegative integers with sum a_i*v_i = target."""
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


def check_semigroup_condition(sd: SpliceDiagram) -> SemigroupConditionReport:
    """Witness search for the semigroup condition at every node edge.

    For each node v and edge e at v the weight d_ve must be a nonnegative
    integer combination of the l'_vw over the leaves w cut off by e.
    Failure is reported, not raised.
    """
    entries = []
    for v in sorted(sd.nodes):
        for u in sd.neighbors(v):
            lvs = sd.leaves_beyond(v, u)
            lprimes = tuple(linking_numbers(sd, v, w)[1] for w in lvs)
            target = sd.weight(v, u)
            alphas = _lex_min_combination(target, lprimes)
            entries.append(
                EdgeWitness(
                    node=v,
                    toward=u,
                    weight=target,
                    leaves=tuple(lvs),
                    lprimes=lprimes,
                    alphas=alphas,
                )
            )
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
    rewriting monomial prod z_j^{b_kj} for the backward edge.  Each monomial
    is checked to be admissible for its edge and all monomials of an
    equation are checked to have the same node weight.
    """
    expected = expected_splice_diagram(cd)
    if not diagrams_isomorphic(sd, expected):
        raise SemigroupConditionFails(
            "diagram does not match the closed-form family diagram"
        )
    g = cd.g
    nvars = g + 1
    names = tuple(f"z{w}" for w in range(nvars))
    node_of = {k: k - 1 for k in range(1, g)}  # expected diagram layout
    leaf_of = {w: g - 1 + w for w in range(g + 1)}

    def monomial(exps) -> Monomial:
        vec = [0] * nvars
        for w, c in exps.items():
            vec[w] = c
        return Monomial(exponents=tuple(vec))

    equations = []
    for k in range(1, g):
        v = node_of[k]
        eq = []
        witness_pairs = []
        # leaf edge
        eq.append(monomial({k: cd.n[k]}))
        witness_pairs.append((leaf_of[k], {k: cd.n[k]}))
        # forward edge: next node for k < g-1, the n_g leaf at the last node
        eq.append(monomial({k + 1: cd.n[k + 1]}))
        toward = node_of[k + 1] if k < g - 1 else leaf_of[g]
        witness_pairs.append((toward, {k + 1: cd.n[k + 1]}))
        # backward edge: the n_0 leaf at the first node, the b-monomial after
        if k == 1:
            eq.append(monomial({0: cd.n[0]}))
            witness_pairs.append((leaf_of[0], {0: cd.n[0]}))
        else:
            row = cd.b_row(k)
            exps = {j: row[j] for j in range(k) if row[j]}
            eq.append(monomial(exps))
            witness_pairs.append((node_of[k - 1], exps))
        d_v = expected.node_weight_product(v)
        for (toward, exps), mono in zip(witness_pairs, eq):
            target = expected.weight(v, toward)
            lvs = expected.leaves_beyond(v, toward)
            leaf_level = {u: lv for lv, u in leaf_of.items()}
            total = 0
            vweight = 0
            for u in lvs:
                lw = leaf_level[u]
                l_full, l_inner = linking_numbers(expected, v, u)
                total += exps.get(lw, 0) * l_inner
            if total != target:
                raise SemigroupConditionFails(
                    f"monomial for node {k} toward {expected.labels[toward]} is not "
                    f"admissible: {total} != {target}"
                )
            for lw, c in exps.items():
                vweight += c * linking_numbers(expected, v, leaf_of[lw])[0]
            if vweight != d_v:
                raise SemigroupConditionFails(
                    f"node weight of a monomial at node {k} is {vweight}, not {d_v}"
                )
        equations.append(tuple(eq))
    if len(equations) != len(expected.leaves) - 2:
        raise ArithmeticError("one splice equation per node was not produced")
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
