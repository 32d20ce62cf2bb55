import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from branchlink.semigroup import derive_from_generators
from branchlink.qres import compute_qresolution
from branchlink.detcalc import classify_link
from branchlink.plumbing import assemble_full_resolution, graph_determinant
from branchlink import splice
from branchlink.splice import (
    NotZHS,
    SemigroupConditionFails,
    SpliceDiagram,
    check_semigroup_condition,
    canonical_form,
    diagrams_isomorphic,
    edge_determinants,
    expected_splice_diagram,
    linking_numbers,
    splice_equations,
    splice_from_plumbing,
    verify_en_conditions,
    _apery_table,
    _lex_min_combination,
)
from conftest import (
    acceptance_sample,
    adjacency,
    apery_oracle,
    criterion_8_extras,
    lex_min_dfs,
    linking_numbers_oracle,
    plumbing_graph,
    random_zhs_semigroup,
    splice_walk_oracle,
)


def single_node_diagram(weights):
    labels = ["v"] + [f"w{i}" for i in range(len(weights))]
    return SpliceDiagram(
        labels=tuple(labels),
        nodes=frozenset({0}),
        leaves=frozenset(range(1, len(weights) + 1)),
        edges=tuple((0, i + 1) for i in range(len(weights))),
        weights={(0, i + 1): w for i, w in enumerate(weights)},
    )


def two_node_diagram():
    """Two nodes whose edge weight 7 at n1 is no combination of the inner
    linking numbers 5 and 11."""
    return SpliceDiagram(
        labels=("n1", "n2", "a", "b", "c", "d"),
        nodes=frozenset({0, 1}),
        leaves=frozenset({2, 3, 4, 5}),
        edges=((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)),
        weights={
            (0, 1): 7,
            (0, 2): 2,
            (0, 3): 3,
            (1, 0): 3,
            (1, 4): 5,
            (1, 5): 11,
        },
    )


def criterion_8_zhs():
    """The integral links of acceptance criterion 8 with g <= 4."""
    cds = [derive_from_generators(beta) for beta in acceptance_sample()]
    return [cd for cd in cds + criterion_8_extras() if cd.g <= 4 and classify_link(cd).is_zhs]


def component_leaves(sd, v, u):
    """Leaves of the component of the tree minus v that holds u, by flood fill."""
    seen = {v, u}
    stack = [u]
    while stack:
        for y in sd.neighbors(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(sd.leaves & (seen - {v}))


def test_integral_example_matches_closed_form_weights():
    cd = derive_from_generators((70, 105, 215, 1511))
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
    exp = expected_splice_diagram(cd)
    assert diagrams_isomorphic(sd, exp)
    assert len(exp.nodes) == cd.g - 1 == 2
    # leaves n_0..n_3 and internal weights e_1 / beta_2 e_2
    leaf_weights = sorted(
        exp.weights[(v, u)]
        for (v, u) in exp.weights
        if u in exp.leaves
    )
    assert leaf_weights == [2, 3, 5, 7]
    internal = sorted(
        exp.weights[(v, u)] for (v, u) in exp.weights if u in exp.nodes
    )
    assert internal == [35, 43]


def test_cut_determinants_equal_closed_form_weights():
    rng = random.Random(61)
    for trial in range(12):
        g = rng.choice([3, 4])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        pg = assemble_full_resolution(compute_qresolution(cd))
        sd = splice_from_plumbing(pg)
        assert diagrams_isomorphic(sd, expected_splice_diagram(cd))


def assert_same_diagram(sd, oracle):
    assert sd.labels == oracle.labels
    assert sd.nodes == oracle.nodes
    assert sd.leaves == oracle.leaves
    assert Counter(map(frozenset, sd.edges)) == Counter(map(frozenset, oracle.edges))
    assert sd.weights == oracle.weights


def chain_ends(adj, v):
    """The vertices of valency != 2 at both ends of the chain through v."""
    ends = []
    for first in adj[v]:
        prev, cur = v, first
        while len(adj[cur]) == 2:
            prev, cur = cur, next(u for u in adj[cur] if u != prev)
        ends.append(cur)
    return ends


def rooted_at(pg, root, rng):
    """pg relabelled by a seeded shuffle that makes ``root`` vertex 0, the
    tree kernel's root."""
    order = list(range(pg.n))
    rng.shuffle(order)
    order.remove(root)
    order.insert(0, root)  # order[new id] = old id
    new = {old: i for i, old in enumerate(order)}
    return plumbing_graph(
        [pg.self_int[old] for old in order],
        [(new[i], new[j]) for i, j in pg.edges],
        genus=[pg.genus[old] for old in order],
    )


def test_splice_walk_matches_the_oracle_on_family_graphs():
    rng = random.Random(79)
    between_nodes = 0
    for _ in range(12):
        cd = derive_from_generators(random_zhs_semigroup(rng.choice([3, 4]), rng))
        pg = assemble_full_resolution(compute_qresolution(cd))
        adj = adjacency(pg)
        assert len(adj[0]) != 2  # assembled graphs never root inside a chain
        assert_same_diagram(splice_from_plumbing(pg), splice_walk_oracle(pg))
        # the same graph rooted inside a chain, between two nodes where it can
        inner = [u for v in adj if len(adj[v]) >= 3 for u in adj[v] if len(adj[u]) == 2]
        between = [u for u in inner if all(len(adj[e]) >= 3 for e in chain_ends(adj, u))]
        moved = rooted_at(pg, rng.choice(between or inner), rng)
        assert len(adjacency(moved)[0]) == 2
        assert_same_diagram(splice_from_plumbing(moved), splice_walk_oracle(moved))
        between_nodes += bool(between)
    assert between_nodes >= 3


def test_splice_walk_through_a_valency_2_root_on_e8():
    pg = assemble_full_resolution(compute_qresolution(derive_from_generators((6, 10, 31))))
    rng = random.Random(8)
    adj = adjacency(pg)
    inner = [v for v in adj if len(adj[v]) == 2]
    assert len(inner) == 4  # one on the arm of weight 3, three on the arm of weight 5
    for root in inner:
        e8 = rooted_at(pg, root, rng)
        assert len(adjacency(e8)[0]) == 2
        assert graph_determinant(e8) == 1
        sd = splice_from_plumbing(e8)
        assert_same_diagram(sd, splice_walk_oracle(e8))
        assert diagrams_isomorphic(sd, single_node_diagram((5, 3, 2)))


def test_not_zhs_rejected():
    cd = derive_from_generators((8, 12, 26, 53))
    pg = assemble_full_resolution(compute_qresolution(cd))
    with pytest.raises(NotZHS):
        splice_from_plumbing(pg)
    with pytest.raises(NotZHS):
        expected_splice_diagram(cd)
    # a single (-1) curve plumbs S^3, an integral sphere without nodes
    with pytest.raises(NotZHS, match="bamboo link"):
        splice_from_plumbing(plumbing_graph([-1], []))


def test_single_node_brieskorn_diagram():
    cd = derive_from_generators((6, 10, 31))  # exponents (5, 3, 2)
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
    exp = single_node_diagram((5, 3, 2))
    verify_en_conditions(exp)
    assert diagrams_isomorphic(sd, exp)


def test_en_conditions_hold_on_produced_diagrams():
    rng = random.Random(67)
    for trial in range(10):
        g = rng.choice([3, 4, 5])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        verify_en_conditions(exp)  # raises on violation
        for det in edge_determinants(exp).values():
            assert det > 0


def test_edge_determinant_value():
    cd = derive_from_generators((70, 105, 215, 1511))
    exp = expected_splice_diagram(cd)
    (det,) = edge_determinants(exp).values()
    assert det == 35 * 43 - (3 * 2) * (7 * 5)


def test_beyond_and_linking_numbers_match_the_path_oracle():
    # every (node, neighbour, leaf) triple of closed-form diagrams g = 2-6,
    # of the diagrams read off the criterion-8 plumbing graphs with g <= 4,
    # and of the hand-built two-node diagram
    rng = random.Random(97)
    diagrams = [
        expected_splice_diagram(derive_from_generators(random_zhs_semigroup(g, rng)))
        for g in range(2, 7)
        for _ in range(3)
    ]
    diagrams += [
        splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
        for cd in criterion_8_zhs()
    ]
    diagrams.append(two_node_diagram())
    triples = 0
    for sd in diagrams:
        for v in sd.nodes:
            for u in sd.neighbors(v):
                walk = sd.beyond(v, u)
                assert [w for w, _ in walk] == component_leaves(sd, v, u)
                for w, lprime in walk:
                    l, lp = linking_numbers_oracle(sd, v, w)
                    assert lprime == lp
                    assert linking_numbers(sd, v, w) == (l, lp)
                    triples += 1
    assert len(diagrams) == 34 and triples >= 400


def test_linking_numbers_single_node():
    sd = single_node_diagram((2, 3, 5))
    l, lp = linking_numbers(sd, 0, 1)
    assert l == 15 and lp == 1
    assert linking_numbers(sd, 0, 0) == (1, 1)


def test_linking_numbers_along_internal_path():
    cd = derive_from_generators((70, 105, 215, 1511))
    exp = expected_splice_diagram(cd)
    node2 = 1  # layout: nodes first (node1, node2), then leaves 0..g
    leaf0 = cd.g - 1
    l, lp = linking_numbers(exp, node2, leaf0)
    # weights adjacent to the path at node1: the n_1 leaf; l' drops the
    # contributions at the endpoints
    assert lp == cd.n[1] == cd.beta[0] // cd.e[1]
    assert l == lp * cd.n[2] * cd.n[3]
    with pytest.raises(ValueError, match="not a leaf"):
        linking_numbers(exp, 0, node2)


def test_lprime_closed_form_for_backward_edges():
    rng = random.Random(71)
    for trial in range(8):
        g = rng.choice([3, 4])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        for k in range(2, g):
            node = k - 1
            for w in range(k):
                leaf = g - 1 + w
                _, lp = linking_numbers(exp, node, leaf)
                assert lp == cd.beta[w] // cd.e[k - 1]


def test_semigroup_condition_single_node():
    report = check_semigroup_condition(single_node_diagram((2, 3, 5)))
    assert report.satisfied
    for entry in report.entries:
        assert entry.lprimes == (1,)
        assert entry.alphas == (entry.weight,)


def test_semigroup_condition_family_witnesses():
    rng = random.Random(73)
    for trial in range(8):
        g = rng.choice([3, 4])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        report = check_semigroup_condition(exp)
        assert report.satisfied
        for entry in report.entries:
            assert sum(a * l for a, l in zip(entry.alphas, entry.lprimes)) == entry.weight


def test_right_edge_weights_are_realized_by_single_leaves():
    # e_k = n_w * l'_kw for every leaf w beyond the forward edge
    cd = derive_from_generators((70, 105, 215, 1511))
    exp = expected_splice_diagram(cd)
    g = cd.g
    for k in range(1, g - 1):
        node = k - 1
        for w in range(k + 1, g + 1):
            _, lp = linking_numbers(exp, node, g - 1 + w)
            assert cd.e[k] == cd.n[w] * lp


def test_splice_equations_integral_example():
    cd = derive_from_generators((70, 105, 215, 1511))
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
    eqs = splice_equations(sd, cd)
    rendered = eqs.render()
    assert len(rendered) == 2  # leaves - 2
    assert rendered[0] == "z1^2 + z2^7 + z0^3 = 0"
    assert rendered[1] == "z2^7 + z3^5 + z0^20*z1 = 0"


def test_splice_equations_single_node():
    cd = derive_from_generators((6, 10, 31))
    eqs = splice_equations(expected_splice_diagram(cd), cd)
    assert eqs.render() == ["z1^3 + z2^2 + z0^5 = 0"]


def test_equation_count_is_leaves_minus_two():
    rng = random.Random(79)
    for trial in range(8):
        g = rng.choice([2, 3, 4])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        eqs = splice_equations(exp, cd)
        assert len(eqs.equations) == len(exp.leaves) - 2 == g - 1


def test_monomial_weights_are_homogeneous():
    # recompute the node weight of every emitted monomial from scratch
    rng = random.Random(83)
    for trial in range(6):
        g = rng.choice([3, 4])
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        eqs = splice_equations(exp, cd)
        for k, eq in enumerate(eqs.equations, start=1):
            node = k - 1
            d_v = math.prod(exp.weight(node, u) for u in exp.neighbors(node))
            for mono in eq:
                weight = sum(
                    c * linking_numbers_oracle(exp, node, g - 1 + w)[0]
                    for w, c in enumerate(mono.exponents)
                )
                assert weight == d_v


def test_splice_equations_use_the_closed_form_diagram_they_are_handed(monkeypatch):
    calls = Counter()
    for name in ("expected_splice_diagram", "diagrams_isomorphic", "classify_link"):
        real = getattr(splice, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(splice, name, counting)
    cd = derive_from_generators((70, 105, 215, 1511))
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
    exp = expected_splice_diagram(cd)
    calls.clear()
    eqs = splice_equations(exp, cd)
    assert not calls
    # a diagram with other labels is checked against the closed form and
    # replaced by it
    assert splice_equations(sd, cd) == eqs
    assert calls == {"expected_splice_diagram": 1, "diagrams_isomorphic": 1, "classify_link": 1}


def test_splice_equations_refuse_an_altered_closed_form_weight():
    rng = random.Random(101)
    altered = 0
    for g in (2, 3, 4):
        cd = derive_from_generators(random_zhs_semigroup(g, rng))
        exp = expected_splice_diagram(cd)
        splice_equations(exp, cd)
        for edge, w in exp.weights.items():
            bad = replace(exp, weights={**exp.weights, edge: w + 1})
            with pytest.raises(SemigroupConditionFails):
                splice_equations(bad, cd)
            altered += 1
    assert altered == 3 + 6 + 9
    # a diagram read off another integral input's plumbing graph is refused
    cd = derive_from_generators((70, 105, 215, 1511))
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
    with pytest.raises(SemigroupConditionFails, match="closed-form family diagram"):
        splice_equations(sd, derive_from_generators((130, 182, 1027, 2055)))


def test_canonical_form_distinguishes_weights():
    a = single_node_diagram((2, 3, 5))
    b = single_node_diagram((2, 3, 7))
    c = single_node_diagram((5, 2, 3))
    assert canonical_form(a) != canonical_form(b)
    assert canonical_form(a) == canonical_form(c)


def test_semigroup_condition_failure_is_reported():
    report = check_semigroup_condition(two_node_diagram())
    assert not report.satisfied
    failing = [e for e in report.entries if not e.satisfied]
    assert any(e.weight == 7 and set(e.lprimes) == {5, 11} for e in failing)


def test_residue_tables_and_witnesses_match_the_oracles():
    rng = random.Random(89)
    seen = Counter()
    for _ in range(6000):
        k = rng.randint(0, 4)
        values = [rng.randint(1, 40) for _ in range(k)]
        if k and rng.random() < 0.25:  # a common factor leaves residues unreachable
            factor = rng.choice((2, 3))
            values = [factor * rng.randint(1, 20) for _ in range(k)]
        if k >= 2 and rng.random() < 0.2:
            values[rng.randrange(1, k)] = values[0]
        if k and rng.random() < 0.1:
            values[rng.randrange(k)] = 1
        values = tuple(values)
        target = 0 if rng.random() < 0.05 else rng.randint(0, 400)
        if values:
            table = _apery_table(values)
            assert table == apery_oracle(values), values
            seen["unreachable residue"] += None in table
        alphas = _lex_min_combination(target, values)
        assert alphas == lex_min_dfs(target, values), (target, values)
        seen["repeated value"] += len(set(values)) < k
        seen["value 1"] += 1 in values
        seen["no representation"] += k > 0 and alphas is None
        seen["empty values"] += k == 0
        seen["target 0"] += target == 0
    assert len(seen) == 6 and min(seen.values()) >= 50, seen


def test_semigroup_witnesses_match_the_dfs_on_criterion_8_inputs():
    # on the diagrams read off their plumbing graphs
    inputs = criterion_8_zhs()
    entries = 0
    for cd in inputs:
        sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd)))
        for entry in check_semigroup_condition(sd).entries:
            assert entry.alphas == lex_min_dfs(entry.weight, entry.lprimes)
            entries += 1
    assert len(inputs) >= 15 and entries >= 100
