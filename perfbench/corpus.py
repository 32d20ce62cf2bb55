"""The benchmark's input pools and the script that builds ``corpus.json``.

Every workload draws its inputs from a recipe stream: draw ``i`` is a recipe,
``["plane", g, max_n, seed]`` for ``random_plane_semigroup`` or
``["zhs", g, seed]`` for the integral-homology-sphere generator below, with
g and max_n themselves drawn per ``i``.  A workload keeps the first draws
that fall inside its size window (for ``census`` and ``zhs_splice`` a cap on
the plumbing vertex count V, so the kept draws have the natural proportions
below the cap) and records the share of draws kept.

The kept draws are sorted by their size measure and cut into strata of equal
count, that is into quantile bands of the drawn distribution; the pool keeps
a number of inputs evenly spaced through each band.  A run's seed shuffles
each stratum and the run takes one input from every stratum per round, so
every run meets the same mix of sizes.

``corpus.json`` stores, per input, the recipe, the generators, g, dim A, V
(predicted from the census before assembly), the link class, the largest
splice weight for integral links, and the digest of the canonical output at
the commit that built it.

Rebuild (minutes; run only when the corpus itself must change, since the
digests pin the output of the commit that builds it)::

    python3 perfbench/corpus.py [workload ...]
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

# the exponents of the integral-homology-sphere generator, as in the
# acceptance suite's criterion-8 extras
PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _census_recipe(i):
    # the everyday draw: g in {3,4}, max_n 4 as in the census demo or 5 as
    # in the acceptance sample
    rng = random.Random(f"census:shape:{i}")
    return ["plane", rng.choice((3, 4)), rng.choice((4, 5)), f"census:{i}"]


def _zhs_recipe(i):
    return ["zhs", random.Random(f"zhs_splice:shape:{i}").choice((4, 5)), f"zhs_splice:{i}"]


# Per workload: why it is in the benchmark, its recipe stream, the size
# window (measure, lo, hi inclusive, the one link class it admits or None),
# how many draws inside the window to keep, the number of strata they are cut
# into and how many inputs of each stratum go into the pool.  A round runs
# one input per stratum, so where a stratum holds one input every run runs
# the same inputs, in an order set by its seed: that keeps the mix of a run
# fixed where a few large inputs take most of its time.  Those pools hold an
# odd number of inputs, so that the median latency is that of one input.
#
# The caps of census and zhs_splice keep one input under about 2 s, so that
# a run holds several complete rounds.  census: h1_link grows about as V^3
# (0.4 s at V=200, 1.2 s at V=300, 9.7 s at V=600, over 60 s at V=1500).
# zhs_splice: splice_from_plumbing grows about linearly in V (1.8 s at
# V=2.2e4, 4.6 s at V=4.6e4), and the natural draw reaches V=4e6.
POOLS = {
    "census": (
        "Everyday use: `branchlink analyze --json` through the real CLI entry "
        "point on random_plane_semigroup draws with g in {3,4} and max_n in "
        "{4,5}, in their natural proportions up to V=300. The dense Smith form "
        "in h1_link dominates it.",
        _census_recipe, ("V", 0, 300, None), 400, 20, 20,
    ),
    "zhs_splice": (
        "Integral homology sphere links (distinct prime exponents up to 17, "
        "g in {4,5}) through the splice path: one input from each of 25 "
        "quantile bands of natural draws up to V=20000. Cut determinants, "
        "closed-form diagram, equations and semigroup witnesses; no Smith form.",
        _zhs_recipe, ("V", 0, 20000, None), 250, 25, 1,
    ),
    "deep_graph": (
        "Seven large plumbing graphs (rational homology sphere links, g = 6, "
        "V 12000-13000) through the graph half of analyze: sparse exact "
        "elimination at scale. h1_link is left out: it cannot finish here.",
        lambda i: ["plane", 6, 3, f"deep_graph:6:3:{i}"], ("V", 12000, 13000, "QHS"), 42, 7, 1,
    ),
    "deep_partial": (
        "Thirteen deep semigroups (g = 10, every n_i = 2) through the partial-resolution "
        "half of analyze: the dense rational intersection matrix of dim A 511 "
        "and its determinant routes, which stay below dim A 60 elsewhere.",
        lambda i: ["plane", 10, 2, f"deep_partial:10:2:{i}"], ("dimA", 511, 511, None), 39, 13, 1,
    ),
}


def zhs_semigroup(g: int, rng: random.Random) -> tuple[int, ...]:
    """Random generators whose surface has an integral homology sphere link.

    The exponents n_1..n_g are distinct primes, so pairwise coprime, and each
    quotient beta_i/e_i is made coprime to e_{i-1}; together with the gcd
    chain this is the integral classification criterion.
    """
    n = rng.sample(PRIMES, g)
    e = [math.prod(n[i:]) for i in range(g + 1)]
    m = n[0] + 1 + rng.randrange(8)
    while math.gcd(m, e[0]) != 1:
        m += 1
    beta = [e[0], m * e[1]]
    for i in range(1, g):
        c = n[i - 1] * beta[i] // e[i + 1] + 1 + rng.randrange(10)
        while math.gcd(c, e[i]) != 1:
            c += 1
        beta.append(c * e[i + 1])
    return tuple(beta)


def generators(recipe, m) -> tuple[int, ...]:
    """The generator list a recipe stands for, validated by the package."""
    if recipe[0] == "plane":
        _, g, max_n, seed = recipe
        return tuple(m.semigroup.random_plane_semigroup(g, max_n, seed=seed))
    _, g, seed = recipe
    gens = zhs_semigroup(g, random.Random(seed))
    m.semigroup.derive_from_generators(gens)
    return gens


def predicted_vertices(qr) -> int:
    """Plumbing vertex count from the census, before any assembly.

    One vertex per strict-transform component, plus each singular point's
    chain length times the number of such points.
    """
    v = sum(qr.r[1:])
    for pt in qr.census:
        if pt.is_smooth:
            continue
        chain = len(pt.chain.kappas)
        if pt.kind == "Q0":
            v += chain * qr.r[1] * pt.per_component
        elif pt.kind == "Q":
            v += chain * qr.r[pt.level] * pt.per_component
        elif pt.kind == "edge":
            v += chain * qr.r[pt.level]
        else:
            v += chain
    return v


def describe(gens, m) -> dict:
    cd = m.semigroup.derive_from_generators(gens)
    qr = m.qres.compute_qresolution(cd)
    link = m.detcalc.classify_link(cd)
    out = {
        "g": cd.g,
        "dimA": sum(qr.r[1:]),
        "V": predicted_vertices(qr),
        "class": link.kind.value,
    }
    if link.is_zhs:
        out["max_weight"] = max(m.splice.expected_splice_diagram(cd).weights.values())
    return out


def build_pool(workload: str, m, log=print) -> dict:
    why, recipe_of, (measure, lo, hi, only), draws, n_strata, per_stratum = POOLS[workload]
    execute, canonical, checks = workloads.WORKLOADS[workload]
    kept, drawn = [], 0
    while len(kept) < draws:
        recipe = recipe_of(drawn)
        drawn += 1
        gens = generators(recipe, m)
        info = describe(gens, m)
        if lo <= info[measure] <= hi and (not only or info["class"] == only):
            kept.append((drawn - 1, recipe, gens, info))
    # quantile strata: equal counts in order of the size measure; each keeps
    # `per_stratum` inputs evenly spaced through its band
    kept.sort(key=lambda d: d[3][measure])
    inputs, strata = [], []
    for s in range(n_strata):
        band = kept[s * draws // n_strata:(s + 1) * draws // n_strata]
        strata.append(f"{measure}{band[0][3][measure]}-{band[-1][3][measure]}")
        for i in range(per_stratum):
            index, recipe, gens, info = band[(2 * i + 1) * len(band) // (2 * per_stratum)]
            # a zhs_splice input must be integral; the others may be any class
            if workload == "zhs_splice" and info["class"] != "ZHS":
                raise AssertionError(f"{recipe} is not an integral link")
            result = execute(gens, m)
            failed = checks(gens, result, m)
            if failed:
                raise AssertionError(f"{workload} {gens}: checks failed {failed}")
            inputs.append(
                {
                    "id": f"{workload}-{index:04d}",
                    "stratum": s,
                    "recipe": recipe,
                    "generators": list(gens),
                    **info,
                    "digest": workloads.digest(canonical(result)),
                }
            )
    values = [d[3][measure] for d in kept]
    log(f"{workload}: kept {draws} of {drawn} draws, {len(inputs)} in the pool; "
        f"{measure} deciles of the kept draws {statistics.quantiles(values, n=10)}")
    return {
        "why": why,
        "draws": drawn,
        "kept_share": draws / drawn,
        "strata": strata,
        "inputs": inputs,
    }


def load() -> dict:
    with open(CORPUS) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(POOLS)
    m = workloads.import_package(HERE.parent / "src")
    corpus = load() if CORPUS.exists() else {}
    for name in names:
        corpus[name] = build_pool(name, m, log=lambda s: print(s, flush=True))
        with open(CORPUS, "w") as fh:
            json.dump(corpus, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
