"""Seeded input generators for the benchmark; standard library only.

Every draw comes from a `random.Random` seeded from the workload name and
the seed, so one seed gives one byte-identical set of files.  Nothing here
imports `hgpoly`: the program under test sees only the JSON files written
by `write_inputs`.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from pathlib import Path

# Internal edge counts of the graphs, one entry per group of size classes.
# The check workload lists 5 twice so that its cheap 4-edge ops are a third
# of the mix: at one half, the median op would sit in the cost gap between
# the two sizes and jump from seed to seed.
GRAPH_EDGES = {"homology": (5,), "check": (4, 5, 5)}
HYPERGRAPH_SIZES = (5, 6, 7)
# Hypergraphs of this size also run the brute-force vertex oracle, which
# solves C(|Sat| - 1, n - 1) square systems; ORACLE_MAX_SYSTEMS keeps those
# inputs sparse enough that one oracle call stays under a second.
ORACLE_VERTICES = 5
ORACLE_MAX_SYSTEMS = 1820
# Larger hypergraphs are redrawn when vertices x |Sat| (the terms of the
# feasibility check, which dominates `realize`) exceeds this, about 0.35 s
# per op; the rare denser draws would otherwise decide a run's throughput.
REALIZE_MAX_TERMS = 30_000
# Candidates drawn per pool slot.  Each size class keeps the middle
# candidate of every cost octile, so the mix of cheap and expensive inputs,
# and with it throughput, depends little on the seed.
CANDIDATES_PER_SLOT = 8


def random_graph(rng: random.Random, num_edges: int, num_vertices: int) -> dict:
    """Connected graph with `num_edges` internal edges on `num_vertices`
    vertices (at most num_edges + 1) in the CLI format.

    Loops and multi-edges are allowed, 0-3 legs hang off random vertices,
    and both the vertex order and every local flag order are shuffled."""
    ends = [(rng.randrange(v), v) for v in range(1, num_vertices)]
    ends += [
        (rng.randrange(num_vertices), rng.randrange(num_vertices))
        for _ in range(num_edges - len(ends))
    ]
    rng.shuffle(ends)
    labels = [f"v{i}" for i in range(num_vertices)]
    rng.shuffle(labels)
    local = {v: [] for v in labels}
    involution = []
    names = iter(rng.sample(range(1000), 2 * num_edges + 3))
    for a, b in ends:
        f, g = f"f{next(names)}", f"f{next(names)}"
        local[labels[a]].append(f)
        local[labels[b]].append(g)
        involution.append([f, g])
    legs = []
    for _ in range(rng.randint(0, 3)):
        leg = f"l{next(names)}"
        local[rng.choice(labels)].append(leg)
        legs.append(leg)
    for flags in local.values():
        rng.shuffle(flags)
    return {"vertices": labels, "flags": local, "involution": involution, "legs": legs}


def random_hypergraph(rng: random.Random, num_vertices: int) -> dict:
    """Connected hypergraph with 2- and 3-element hyperedges in the CLI format.

    A random hypertree connects the vertices; above ORACLE_VERTICES up to
    `num_vertices` extra hyperedges are added.  Singletons are listed, and
    the vertex and hyperedge orders are shuffled."""
    order = list(range(num_vertices))
    rng.shuffle(order)
    edges = set()
    placed = [order[0]]
    rest = order[1:]
    while rest:
        size = 2 if len(rest) == 1 else rng.choice((2, 3))
        new = [rest.pop() for _ in range(size - 1)]
        edges.add(tuple(sorted([rng.choice(placed)] + new)))
        placed += new
    if num_vertices > ORACLE_VERTICES:
        pool = [
            e
            for size in (2, 3)
            for e in itertools.combinations(range(num_vertices), size)
            if e not in edges
        ]
        edges.update(rng.sample(pool, rng.randint(0, num_vertices)))
    labels = [f"p{i}" for i in range(num_vertices)]
    rng.shuffle(labels)
    hyperedges = [[labels[v]] for v in range(num_vertices)]
    hyperedges += [[labels[v] for v in e] for e in sorted(edges)]
    rng.shuffle(hyperedges)
    return {"vertices": labels, "hyperedges": hyperedges}


# -- counting, used to select and balance the pools ---------------------------


def _components(masks, scope: int) -> list:
    inner = [m for m in masks if not m & ~scope]
    out = []
    while scope:
        reached = scope & -scope
        grown = None
        while grown != reached:
            grown = reached
            for m in inner:
                if m & reached:
                    reached |= m
        out.append(reached)
        scope &= ~reached
    return out


def saturation_size(num_vertices: int, masks) -> int:
    """|Sat(H)|: nonempty vertex sets whose restriction is connected."""
    return sum(len(_components(masks, s)) == 1 for s in range(1, 1 << num_vertices))


def count_constructs(num_vertices: int, masks, rank0=False) -> int:
    """Constructs of a connected hypergraph, or only the rank-0 ones (the
    polytope's vertices), counted by the recursion that defines them: a
    root set, then one construct per component of what is left."""
    memo = {}

    def count(scope):
        if scope not in memo:
            if rank0:
                roots = [1 << v for v in range(num_vertices) if scope >> v & 1]
            else:
                roots = [r for r in range(1, scope + 1) if not r & ~scope]
            total = 0
            for root in roots:
                prod = 1
                for comp in _components(masks, scope & ~root):
                    prod *= count(comp)
                total += prod
            memo[scope] = total
        return memo[scope]

    return count((1 << num_vertices) - 1)


def graph_incidence(data: dict) -> tuple:
    """(number of internal edges, hyperedge masks) of the incidence
    hypergraph: internal edges are joined when they share a vertex."""
    owner = {f: v for v, flags in data["flags"].items() for f in flags}
    ends = [{owner[f], owner[g]} for f, g in data["involution"]]
    masks = [1 << i for i in range(len(ends))]
    masks += [
        1 << i | 1 << j
        for i, j in itertools.combinations(range(len(ends)), 2)
        if ends[i] & ends[j]
    ]
    return len(ends), masks


def hypergraph_cost(data: dict) -> tuple:
    """(oracle systems, feasibility terms) of `hg realize` on this input;
    the oracle runs only at ORACLE_VERTICES."""
    n = len(data["vertices"])
    pos = {v: i for i, v in enumerate(data["vertices"])}
    masks = [sum(1 << pos[v] for v in e) for e in data["hyperedges"]]
    saturated = saturation_size(n, masks)
    systems = comb(saturated - 1, n - 1) if n == ORACLE_VERTICES else 0
    return systems, count_constructs(n, masks, rank0=True) * saturated


def input_cost(workload: str, data: dict):
    """Sort key that tracks an op's run time on this input; None when the
    input is over the workload's limits."""
    if workload in GRAPH_EDGES:
        return count_constructs(*graph_incidence(data))
    systems, terms = cost = hypergraph_cost(data)
    if systems > ORACLE_MAX_SYSTEMS or terms > REALIZE_MAX_TERMS:
        return None
    return cost


# -- pools ---------------------------------------------------------------------


def _spread(count: int) -> list:
    """0..count-1 in bit-reversed order, so every prefix spans the range."""
    width = max(count - 1, 1).bit_length()
    return sorted(range(count), key=lambda i: int(f"{i:0{width}b}"[::-1], 2))


def size_classes(workload: str) -> list:
    """Argument tuples for the workload's generator, one per size class:
    (internal edges, graph vertices) for graphs, (vertices,) for hypergraphs."""
    if workload in GRAPH_EDGES:
        return [(e, v) for e in GRAPH_EDGES[workload] for v in range(1, e + 2)]
    return [(n,) for n in HYPERGRAPH_SIZES]


def make_inputs(workload: str, seed: int, count: int) -> list:
    """`count` (name, data) pairs for a workload, in run order.

    Size classes take turns, and inside a class the picks alternate between
    cheap and expensive inputs, so every prefix of the list is a balanced
    mix."""
    rng = random.Random(f"{workload}:{seed}")
    graphs = workload in GRAPH_EDGES
    draw = random_graph if graphs else random_hypergraph
    classes = size_classes(workload)
    slots = -(-count // len(classes))
    per_class = []
    for args in classes:
        drawn = []
        while len(drawn) < slots * CANDIDATES_PER_SLOT:
            data = draw(rng, *args)
            cost = input_cost(workload, data)
            if cost is not None:
                drawn.append((cost, data))
        drawn.sort(key=lambda pair: pair[0])
        picked = drawn[CANDIDATES_PER_SLOT // 2 :: CANDIDATES_PER_SLOT]
        per_class.append([picked[i][1] for i in _spread(slots)])
    out = []
    for slot in range(slots):
        for args, picked in zip(classes, per_class):
            tag = "g{:03d}_e{}v{}" if graphs else "h{:03d}_n{}"
            out.append((tag.format(len(out), *args), picked[slot]))
    return out[:count]


def write_inputs(directory: Path, items) -> list:
    """Write each input as sorted, indented JSON; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in items:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        paths.append(path)
    return paths
