"""Seeded randomized structural checks on generated graphs.

The corpus is hand-picked; these graphs have random flag orders, loops,
parallel edges, and legs, and must satisfy the same structural theorems.
"""

import random

from hgpoly.constructs import check_diamond, covers_of, enumerate_constructs, face_poset
from hgpoly.graphs import Graph, alpha, alpha_inv, canonical_contraction, gr, graph_trees, incidence_hypergraph
from hgpoly.homology import betti, boundary_ranks, diamond_sign_check, verify_complex
from hgpoly.minimodel import DEFAULT_CONVENTION, FreeComponent, boundary, boundary_of_basis, graft_chain, rho
from hgpoly.pipeline import complex_for_graph, cover_signs


def random_graph(rng, max_vertices=4, max_extra=2, max_legs=3):
    n = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(n)]
    edges = []
    for v in range(1, n):
        edges.append((str(rng.randint(1, v)), str(v + 1)))  # random spanning tree
    for _ in range(rng.randint(0 if n > 1 else 1, max_extra)):
        a = str(rng.randint(1, n))
        b = str(rng.randint(1, n))
        edges.append((a, b))
    flags_at = {v: [] for v in vertices}
    involution = {}
    for k, (a, b) in enumerate(edges):
        fa, fb = f"e{k}", f"e{k}'"
        involution[fa] = fb
        involution[fb] = fa
        flags_at[a].insert(rng.randint(0, len(flags_at[a])), fa)
        flags_at[b].insert(rng.randint(0, len(flags_at[b])), fb)
    legs = []
    for k in range(rng.randint(0, max_legs)):
        leg = f"l{k}"
        v = str(rng.randint(1, n))
        flags_at[v].insert(rng.randint(0, len(flags_at[v])), leg)
        legs.append(leg)
    rng.shuffle(legs)
    return Graph(vertices, [flags_at[v] for v in vertices], involution, legs)


def test_fuzzed_graphs_satisfy_structural_theorems():
    rng = random.Random(60902)
    done = 0
    while done < 30:
        g = random_graph(rng)
        if not 1 <= len(g.edges) <= 5:
            continue
        h = incidence_hypergraph(g)

        complex_ = complex_for_graph(g)
        assert verify_complex(complex_)
        numbers = betti(complex_)
        assert numbers[0] == 1 and all(x == 0 for x in numbers[1:])

        items = enumerate_constructs(h)
        for c in items:
            terms = boundary_of_basis(h, c, DEFAULT_CONVENTION)
            assert set(f for f, _ in terms) == set(covers_of(h, c))
            assert all(s in (1, -1) for _, s in terms)
            t = alpha(g, c)
            assert gr(t) == g
            assert alpha_inv(t, g) == c
            if len(h) - c.num_nodes() == 1:
                assert rho(boundary(FreeComponent.basis(g, c))) == 0

        poset = face_poset(h)
        ok, witness = check_diamond(h, poset)
        assert ok, witness
        _, signs = cover_signs(g)
        sign_ok, sign_witness = diamond_sign_check(poset, signs)
        assert sign_ok, sign_witness
        done += 1


def test_fuzzed_contractions_and_leibniz():
    rng = random.Random(424242)
    done = 0
    while done < 15:
        g = random_graph(rng)
        if not 2 <= len(g.edges) <= 4:
            continue
        h = incidence_hypergraph(g)
        names = list(h.vertices)
        masks = [
            m
            for m in range(1, h.ground_mask)
            if h._connected_within(m)
        ]
        if not masks:
            continue
        mask = rng.choice(masks)
        subset = [names[i] for i in range(len(names)) if mask >> i & 1]
        cc = canonical_contraction(g, subset)
        assert g.b1() == cc.fiber.b1() + cc.quotient.b1()
        if not cc.quotient.edges:
            continue
        hq = incidence_hypergraph(cc.quotient)
        hf = incidence_hypergraph(cc.fiber)
        cs = rng.choice(enumerate_constructs(hq))
        cf = rng.choice(enumerate_constructs(hf))
        s = FreeComponent.basis(cc.quotient, cs)
        r = FreeComponent.basis(cc.fiber, cf)
        deg_s = len(hq) - cs.num_nodes()
        lhs = boundary(graft_chain(s, r, g, subset))
        rhs = graft_chain(boundary(s), r, g, subset).plus(
            graft_chain(s, boundary(r), g, subset).scaled((-1) ** deg_s)
        )
        assert lhs == rhs
        done += 1


def test_cover_signs_poset_is_the_face_poset(graphs):
    rng = random.Random(60902)
    fuzzed = []
    while len(fuzzed) < 30:
        g = random_graph(rng)
        if 1 <= len(g.edges) <= 5:
            fuzzed.append(g)
    for g in list(graphs.values()) + fuzzed:
        assert cover_signs(g)[0].covers == face_poset(incidence_hypergraph(g)).covers


def test_graph_trees_is_alpha_of_each_face(graphs):
    """One shared pass over all faces equals `alpha` on each face alone,
    whose memo holds that face only, and inverts to the same faces."""
    rng = random.Random(7707)
    fuzzed = []
    while len(fuzzed) < 20:
        g = random_graph(rng)
        if 1 <= len(g.edges) <= 5:
            fuzzed.append(g)
    for g in list(graphs.values()) + fuzzed:
        faces = enumerate_constructs(incidence_hypergraph(g))
        trees = graph_trees(g, faces)
        assert trees == [alpha(g, c) for c in faces]
        assert [alpha_inv(t, g) for t in trees] == list(faces)


def test_every_boundary_is_ranked_on_unit_pivots(graphs):
    """Every grade of every corpus graph and of 20 seeded fuzz graphs is
    reduced on pivots 1 and -1, so each boundary has Smith form
    diag(1, ..., 1, 0, ...).  The acyclicity of the minimal models is thus
    an integral statement: their integral homology is Z in grade 0 and
    zero elsewhere, with no torsion."""
    rng = random.Random(7707)
    fuzzed = []
    while len(fuzzed) < 20:
        g = random_graph(rng)
        if 1 <= len(g.edges) <= 5:
            fuzzed.append(g)
    for g in list(graphs.values()) + fuzzed:
        complex_ = complex_for_graph(g)
        assert {path for _, path in boundary_ranks(complex_)} <= {"unit"}
        numbers = betti(complex_)
        assert numbers[0] == 1 and not any(numbers[1:])
