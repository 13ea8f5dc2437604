"""Acceptance suite: one test per criterion, exact arithmetic throughout,
each printing a single PASS line with its measured runtime."""

import itertools
import random
import time
from fractions import Fraction

from hgpoly.constructs import (
    Construct,
    check_diamond,
    covers_of,
    enumerate_constructs,
    face_poset,
    is_construct,
)
from hgpoly.games import (
    additive_game,
    brute_force_vertices,
    builtin_game,
    core_hrep,
    is_strictly_convex,
    realize,
)
from hgpoly.graphs import (
    alpha,
    alpha_inv,
    canonical_contraction,
    gr,
    incidence_hypergraph,
)
from hgpoly.homology import betti, diamond_sign_check, verify_complex
from hgpoly.minimodel import (
    DEFAULT_CONVENTION,
    FreeComponent,
    boundary,
    boundary_of_basis,
    graft_chain,
    rho,
)
from hgpoly.pipeline import complex_for_graph, cover_signs
from hgpoly.variants import (
    GenusGrading,
    check_srtr_closure,
    genus,
    induce_genus,
    is_rooted,
    is_strongly_rooted,
)

from test_constructs import oracle_constructs
from test_homology import flip_entry
from test_hypergraph import hg
from test_variants import increasing_trees

_COMPLEXES = {}


def _passline(number, elapsed, message):
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {message}", flush=True)


def _complexes(graphs):
    if not _COMPLEXES:
        for name, g in graphs.items():
            _COMPLEXES[name] = complex_for_graph(g, DEFAULT_CONVENTION, name)
    return _COMPLEXES


def test_criterion_01_acyclicity(graphs):
    t0 = time.monotonic()
    complexes = _complexes(graphs)
    eligible = [n for n, g in graphs.items() if 1 <= len(g.edges) <= 6]
    assert len(eligible) >= 12
    for required in ("line3", "theta", "multiloop"):
        assert required in eligible
    for name in eligible:
        numbers = betti(complexes[name])
        assert numbers[0] == 1, (name, numbers)
        assert all(x == 0 for x in numbers[1:]), (name, numbers)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _passline(1, elapsed, f"betti = (1,0,...,0) on {len(eligible)} corpus graphs")


def test_criterion_02_d_squared_zero(graphs):
    t0 = time.monotonic()
    complexes = _complexes(graphs)
    for name, c in complexes.items():
        assert verify_complex(c), name
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _passline(2, elapsed, f"d^2 = 0 exactly on {len(complexes)} corpus graphs")


def test_criterion_03_coefficient_structure(graphs):
    t0 = time.monotonic()
    total = 0
    for name, g in graphs.items():
        if not g.edges:
            continue
        h = incidence_hypergraph(g)
        for c in enumerate_constructs(h):
            terms = boundary_of_basis(h, c, DEFAULT_CONVENTION)
            support = [face for face, _ in terms]
            assert all(sign in (1, -1) for _, sign in terms), name
            assert len(set(support)) == len(support), name
            assert set(support) == set(covers_of(h, c)), name
            total += len(terms)
    elapsed = time.monotonic() - t0
    _passline(3, elapsed, f"+-1 coefficients with covered-face support ({total} terms)")


def test_criterion_04_diamond(graphs):
    t0 = time.monotonic()
    checked = 0
    for name, g in graphs.items():
        if not g.edges or len(g.edges) > 6:
            continue
        h = incidence_hypergraph(g)
        poset = face_poset(h)
        ok, witness = check_diamond(h, poset)
        assert ok, (name, witness)
        _, signs = cover_signs(g)
        sign_ok, sign_witness = diamond_sign_check(poset, signs)
        assert sign_ok, (name, sign_witness)
        assert verify_complex(_complexes(graphs)[name])
        checked += 1
    # agreement in the failing direction: one flipped sign breaks both
    g = graphs["line4"]
    poset, signs = cover_signs(g)
    key = next(iter(sorted(signs)))
    bad_signs = dict(signs)
    bad_signs[key] = -bad_signs[key]
    bad_ok, _ = diamond_sign_check(poset, bad_signs)
    c = complex_for_graph(g)
    k = poset.rank_of(key[1])
    lows = [i for i in range(len(poset.faces)) if poset.rank_of(i) == k - 1]
    highs = [i for i in range(len(poset.faces)) if poset.rank_of(i) == k]
    flip_entry(c, k, lows.index(key[0]), highs.index(key[1]))
    assert (not bad_ok) and (not verify_complex(c))
    elapsed = time.monotonic() - t0
    _passline(4, elapsed, f"diamond property and sign relation on {checked} graphs")


def test_criterion_05_poset_isomorphism(graphs):
    t0 = time.monotonic()
    graphs_small = {n: g for n, g in graphs.items() if 1 <= len(g.edges) <= 5}
    for name, g in graphs_small.items():
        h = incidence_hypergraph(g)
        items = enumerate_constructs(h)
        trees = {c: alpha(g, c) for c in items}
        # bijectivity and the two roundtrips
        assert len(set(trees.values())) == len(items)
        for c, t in trees.items():
            assert gr(t) == g
            assert alpha_inv(t, g) == c
        # cover-level order preservation in both directions
        from hgpoly.graphs import _single_contractions

        cover_pairs = {
            (lower, c) for c in items for lower in covers_of(h, c)
        }
        for lower, upper in cover_pairs:
            assert trees[upper] in _single_contractions(trees[lower])
        for c, t in trees.items():
            for contracted in _single_contractions(t):
                back = alpha_inv(contracted, g)
                assert (c, back) in cover_pairs
        # full closure agreement: C <= C' iff alpha(C) precedes alpha(C')
        if len(g.edges) <= 4:
            up = {c: {upper for lo, upper in cover_pairs if lo == c} for c in items}
            closure = {}
            for c in sorted(items, key=lambda c: c.num_nodes()):
                reach = {c}
                for upper in up[c]:
                    reach |= closure[upper]
                closure[c] = reach
            tree_up = {
                t: {alpha_inv(s, g) for s in _single_contractions(t)}
                for t in trees.values()
            }
            for c in items:
                tree_reach = {c}
                frontier = {c}
                while frontier:
                    nxt = set()
                    for x in frontier:
                        for y in tree_up[trees[x]]:
                            if y not in tree_reach:
                                tree_reach.add(y)
                                nxt.add(y)
                    frontier = nxt
                assert tree_reach == closure[c]
    elapsed = time.monotonic() - t0
    _passline(
        5, elapsed, f"alpha is a poset isomorphism on {len(graphs_small)} graphs"
    )


def test_criterion_06_permutohedron():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        labels = "abcd"[:n]
        edges = ["".join(p) for p in itertools.combinations(labels, 2)]
        h = hg(labels, list(labels) + edges)
        r = realize(h, builtin_game("loday", labels))
        expected = {
            tuple(map(Fraction, p)) for p in itertools.permutations(range(1, n + 1))
        }
        assert r.points() == expected, n
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _passline(6, elapsed, "loday core of K_n is the permutation points, n=2,3,4")


def test_criterion_07_vertex_agreement(hypergraphs):
    t0 = time.monotonic()
    cases = 0
    for name, h in hypergraphs.items():
        if len(h) > 4:
            continue
        for game_name in ("pow3", "loday"):
            game = builtin_game(game_name, h.vertices)
            r = realize(h, game)
            bf = set(brute_force_vertices(r.hrep))
            rank0 = [c for c in enumerate_constructs(h) if c.num_nodes() == len(h)]
            assert r.points() == bf, (name, game_name)
            assert len(r.vertex_map) == len(rank0) == len(bf), (name, game_name)
            cases += 1
    assert cases >= 10
    elapsed = time.monotonic() - t0
    _passline(7, elapsed, f"realized = brute-force = rank-0 on {cases} (H, game) pairs")


def test_criterion_08_strict_convexity():
    t0 = time.monotonic()
    for n in range(1, 6):
        ground = "abcde"[:n]
        assert is_strictly_convex(builtin_game("pow3", ground)), n
        assert is_strictly_convex(builtin_game("loday", ground)), n
    assert not is_strictly_convex(additive_game("abcd"))
    elapsed = time.monotonic() - t0
    _passline(8, elapsed, "pow3 and loday strictly convex to n=5; additive fails")


def test_criterion_09_chain_map_and_h0(graphs):
    t0 = time.monotonic()
    complexes = _complexes(graphs)
    for name, g in graphs.items():
        if not g.edges:
            continue
        h = incidence_hypergraph(g)
        n = len(h)
        for c in enumerate_constructs(h):
            if n - c.num_nodes() == 1:
                assert rho(boundary(FreeComponent.basis(g, c))) == 0, name
            if c.num_nodes() == n:
                assert rho(FreeComponent.basis(g, c)) == 1, name
        assert betti(complexes[name])[0] == 1, name
    elapsed = time.monotonic() - t0
    _passline(9, elapsed, "rho kills grade-1 boundaries; H0 is one-dimensional")


def test_criterion_10_known_f_vectors(hypergraphs):
    t0 = time.monotonic()
    expected = {
        "pentagon": (5, 5, 1),
        "hexagon": (6, 6, 1),
        "segment": (2, 1),
    }
    for name, want in expected.items():
        h = hypergraphs[name]
        oracle = oracle_constructs(h)
        counts = [0] * len(h)
        for c in oracle:
            counts[len(h) - c.num_nodes()] += 1
        assert tuple(counts) == want, name
        assert set(enumerate_constructs(h)) == oracle
    for name, h in hypergraphs.items():
        f = face_poset(h).f_vector()
        assert sum((-1) ** k * x for k, x in enumerate(f)) == 1, name
    elapsed = time.monotonic() - t0
    _passline(10, elapsed, "f-vectors (5,5,1)/(6,6,1)/(2,1) by oracle; Euler sum 1")


def test_criterion_11_variant_facts(graphs):
    t0 = time.monotonic()
    fragile_root = graphs["fragile_root"]
    assert is_rooted(fragile_root)
    cc = canonical_contraction(fragile_root, ["f1"])
    assert cc.quotient.flags == (("f2", "f5"), ("f3", "f4"))
    assert not is_rooted(cc.quotient)

    trees = 0
    for n in range(1, 6):
        for t in increasing_trees(n):
            assert is_strongly_rooted(t)
            ok, witness = check_srtr_closure(t)
            assert ok, witness
            trees += 1
    assert trees == 1 + 2 + 6 + 24 + 120

    for name, g in graphs.items():
        if not g.edges:
            continue
        h = incidence_hypergraph(g)
        grading = GenusGrading(g, {v: i % 3 for i, v in enumerate(g.vertices)})
        names = list(h.vertices)
        for r in range(1, len(names) + 1):
            for subset in itertools.combinations(names, r):
                if not h._connected_within(h.mask_of(subset)):
                    continue
                contraction = canonical_contraction(g, list(subset))
                _, induced = induce_genus(g, grading, contraction)
                assert genus(contraction.quotient, induced) == genus(g, grading)
    elapsed = time.monotonic() - t0
    _passline(
        11, elapsed, f"rooted counterexample, SRTr closure on {trees} trees, genus"
    )


def test_criterion_12_leibniz(graphs):
    t0 = time.monotonic()
    rng = random.Random(271828)
    instances = 0
    candidates = [
        name for name, g in graphs.items() if 2 <= len(g.edges) <= 5
    ]
    while instances < 12:
        name = rng.choice(candidates)
        g = graphs[name]
        h = incidence_hypergraph(g)
        names = list(h.vertices)
        k = rng.randint(1, len(names) - 1)
        subset = sorted(rng.sample(names, k))
        if not h._connected_within(h.mask_of(subset)):
            continue
        cc = canonical_contraction(g, subset)
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
        assert lhs == rhs, (name, subset, cs, cf)
        instances += 1
    elapsed = time.monotonic() - t0
    _passline(12, elapsed, f"Leibniz rule on {instances} randomized instances")
