import itertools
import random

import pytest

from hgpoly.constructs import Construct, enumerate_constructs, face_poset
from hgpoly.errors import (
    CompatibilityError,
    DisconnectedError,
    InputError,
    ValidationError,
)
from hgpoly.graphs import (
    Graph,
    GraphMorphism,
    GraphTree,
    alpha,
    alpha_inv,
    canonical_contraction,
    contract_fibers,
    contract_tree_edge,
    corolla_tree,
    enumerate_graph_trees,
    factor_pre_elementary,
    gr,
    graft,
    graph_tree_poset_le,
    incidence_hypergraph,
    subgraph_from_edges,
    validate_graph,
)


# -- validation ----------------------------------------------------------------


def test_validate_line3_tree(graphs):
    g = graphs["line3"]
    assert g.edge_names() == ("a", "b")
    assert g.b1() == 0


def test_validate_multiloop(graphs):
    g = graphs["multiloop"]
    assert len(g.edges) == 5
    assert g.edge_names() == ("u", "v", "x", "y", "z")
    assert g.legs == ("l1", "l2")


def test_broken_involution_rejected():
    with pytest.raises(ValidationError):
        Graph(["1"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"}, [])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        Graph(["1", "2"], [["a"], ["b"]], {}, ["a", "b"])


def test_legs_must_match_fixed_points():
    with pytest.raises(ValidationError):
        Graph(["1", "2"], [["a"], ["a'"]], {"a": "a'", "a'": "a"}, ["a"])


def test_graph_json_roundtrip(graphs):
    for g in graphs.values():
        assert validate_graph(g.to_json()) == g


# Every rejection of `Graph` and `GraphTree`, in the order the constructors
# check: the arguments, the exception type and its exact message.  The trees
# sit over the path 1 -a- 2 -b- 3.
_EDGE_12 = {"a": "a'", "a'": "a"}
_EDGE_23 = {"b": "b'", "b'": "b"}


def _path_graph():
    return Graph(["1", "2", "3"], [["a"], ["a'", "b"], ["b'"]], _EDGE_12 | _EDGE_23, [])


def _quotient():
    """The path with b contracted into 2."""
    return Graph(["1", "2"], [["a"], ["a'"]], _EDGE_12, [])


def _fiber_23(legs=("a'",)):
    """The fiber over b, a corolla below the vertex 2 of the quotient."""
    flags = [[*legs, "b"], ["b'"]]
    return GraphTree(Graph(["2", "3"], flags, _EDGE_23, legs), (), ("2", "3"))


def _fiber_12():
    """A child below the vertex 1 of the quotient that shares the leaf 2."""
    return GraphTree(Graph(["1", "2"], [["a", "c"], ["c'"]], {"c": "c'", "c'": "c"}, ["a"]), (), ("1", "2"))


GRAPH_REJECTIONS = {
    "flag_lists": ((["1", "2"], [["a"]], {}, []), ValidationError, "one flag list per vertex is required"),
    "duplicate_vertex": ((["1", "1"], [["a"], ["a'"]], _EDGE_12, []), ValidationError, "duplicate vertex labels"),
    "duplicate_flag": ((["1", "2"], [["a"], ["a"]], {}, ["a"]), ValidationError, "duplicate flag names"),
    "unknown_flag": ((["1"], [["a"]], {"a": "z"}, []), ValidationError, "involution mentions unknown flag 'a'/'z'"),
    "not_an_involution": (
        (["1"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"}, []),
        ValidationError,
        "involution does not square to the identity",
    ),
    "legs": ((["1", "2"], [["a"], ["a'"]], _EDGE_12, ["a"]), ValidationError, "legs must be exactly the involution fixed points"),
    "disconnected": ((["1", "2"], [["a"], ["b"]], {}, ["a", "b"]), DisconnectedError, "graph realization is not connected"),
    "empty": (([], [], {}, []), DisconnectedError, "graph realization is not connected"),
}

TREE_REJECTIONS = {
    "key_not_a_vertex": (
        lambda: (_quotient(), [("9", _fiber_23())], ("1", "2", "3")),
        ValidationError,
        "child key '9' is not a vertex",
    ),
    "duplicate_key": (
        lambda: (_quotient(), [("2", _fiber_23()), ("2", _fiber_23())], ("1", "2", "3")),
        ValidationError,
        "duplicate child key '2'",
    ),
    "key_not_minimum": (
        lambda: (_quotient(), [("1", _fiber_23())], ("1", "2", "3")),
        ValidationError,
        "child key '1' must be the minimum of its leaf labels",
    ),
    "leaves_outside_ground": (
        lambda: (_quotient(), [("2", _fiber_23())], ("1", "2")),
        ValidationError,
        "child leaves outside the ground set",
    ),
    "leaf_order": (
        lambda: (_quotient(), [("2", _fiber_23())], ("1", "3", "2")),
        ValidationError,
        "child leaf order must be induced",
    ),
    "legs_differ_from_flags": (
        lambda: (_quotient(), [("2", _fiber_23(legs=("x",)))], ("1", "2", "3")),
        CompatibilityError,
        "legs of the graph below '2' must match the flags above",
    ),
    "leaf_sets_overlap": (
        lambda: (_quotient(), [("2", _fiber_23()), ("1", _fiber_12())], ("1", "2", "3")),
        ValidationError,
        "child leaf sets must be disjoint",
    ),
    "vertex_outside_ground": (
        lambda: (_path_graph(), (), ("1", "2")),
        ValidationError,
        "decorating-graph vertex outside the ground set",
    ),
    "vertices_not_incoming": (
        lambda: (_path_graph(), (), ("1", "2", "3", "4")),
        ValidationError,
        "vertices of the decorating graph must be the incoming labels",
    ),
    "vertex_order": (
        lambda: (_path_graph(), (), ("3", "2", "1")),
        ValidationError,
        "decorating-graph vertex order must be induced",
    ),
}


@pytest.mark.parametrize("case", sorted(GRAPH_REJECTIONS))
def test_graph_rejections(case):
    args, kind, message = GRAPH_REJECTIONS[case]
    with pytest.raises(InputError) as info:
        Graph(*args)
    assert (type(info.value), str(info.value)) == (kind, message)


@pytest.mark.parametrize("case", sorted(TREE_REJECTIONS))
def test_graph_tree_rejections(case):
    make, kind, message = TREE_REJECTIONS[case]
    args = make()
    with pytest.raises(InputError) as info:
        GraphTree(*args)
    assert (type(info.value), str(info.value)) == (kind, message)


def test_rejection_fixtures_are_valid_trees():
    """The trees the rejections perturb are themselves accepted."""
    t = GraphTree(_quotient(), [("2", _fiber_23())], ("1", "2", "3"))
    assert gr(t) == _path_graph()
    assert _fiber_12().ground == ("1", "2")


# -- incidence hypergraph ----------------------------------------------------------


def test_incidence_multiloop_misses_uz(graphs):
    h = incidence_hypergraph(graphs["multiloop"])
    pairs = {h.labels_of(m) for m in h.edges if bin(m).count("1") == 2}
    assert len(pairs) == 9
    assert ("u", "z") not in pairs and ("z", "u") not in pairs


def test_incidence_line3_path(graphs):
    h = incidence_hypergraph(graphs["line3"])
    pairs = {h.labels_of(m) for m in h.edges if bin(m).count("1") == 2}
    assert pairs == {("a", "b")}


def test_incidence_theta_complete(graphs):
    h = incidence_hypergraph(graphs["theta"])
    pairs = {h.labels_of(m) for m in h.edges if bin(m).count("1") == 2}
    assert pairs == {("a", "b"), ("a", "c"), ("b", "c")}


def test_incidence_corolla_rejected():
    corolla = Graph(["1"], [["x", "y"]], {}, ["x", "y"])
    with pytest.raises(InputError):
        incidence_hypergraph(corolla)


# -- subgraphs ---------------------------------------------------------------------


def test_subgraph_single_edge_multiloop(graphs):
    g = graphs["multiloop"]
    sub = subgraph_from_edges(g, ["x"])
    assert sub.vertices == ("2", "3")
    assert sub.edge_names() == ("x",)
    # everything else at vertices 2,3 is cut into legs
    assert set(sub.legs) == {"u'", "y", "l1", "l2", "y'", "v'", "z", "z'"}


def test_subgraph_line3(graphs):
    sub = subgraph_from_edges(graphs["line3"], ["a"])
    assert sub.vertices == ("1", "2")
    assert sub.edge_names() == ("a",)
    assert sub.legs == ("b",)


def test_subgraph_disconnected_rejected(graphs):
    with pytest.raises(DisconnectedError):
        subgraph_from_edges(graphs["multiloop"], ["u", "z"])


# -- canonical contractions -----------------------------------------------------------


def test_contract_line3(graphs):
    cc = canonical_contraction(graphs["line3"], ["b"])
    assert cc.quotient.vertices == ("1", "2")
    assert cc.quotient.edge_names() == ("a",)
    assert cc.fiber.vertices == ("2", "3")
    assert cc.fiber.edge_names() == ("b",)
    assert cc.morphism.vertex_map == {"1": "1", "2": "2", "3": "2"}


def test_contract_fragile_root_bit_exact(graphs):
    g = graphs["fragile_root"]
    cc = canonical_contraction(g, ["f1"])
    q = cc.quotient
    assert q.vertices == ("1", "2")
    assert q.flags == (("f2", "f5"), ("f3", "f4"))
    assert q.legs == ("f5", "f4")
    assert not cc.morphism.is_order_preserving()


def test_contract_all_edges_gives_corolla(graphs):
    g = graphs["multiloop"]
    cc = canonical_contraction(g, list(g.edge_names()))
    assert len(cc.quotient.vertices) == 1
    assert cc.quotient.edges == ()
    assert cc.quotient.legs == g.legs


def test_contract_fibers_equals_contractions_in_turn(graphs):
    """The one-step quotient of a node's child fibers equals contracting
    them one after another, for every node with children of every face of
    the corpus graphs and of 20 seeded fuzz graphs."""
    from test_fuzz import random_graph

    rng = random.Random(7707)
    fuzzed = [random_graph(rng) for _ in range(20)]
    checked = 0
    for g in list(graphs.values()) + fuzzed:
        if not g.edges or len(g.edges) > 6:
            continue

        def fiber(mask):
            names = [e.name for i, e in enumerate(g.edges) if mask >> i & 1]
            return subgraph_from_edges(g, names)

        keys = {
            (n.subtree_union, tuple(ch.subtree_union for ch in n.children))
            for c in enumerate_constructs(incidence_hypergraph(g))
            for n in c.nodes()
            if n.children
        }
        for union, child_unions in sorted(keys):
            sub = fiber(union)
            kids = [fiber(m) for m in child_unions]
            quotient = sub
            for kid in kids:
                names = [quotient.edge_by_pair(e.flags).name for e in kid.edges]
                quotient = canonical_contraction(quotient, names).quotient
            one_step = contract_fibers(sub, kids).target
            assert one_step == quotient
            assert one_step.to_json() == quotient.to_json()
            checked += 1
    assert checked > 1000


def test_contract_fibers_rejects_shared_vertices(graphs):
    g = graphs["line3"]
    with pytest.raises(InputError):
        contract_fibers(g, [subgraph_from_edges(g, ["a"]), subgraph_from_edges(g, ["b"])])


def test_vertex_subset_must_match_span(graphs):
    with pytest.raises(InputError):
        canonical_contraction(graphs["line3"], ["b"], vertex_subset=("1", "2"))


def test_b1_additivity_over_contractions(graphs):
    rng = random.Random(4243)
    for g in graphs.values():
        if not g.edges:
            continue
        h = incidence_hypergraph(g)
        names = list(h.vertices)
        for _ in range(8):
            k = rng.randint(1, len(names))
            subset = rng.sample(names, k)
            if not h._connected_within(h.mask_of(subset)):
                continue
            cc = canonical_contraction(g, sorted(subset))
            assert g.b1() == cc.fiber.b1() + cc.quotient.b1()


def test_incidence_commutes_with_contraction(graphs):
    """The fiber's incidence hypergraph is the restriction of the ambient
    one, and the pair-edges of the `minus` truncation are exactly the
    adjacencies in the quotient (under ambient edge names)."""
    for g in graphs.values():
        if len(g.edges) < 2 or len(g.edges) > 5:
            continue
        h = incidence_hypergraph(g)
        names = list(h.vertices)
        for mask in [m for m in range(1, 1 << len(names)) if h._connected_within(m)]:
            if mask == h.ground_mask:
                continue
            subset = [names[i] for i in range(len(names)) if mask >> i & 1]
            cc = canonical_contraction(g, subset)

            fiber_h = incidence_hypergraph(cc.fiber)
            restricted = h.restriction(subset)
            assert set(fiber_h.vertices) == set(restricted.vertices)
            to_sets = lambda hy: {frozenset(hy.labels_of(m)) for m in hy.edges}
            assert to_sets(fiber_h) == to_sets(restricted)

            amb = {
                e.name: g.edge_by_pair(e.flags).name for e in cc.quotient.edges
            }
            quotient_h = incidence_hypergraph(cc.quotient)
            quotient_pairs = {
                frozenset(amb[x] for x in quotient_h.labels_of(m))
                for m in quotient_h.edges
                if bin(m).count("1") == 2
            }
            truncated = h.minus(subset)
            minus_pairs = {
                frozenset(truncated.labels_of(m))
                for m in truncated.edges
                if bin(m).count("1") == 2
            }
            assert quotient_pairs == minus_pairs


def test_lex_reorder_preserves_local_orders(graphs):
    for g in graphs.values():
        if not g.edges:
            continue
        h = incidence_hypergraph(g)
        for mask in h.edges:
            if not h._connected_within(mask):
                continue
            names = list(h.labels_of(mask))
            cc = canonical_contraction(g, names)
            contracted = {f for e in cc.fiber.edges for f in e.flags}
            for v in cc.fiber.vertices:
                survivors = [f for f in g.flags_at(v) if f not in contracted]
                merged = list(cc.quotient.flags_at(cc.merged_vertex))
                positions = [merged.index(f) for f in survivors]
                assert positions == sorted(positions)


# -- pre-elementary factorization ------------------------------------------------------


def test_factor_identity_case(graphs):
    cc = canonical_contraction(graphs["line3"], ["b"])
    cc2, sigma = factor_pre_elementary(cc.morphism)
    assert cc2.quotient == cc.quotient
    assert sigma.vertex_map == {v: v for v in cc.quotient.vertices}
    assert sigma.flag_map == {f: f for f in cc.quotient.flag_list}


def test_factor_relabelled_quotient(graphs):
    g = graphs["line3"]
    cc = canonical_contraction(g, ["b"])
    q = cc.quotient
    ren_v = {v: f"w{v}" for v in q.vertices}
    ren_f = {f: f"p{f}" for f in q.flag_list}
    relabeled = Graph(
        [ren_v[v] for v in q.vertices],
        [[ren_f[f] for f in q.flags_at(v)] for v in q.vertices],
        {ren_f[f]: ren_f[q.involution[f]] for f in q.flag_list},
        [ren_f[f] for f in q.legs],
    )
    tau = GraphMorphism(
        g,
        relabeled,
        {v: ren_v[cc.morphism.vertex_map[v]] for v in g.vertices},
        {ren_f[f]: f for f in q.flag_list},
    ).validate()
    cc2, sigma = factor_pre_elementary(tau)
    assert cc2.quotient == q and cc2.fiber == cc.fiber
    assert sigma.vertex_map == {ren_v[v]: v for v in q.vertices}


def test_factor_two_fibers_rejected(graphs):
    g = graphs["line4"]
    target = Graph(["1", "3"], [["b"], ["b'"]], {"b": "b'", "b'": "b"}, [])
    tau = GraphMorphism(
        g,
        target,
        {"1": "1", "2": "1", "3": "3", "4": "3"},
        {"b": "b", "b'": "b'"},
    ).validate()
    with pytest.raises(InputError):
        factor_pre_elementary(tau)


# -- graph-trees ------------------------------------------------------------------------


def two_level_tree(g, fiber_edges):
    cc = canonical_contraction(g, fiber_edges)
    return graft(
        corolla_tree(cc.quotient),
        corolla_tree(cc.fiber),
        cc.merged_vertex,
        g.vertices,
    )


def test_contract_two_vertex_tree(graphs):
    g = graphs["line3"]
    t = two_level_tree(g, ["b"])
    assert t.num_vertices() == 2
    back = contract_tree_edge(t, ["2"])
    assert back == corolla_tree(g)


def test_gr_of_two_level_tree(graphs):
    for name, edges in [("line3", ["a"]), ("theta", ["b"]), ("multiloop", ["x", "y"])]:
        g = graphs[name]
        t = two_level_tree(g, edges)
        assert gr(t) == g


def test_vertex_insertion_vertex_set_rule(graphs):
    g = graphs["multiloop"]
    t = two_level_tree(g, ["x", "y"])
    key, sub = t.children[0]
    merged = contract_tree_edge(t, [key]).graph
    expected = (set(t.graph.vertices) - {key}) | set(sub.graph.vertices)
    assert set(merged.vertices) == expected


def test_gr_order_independence(graphs):
    g = graphs["line4"]
    h = incidence_hypergraph(g)
    # three-vertex tree: contract {a} under {b}, all below root {c}
    c = Construct(
        h.mask_of("c"),
        [Construct(h.mask_of("b"), [Construct(h.mask_of("a"))])],
    )
    t = alpha(g, c)
    assert t.num_vertices() == 3
    (k1, sub) = t.children[0]
    (k2, _) = sub.children[0]
    one = contract_tree_edge(contract_tree_edge(t, [k1, k2]), [k1])
    two = contract_tree_edge(contract_tree_edge(t, [k1]), [k2])
    assert one == two == corolla_tree(g)
    assert gr(t) == g


def test_compatibility_two_enforced(graphs):
    g = graphs["line3"]
    cc = canonical_contraction(g, ["b"])
    bad_fiber = Graph(
        cc.fiber.vertices,
        [list(cc.fiber.flags_at(v)) for v in cc.fiber.vertices],
        {e.flags[0]: e.flags[1] for e in cc.fiber.edges}
        | {e.flags[1]: e.flags[0] for e in cc.fiber.edges},
        list(reversed(cc.fiber.legs)) or cc.fiber.legs,
    )
    if bad_fiber.legs != cc.fiber.legs:
        with pytest.raises(CompatibilityError):
            graft(
                corolla_tree(cc.quotient),
                corolla_tree(bad_fiber),
                cc.merged_vertex,
                g.vertices,
            )


def test_graft_associativity_disjoint_leaves(graphs):
    g = graphs["line4"]
    cc_a = canonical_contraction(g, ["a"])
    cc_c = canonical_contraction(cc_a.quotient, ["c"])
    s = corolla_tree(cc_c.quotient)
    r = corolla_tree(cc_a.fiber)
    q = corolla_tree(cc_c.fiber)
    one = graft(graft(s, q, "3", ("1", "3", "4")), r, "1", g.vertices)
    two = graft(graft(s, r, "1", ("1", "2", "3")), q, "3", g.vertices)
    assert one == two
    assert gr(one) == g


# -- alpha ------------------------------------------------------------------------------


def test_alpha_two_level_example(graphs):
    g = graphs["multiloop"]
    h = incidence_hypergraph(g)
    c = Construct(h.mask_of(["x", "y"]), [Construct(h.mask_of(["u", "v", "z"]))])
    t = alpha(g, c)
    root = t.graph
    assert root.vertices == ("1",)
    assert set(root.edge_names()) == {"x", "y"}
    assert len(root.legs) == 2
    assert [k for k, _ in t.children] == ["1"]
    assert alpha_inv(t, g) == c


def test_alpha_maximal_is_corolla(graphs):
    g = graphs["theta"]
    h = incidence_hypergraph(g)
    top = Construct(h.ground_mask)
    assert alpha(g, top) == corolla_tree(g)


def test_alpha_roundtrip_full_corpus(graphs):
    for name, g in graphs.items():
        if not g.edges or len(g.edges) > 4:
            continue
        h = incidence_hypergraph(g)
        for c in enumerate_constructs(h):
            t = alpha(g, c)
            assert gr(t) == g
            assert alpha_inv(t, g) == c


def test_alpha_enumeration_matches_direct(graphs):
    for name in ("line3", "theta", "triangle", "line4", "star4", "line5"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        via_alpha = {alpha(g, c) for c in enumerate_constructs(h)}
        direct = enumerate_graph_trees(g)
        assert len(direct) == len(via_alpha)
        assert set(direct) == via_alpha


def test_alpha_is_order_isomorphism(graphs):
    for name in ("line3", "theta", "line4"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        poset = face_poset(h)
        trees = {c: alpha(g, c) for c in poset.faces}
        for ci, cj in itertools.product(poset.faces, repeat=2):
            lhs = poset.le(poset.index(ci), poset.index(cj))
            rhs = graph_tree_poset_le(trees[ci], trees[cj])
            assert lhs == rhs


def test_collapse_commutes_with_tree_contraction(graphs):
    from hgpoly.constructs import collapse, covers_of

    g = graphs["line4"]
    h = incidence_hypergraph(g)
    for c in enumerate_constructs(h):
        t = alpha(g, c)
        for lower in covers_of(h, c):
            # lower < c: contracting the new edge in alpha(lower) gives alpha(c)
            old = {n.decoration for n in c.nodes()}
            new_child = [
                n
                for n in lower.nodes()
                if n.decoration not in old
                and any(
                    n in m.children and m.decoration not in old
                    for m in lower.nodes()
                )
            ][0]
            assert collapse(lower, new_child.decoration) == c
            assert graph_tree_poset_le(alpha(g, lower), t)
