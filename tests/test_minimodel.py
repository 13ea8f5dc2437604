import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from hgpoly.constructs import (
    Construct,
    covers_of,
    enumerate_constructs,
    format_construct,
    from_tubes,
    graded_constructs,
    node_splits,
    tubes,
)
from hgpoly.errors import CompatibilityError, InputError
from hgpoly.graphs import _edges_connected, canonical_contraction, incidence_hypergraph
from hgpoly.hypergraph import Hypergraph
from hgpoly.minimodel import (
    DEFAULT_CONVENTION,
    FreeComponent,
    SignConvention,
    _graded_factors,
    _koszul_sort_sign,
    boundary,
    boundary_matrix,
    boundary_of_basis,
    collapse_columns,
    generator_boundary,
    grade_columns,
    graft_chain,
    rho,
    shuffle_sign,
)

ALT = SignConvention("alt")


def F(x):
    return Fraction(x)


# -- shuffle signs ------------------------------------------------------------


def test_shuffle_identity():
    assert shuffle_sign(("a", "b"), {"a"}, {"b"}) == 1


def test_shuffle_transposition():
    assert shuffle_sign(("a", "b"), {"b"}, {"a"}) == -1


def test_shuffle_four_elements():
    assert shuffle_sign(("a", "b", "c", "d"), {"a", "c"}, {"b", "d"}) == -1


def test_shuffle_rejects_non_partition():
    with pytest.raises(InputError):
        shuffle_sign(("a", "b"), {"a"}, {"a", "b"})


def test_shuffle_sign_matches_the_permutation_parity():
    rng = random.Random(4)
    for n in range(1, 8):
        edges = [f"e{i}" for i in range(n)]
        rng.shuffle(edges)
        for _ in range(10):
            one = {e for e in edges if rng.random() < 0.5}
            target = [e for e in edges if e in one] + [e for e in edges if e not in one]
            perm = [edges.index(e) for e in target]
            swaps = sum(a > b for a, b in itertools.combinations(perm, 2))
            assert shuffle_sign(edges, one, set(edges) - one) == (-1) ** swaps


def test_det_basis(graphs):
    from hgpoly.minimodel import det_basis
    from hgpoly.graphs import Graph

    d = det_basis(graphs["multiloop"])
    assert d.wedge == ("u", "v", "x", "y", "z")
    assert d.degree == 4
    corolla = Graph(["1"], [["x", "y"]], {}, ["x", "y"])
    assert det_basis(corolla) is None


# -- generator boundary ----------------------------------------------------------


def test_generator_boundary_line3(graphs):
    terms = generator_boundary(graphs["line3"])
    as_dict = {(fiber, quotient): sign for fiber, quotient, sign in terms}
    # d(a^b) = a(x)b - b(x)a: quotient factor first
    assert as_dict[(("b",), ("a",))] == 1
    assert as_dict[(("a",), ("b",))] == -1
    assert len(terms) == 2


def test_generator_boundary_theta_six_terms(graphs):
    terms = generator_boundary(graphs["theta"])
    assert len(terms) == 6
    assert all(sign in (1, -1) for _, _, sign in terms)


def test_generator_boundary_skips_disconnected_fibers(graphs):
    terms = generator_boundary(graphs["line4"])
    fibers = {fiber for fiber, _, _ in terms}
    assert ("a", "c") not in fibers
    assert len(fibers) == 5


def test_generator_boundary_needs_two_edges(graphs):
    with pytest.raises(InputError):
        generator_boundary(graphs["edge"])


def test_alt_convention_flips_generator(graphs):
    default = generator_boundary(graphs["theta"], DEFAULT_CONVENTION)
    flipped = generator_boundary(graphs["theta"], ALT)
    assert [(f, q, -s) for f, q, s in default] == flipped


# -- boundary on the construct basis ------------------------------------------------


def test_boundary_line3(graphs):
    g = graphs["line3"]
    h = incidence_hypergraph(g)
    top = Construct(h.ground_mask)
    d = boundary(FreeComponent.basis(g, top))
    expect_plus = Construct(h.mask_of("a"), [Construct(h.mask_of("b"))])
    expect_minus = Construct(h.mask_of("b"), [Construct(h.mask_of("a"))])
    assert d.coeffs == {expect_plus: F(1), expect_minus: F(-1)}


def test_boundary_pentagon_top(graphs):
    g = graphs["line4"]
    h = incidence_hypergraph(g)
    top = Construct(h.ground_mask)
    d = boundary(FreeComponent.basis(g, top))
    assert len(d.coeffs) == 5
    assert all(v in (F(1), F(-1)) for v in d.coeffs.values())

    def face(root, child):
        return Construct(h.mask_of(root), [Construct(h.mask_of(child))])

    # regression-pin the chosen orientation
    assert d.coeffs[face("a", "bc")] == 1
    assert d.coeffs[face("c", "ab")] == 1
    assert d.coeffs[face("ac", "b")] == 1
    assert d.coeffs[face("ab", "c")] == -1
    assert d.coeffs[face("bc", "a")] == -1


def test_boundary_rank0_vanishes(graphs):
    for name in ("line3", "theta", "line4"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        for c in enumerate_constructs(h):
            if c.num_nodes() == len(h):
                assert boundary(FreeComponent.basis(g, c)).is_zero()


def test_boundary_support_is_covered_faces(graphs):
    for name in ("line3", "theta", "triangle", "line4", "star4", "multiloop"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        for c in enumerate_constructs(h):
            terms = boundary_of_basis(h, c, DEFAULT_CONVENTION)
            support = [face for face, _ in terms]
            assert len(support) == len(set(support))
            assert set(support) == set(covers_of(h, c))
            assert all(sign in (1, -1) for _, sign in terms)


def test_boundary_squares_to_zero_on_chains(graphs):
    rng = random.Random(99)
    for name in ("theta", "line4", "star4"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        items = enumerate_constructs(h)
        coeffs = {c: F(rng.randint(-3, 3)) for c in items}
        x = FreeComponent(g, coeffs)
        assert boundary(boundary(x)).is_zero()
        assert boundary(boundary(x, ALT), ALT).is_zero()


# -- matrices -----------------------------------------------------------------------


def test_matrix_line3(graphs):
    rows, cols, mat = boundary_matrix(graphs["line3"], 1)
    assert (len(mat), len(mat[0])) == (2, 1)
    assert sorted(x for row in mat for x in row) == [F(-1), F(1)]


def test_matrix_pentagon_shapes(graphs):
    g = graphs["line4"]
    _, _, m2 = boundary_matrix(g, 2)
    _, _, m1 = boundary_matrix(g, 1)
    assert (len(m2), len(m2[0])) == (5, 1)
    assert (len(m1), len(m1[0])) == (5, 5)
    entries = {x for mat in (m1, m2) for row in mat for x in row}
    assert entries <= {F(-1), F(0), F(1)}


def test_matrix_degree_range(graphs):
    with pytest.raises(InputError):
        boundary_matrix(graphs["line3"], 2)


# -- rho --------------------------------------------------------------------------------


def test_rho_on_vertex(graphs):
    g = graphs["line3"]
    h = incidence_hypergraph(g)
    c = Construct(h.mask_of("a"), [Construct(h.mask_of("b"))])
    assert rho(FreeComponent.basis(g, c)) == 1


def test_rho_kills_boundaries(graphs):
    for name in ("line3", "theta", "line4", "star4"):
        g = graphs[name]
        h = incidence_hypergraph(g)
        for c in enumerate_constructs(h):
            if len(h) - c.num_nodes() == 1:
                assert rho(boundary(FreeComponent.basis(g, c))) == 0


def test_rho_zero_component(graphs):
    assert rho(FreeComponent(graphs["line3"], {})) == 0


# -- grafting -----------------------------------------------------------------------------


def test_graft_grade_zero(graphs):
    g = graphs["line3"]
    cc = canonical_contraction(g, ["b"])
    hq = incidence_hypergraph(cc.quotient)
    hf = incidence_hypergraph(cc.fiber)
    s = FreeComponent.basis(cc.quotient, Construct(hq.ground_mask))
    r = FreeComponent.basis(cc.fiber, Construct(hf.ground_mask))
    out = graft_chain(s, r, g, ["b"])
    assert len(out.coeffs) == 1
    ((c, v),) = out.coeffs.items()
    assert v == 1
    assert c.num_nodes() == 2


def test_graft_unit_left_and_right(graphs):
    g = graphs["line3"]
    cc = canonical_contraction(g, ["a", "b"])
    hf = incidence_hypergraph(cc.fiber)
    r = FreeComponent.basis(cc.fiber, Construct(hf.ground_mask))
    unit = FreeComponent.unit(cc.quotient, 1)
    out = graft_chain(unit, r, g, ["a", "b"])
    assert list(out.coeffs.values()) == [F(1)]
    # right unit: empty contraction
    s = FreeComponent.basis(g, Construct(incidence_hypergraph(g).ground_mask))
    corolla = canonical_contraction(g, ["a", "b"]).quotient
    out2 = graft_chain(s, FreeComponent.unit(corolla, 1), g, [])
    assert out2 == s


def test_graft_compatibility_errors(graphs):
    g = graphs["line3"]
    cc = canonical_contraction(g, ["b"])
    hf = incidence_hypergraph(cc.fiber)
    r = FreeComponent.basis(cc.fiber, Construct(hf.ground_mask))
    with pytest.raises(CompatibilityError):
        graft_chain(r, r, g, ["b"])


def leibniz_holds(g, fiber_edges):
    cc = canonical_contraction(g, fiber_edges)
    hq = incidence_hypergraph(cc.quotient) if cc.quotient.edges else None
    hf = incidence_hypergraph(cc.fiber)
    s_items = enumerate_constructs(hq) if hq else []
    f_items = enumerate_constructs(hf)
    checked = 0
    for cs in s_items:
        for cf in f_items:
            s = FreeComponent.basis(cc.quotient, cs)
            r = FreeComponent.basis(cc.fiber, cf)
            sr = graft_chain(s, r, g, fiber_edges)
            deg_s = len(hq) - cs.num_nodes()
            lhs = boundary(sr)
            rhs = graft_chain(boundary(s), r, g, fiber_edges).plus(
                graft_chain(s, boundary(r), g, fiber_edges).scaled((-1) ** deg_s)
            )
            if lhs != rhs:
                return False, (cs, cf)
            checked += 1
    return True, checked


def test_leibniz_instances(graphs):
    cases = [
        ("line4", ["a"]),
        ("line4", ["b", "c"]),
        ("theta", ["a"]),
        ("theta", ["b", "c"]),
        ("triangle", ["a1", "b1"]),
        ("star4", ["b", "c"]),
        ("multiloop", ["x", "y"]),
        ("multiloop", ["z"]),
    ]
    total = 0
    for name, edges in cases:
        ok, checked = leibniz_holds(graphs[name], edges)
        assert ok, (name, edges, checked)
        total += checked
    assert total >= 10


def test_graft_bilinear(graphs):
    g = graphs["line4"]
    cc = canonical_contraction(g, ["a"])
    hq = incidence_hypergraph(cc.quotient)
    hf = incidence_hypergraph(cc.fiber)
    cs = enumerate_constructs(hq)
    s = FreeComponent(cc.quotient, {cs[0]: F(2), cs[1]: F(-1)})
    r = FreeComponent.basis(cc.fiber, enumerate_constructs(hf)[0])
    out = graft_chain(s, r, g, ["a"])
    parts = graft_chain(FreeComponent.basis(cc.quotient, cs[0]), r, g, ["a"]).scaled(2)
    parts = parts.plus(
        graft_chain(FreeComponent.basis(cc.quotient, cs[1]), r, g, ["a"]).scaled(-1)
    )
    assert out == parts


# -- the local sign rule against the global re-sort ----------------------------


def resorted_boundary(h, c, convention):
    """boundary_of_basis with each sign taken from the Koszul re-sort of the
    whole factor list into the factor order of the covered face."""
    factors = _graded_factors(c)
    nodes = {node.decoration: node for node in c.nodes()}
    out = []
    prefix = 0
    for i, (dec, deg) in enumerate(factors):
        if deg >= 1:
            for x, y, tube in node_splits(h, nodes[dec]):
                face = from_tubes(tubes(c) + (tube,))
                arrangement = (
                    factors[:i]
                    + [(x, bin(x).count("1") - 1), (y, bin(y).count("1") - 1)]
                    + factors[i + 1 :]
                )
                passes = sum(
                    1 for a in range(dec.bit_length()) if x >> a & 1
                    for b in range(a) if y >> b & 1
                )
                sign = (-1) ** (prefix + passes)
                sign *= convention.generator_sign(bin(x).count("1"))
                sign *= _koszul_sort_sign(arrangement, _graded_factors(face))
                out.append((face, sign))
        prefix += deg
    return out


def assert_local_signs_match_resort(h):
    faces = enumerate_constructs(h)
    for convention in (DEFAULT_CONVENTION, ALT):
        for c in faces:
            assert boundary_of_basis(h, c, convention) == resorted_boundary(
                h, c, convention
            ), (h, c, convention.name)
    return sum(len(boundary_of_basis(h, c, ALT)) for c in faces)


def test_local_signs_match_resort_on_corpus(graphs):
    terms = 0
    for g in graphs.values():
        if g.edges:
            terms += assert_local_signs_match_resort(incidence_hypergraph(g))
    assert terms > 10_000


def test_local_signs_match_resort_on_fuzz_graphs():
    from test_fuzz import random_graph

    rng = random.Random(5150)
    for _ in range(20):
        g = random_graph(rng)
        if g.edges and len(g.edges) <= 5:
            assert_local_signs_match_resort(incidence_hypergraph(g))


def test_local_signs_match_resort_on_three_element_hyperedges():
    from test_constructs import random_small_hypergraph

    rng = random.Random(811)
    hypergraphs = [random_small_hypergraph(rng) for _ in range(10)]
    assert any(bin(m).count("1") == 3 for h in hypergraphs for m in h.edges)
    for h in hypergraphs:
        assert_local_signs_match_resort(h)


def test_local_signs_match_resort_when_moved_children_pass_kept_ones():
    # A path whose labels run 2-1-3-0-4-5.  Splitting the root {0,3} of the
    # construct {0,3}({1,2} {4,5}) into {3} | {0} keeps {1,2} under {3} and
    # moves {4,5} under {0}, and the lowest vertices interleave as
    # low(K) = 0 < low({1,2}) = 1 < low({4,5}) = 4, so both odd child
    # degrees enter the sign.
    labels = [f"p{i}" for i in range(6)]
    path = [["p2", "p1"], ["p1", "p3"], ["p3", "p0"], ["p0", "p4"], ["p4", "p5"]]
    h = Hypergraph(labels, [[v] for v in labels] + path, auto_singletons=False)
    kept, moved = Construct(h.mask_of(["p1", "p2"])), Construct(h.mask_of(["p4", "p5"]))
    c = Construct(h.mask_of(["p0", "p3"]), [kept, moved])
    assert c in enumerate_constructs(h)
    assert_local_signs_match_resort(h)


# -- the collapse route against the split route --------------------------------


def assert_collapses_match_splits(h):
    """`collapse_columns` equals `grade_columns`, term for term and in the
    same order, under both conventions; returns the number of terms."""
    grades = graded_constructs(h)
    for convention in (DEFAULT_CONVENTION, ALT):
        splits = [
            grade_columns(h, grades[k - 1], grades[k], convention)
            for k in range(1, len(grades))
        ]
        assert collapse_columns(grades, convention) == splits, (h, convention.name)
    return sum(len(column) for grade in splits for column in grade)


def test_collapse_signs_match_splits_on_corpus(graphs):
    terms = 0
    for g in graphs.values():
        if g.edges:
            terms += assert_collapses_match_splits(incidence_hypergraph(g))
    assert terms > 10_000


def test_collapse_signs_match_splits_on_fuzz_graphs():
    from test_fuzz import random_graph

    rng = random.Random(5150)
    for _ in range(20):
        g = random_graph(rng)
        if g.edges and len(g.edges) <= 5:
            assert_collapses_match_splits(incidence_hypergraph(g))


def test_collapse_signs_match_splits_on_three_element_hyperedges():
    from test_constructs import random_small_hypergraph

    rng = random.Random(811)
    hypergraphs = [random_small_hypergraph(rng) for _ in range(10)]
    assert any(bin(m).count("1") == 3 for h in hypergraphs for m in h.edges)
    for h in hypergraphs:
        assert_collapses_match_splits(h)


def test_collapse_signs_match_splits_when_moved_children_pass_kept_ones():
    # The interleaved path of the re-sort test above: collapsing {0} into
    # {3} in {3}({1,2} {0}({4,5})) must pick up both odd child degrees.
    labels = [f"p{i}" for i in range(6)]
    path = [["p2", "p1"], ["p1", "p3"], ["p3", "p0"], ["p0", "p4"], ["p4", "p5"]]
    h = Hypergraph(labels, [[v] for v in labels] + path, auto_singletons=False)
    kept, moved = Construct(h.mask_of(["p1", "p2"])), Construct(h.mask_of(["p4", "p5"]))
    lower = Construct(h.mask_of(["p3"]), [kept, Construct(h.mask_of(["p0"]), [moved])])
    assert lower in enumerate_constructs(h)
    assert assert_collapses_match_splits(h) > 0


# -- grafting pinned byte for byte ---------------------------------------------

# sha256 of `graft_lines` over the corpus graphs with at most 5 internal edges,
# recorded before grafting moved to nested sets.  The Leibniz tests are linear
# in the graft, so they would miss a sign error shared by every term.
GRAFT_DIGEST = "cd39a729f27ef3cadb2180fc2780c97d7409671f1f5651ac0e720f61fd36a84f"


def labelled_basis(g):
    """(label, basis element) pairs over `g`; the unit over a corolla."""
    if not g.edges:
        return [("unit", FreeComponent.unit(g, 1))]
    h = incidence_hypergraph(g)
    return [(format_construct(c, h), FreeComponent.basis(g, c)) for c in enumerate_constructs(h)]


def graft_lines(graphs):
    """One line per graft: every basis pair over every connected fiber edge
    set, the full one included (the unit over the edgeless quotient)."""
    lines = []
    for name, g in graphs.items():
        if len(g.edges) > 5:
            continue
        amb_h = incidence_hypergraph(g)
        for k in range(1, len(g.edges) + 1):
            for fiber in itertools.combinations(g.edge_names(), k):
                if not _edges_connected([g.edge_by_name(n) for n in fiber]):
                    continue
                cc = canonical_contraction(g, fiber)
                pairs = itertools.product(labelled_basis(cc.quotient), labelled_basis(cc.fiber))
                for (left, s), (right, r) in pairs:
                    out = graft_chain(s, r, g, fiber).items_sorted()
                    terms = " ".join(f"{v}*{format_construct(c, amb_h)}" for c, v in out)
                    lines.append(f"{name} {','.join(fiber)} {left} {right}: {terms}")
    return lines


def test_graft_outputs_match_recorded_digest(graphs):
    lines = graft_lines(graphs)
    assert len(lines) == 3419
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GRAFT_DIGEST
