import itertools
import random
from collections import Counter

import pytest

from hgpoly.constructs import (
    Construct,
    check_diamond,
    collapse,
    covers_of,
    enumerate_constructs,
    face_poset,
    format_construct,
    from_tubes,
    graded_constructs,
    is_construct,
    rank,
    split,
    tubes,
)
from hgpoly.errors import DisconnectedError, InputError, InvalidSplitError
from hgpoly.hypergraph import Hypergraph

from test_hypergraph import H2, H3K, H3P, hg, k5_minus


def C(h, spec):
    """Build a construct from a nested (decoration, children) spec."""
    dec, kids = spec
    return Construct(h.mask_of(dec), [C(h, k) for k in kids])


# -- independent brute-force oracle -------------------------------------------


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def all_decorated_trees(h):
    """Every rooted tree with nodes decorated by the blocks of a partition
    of the ground set, as Construct values (with duplicates removed)."""
    verts = list(h.vertices)
    seen = set()
    for blocks in set_partitions(verts):
        masks = [h.mask_of(b) for b in blocks]
        k = len(masks)
        for root in range(k):
            others = [i for i in range(k) if i != root]
            for parents in itertools.product(range(k), repeat=len(others)):
                assignment = dict(zip(others, parents))
                # reject cyclic parent assignments
                ok = True
                for i in others:
                    hops, j = 0, i
                    while j != root and hops <= k:
                        j = assignment.get(j, root)
                        hops += 1
                    if j != root:
                        ok = False
                        break
                if not ok:
                    continue

                def build(i):
                    kids = [build(j) for j in others if assignment[j] == i]
                    return Construct(masks[i], kids)

                tree = build(root)
                if tree not in seen:
                    seen.add(tree)
                    yield tree


def oracle_constructs(h):
    return {t for t in all_decorated_trees(h) if is_construct(h, t)}


# -- enumeration ----------------------------------------------------------------


def f_vector(h, items):
    counts = Counter(len(h) - c.num_nodes() for c in items)
    return [counts[r] for r in range(len(h))]


def test_segment_constructs():
    cs = enumerate_constructs(H2)
    assert len(cs) == 3
    assert set(cs) == {
        C(H2, ("ab", [])),
        C(H2, ("a", [("b", [])])),
        C(H2, ("b", [("a", [])])),
    }


def test_pentagon_f_vector():
    cs = enumerate_constructs(H3P)
    assert len(cs) == 11
    assert f_vector(H3P, cs) == [5, 5, 1]


def test_hexagon_f_vector():
    cs = enumerate_constructs(H3K)
    assert len(cs) == 13
    assert f_vector(H3K, cs) == [6, 6, 1]


def test_enumeration_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        enumerate_constructs(hg("ab", ["a", "b"]))


def test_enumeration_matches_bruteforce_oracle():
    star = hg("abcd", ["a", "b", "c", "d", "ab", "ac", "ad"])
    for h in (H2, H3P, H3K, star):
        assert set(enumerate_constructs(h)) == oracle_constructs(h)


def test_enumeration_matches_oracle_on_five_vertices():
    assert set(enumerate_constructs(k5_minus())) == oracle_constructs(k5_minus())


def test_enumeration_order_deterministic():
    cs = enumerate_constructs(H3P)
    ranks = [len(H3P) - c.num_nodes() for c in cs]
    assert ranks == sorted(ranks, reverse=True)
    assert list(cs) == sorted(cs, key=lambda c: (c.num_nodes(), c.sort_key()))


def test_graded_constructs_groups_the_enumeration_by_rank():
    for h in (H2, H3P, H3K, k5_minus()):
        grades = graded_constructs(h)
        assert len(grades) == len(h)
        flat = [c for grade in reversed(grades) for c in grade]
        assert flat == list(enumerate_constructs(h))
        for k, grade in enumerate(grades):
            assert all(rank(c, h) == k for c in grade)
            assert all(c.num_nodes() == len(c.decorations()) for c in grade)


# -- validation -------------------------------------------------------------------


def test_is_construct_trivial():
    assert is_construct(H2, C(H2, ("a", [("b", [])])))


def test_is_construct_nested_chain():
    assert is_construct(H3P, C(H3P, ("a", [("c", [("b", [])])])))


def test_is_construct_rejects_disconnected_child():
    assert not is_construct(H3P, C(H3P, ("b", [("ac", [])])))


def test_is_construct_rejects_root_with_child_on_full():
    bad = Construct(H2.mask_of("ab"), [Construct(H2.mask_of("b"))])
    assert not is_construct(H2, bad)


def test_empty_construct_only_on_empty_hypergraph():
    empty = Hypergraph((), ())
    assert is_construct(empty, Construct.empty())
    assert not is_construct(H2, Construct.empty())


def test_rank_examples():
    h = k5_minus()
    c = C(h, ("xy", [("zuv", [])]))
    assert rank(c, h) == 3
    assert rank(C(H3P, ("abc", [])), H3P) == 2
    assert rank(C(H3P, ("a", [("c", [("b", [])])])), H3P) == 0


def test_rank_rejects_invalid():
    with pytest.raises(InputError):
        rank(C(H3P, ("b", [("ac", [])])), H3P)


# -- splits and collapses ------------------------------------------------------------


def test_split_two_vertex():
    top = C(H2, ("ab", []))
    assert split(H2, top, H2.mask_of("ab"), H2.mask_of("a"), H2.mask_of("b")) == C(
        H2, ("a", [("b", [])])
    )


def test_split_invalid_disconnected():
    top = C(H3P, ("abc", []))
    with pytest.raises(InvalidSplitError):
        split(H3P, top, H3P.mask_of("abc"), H3P.mask_of("b"), H3P.mask_of("ac"))


def test_split_valid_path():
    top = C(H3P, ("abc", []))
    out = split(H3P, top, H3P.mask_of("abc"), H3P.mask_of("a"), H3P.mask_of("bc"))
    assert out == C(H3P, ("a", [("bc", [])]))


def test_split_redistributes_children():
    h = hg("abcd", ["a", "b", "c", "d", "ab", "bc", "cd"])
    c = C(h, ("bc", [("a", []), ("d", [])]))
    out = split(h, c, h.mask_of("bc"), h.mask_of("b"), h.mask_of("c"))
    assert out == C(h, ("b", [("a", []), ("c", [("d", [])])]))


def test_collapse_examples():
    assert collapse(C(H2, ("a", [("b", [])])), H2.mask_of("b")) == C(H2, ("ab", []))
    chain = C(H3P, ("a", [("b", [("c", [])])]))
    assert collapse(chain, H3P.mask_of("c")) == C(H3P, ("a", [("bc", [])]))


def test_collapse_split_roundtrip():
    top = C(H2, ("ab", []))
    out = split(H2, top, H2.mask_of("ab"), H2.mask_of("a"), H2.mask_of("b"))
    assert collapse(out, H2.mask_of("b")) == top


def test_split_collapse_roundtrips_everywhere():
    for h in (H3P, H3K, k5_minus()):
        for c in enumerate_constructs(h):
            old = {n.decoration for n in c.nodes()}
            for lower in covers_of(h, c):
                new_nodes = [n for n in lower.nodes() if n.decoration not in old]
                assert len(new_nodes) == 2
                # the child of the split pair collapses back to c
                children = [
                    n
                    for n in new_nodes
                    if any(n in m.children for m in lower.nodes())
                    and any(
                        n in m.children and m.decoration not in old
                        for m in lower.nodes()
                    )
                ]
                assert len(children) == 1
                assert collapse(lower, children[0].decoration) == c


# -- face poset -----------------------------------------------------------------------


def test_segment_poset_shape():
    poset = face_poset(H2)
    assert len(poset.faces) == 3
    assert poset.f_vector() == (2, 1)
    assert len([1 for low, _ in poset.covers if low == poset.bottom]) == 2


def test_pentagon_euler():
    poset = face_poset(H3P)
    f = poset.f_vector()
    assert f == (5, 5, 1)
    assert sum((-1) ** k * x for k, x in enumerate(f)) == 1


def test_hexagon_euler():
    f = face_poset(H3K).f_vector()
    assert f == (6, 6, 1)
    assert sum((-1) ** k * x for k, x in enumerate(f)) == 1


def test_covers_are_exactly_single_collapses():
    for h in (H3P, H3K):
        poset = face_poset(h)
        for low, high in poset.covers:
            if low == poset.bottom:
                continue
            assert poset.faces[low] in covers_of(h, poset.faces[high])
        for i, c in enumerate(poset.faces):
            expected = {poset.index(f) for f in covers_of(h, c)}
            assert set(poset.lower_covers(i)) - {poset.bottom} == expected


def test_poset_capacity():
    from hgpoly.errors import CapacityError

    with pytest.raises(CapacityError):
        face_poset(H3P, max_faces=3)


def test_poset_le_matches_collapse_reachability():
    poset = face_poset(H3P)
    top = poset.index(C(H3P, ("abc", [])))
    for i in range(len(poset.faces)):
        assert poset.le(i, top)


def test_poset_exports():
    poset = face_poset(H2)
    data = poset.to_json()
    assert len(data["faces"]) == 3
    assert "digraph" in poset.to_dot()


# -- diamond property ------------------------------------------------------------------


def diamond_shapes(h):
    """Classify each diamond instance by the relation of its two splits."""
    poset = face_poset(h)
    shapes = set()
    for i, c in enumerate(poset.faces):
        ups = poset.upper_covers(i)
        for a, b in itertools.combinations(ups, 2):
            old_a = {n.decoration for n in poset.faces[a].nodes()}
            old_b = {n.decoration for n in poset.faces[b].nodes()}
            mine = {n.decoration for n in c.nodes()}
            xy = [m for m in mine if m not in old_a]
            uv = [m for m in mine if m not in old_b]
            assert len(xy) == 2 and len(uv) == 2
            if not (set(xy) & set(uv)):
                shapes.add("disjoint")
            else:
                shared = set(xy) & set(uv)
                shapes.add("nested" if len(shared) == 1 else "same")
    return shapes


def test_diamond_small():
    for h in (H3P, H3K):
        ok, witness = check_diamond(h)
        assert ok, witness


def test_diamond_k5_minus():
    ok, witness = check_diamond(k5_minus())
    assert ok, witness


def test_diamond_shapes_all_exercised():
    shapes = set()
    h4 = hg("abcd", ["a", "b", "c", "d", "ab", "bc", "cd"])
    for h in (H3P, H3K, h4, k5_minus()):
        shapes |= diamond_shapes(h)
    assert "disjoint" in shapes and "nested" in shapes


def test_format_and_json_roundtrip():
    c = C(H3P, ("a", [("c", [("b", [])])]))
    assert format_construct(c, H3P) == "{a}{{c}{{b}}}"
    again = Construct.from_json(c.to_json(H3P), H3P)
    assert again == c


# -- covers against one-step collapses ------------------------------------------


def random_small_hypergraph(rng):
    """Connected hypergraph on 5 or 6 shuffled vertices whose non-singleton
    hyperedges have 2 or 3 elements."""
    n = rng.choice([5, 6])
    labels = [f"p{i}" for i in range(n)]
    rng.shuffle(labels)
    while True:
        edges = [[v] for v in labels]
        for _ in range(rng.randint(2, n)):
            edges.append(rng.sample(labels, rng.choice([2, 3])))
        h = Hypergraph(labels, edges, auto_singletons=False)
        if h.is_connected():
            return h


def assert_covers_are_one_step_collapses(h):
    faces = enumerate_constructs(h)
    collapses_to = {c: set() for c in faces}
    for d in faces:
        for node in d.nodes():
            if node is not d:
                collapses_to[collapse(d, node.decoration)].add(d)
    for c in faces:
        covers = covers_of(h, c)
        assert len(covers) == len(set(covers))
        assert set(covers) == collapses_to[c], (h, c)
        assert all(is_construct(h, face) for face in covers)


def test_covers_equal_one_step_collapses_on_three_element_hyperedges():
    h = Hypergraph(
        ["p3", "p0", "p2", "p4", "p1"],
        [["p3"], ["p0"], ["p2"], ["p4"], ["p1"], ["p3", "p0", "p4"], ["p2", "p4", "p1"]],
        auto_singletons=False,
    )
    c = C(h, (["p3", "p0"], [(["p2", "p4", "p1"], [])]))
    assert C(h, (["p0"], [(["p3"], []), (["p2", "p4", "p1"], [])])) in covers_of(h, c)
    assert_covers_are_one_step_collapses(h)


def test_covers_equal_one_step_collapses_on_corpus(hypergraphs):
    for h in hypergraphs.values():
        assert_covers_are_one_step_collapses(h)


def test_covers_equal_one_step_collapses_on_fuzz_graphs():
    from test_fuzz import random_graph
    from hgpoly.graphs import incidence_hypergraph

    rng = random.Random(60902)
    for _ in range(20):
        g = random_graph(rng)
        if len(g.edges) <= 5:
            assert_covers_are_one_step_collapses(incidence_hypergraph(g))


def test_covers_equal_one_step_collapses_on_random_hypergraphs():
    rng = random.Random(2019)
    for _ in range(16):
        assert_covers_are_one_step_collapses(random_small_hypergraph(rng))


# -- nested sets ------------------------------------------------------------------


def assert_tubes_encode_faces(h):
    faces = enumerate_constructs(h)
    for c in faces:
        assert from_tubes(tubes(c)) == c
        assert h.ground_mask in tubes(c) and len(tubes(c)) == c.num_nodes()
    assert len({tubes(c) for c in faces}) == len(faces)


def test_tubes_encode_faces_on_corpus(hypergraphs, graphs):
    from hgpoly.graphs import incidence_hypergraph

    for h in hypergraphs.values():
        assert_tubes_encode_faces(h)
    for g in graphs.values():
        if g.edges and len(g.edges) <= 5:
            assert_tubes_encode_faces(incidence_hypergraph(g))


def test_tubes_encode_faces_on_random_hypergraphs():
    rng = random.Random(1009)
    for _ in range(12):
        assert_tubes_encode_faces(random_small_hypergraph(rng))


def test_poset_le_is_the_closure_of_covers(hypergraphs):
    for h in hypergraphs.values():
        poset = face_poset(h)
        size = poset.bottom + 1
        above = [{i} for i in range(size)]
        for i in sorted(range(size), key=poset.rank_of, reverse=True):
            for j in poset.upper_covers(i):
                above[i] |= above[j]
        for i in range(size):
            assert {j for j in range(size) if poset.le(i, j)} == above[i], (h, i)
