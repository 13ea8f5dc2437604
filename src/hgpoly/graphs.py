"""Connected graphs with ordered vertices, flags and legs; contractions,
graph-trees and the construct correspondence.

A graph stores per-vertex local flag orders; the global flag order is the
concatenation of local orders following the vertex order, so the
order-compatibility of the incidence map holds by construction.  Internal
edges are involution 2-cycles named by their globally smaller flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructs import Construct
from .errors import (
    CompatibilityError,
    DisconnectedError,
    InputError,
    ValidationError,
)
from .hypergraph import Hypergraph, _closure


@dataclass(frozen=True)
class Edge:
    name: str
    flags: tuple          # (smaller, larger) in the global flag order
    ends: tuple           # incident vertex labels, aligned with `flags`

    def vertex_set(self):
        return set(self.ends)


class Graph:
    """Object of the operadic category of connected directed graphs."""

    __slots__ = (
        "vertices",
        "flags",
        "involution",
        "legs",
        "flag_list",
        "edges",
        "_vertex_pos",
        "_flag_pos",
        "_flag_vertex",
        "_pair_index",
        "_key",
    )

    def __init__(self, vertices, flags, involution, legs):
        self.vertices = tuple(vertices)
        self.flags = tuple(tuple(fl) for fl in flags)
        if len(self.vertices) != len(self.flags):
            raise ValidationError("one flag list per vertex is required")
        self._vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vertex_pos) != len(self.vertices):
            raise ValidationError("duplicate vertex labels")

        flag_list = [f for fl in self.flags for f in fl]
        self._flag_pos = {f: i for i, f in enumerate(flag_list)}
        if len(self._flag_pos) != len(flag_list):
            raise ValidationError("duplicate flag names")
        self.flag_list = tuple(flag_list)
        self._flag_vertex = {
            f: v for v, fl in zip(self.vertices, self.flags) for f in fl
        }

        involution = dict(involution)
        for f in flag_list:
            involution.setdefault(f, f)
        for f, g in involution.items():
            if f not in self._flag_pos or g not in self._flag_pos:
                raise ValidationError(f"involution mentions unknown flag {f!r}/{g!r}")
            if involution.get(g) != f:
                raise ValidationError("involution does not square to the identity")
        self.involution = involution

        fixed = [f for f in flag_list if involution[f] == f]
        legs = tuple(legs)
        if sorted(legs) != sorted(fixed):
            raise ValidationError("legs must be exactly the involution fixed points")
        self.legs = legs

        # one pass in flag order: an edge is named by the flag of its pair
        # met first, so the edges come out sorted by name position
        pos, vertex = self._flag_pos, self._flag_vertex
        self.edges = tuple(
            Edge(f, (f, g), (vertex[f], vertex[g]))
            for i, f in enumerate(flag_list)
            for g in (involution[f],)
            if pos[g] > i
        )
        self._pair_index = {frozenset(e.flags): e for e in self.edges}

        if not self._is_realization_connected():
            raise DisconnectedError("graph realization is not connected")

        self._key = (
            self.vertices,
            self.flags,
            tuple(sorted((f, g) for f, g in involution.items() if f < g)),
            self.legs,
        )

    def _is_realization_connected(self):
        pos = self._vertex_pos
        links = [1 << pos[a] | 1 << pos[b] for a, b in (e.ends for e in self.edges)]
        return bool(pos) and _closure(links, 1) == (1 << len(pos)) - 1

    # -- accessors ----------------------------------------------------------

    def vertex_of_flag(self, f: str) -> str:
        return self._flag_vertex[f]

    def flags_at(self, v: str) -> tuple:
        return self.flags[self._vertex_pos[v]]

    def edge_by_name(self, name: str) -> Edge:
        for e in self.edges:
            if e.name == name:
                return e
        raise InputError(f"no internal edge named {name!r}")

    def edge_by_pair(self, pair) -> Edge:
        try:
            return self._pair_index[frozenset(pair)]
        except KeyError:
            raise InputError(f"no internal edge with flags {sorted(pair)}") from None

    def edge_names(self) -> tuple:
        return tuple(e.name for e in self.edges)

    def b1(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Graph(V={list(self.vertices)}, Edg={list(self.edge_names())})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "flags": {v: list(fl) for v, fl in zip(self.vertices, self.flags)},
            "involution": [
                list(pair) for pair in sorted(
                    (f, g) for f, g in self.involution.items()
                    if f < g and self.involution[f] != f
                )
            ],
            "legs": list(self.legs),
        }

    @classmethod
    def from_json(cls, data) -> "Graph":
        if not isinstance(data, dict):
            raise ValidationError("graph JSON must be an object")
        try:
            vertices = data["vertices"]
            if not _is_label_list(vertices):
                raise ValidationError("graph JSON 'vertices' must be a list of strings")
            if not isinstance(data["flags"], dict):
                raise ValidationError("graph JSON 'flags' must be an object")
            flags = [data["flags"][v] for v in vertices]
            legs = data.get("legs", [])
            for labels in flags + [legs]:
                if not _is_label_list(labels):
                    raise ValidationError(f"flag labels {labels!r} are not a list of strings")
            involution = {}
            for pair in data.get("involution", []):
                if not _is_label_list(pair) or len(pair) != 2:
                    raise ValidationError(f"involution entry {pair!r} is not a flag pair")
                f, g = pair
                involution[f] = g
                involution[g] = f
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"graph JSON missing field: {exc}") from None
        return cls(vertices, flags, involution, legs)


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def validate_graph(data) -> Graph:
    """Parse and fully validate a raw JSON description."""
    return Graph.from_json(data)


# -- incidence hypergraph -----------------------------------------------------


def incidence_hypergraph(g: Graph) -> Hypergraph:
    """Vertices are the internal edges; two are joined when they share a
    graph vertex.  Leaves of the graph play no role."""
    if not g.edges:
        raise InputError("a corolla has no incidence hypergraph")
    names = g.edge_names()
    hyperedges = [[n] for n in names]
    for i, e in enumerate(g.edges):
        for f in g.edges[i + 1 :]:
            if e.vertex_set() & f.vertex_set():
                hyperedges.append([e.name, f.name])
    return Hypergraph(names, hyperedges, auto_singletons=False)


# -- subgraphs and canonical contractions -------------------------------------


def subgraph_from_edges(g: Graph, edge_names) -> Graph:
    """Subgraph spanned by a connected set of internal edges; ambient edges
    cut by the boundary become legs, all orders are inherited."""
    edges = [g.edge_by_name(n) for n in edge_names]
    if not edges:
        raise InputError("the spanning edge set must be nonempty")
    if not _edges_connected(edges):
        raise DisconnectedError("edge set does not span a connected subgraph")
    verts = [v for v in g.vertices if any(v in e.vertex_set() for e in edges)]
    involution = {}
    for e in edges:
        a, b = e.flags
        involution[a] = b
        involution[b] = a
    flags = [g.flags_at(v) for v in verts]
    legs = [
        f
        for f in g.flag_list
        if g.vertex_of_flag(f) in set(verts) and f not in involution
    ]
    return Graph(verts, flags, involution, legs)


def _edges_connected(edges) -> bool:
    bit = {}
    links = [sum(bit.setdefault(v, 1 << len(bit)) for v in e.vertex_set()) for e in edges]
    return _closure(links, links[0]) == (1 << len(bit)) - 1


@dataclass
class GraphMorphism:
    """Vertex map plus flag injection (target flags into source flags)."""

    source: Graph
    target: Graph
    vertex_map: dict
    flag_map: dict

    def validate(self):
        if set(self.vertex_map) != set(self.source.vertices):
            raise ValidationError("vertex map must be total on the source")
        if set(self.vertex_map.values()) != set(self.target.vertices):
            raise ValidationError("vertex map must be onto the target")
        if set(self.flag_map) != set(self.target.flag_list):
            raise ValidationError("flag injection must be total on target flags")
        images = list(self.flag_map.values())
        if len(set(images)) != len(images):
            raise ValidationError("flag map must be injective")
        for f, pre in self.flag_map.items():
            expected = self.vertex_map[self.source.vertex_of_flag(pre)]
            if self.target.vertex_of_flag(f) != expected:
                raise ValidationError(f"incidence square fails at flag {f!r}")
        image = set(images)
        contracted = [f for f in self.source.flag_list if f not in image]
        for f in contracted:
            if self.source.involution[f] not in contracted:
                raise ValidationError("contracted flags are not involution-closed")
        inverse = {pre: f for f, pre in self.flag_map.items()}
        for f in self.target.flag_list:
            pre = self.flag_map[f]
            sigma_pre = self.source.involution[pre]
            if sigma_pre in inverse:
                if self.target.involution[f] != inverse[sigma_pre]:
                    raise ValidationError("flag map does not respect involutions")
            elif self.target.involution[f] != f:
                raise ValidationError("flag map does not respect involutions")
        return self

    def contracted_flags(self) -> set:
        image = set(self.flag_map.values())
        return {f for f in self.source.flag_list if f not in image}

    def fiber_data(self):
        """Per target vertex: (preimage vertices, contracted flags over them)."""
        contracted = self.contracted_flags()
        out = {}
        for x in self.target.vertices:
            pres = [v for v in self.source.vertices if self.vertex_map[v] == x]
            flags = [f for f in contracted if self.source.vertex_of_flag(f) in set(pres)]
            out[x] = (pres, flags)
        return out

    def is_order_preserving(self) -> bool:
        pos = {v: i for i, v in enumerate(self.target.vertices)}
        images = [pos[self.vertex_map[v]] for v in self.source.vertices]
        return all(a <= b for a, b in zip(images, images[1:]))


@dataclass
class CanonicalContraction:
    source: Graph
    quotient: Graph
    fiber: Graph
    morphism: GraphMorphism

    @property
    def merged_vertex(self):
        return self.fiber.vertices[0]


def canonical_contraction(g: Graph, edge_names, vertex_subset=None) -> CanonicalContraction:
    """Contract the connected subgraph spanned by `edge_names` into its
    minimal vertex, reordering the surviving flags lexicographically."""
    fiber = subgraph_from_edges(g, edge_names)
    if vertex_subset is not None and tuple(vertex_subset) != fiber.vertices:
        raise InputError("vertex subset must be the span of the edge set")
    morphism = contract_fibers(g, [fiber])
    return CanonicalContraction(g, morphism.target, fiber, morphism)


def contract_fibers(g: Graph, fibers) -> GraphMorphism:
    """The validated map contracting vertex-disjoint connected subgraphs
    of `g`, each into its minimal vertex, in one step; its target is the
    quotient.

    `fibers` are subgraphs of `g` as `subgraph_from_edges` builds them.
    Each merged vertex keeps the surviving flags of its fiber in the global
    flag order, so the quotient equals contracting the fibers in turn with
    `canonical_contraction`, and one quotient `Graph` is built."""
    merged_into = {}
    contracted = set()
    for fiber in fibers:
        for v in fiber.vertices:
            if v in merged_into:
                raise InputError("fibers must be vertex-disjoint")
            merged_into[v] = fiber.vertices[0]
        contracted.update(f for e in fiber.edges for f in e.flags)
    vertex_map = {v: merged_into.get(v, v) for v in g.vertices}
    flags = {v: [] for v in g.vertices if vertex_map[v] == v}
    for f in g.flag_list:
        if f not in contracted:
            flags[vertex_map[g.vertex_of_flag(f)]].append(f)
    involution = {f: s for f, s in g.involution.items() if f not in contracted}
    quotient = Graph(tuple(flags), tuple(flags.values()), involution, g.legs)
    flag_map = {f: f for f in quotient.flag_list}
    return GraphMorphism(g, quotient, vertex_map, flag_map).validate()


def factor_pre_elementary(tau: GraphMorphism):
    """Factor a map with exactly one non-corolla fiber as an isomorphism
    after a canonical contraction; both factors are unique."""
    tau.validate()
    nontrivial = [
        (x, data) for x, data in tau.fiber_data().items() if data[1]
    ]
    if len(nontrivial) != 1:
        raise InputError(
            f"expected exactly one non-corolla fiber, found {len(nontrivial)}"
        )
    x, (pres, flags) = nontrivial[0]
    pairs = set()
    for f in flags:
        pairs.add(frozenset((f, tau.source.involution[f])))
    edge_names = sorted(
        tau.source.edge_by_pair(p).name for p in pairs
    )
    cc = canonical_contraction(tau.source, edge_names)
    inverse = {pre: f for f, pre in tau.flag_map.items()}
    sigma_vertex = {}
    for y in tau.target.vertices:
        if y == x:
            sigma_vertex[y] = cc.merged_vertex
        else:
            (pre,) = [v for v in tau.source.vertices if tau.vertex_map[v] == y]
            sigma_vertex[y] = pre
    sigma_flags = {f: inverse[f] for f in cc.quotient.flag_list}
    sigma = GraphMorphism(tau.target, cc.quotient, sigma_vertex, sigma_flags).validate()
    return cc, sigma


# -- graph-trees ---------------------------------------------------------------


class GraphTree:
    """Rooted tree with graph decorations; `ground` is the ordered leaf set.

    Children are keyed by the vertex of this node's graph they contract
    into; that key is recomputed as the minimum of the child's leaves, never
    stored independently.
    """

    __slots__ = ("graph", "children", "ground", "_key")

    def __init__(self, graph: Graph, children, ground):
        self.graph = graph
        self.ground = tuple(ground)
        ground_pos = {v: i for i, v in enumerate(self.ground)}
        vertex_pos = graph._vertex_pos
        kids = list(children)
        for key, _ in kids:
            if key not in vertex_pos:
                raise ValidationError(f"child key {key!r} is not a vertex")
        kids.sort(key=lambda kv: vertex_pos[kv[0]])
        self.children = tuple(kids)

        # the checks below compare ground positions, not labels
        seen = set()
        keys = []
        covered = set()
        num_covered = 0
        for key, sub in self.children:
            if key in seen:
                raise ValidationError(f"duplicate child key {key!r}")
            seen.add(key)
            if sub.ground[0] != key:
                raise ValidationError(
                    f"child key {key!r} must be the minimum of its leaf labels"
                )
            try:
                leaves = [ground_pos[v] for v in sub.ground]
            except KeyError:
                raise ValidationError("child leaves outside the ground set") from None
            if leaves != sorted(leaves):
                raise ValidationError("child leaf order must be induced")
            if sub.graph.legs != graph.flags[vertex_pos[key]]:
                raise CompatibilityError(
                    f"legs of the graph below {key!r} must match the flags above"
                )
            keys.append(leaves[0])
            covered.update(leaves)
            num_covered += len(leaves)
        if num_covered != len(covered):
            raise ValidationError("child leaf sets must be disjoint")
        try:
            incoming = [ground_pos[v] for v in graph.vertices]
        except KeyError:
            raise ValidationError("decorating-graph vertex outside the ground set") from None
        own_leaves = [p for p in map(ground_pos.__getitem__, self.ground) if p not in covered]
        ordered = sorted(incoming)
        if sorted(own_leaves + keys) != ordered:
            raise ValidationError(
                "vertices of the decorating graph must be the incoming labels"
            )
        if incoming != ordered:
            raise ValidationError("decorating-graph vertex order must be induced")

        self._key = (
            self.graph._key,
            tuple((k, s._key) for k, s in self.children),
            self.ground,
        )

    def __eq__(self, other):
        return isinstance(other, GraphTree) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{k}:{s!r}" for k, s in self.children)
        return f"GTree({self.graph!r}; {inner})"

    def num_vertices(self) -> int:
        return 1 + sum(s.num_vertices() for _, s in self.children)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "ground": list(self.ground),
            "children": {k: s.to_json() for k, s in self.children},
        }


def corolla_tree(g: Graph) -> GraphTree:
    return GraphTree(g, (), g.vertices)


def vertex_insert(parent: Graph, at: str, sub: Graph, ground_pos) -> Graph:
    """Insert `sub` into the vertex `at`; the legs of `sub` must coincide
    with the flags of `parent` at that vertex, as ordered sets."""
    if tuple(sub.legs) != tuple(parent.flags_at(at)):
        raise CompatibilityError("leg/flag mismatch in vertex insertion")
    verts = [v for v in parent.vertices if v != at] + list(sub.vertices)
    verts.sort(key=ground_pos.__getitem__)
    flag_lists = []
    for v in verts:
        if v in sub.vertices:
            flag_lists.append(list(sub.flags_at(v)))
        else:
            flag_lists.append(list(parent.flags_at(v)))
    involution = {}
    for e in parent.edges:
        a, b = e.flags
        involution[a] = b
        involution[b] = a
    for e in sub.edges:
        a, b = e.flags
        involution[a] = b
        involution[b] = a
    return Graph(verts, flag_lists, involution, parent.legs)


def gr(t: GraphTree) -> Graph:
    """Total contraction of a graph-tree; independent of contraction order."""
    ground_pos = {v: i for i, v in enumerate(t.ground)}
    return _gr(t, ground_pos)


def _gr(t: GraphTree, ground_pos) -> Graph:
    g = t.graph
    for key, sub in t.children:
        g = vertex_insert(g, key, _gr(sub, ground_pos), ground_pos)
    return g


def contract_tree_edge(t: GraphTree, path) -> GraphTree:
    """Contract the edge above the node reached by following `path` keys."""
    path = tuple(path)
    if not path:
        raise InputError("path must name at least one edge")
    ground_pos = {v: i for i, v in enumerate(t.ground)}
    return _contract_at(t, path, ground_pos)


def _contract_at(t: GraphTree, path, ground_pos) -> GraphTree:
    key = path[0]
    kids = dict(t.children)
    if key not in kids:
        raise InputError(f"no child at key {key!r}")
    if len(path) > 1:
        kids[key] = _contract_at(kids[key], path[1:], ground_pos)
        return GraphTree(t.graph, tuple(kids.items()), t.ground)
    child = kids.pop(key)
    merged = vertex_insert(t.graph, key, child.graph, ground_pos)
    children = tuple(kids.items()) + tuple(child.children)
    return GraphTree(merged, children, t.ground)


def graft(s: GraphTree, r: GraphTree, leaf: str, ground) -> GraphTree:
    """Graft the root of `r` onto the leaf `leaf` of `s`; `ground` is the
    ordered ambient vertex set of the composite."""
    ground = tuple(ground)
    ground_pos = {v: i for i, v in enumerate(ground)}
    if r.ground[0] != leaf:
        raise CompatibilityError("grafted tree must have the target leaf as minimum")
    merged = set(s.ground) - {leaf} | set(r.ground)
    if merged != set(ground):
        raise InputError("ground must be the union of the two leaf sets")
    return _graft(s, r, leaf, ground_pos)


def _graft(s: GraphTree, r: GraphTree, leaf: str, ground_pos) -> GraphTree:
    new_ground = sorted(
        (set(s.ground) - {leaf}) | set(r.ground), key=ground_pos.__getitem__
    )
    kids = dict(s.children)
    for key, sub in s.children:
        if leaf in set(sub.ground):
            kids[key] = _graft(sub, r, leaf, ground_pos)
            return GraphTree(s.graph, tuple(kids.items()), new_ground)
    if leaf not in s.graph.vertices or leaf in kids:
        raise InputError(f"{leaf!r} is not a leaf of the tree")
    if tuple(r.graph.legs) != tuple(s.graph.flags_at(leaf)):
        raise CompatibilityError("leg orders do not match at the grafting leaf")
    kids[leaf] = r
    return GraphTree(s.graph, tuple(kids.items()), new_ground)


# -- the construct correspondence ----------------------------------------------


def alpha(g: Graph, c: Construct) -> GraphTree:
    """Graph-tree associated to a construct of the incidence hypergraph."""
    return graph_trees(g, [c])[0]


def graph_trees(g: Graph, constructs) -> list:
    """`alpha` of each construct in the list; bit i of a decoration is
    `g.edges[i]`.  A node's graph is the fiber of its subtree union with its
    children's fibers contracted in one step (`contract_fibers`), so one
    call builds each fiber once per edge mask, each node graph once per
    (subtree union, child unions) and each `GraphTree` once per distinct
    subtree.  A node without children keeps its fiber as its graph.  Every
    tree is still validated in full by `GraphTree.__init__`, which compares
    ground and vertex positions rather than searching label lists.  The
    memo is private to the call; `alpha_invs` inverts the trees without it."""
    full = (1 << len(g.edges)) - 1
    fibers = {full: g}
    node_graphs = {}
    trees = {}

    def fiber(mask):
        if mask not in fibers:
            names = [e.name for i, e in enumerate(g.edges) if mask >> i & 1]
            fibers[mask] = subgraph_from_edges(g, names)
        return fibers[mask]

    for c in constructs:
        if c.subtree_union != full:
            raise InputError("construct must carry every edge")
        for node in reversed(list(c.nodes())):  # children before parents
            if node in trees:
                continue
            sub = fiber(node.subtree_union)
            kids = [fiber(ch.subtree_union) for ch in node.children]
            key = (node.subtree_union, tuple(ch.subtree_union for ch in node.children))
            if key not in node_graphs:
                node_graphs[key] = contract_fibers(sub, kids).target if kids else sub
            children = [(kid.vertices[0], trees[ch]) for kid, ch in zip(kids, node.children)]
            trees[node] = GraphTree(node_graphs[key], children, sub.vertices)
    return [trees[c] for c in constructs]


def alpha_inv(t: GraphTree, ambient: Graph | None = None) -> Construct:
    """Construct of the incidence hypergraph of gr(t), decorating each node
    by the ambient bits of its graph's internal edges; `alpha_invs` of the
    one tree.  Without `ambient`, gr(t) is built first."""
    g = ambient if ambient is not None else gr(t)
    return alpha_invs([t], g)[0]


def alpha_invs(trees, g: Graph) -> list:
    """`alpha_inv(t, g)` of each tree in `trees`, in one pass.

    One table maps each internal edge of `g`, by its flag pair in either
    order, to its bit.  Each distinct `GraphTree` object is inverted once
    and each distinct node graph is decorated once: both memos are keyed
    by the objects themselves (by identity, which stays unique while the
    list of trees holds them), never by a construct, so the inverse shares
    nothing with the memo of `graph_trees` and stays an independent check
    of it."""
    trees = list(trees)
    table = {}
    for i, e in enumerate(g.edges):
        a, b = e.flags
        table[a, b] = table[b, a] = 1 << i
    inverses, decorations = {}, {}
    return [_alpha_inv(t, table, inverses, decorations) for t in trees]


def _alpha_inv(t: GraphTree, table, inverses, decorations) -> Construct:
    c = inverses.get(id(t))
    if c is None:
        dec = decorations.get(id(t.graph))
        if dec is None:
            try:
                dec = sum(table[e.flags] for e in t.graph.edges)
            except KeyError as exc:
                pair = sorted(exc.args[0])
                raise InputError(f"no internal edge with flags {pair}") from None
            decorations[id(t.graph)] = dec
        children = [_alpha_inv(sub, table, inverses, decorations) for _, sub in t.children]
        c = inverses[id(t)] = Construct(dec, children)
    return c


def enumerate_graph_trees(g: Graph) -> list:
    """Direct recursive enumeration by repeated canonical contractions;
    the independent cardinality oracle for enumeration through alpha."""
    if not g.edges:
        raise InputError("corollas decorate no graph-tree vertices")
    h = incidence_hypergraph(g)
    result = [corolla_tree(g)]
    full = h.ground_mask
    sub = (full - 1) & full
    while sub:
        x = sub
        sub = (sub - 1) & full
        rest = full & ~x
        comps = h.component_masks(rest)
        fiber_lists = []
        quotient = g
        for comp in comps:
            names = list(h.labels_of(comp))
            fiber = subgraph_from_edges(g, names)
            fiber_lists.append((fiber, enumerate_graph_trees(fiber)))
            pairs = [g.edge_by_name(n).flags for n in names]
            current = [quotient.edge_by_pair(p).name for p in pairs]
            quotient = canonical_contraction(quotient, current).quotient
        combos = [()]
        for fiber, trees in fiber_lists:
            combos = [prev + ((fiber.vertices[0], tr),) for prev in combos for tr in trees]
        for combo in combos:
            result.append(GraphTree(quotient, combo, g.vertices))
    return result


def graph_tree_poset_le(t: GraphTree, s: GraphTree) -> bool:
    """T precedes S when S arises from T by contracting tree edges."""
    if t == s:
        return True
    frontier = {t}
    seen = {t}
    target_vertices = s.num_vertices()
    while frontier:
        nxt = set()
        for cur in frontier:
            for contracted in _single_contractions(cur):
                if contracted == s:
                    return True
                if contracted not in seen and contracted.num_vertices() >= target_vertices:
                    seen.add(contracted)
                    nxt.add(contracted)
        frontier = nxt
    return False


def _single_contractions(t: GraphTree):
    out = []

    def walk(node, prefix):
        for key, sub in node.children:
            out.append(prefix + (key,))
            walk(sub, prefix + (key,))

    walk(t, ())
    return [contract_tree_edge(t, path) for path in out]
