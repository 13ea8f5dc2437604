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
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex labels")

        flag_list = [f for fl in self.flags for f in fl]
        if len(set(flag_list)) != len(flag_list):
            raise ValidationError("duplicate flag names")
        self.flag_list = tuple(flag_list)
        self._flag_pos = {f: i for i, f in enumerate(flag_list)}
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

        edges = []
        seen = set()
        for f in flag_list:
            g = involution[f]
            if g == f or f in seen:
                continue
            seen.add(f)
            seen.add(g)
            a, b = sorted((f, g), key=self._flag_pos.__getitem__)
            edges.append(
                Edge(a, (a, b), (self._flag_vertex[a], self._flag_vertex[b]))
            )
        edges.sort(key=lambda e: self._flag_pos[e.name])
        self.edges = tuple(edges)
        self._pair_index = {frozenset(e.flags): e for e in self.edges}

        if not self._is_realization_connected():
            raise DisconnectedError("graph realization is not connected")

        self._key = (
            self.vertices,
            self.flags,
            tuple(sorted((min(f, g), max(f, g)) for f, g in involution.items() if f < g and involution[f] != f)),
            self.legs,
        )

    def _is_realization_connected(self):
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        links = [bit[a] | bit[b] for a, b in (e.ends for e in self.edges)]
        return bool(bit) and _closure(links, 1) == (1 << len(bit)) - 1

    # -- accessors ----------------------------------------------------------

    def vertex_of_flag(self, f: str) -> str:
        return self._flag_vertex[f]

    def flags_at(self, v: str) -> tuple:
        return self.flags[self.vertices.index(v)]

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
            if not isinstance(vertices, list):
                raise ValidationError("graph JSON 'vertices' must be a list")
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
    keep_pairs = {frozenset(e.flags) for e in edges}
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
    V = fiber.vertices
    if vertex_subset is not None and tuple(vertex_subset) != V:
        raise InputError("vertex subset must be the span of the edge set")
    vmin = V[0]
    vset = set(V)
    contracted = {f for e in fiber.edges for f in e.flags}

    new_vertices = [v for v in g.vertices if v not in vset or v == vmin]
    new_flags = []
    for v in new_vertices:
        if v == vmin:
            merged = [
                f
                for f in g.flag_list
                if g.vertex_of_flag(f) in vset and f not in contracted
            ]
            new_flags.append(merged)
        else:
            new_flags.append(list(g.flags_at(v)))
    involution = {}
    for e in g.edges:
        if frozenset(e.flags) in {frozenset(x.flags) for x in fiber.edges}:
            continue
        a, b = e.flags
        involution[a] = b
        involution[b] = a
    quotient = Graph(new_vertices, new_flags, involution, g.legs)
    vertex_map = {v: (vmin if v in vset else v) for v in g.vertices}
    flag_map = {f: f for f in quotient.flag_list}
    morphism = GraphMorphism(g, quotient, vertex_map, flag_map).validate()
    return CanonicalContraction(g, quotient, fiber, morphism)


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
        kids = list(children)
        for key, _ in kids:
            if key not in graph.vertices:
                raise ValidationError(f"child key {key!r} is not a vertex")
        kids.sort(key=lambda kv: self.graph.vertices.index(kv[0]))
        self.children = tuple(kids)

        seen = set()
        for key, sub in self.children:
            if key in seen:
                raise ValidationError(f"duplicate child key {key!r}")
            seen.add(key)
            if sub.ground[0] != key:
                raise ValidationError(
                    f"child key {key!r} must be the minimum of its leaf labels"
                )
            if any(v not in ground_pos for v in sub.ground):
                raise ValidationError("child leaves outside the ground set")
            if list(sub.ground) != sorted(sub.ground, key=ground_pos.__getitem__):
                raise ValidationError("child leaf order must be induced")
            legs = sub.graph.legs
            if tuple(legs) != tuple(self.graph.flags_at(key)):
                raise CompatibilityError(
                    f"legs of the graph below {key!r} must match the flags above"
                )
        covered = [v for _, sub in self.children for v in sub.ground]
        if len(covered) != len(set(covered)):
            raise ValidationError("child leaf sets must be disjoint")
        if any(v not in ground_pos for v in self.graph.vertices):
            raise ValidationError("decorating-graph vertex outside the ground set")
        own_leaves = [v for v in self.ground if v not in set(covered)]
        expected = sorted(
            own_leaves + [key for key, _ in self.children],
            key=ground_pos.__getitem__,
        )
        incoming = sorted(self.graph.vertices, key=ground_pos.__getitem__)
        if expected != incoming or set(self.graph.vertices) != set(expected):
            raise ValidationError(
                "vertices of the decorating graph must be the incoming labels"
            )
        if list(self.graph.vertices) != sorted(
            self.graph.vertices, key=ground_pos.__getitem__
        ):
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


def ambient_edge_names(g: Graph, sub: Graph) -> list:
    """Names, in `g`, of the internal edges of `sub` (matched by flag pair)."""
    return [g.edge_by_pair(e.flags).name for e in sub.edges]


def alpha(g: Graph, c: Construct) -> GraphTree:
    """Graph-tree associated to a construct of the incidence hypergraph."""
    h = incidence_hypergraph(g)
    if not c.children and c.decoration != h.ground_mask:
        raise InputError("childless construct must carry every edge")
    return _alpha(g, h, g, c)


def _alpha(g: Graph, h: Hypergraph, sub: Graph, c: Construct) -> GraphTree:
    """alpha of the subtree `c` over the subgraph `sub` of `g` it spans.

    `c` keeps the decorations of `h`, the incidence hypergraph of `g`: a
    subgraph of `sub` is the subgraph of `g` on the same edges, with the
    same names, flags and orders, so every fiber is taken from `g`."""
    if not c.children:
        return corolla_tree(sub)
    children = []
    quotient = sub
    for child in c.children:
        names = list(h.labels_of(child.subtree_union))
        fiber = subgraph_from_edges(g, names)
        children.append((fiber.vertices[0], _alpha(g, h, fiber, child)))
        pairs = [g.edge_by_name(n).flags for n in names]
        current_names = [quotient.edge_by_pair(p).name for p in pairs]
        quotient = canonical_contraction(quotient, current_names).quotient
    return GraphTree(quotient, children, sub.vertices)


def _translate(c: Construct, from_h: Hypergraph, to_h: Hypergraph) -> Construct:
    """The same tree over `to_h`, decorations matched by vertex label."""
    dec = to_h.mask_of(from_h.labels_of(c.decoration))
    return Construct(dec, [_translate(ch, from_h, to_h) for ch in c.children])


def alpha_inv(t: GraphTree, ambient: Graph | None = None) -> Construct:
    """Construct of the incidence hypergraph of gr(t), decorating each node
    by the ambient names of its graph's internal edges."""
    g = ambient if ambient is not None else gr(t)
    h = incidence_hypergraph(g)
    return _alpha_inv(t, g, h)


def _alpha_inv(t: GraphTree, g: Graph, h: Hypergraph) -> Construct:
    names = ambient_edge_names(g, t.graph)
    dec = h.mask_of(names)
    return Construct(dec, [_alpha_inv(sub, g, h) for _, sub in t.children])


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
