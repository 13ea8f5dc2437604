"""Subcategory predicates over the single graph data model: genus grading,
contractibility, wheeled orientation, rooted and strongly rooted trees, and
the restriction of the free-complex pipeline along the forgetful maps.
"""

from __future__ import annotations

from .errors import InputError, ValidationError
from .graphs import CanonicalContraction, Graph, canonical_contraction, incidence_hypergraph
from .hypergraph import _submasks
from .minimodel import DEFAULT_CONVENTION, SignConvention
from .pipeline import complex_for_graph


class GenusGrading:
    """Nonnegative integer per vertex of a graph."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: Graph, values):
        self.graph = graph
        if not isinstance(values, dict):
            raise InputError("vertex genera must map vertices to integers")
        for v in graph.vertices:
            if v not in values:
                raise InputError(f"genus missing for vertex {v!r}")
            if not _is_nonnegative_integer(values[v]):
                raise InputError("vertex genera must be nonnegative integers")
        self.values = {v: int(values[v]) for v in graph.vertices}

    @classmethod
    def zeros(cls, graph: Graph) -> "GenusGrading":
        return cls(graph, {v: 0 for v in graph.vertices})

    @classmethod
    def from_json(cls, graph: Graph, data) -> "GenusGrading":
        return cls(graph, data)


def _is_nonnegative_integer(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return int(value) == value >= 0
    except (TypeError, ValueError, OverflowError):
        return False


def genus(g: Graph, grading: GenusGrading | None = None) -> int:
    """Sum of vertex genera plus the first Betti number of the realization."""
    grading = grading or GenusGrading.zeros(g)
    if grading.graph != g:
        raise InputError("grading belongs to a different graph")
    return sum(grading.values.values()) + g.b1()


def induce_genus(g: Graph, grading: GenusGrading, cc: CanonicalContraction):
    """Unique gradings on fiber and quotient: the fiber inherits, the merged
    vertex carries the total genus of the fiber, everything else inherits."""
    if cc.source != g:
        raise InputError("contraction does not start at the graded graph")
    fiber_grading = GenusGrading(
        cc.fiber, {v: grading.values[v] for v in cc.fiber.vertices}
    )
    merged = cc.merged_vertex
    quotient_values = {}
    for v in cc.quotient.vertices:
        if v == merged:
            quotient_values[v] = genus(cc.fiber, fiber_grading)
        else:
            quotient_values[v] = grading.values[v]
    return fiber_grading, GenusGrading(cc.quotient, quotient_values)


def is_contractible(g: Graph) -> bool:
    return g.b1() == 0


class Orientation:
    """Input half-edge per internal edge plus an in/out marking per leg."""

    __slots__ = ("graph", "edge_inputs", "leg_marks")

    def __init__(self, graph: Graph, edge_inputs, leg_marks):
        if not (isinstance(edge_inputs, dict) and isinstance(leg_marks, dict)):
            raise InputError("orientation 'edges' and 'legs' must be JSON objects")
        self.graph = graph
        self.edge_inputs = dict(edge_inputs)
        self.leg_marks = dict(leg_marks)

    @classmethod
    def from_json(cls, graph: Graph, data) -> "Orientation":
        if not isinstance(data, dict):
            raise InputError("an orientation must be a JSON object")
        return cls(graph, data.get("edges", {}), data.get("legs", {}))


def is_wheeled_oriented(g: Graph, o: Orientation) -> bool:
    """Total, well-formed orientation data; no global constraint."""
    if o.graph != g:
        return False
    for e in g.edges:
        chosen = o.edge_inputs.get(e.name)
        if chosen not in e.flags:
            return False
    for leg in g.legs:
        if o.leg_marks.get(leg) not in ("in", "out"):
            return False
    return True


# -- rooted structures ---------------------------------------------------------


def _paths_to_root(g: Graph):
    """For a tree: root vertex and parent flags pointing toward the root leg."""
    if g.b1() != 0:
        raise InputError("rooted structure needs a contractible graph")
    if not g.legs:
        return None
    root_leg = g.legs[0]
    root_vertex = g.vertex_of_flag(root_leg)
    out_flag = {root_vertex: root_leg}
    parent = {root_vertex: None}
    frontier = [root_vertex]
    while frontier:
        nxt = []
        for v in frontier:
            for f in g.flags_at(v):
                mate = g.involution[f]
                if mate == f:
                    continue
                w = g.vertex_of_flag(mate)
                if w not in parent:
                    parent[w] = v
                    out_flag[w] = mate
                    nxt.append(w)
        frontier = nxt
    return root_vertex, parent, out_flag


def is_rooted(g: Graph) -> bool:
    """Pointing every edge at the minimal leg, each vertex's outgoing
    half-edge must come first in its local order."""
    data = _paths_to_root(g)
    if data is None:
        return False
    _, _, out_flag = data
    return all(g.flags_at(v)[0] == out_flag[v] for v in g.vertices)


def is_strongly_rooted(g: Graph) -> bool:
    """Vertex order compatible with the rooted structure: ancestors are
    smaller."""
    if not is_rooted(g):
        raise InputError("strong rootedness is only defined for rooted trees")
    _, parent, _ = _paths_to_root(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    for v in g.vertices:
        anc = parent[v]
        while anc is not None:
            if pos[anc] >= pos[v]:
                return False
            anc = parent[anc]
    return True


def check_srtr_closure(g: Graph):
    """Quotient and fiber of every canonical contraction stay strongly
    rooted.  Returns (ok, witness_edge_names)."""
    if not is_strongly_rooted(g):
        raise InputError("closure check expects a strongly rooted tree")
    h = incidence_hypergraph(g)
    names = h.vertices
    for mask in _submasks(h.ground_mask):
        if not h._connected_within(mask):
            continue
        subset = [names[i] for i in range(len(names)) if mask >> i & 1]
        cc = canonical_contraction(g, subset)
        for part in (cc.fiber, cc.quotient):
            if not (is_rooted(part) and is_strongly_rooted(part)):
                return False, tuple(subset)
    return True, None


# -- model restriction -----------------------------------------------------------


SUBCATEGORIES = ("ggGrc", "Tr", "Whe", "RTr", "SRTr")


def check_subcategory(g: Graph, name: str, grading=None, orientation=None) -> bool:
    if name == "ggGrc":
        return grading is not None and grading.graph == g
    if name == "Tr":
        return is_contractible(g)
    if name == "Whe":
        return orientation is not None and is_wheeled_oriented(g, orientation)
    if name == "RTr":
        return is_contractible(g) and is_rooted(g)
    if name == "SRTr":
        return is_contractible(g) and is_rooted(g) and is_strongly_rooted(g)
    raise InputError(f"unknown subcategory {name!r}")


def restrict_model(
    g: Graph,
    subcategory: str,
    grading: GenusGrading | None = None,
    orientation: Orientation | None = None,
    convention: SignConvention = DEFAULT_CONVENTION,
):
    """Complex of the underlying graph, unchanged, tagged with the
    subcategory; restriction along the forgetful map is the identity on
    matrices."""
    if not check_subcategory(g, subcategory, grading, orientation):
        raise ValidationError(f"graph is not in subcategory {subcategory}")
    complex_ = complex_for_graph(g, convention)
    complex_.tag = dict(complex_.tag, subcategory=subcategory)
    return complex_


def classify(g: Graph, grading=None, orientation=None) -> dict:
    contractible = is_contractible(g)
    rooted = contractible and bool(g.legs) and is_rooted(g)
    strongly = rooted and is_strongly_rooted(g)
    wheeled = orientation is not None and is_wheeled_oriented(g, orientation)
    return {
        "contractible": contractible,
        "rooted": rooted,
        "strongly_rooted": strongly,
        "wheeled_oriented": wheeled,
        "genus": genus(g, grading),
    }
