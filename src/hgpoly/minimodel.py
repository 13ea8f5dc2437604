"""Signed chain complexes on the construct basis of a graph.

Each basis element e_C carries the wedge of the edges decorating each node
of C, one tensor factor per node.  Factors are arranged root-first, with
sibling subtrees in descending order of their minimal edge (the
lexicographic level choice); the differential splits one node at a time and
re-sorts with Koszul signs.

Sign convention, fixed once per build and recorded in serialized output:
splitting a node W into a parent block X and child block Y contributes

    (-1)^(|X|-1) * shuffle_sign(W -> X | Y)

times the Koszul prefix over earlier factors; the two-edge case then gives
the positive orientation d(a^b) = a(x)b - b(x)a.  The `alt` convention
flips the global sign of the generator boundary, which changes the complex
by a chain isomorphism only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructs import Construct, _bit_positions, _submasks, graded_constructs
from .errors import CompatibilityError, InputError
from .graphs import Graph, _translate, canonical_contraction, incidence_hypergraph
from .homology import dense
from .hypergraph import Hypergraph, _popcount
from . import constructs as _constructs


@dataclass(frozen=True)
class SignConvention:
    """Orientation bookkeeping for the free-complex differential."""

    name: str = "default"

    def generator_sign(self, parent_size: int) -> int:
        sign = -1 if (parent_size - 1) % 2 else 1
        return sign if self.name == "default" else -sign

    @classmethod
    def from_name(cls, name: str) -> "SignConvention":
        if name not in ("default", "alt"):
            raise InputError(f"unknown sign convention {name!r}")
        return cls(name)


DEFAULT_CONVENTION = SignConvention("default")


@dataclass(frozen=True)
class DetBasis:
    """Top wedge of the internal edges of a graph, in degree |Edg|-1."""

    graph: Graph
    wedge: tuple
    degree: int


def det_basis(g: Graph) -> DetBasis | None:
    """Generator of the determinant line; None (the zero object) for corollas."""
    if not g.edges:
        return None
    names = g.edge_names()
    return DetBasis(g, names, len(names) - 1)


def shuffle_sign(ordered_edges, part_one, part_two) -> int:
    """Sign of reordering the sorted wedge of `ordered_edges` into the
    sorted wedge of `part_one` followed by that of `part_two`."""
    edges = list(ordered_edges)
    one = set(part_one)
    two = set(part_two)
    if one & two or one | two != set(edges) or len(one) + len(two) != len(edges):
        raise InputError("the two parts must partition the edge set")
    target = [e for e in edges if e in one] + [e for e in edges if e in two]
    return _permutation_sign(edges, target)


def _permutation_sign(source, target) -> int:
    index = {e: i for i, e in enumerate(source)}
    perm = [index[e] for e in target]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _mask_shuffle_sign(whole: int, first: int, second: int) -> int:
    """shuffle_sign on bit positions; `first`|`second` must equal `whole`."""
    edges = _bit_positions(whole)
    target = [e for e in edges if first >> e & 1] + [e for e in edges if second >> e & 1]
    return _permutation_sign(edges, target)


def generator_boundary(g: Graph, convention: SignConvention = DEFAULT_CONVENTION):
    """Two-vertex expansions of the top generator of `g`.

    One summand per connected proper nonempty fiber edge set; returns
    (fiber_names, quotient_names, sign) triples in deterministic order.
    """
    if len(g.edges) < 2:
        raise InputError("the generator boundary needs at least two internal edges")
    h = incidence_hypergraph(g)
    full = h.ground_mask
    out = []
    for fiber_mask in sorted(_submasks(full)):
        if fiber_mask == full:
            continue
        if not h._connected_within(fiber_mask):
            continue
        quotient_mask = full & ~fiber_mask
        sign = convention.generator_sign(_popcount(quotient_mask))
        sign *= _mask_shuffle_sign(full, quotient_mask, fiber_mask)
        out.append(
            (
                tuple(h.labels_of(fiber_mask)),
                tuple(h.labels_of(quotient_mask)),
                sign,
            )
        )
    return out


# -- free components -----------------------------------------------------------


class FreeComponent:
    """Rational linear combination of construct generators over one graph."""

    __slots__ = ("graph", "hypergraph", "coeffs")

    def __init__(self, graph: Graph, coeffs=None, hypergraph=None):
        self.graph = graph
        self.hypergraph = (
            hypergraph
            if hypergraph is not None
            else (incidence_hypergraph(graph) if graph.edges else None)
        )
        self.coeffs = {}
        for c, v in (coeffs or {}).items():
            v = Fraction(v)
            if v:
                self.coeffs[c] = v

    @classmethod
    def basis(cls, graph: Graph, construct: Construct) -> "FreeComponent":
        return cls(graph, {construct: Fraction(1)})

    @classmethod
    def unit(cls, corolla: Graph, value=1) -> "FreeComponent":
        """Scalar component over a corolla (the strict operadic unit)."""
        if corolla.edges:
            raise InputError("the unit lives over a corolla")
        return cls(corolla, {Construct.empty(): Fraction(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def grades(self) -> set:
        if self.hypergraph is None:
            return {0} if self.coeffs else set()
        n = len(self.hypergraph)
        return {n - c.size for c in self.coeffs}

    def scaled(self, factor) -> "FreeComponent":
        factor = Fraction(factor)
        return FreeComponent(
            self.graph,
            {c: v * factor for c, v in self.coeffs.items()},
            self.hypergraph,
        )

    def plus(self, other: "FreeComponent") -> "FreeComponent":
        if other.graph != self.graph:
            raise InputError("components live over different graphs")
        total = dict(self.coeffs)
        for c, v in other.coeffs.items():
            total[c] = total.get(c, Fraction(0)) + v
        return FreeComponent(self.graph, total, self.hypergraph)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, FreeComponent)
            and self.graph == other.graph
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = " + ".join(f"({v})*{c!r}" for c, v in self.items_sorted())
        return f"FreeComponent[{terms or '0'}]"


# -- the differential -----------------------------------------------------------


def _factors(c: Construct):
    """Decorations in root-first order, sibling subtrees by descending
    minimal element (the level arrangement used for every representative)."""
    out = []

    def walk(node):
        out.append(node.decoration)
        for child in reversed(node.children):
            walk(child)

    walk(c)
    return out


def _koszul_sort_sign(arrangement, target) -> int:
    """Koszul sign for permuting graded factors from one order to another.

    Factors are (id, degree) pairs with distinct ids; swapping two factors
    costs (-1)^(deg*deg).
    """
    pos = {ident: i for i, (ident, _) in enumerate(target)}
    perm = [(pos[ident], deg) for ident, deg in arrangement]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i][0] > perm[j][0]:
                if perm[i][1] % 2 and perm[j][1] % 2:
                    sign = -sign
    return sign


def _graded_factors(c: Construct):
    return [(dec, _popcount(dec) - 1) for dec in _factors(c)]


def boundary_of_basis(h: Hypergraph, c: Construct, convention: SignConvention):
    """Signed covered faces of e_C; every coefficient is +1 or -1."""
    facs = _graded_factors(c)
    out = []
    prefix = 0
    for i, (node, deg) in enumerate(facs):
        if deg >= 1:
            for x, y, face in _constructs.node_splits(h, c, node):
                sign = -1 if prefix % 2 else 1
                sign *= convention.generator_sign(_popcount(x))
                sign *= _mask_shuffle_sign(node, x, y)
                arrangement = (
                    facs[:i]
                    + [(x, _popcount(x) - 1), (y, _popcount(y) - 1)]
                    + facs[i + 1 :]
                )
                sign *= _koszul_sort_sign(arrangement, _graded_factors(face))
                out.append((face, sign))
        prefix += deg
    return out


def boundary(
    x: FreeComponent, convention: SignConvention = DEFAULT_CONVENTION
) -> FreeComponent:
    """Derivation extension of the generator boundary to chains."""
    if x.hypergraph is None:
        return FreeComponent(x.graph, {}, None)
    total: dict = {}
    for c, coeff in x.coeffs.items():
        if c.decoration == 0:
            continue
        for face, sign in boundary_of_basis(x.hypergraph, c, convention):
            total[face] = total.get(face, Fraction(0)) + coeff * sign
    return FreeComponent(x.graph, total, x.hypergraph)


def boundary_matrix(
    g: Graph, k: int, convention: SignConvention = DEFAULT_CONVENTION
):
    """Matrix of the grade-k differential in the canonical basis order.

    Rows are indexed by grade k-1, columns by grade k; entries are the
    integers 0 and +-1."""
    h = incidence_hypergraph(g)
    grades = graded_constructs(h)
    if not 1 <= k <= len(grades) - 1:
        raise InputError(f"degree {k} outside 1..{len(grades) - 1}")
    rows = grades[k - 1]
    cols = grades[k]
    return rows, cols, dense(grade_columns(h, rows, cols, convention), len(rows))


def grade_columns(h: Hypergraph, rows, cols, convention: SignConvention) -> list:
    """Boundary of each construct of `cols` as (row, sign) pairs indexing the
    basis `rows`, in increasing row order, one `boundary_of_basis` call per
    column; the covered faces themselves are not kept."""
    row_index = {c: i for i, c in enumerate(rows)}
    return [
        sorted(
            (row_index[face], sign) for face, sign in boundary_of_basis(h, c, convention)
        )
        for c in cols
    ]


def rho(x: FreeComponent) -> Fraction:
    """Augmentation: each grade-0 generator maps to 1, higher grades to 0."""
    if x.hypergraph is None:
        return sum(x.coeffs.values(), Fraction(0))
    n = len(x.hypergraph)
    total = Fraction(0)
    for c, v in x.coeffs.items():
        if c.size == n:
            total += v
    return total


# -- grafting -------------------------------------------------------------------


def graft_chain(
    s: FreeComponent,
    r: FreeComponent,
    ambient: Graph,
    fiber_edges,
    convention: SignConvention = DEFAULT_CONVENTION,
) -> FreeComponent:
    """Operadic composition along the contraction of `fiber_edges` in
    `ambient`; `s` lives over the quotient and `r` over the fiber.

    Basis constructs are grafted (the fiber construct becomes a new subtree
    at the node owning the merged vertex) and the concatenated level
    arrangement is re-sorted with Koszul signs.
    """
    fiber_edges = tuple(fiber_edges)
    if not fiber_edges:
        if r.hypergraph is not None:
            raise InputError("empty contraction needs a unit right factor")
        if s.graph != ambient:
            raise CompatibilityError("unit composition must stay on one graph")
        return s.scaled(sum(r.coeffs.values(), Fraction(0)))
    cc = canonical_contraction(ambient, fiber_edges)
    if r.graph != cc.fiber:
        raise CompatibilityError("right factor must live over the fiber")
    if s.hypergraph is None:
        if s.graph.edges:
            raise CompatibilityError("scalar left factor must be a corolla")
        if cc.quotient.edges:
            raise CompatibilityError("left corolla needs an edgeless quotient")
        scalar = sum(s.coeffs.values(), Fraction(0))
        out = FreeComponent(ambient)
        amb_h = incidence_hypergraph(ambient)
        for d, dv in r.coeffs.items():
            lifted = _translate(d, r.hypergraph, amb_h)
            out = out.plus(FreeComponent(ambient, {lifted: dv * scalar}, amb_h))
        return out
    if s.graph != cc.quotient:
        raise CompatibilityError("left factor must live over the quotient")

    amb_h = incidence_hypergraph(ambient)
    target_vertex = cc.merged_vertex
    out_coeffs: dict = {}
    for c, cv in s.coeffs.items():
        lifted_c = _translate_pairs(c, s.hypergraph, s.graph, ambient, amb_h)
        for d, dv in r.coeffs.items():
            lifted_d = _translate(d, r.hypergraph, amb_h)
            path = _owner_path(lifted_c, ambient, amb_h, cc.quotient, target_vertex)
            grafted = _attach(lifted_c, path, lifted_d)
            arrangement = [
                (dec, _popcount(dec) - 1) for dec in _factors(lifted_c)
            ] + [(dec, _popcount(dec) - 1) for dec in _factors(lifted_d)]
            sign = _koszul_sort_sign(arrangement, _graded_factors(grafted))
            out_coeffs[grafted] = out_coeffs.get(grafted, Fraction(0)) + cv * dv * sign
    return FreeComponent(ambient, out_coeffs, amb_h)


def _translate_pairs(
    c: Construct, from_h: Hypergraph, from_g: Graph, ambient: Graph, to_h: Hypergraph
) -> Construct:
    """Rename quotient-edge decorations to ambient names via flag pairs."""
    names = []
    for name in from_h.labels_of(c.decoration):
        pair = from_g.edge_by_name(name).flags
        names.append(ambient.edge_by_pair(pair).name)
    dec = to_h.mask_of(names)
    return Construct(
        dec,
        [_translate_pairs(ch, from_h, from_g, ambient, to_h) for ch in c.children],
    )


def _owner_path(c, ambient: Graph, ambient_h: Hypergraph, quotient_g: Graph, target_vertex):
    """Child-index path to the deepest node of `c` whose subtree edges span
    `target_vertex` in the quotient graph; `c` carries ambient names."""
    path = []
    node = c
    while True:
        for i, child in enumerate(node.children):
            span = set()
            for name in ambient_h.labels_of(child.subtree_union):
                pair = ambient.edge_by_name(name).flags
                span |= quotient_g.edge_by_pair(pair).vertex_set()
            if target_vertex in span:
                path.append(i)
                node = child
                break
        else:
            return path


def _attach(c: Construct, path, d: Construct) -> Construct:
    if not path:
        return Construct(c.decoration, c.children + (d,))
    i = path[0]
    children = list(c.children)
    children[i] = _attach(children[i], path[1:], d)
    return Construct(c.decoration, children)
