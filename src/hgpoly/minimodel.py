"""Signed chain complexes on the construct basis of a graph.

Each basis element e_C carries the wedge of the edges decorating each node
of C, one tensor factor per node.  Factors are arranged root-first, with
sibling subtrees in descending order of their minimal edge (the
lexicographic level choice); the differential splits one node at a time and
re-sorts with Koszul signs.

The differential works on nested sets (see `constructs`): a split of the
node W into X | Y adds the one tube K, and the re-sort only moves Y and
the child subtrees of W, so its sign is read off those children alone
(`signed_splits`).  The complex itself is read off collapses
(`collapse_columns`): a face lies in the boundary of each face its nested
set loses one non-root tube to, and the sign of that term is read off the
lower face, so no split is tried.  The split route (`signed_splits`,
`grade_columns`, `boundary_matrix`) stays as the oracle and as the
independent side of `model check`.  Rows are found by nested set;
`boundary_of_basis` decodes the faces for callers that want trees.
Operadic composition (`graft_chain`) is a relabelling of nested sets as
well: the tubes of both factors move to ambient edge bits, and the quotient
tubes that meet the merged vertex absorb the fiber.

Sign convention, fixed once per build and recorded in serialized output:
splitting a node W into a parent block X and child block Y contributes

    (-1)^(|X|-1) * shuffle_sign(W -> X | Y)

times the Koszul prefix over earlier factors; the two-edge case then gives
the positive orientation d(a^b) = a(x)b - b(x)a.  The `alt` convention
flips the global sign of the generator boundary, which changes the complex
by a chain isomorphism only.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .constructs import (
    Construct,
    _submasks,
    from_tubes,
    graded_constructs,
    node_splits,
    tubes,
)
from .errors import CompatibilityError, InputError
from .graphs import Graph, canonical_contraction, incidence_hypergraph
from .homology import dense
from .hypergraph import Hypergraph, _popcount


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
    bit = {e: 1 << i for i, e in enumerate(edges)}
    return _mask_shuffle_sign(sum(bit[e] for e in one), sum(bit[e] for e in two))


def _mask_shuffle_sign(first: int, second: int) -> int:
    """shuffle_sign on bit positions: each bit of `first` passes the lower
    bits of `second`."""
    parity = 0
    rest = first
    while rest:
        low = rest & -rest
        parity += _popcount(second & (low - 1))
        rest ^= low
    return -1 if parity % 2 else 1


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
        sign *= _mask_shuffle_sign(quotient_mask, fiber_mask)
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


def _arranged(c: Construct):
    """Nodes in root-first order, sibling subtrees by descending minimal
    element (the level arrangement used for every representative)."""
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


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
    return [(n.decoration, _popcount(n.decoration) - 1) for n in _arranged(c)]


def signed_splits(h: Hypergraph, c: Construct, convention: SignConvention, nested=None):
    """Boundary of e_C as (nested set, sign) pairs, one per valid split;
    `nested` is `tubes(c)` when the caller has already built it.

    Splitting the node W into X | Y adds the tube K (`node_splits`), and the
    sign is local to W.  With deg(V) = |V| - (nodes of V) for a child
    subtree V and low(V) its lowest vertex, the Koszul parity of moving Y
    and the children of W into the arrangement of the new face is the sum,
    over the children V that stay under X with low(V) > low(K), of
    deg(V) * (deg(Y) + sum of deg(U) over the children U that move under Y
    with low(U) > low(V)).  The parity of the factors before W and the
    generator sign of W -> X | Y complete it."""
    if nested is None:
        nested = tubes(c)
    out = []
    prefix = 0
    for node in _arranged(c):
        width = _popcount(node.decoration)
        if width >= 2:
            kids = [(k.subtree_union, low, deg) for k, low, deg in _child_degrees(node)]
            for x, y, tube in node_splits(h, node):
                parity = prefix
                low_k = tube & -tube
                for union, low, deg in kids:
                    if deg and low > low_k and not union & tube:
                        moved = sum(d for u, l, d in kids if u & tube and l > low)
                        parity += deg * (_popcount(y) - 1 + moved)
                sign = -1 if parity % 2 else 1
                sign *= convention.generator_sign(_popcount(x))
                sign *= _mask_shuffle_sign(x, y)
                p = bisect(nested, tube)
                out.append((nested[:p] + (tube,) + nested[p:], sign))
        prefix += width - 1
    return out


def boundary_of_basis(h: Hypergraph, c: Construct, convention: SignConvention):
    """Signed covered faces of e_C; every coefficient is +1 or -1."""
    return [(from_tubes(nested), sign) for nested, sign in signed_splits(h, c, convention)]


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


def grade_columns(
    h: Hypergraph, rows, cols, convention: SignConvention, nested=None
) -> list:
    """Boundary of each construct of `cols` as (row, sign) pairs indexing the
    basis `rows`, in increasing row order, one `signed_splits` call per
    column; rows are found by nested set, so no covered face is built.
    `nested`, when given, is the pair of lists `tubes` of `rows` and of
    `cols` that the caller has already built."""
    row_tubes, col_tubes = nested or (map(tubes, rows), map(tubes, cols))
    row_index = {key: i for i, key in enumerate(row_tubes)}
    return [
        sorted((row_index[face], sign) for face, sign in signed_splits(h, c, convention, key))
        for c, key in zip(cols, col_tubes)
    ]


def collapse_columns(grades, convention: SignConvention) -> list:
    """Boundary columns of every positive grade, read off collapses.

    `grades` lists the constructs by grade in canonical order, as
    `graded_constructs` does; `columns[k - 1][j]` is the boundary of
    construct j of grade k as (row, sign) pairs indexing grade k - 1, in
    increasing row order.  A face F of grade k - 1 lies in the boundary of
    exactly the faces C that its nested set loses one non-root tube to:
    collapsing the node t into its parent P gives C, and F is the split of
    the node W = P | t of C into X = dec(P) | Y = dec(t) that adds the
    tube of t.  That is `signed_splits` run backwards, so the sign is read
    off F alone: the factors before P in F's arrangement are those before
    W in C's, and the rest of the sign is local to P (`_collapse_signs`).
    Every term is a valid face, so no split is tried or rejected;
    `grade_columns` stays the oracle.  Faces are looked up by their nested
    sets, each built once."""
    columns = []
    lower = [tubes(c) for c in grades[0]] if grades else []
    for k in range(1, len(grades)):
        upper = [tubes(c) for c in grades[k]]
        index = {key: j for j, key in enumerate(upper)}
        grade = [[] for _ in upper]
        for i, (face, key) in enumerate(zip(grades[k - 1], lower)):
            prefix = 0
            for node in _arranged(face):
                if node.children:
                    for tube, sign in _collapse_signs(node, convention):
                        sign = -sign if prefix % 2 else sign
                        p = key.index(tube)
                        grade[index[key[:p] + key[p + 1 :]]].append((i, sign))
                prefix += _popcount(node.decoration) - 1
        columns.append(grade)
        lower = upper
    return columns


def _collapse_signs(parent: Construct, convention: SignConvention) -> list:
    """(tube(t), sign) for each child t of `parent`: the sign of splitting
    P | t into X = dec(P) | Y = dec(t), without the prefix of the factors
    before P.  P's other children stay under X and t's children move under
    Y; the parity is that of `signed_splits`."""
    x = parent.decoration
    generator = convention.generator_sign(_popcount(x))
    kids = _child_degrees(parent)
    out = []
    for t, low_t, _ in kids:
        y = t.decoration
        moved = _child_degrees(t)
        parity = 0
        for _, low, deg in kids:
            if deg and low > low_t:
                parity += deg * (_popcount(y) - 1 + sum(d for _, l, d in moved if l > low))
        sign = generator * _mask_shuffle_sign(x, y)
        out.append((t.subtree_union, -sign if parity % 2 else sign))
    return out


def _child_degrees(node: Construct) -> list:
    """(child, low(V), deg(V)) for each child subtree V of `node`."""
    out = []
    for kid in node.children:
        union = kid.subtree_union
        out.append((kid, union & -union, _popcount(union) - kid.size))
    return out


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
    s: FreeComponent, r: FreeComponent, ambient: Graph, fiber_edges
) -> FreeComponent:
    """Operadic composition along the contraction of `fiber_edges` in
    `ambient`; `s` lives over the quotient and `r` over the fiber.

    Grafting relabels nested sets.  Each quotient and fiber edge is mapped
    to its ambient edge bit by flag pair, and every tube of both factors is
    lifted.  The tubes of `s` that meet the merged vertex also take the
    fiber's ambient mask; the grafted face is the union of the lifted tubes
    of `s` and `r`.  In tree terms, the fiber construct becomes a new
    subtree of the deepest node whose subtree spans the merged vertex.

    This is exact: two quotient edges at the merged vertex share a graph
    vertex, so they are adjacent in the incidence hypergraph and never sit
    in sibling subtrees.  The tubes that meet the merged vertex thus form a
    chain from the root down to that node.  The root is always in it: the
    ambient graph is connected, so when the quotient has edges, one of
    them meets the merged vertex.  The concatenated level arrangement of
    the lifted factors is re-sorted into that of the grafted face with
    Koszul signs.
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
    amb_h = incidence_hypergraph(ambient)
    fiber_bits = _ambient_bits(cc.fiber, ambient)
    lifted_r = {d: tuple(_lift(t, fiber_bits) for t in tubes(d)) for d in r.coeffs}
    if s.hypergraph is None:
        if s.graph.edges:
            raise CompatibilityError("scalar left factor must be a corolla")
        if cc.quotient.edges:
            raise CompatibilityError("left corolla needs an edgeless quotient")
        scalar = sum(s.coeffs.values(), Fraction(0))
        return FreeComponent(
            ambient,
            {from_tubes(lifted_r[d]): dv * scalar for d, dv in r.coeffs.items()},
            amb_h,
        )
    if s.graph != cc.quotient:
        raise CompatibilityError("left factor must live over the quotient")

    quotient_bits = _ambient_bits(cc.quotient, ambient)
    fiber_mask = sum(fiber_bits)
    merged = sum(
        1 << i for i, e in enumerate(cc.quotient.edges) if cc.merged_vertex in e.ends
    )
    factors_r = {d: _graded_factors(from_tubes(t)) for d, t in lifted_r.items()}
    out_coeffs: dict = {}
    for c, cv in s.coeffs.items():
        lifted = {t: _lift(t, quotient_bits) for t in tubes(c)}
        grown = tuple(m | fiber_mask if t & merged else m for t, m in lifted.items())
        factors_c = _graded_factors(from_tubes(lifted.values()))
        for d, dv in r.coeffs.items():
            grafted = from_tubes(grown + lifted_r[d])
            sign = _koszul_sort_sign(factors_c + factors_r[d], _graded_factors(grafted))
            out_coeffs[grafted] = out_coeffs.get(grafted, Fraction(0)) + cv * dv * sign
    return FreeComponent(ambient, out_coeffs, amb_h)


def _ambient_bits(part: Graph, ambient: Graph) -> list:
    """The ambient bit of each internal edge of `part`, matched by flag pair."""
    return [1 << ambient.edges.index(ambient.edge_by_pair(e.flags)) for e in part.edges]


def _lift(mask: int, bits) -> int:
    """`mask` over the edges of a part, as ambient bits."""
    return sum(b for i, b in enumerate(bits) if mask >> i & 1)
