"""Constructs of a connected hypergraph, the face poset, splits and collapses.

A construct is a rooted tree of pairwise disjoint vertex subsets built by
the recursion: the root carries a nonempty subset X, and for X proper the
subtrees are constructs of the connected components left after removing X.
Constructs are the faces of the hypergraph polytope; the covering relation
of the face poset is a single edge collapse.

Inside this module and `minimodel` a face is its nested set (Dosen-Petric,
"Hypergraph polytopes"; Postnikov, "Permutohedra, associahedra, and
beyond", section 7): the subtree union of every node, `tubes(c)`, decoded
by `from_tubes`.  A split adds one tube, a collapse removes one non-root
tube, and the face order is reverse containment.  `Construct` trees carry
the basis, the output and the public API.
"""

from __future__ import annotations

from .errors import (
    CapacityError,
    DisconnectedError,
    InputError,
    InvalidSplitError,
)
from .hypergraph import Hypergraph, _closure, _popcount, _submasks, require_connected

DEFAULT_MAX_FACES = 200_000


class Construct:
    """Immutable decorated rooted tree; children are kept in canonical order.

    The canonical order sorts children by the minimal ground-set element of
    the subtree's decoration union, so equality and hashing treat these as
    the non-planar trees they represent.
    """

    __slots__ = ("decoration", "children", "subtree_union", "size", "_key", "_hash")

    def __init__(self, decoration: int, children=()):
        children = tuple(children)
        union = decoration
        size = 1
        for child in children:
            union |= child.subtree_union
            size += child.size
        self.decoration = decoration
        self.children = tuple(
            sorted(children, key=lambda c: c.subtree_union & -c.subtree_union)
        )
        self.subtree_union = union
        self.size = size
        self._key = (
            tuple(_bit_positions(decoration)),
            tuple(c._key for c in self.children),
        )
        self._hash = hash(self._key)

    @classmethod
    def empty(cls) -> "Construct":
        """The unique construct of the empty hypergraph."""
        return cls(0, ())

    def __eq__(self, other):
        return isinstance(other, Construct) and self._key == other._key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._key

    def num_nodes(self) -> int:
        return self.size

    def nodes(self):
        """Decorations in preorder, children in canonical order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def decorations(self):
        return [n.decoration for n in self.nodes()]

    def to_json(self, h: Hypergraph) -> dict:
        return {
            "decoration": list(h.labels_of(self.decoration)),
            "children": [c.to_json(h) for c in self.children],
        }

    @classmethod
    def from_json(cls, data, h: Hypergraph) -> "Construct":
        try:
            decoration = h.mask_of(data["decoration"])
            children = [cls.from_json(c, h) for c in data.get("children", [])]
        except (TypeError, KeyError) as exc:
            raise InputError(f"construct JSON missing field: {exc}") from None
        return cls(decoration, children)

    def __repr__(self):
        return f"Construct<{self._format()}>"

    def _format(self):
        dec = "{" + ",".join(str(p) for p in _bit_positions(self.decoration)) + "}"
        if not self.children:
            return dec
        return dec + "(" + " ".join(c._format() for c in self.children) + ")"


def _bit_positions(mask: int):
    pos = []
    i = 0
    while mask:
        if mask & 1:
            pos.append(i)
        mask >>= 1
        i += 1
    return pos


def format_construct(c: Construct, h: Hypergraph) -> str:
    dec = "{" + ",".join(h.labels_of(c.decoration)) + "}"
    if not c.children:
        return dec
    return dec + "{" + ", ".join(format_construct(ch, h) for ch in c.children) + "}"


# -- validation and enumeration ---------------------------------------------


def is_construct(h: Hypergraph, c: Construct) -> bool:
    """Literal recursive validator; the oracle for everything else here."""
    if c.decoration == 0:
        return not c.children and not h.vertices
    if not h.vertices:
        return False
    return _valid_on(h, h.ground_mask, c)


def _valid_on(h: Hypergraph, mask: int, c: Construct) -> bool:
    if c.subtree_union != mask or c.decoration == 0:
        return False
    if c.decoration & ~mask:
        return False
    rest = mask & ~c.decoration
    if rest == 0:
        return not c.children
    comps = h.component_masks(rest)
    if len(comps) != len(c.children):
        return False
    by_union = {child.subtree_union: child for child in c.children}
    if set(by_union) != set(comps):
        return False
    return all(_valid_on(h, comp, by_union[comp]) for comp in comps)


def rank(c: Construct, h: Hypergraph) -> int:
    if not is_construct(h, c):
        raise InputError("not a construct of the given hypergraph")
    return len(h) - c.size


def enumerate_constructs(h: Hypergraph) -> tuple:
    """All constructs, sorted by rank descending then canonical tree order."""
    require_connected(h)
    cache: dict[int, tuple] = {}
    out = _enumerate_on(h, h.ground_mask, cache)
    return tuple(sorted(out, key=lambda c: (c.size, c.sort_key())))


def graded_constructs(h: Hypergraph) -> list:
    """`enumerate_constructs(h)` grouped by rank: entry k lists the rank-k
    constructs in canonical order."""
    grades = [[] for _ in range(len(h))]
    for c in enumerate_constructs(h):
        grades[len(h) - c.size].append(c)
    return grades


def _enumerate_on(h: Hypergraph, mask: int, cache: dict) -> list:
    if mask in cache:
        return cache[mask]
    result = []
    for x in _submasks(mask):
        rest = mask & ~x
        if rest == 0:
            result.append(Construct(x))
            continue
        comps = h.component_masks(rest)
        options = [_enumerate_on(h, comp, cache) for comp in comps]
        for combo in _product(options):
            result.append(Construct(x, combo))
    cache[mask] = result
    return result


def _product(option_lists):
    if not option_lists:
        yield ()
        return
    head, *tail = option_lists
    for item in head:
        for rest in _product(tail):
            yield (item,) + rest


# -- nested sets --------------------------------------------------------------


def tubes(c: Construct) -> frozenset:
    """The nested set of `c`: the subtree union of every node."""
    return frozenset(node.subtree_union for node in c.nodes())


def from_tubes(nested) -> Construct:
    """The construct whose nested set is `nested`, a laminar family with a
    largest member.  A tube's children are its maximal proper sub-tubes and
    its decoration is what they leave."""
    pending = {}
    for tube in sorted(nested, key=_popcount):
        children = [pending.pop(t) for t in list(pending) if not t & ~tube]
        pending[tube] = Construct(tube - sum(k.subtree_union for k in children), children)
    (root,) = pending.values()
    return root


# -- splits and collapses -----------------------------------------------------


def split(h: Hypergraph, c: Construct, node: int, x: int, y: int) -> Construct:
    """Replace node `node` of the construct `c` by `x` with a new child `y`.

    The validity rule is local to the split node (Curien-Ivanovic-Obradovic,
    "Syntactic aspects of hypergraph polytopes").  Let S be the node's
    subtree union and take the components of S minus X, using only the
    hyperedges that lie inside S minus X.  The split is valid iff Y lies
    inside a single component K and every other component is the union of
    one child subtree; the children that meet K move under Y, the rest stay
    under X.  Because the children of a construct are the components of
    S minus (X | Y), a hyperedge inside S minus X that misses Y lies inside
    one child, so the second condition always holds and only K is computed.
    K is the one tube the split adds to the nested set of `c`.
    Raises InvalidSplitError when Y meets more than one component.  The
    whole-tree validator `is_construct` stays the oracle for this rule.
    """
    if x | y != node or x & y or x == 0 or y == 0:
        raise InputError("x, y must partition the node decoration")
    target = next((n for n in c.nodes() if n.decoration == node), None)
    if target is None:
        raise InputError("no node with the given decoration")
    tube = _split_local(_edges_meeting(h, target), target, x, y)
    if tube is None:
        raise InvalidSplitError(
            f"splitting {h.labels_of(node)} into {h.labels_of(x)}|{h.labels_of(y)} "
            "does not yield a construct"
        )
    return from_tubes(tubes(c) | {tube})


def node_splits(h: Hypergraph, target: Construct):
    """Yield (x, y, tube) for every valid split of the node `target` of a
    construct.

    Parent blocks x run over the proper nonempty submasks of its decoration
    in descending order; `tube` is the component K that the split adds to
    the nested set (see `split`).
    """
    edges = _edges_meeting(h, target)
    for x in _submasks(target.decoration):
        y = target.decoration ^ x
        if y:
            tube = _split_local(edges, target, x, y)
            if tube is not None:
                yield x, y, tube


def _edges_meeting(h: Hypergraph, target: Construct) -> list:
    """Hyperedges inside the subtree union of `target` that meet its decoration."""
    scope = target.subtree_union
    return [m for m in h.edges if m & target.decoration and not m & ~scope]


def _split_local(edges, target: Construct, x: int, y: int):
    """The component K of S minus x that holds y, or None if y meets another.

    Grows the component of y's lowest vertex.  Hyperedges that miss the
    decoration lie inside one child and each child is connected, so the
    hyperedges in `edges` that avoid x together with the child subtree
    unions connect exactly what the restriction to S minus x connects."""
    links = [m for m in edges if not m & x]
    links += [child.subtree_union for child in target.children]
    reached = _closure(links, y & -y)
    return None if y & ~reached else reached


def collapse(c: Construct, child_decoration: int) -> Construct:
    """Merge the node `child_decoration` into its parent; always valid.
    The collapse removes that node's tube from the nested set."""
    for node in c.nodes():
        if node.decoration == child_decoration and node is not c:
            return from_tubes(tubes(c) - {node.subtree_union})
    raise InputError("no non-root node with the given decoration")


def covers_of(h: Hypergraph, c: Construct) -> list:
    """Constructs covered by `c`: every valid single split, each once."""
    nested = tubes(c)
    return [
        from_tubes(nested | {tube})
        for node in c.nodes()
        if _popcount(node.decoration) >= 2
        for _, _, tube in node_splits(h, node)
    ]


# -- face poset ---------------------------------------------------------------


class FacePoset:
    """All constructs plus the bottom face, with the covering relation.

    Built from `graded_constructs(h)`.  Faces are indexed 0..n-1 in the
    canonical order (rank descending, then tree order); the bottom face has
    index n and rank -1.  Faces are keyed by their nested sets and ordered
    by reverse containment: a face lies under each face its nested set
    loses one non-root tube to (a collapse), and the bottom lies under
    every rank-0 face.  Sorted `(lower, upper)` index pairs.
    """

    def __init__(self, h: Hypergraph, grades):
        self.hypergraph = h
        self.faces = tuple(c for grade in reversed(grades) for c in grade)
        self.bottom = len(self.faces)
        self._tubes = [tubes(c) for c in self.faces]
        self._index = {nested: i for i, nested in enumerate(self._tubes)}
        self._ranks = [len(h) - c.size for c in self.faces]
        covers = [(self.bottom, i) for i, r in enumerate(self._ranks) if r == 0]
        for i, nested in enumerate(self._tubes):
            for tube in nested:
                if tube != h.ground_mask:
                    covers.append((i, self._index[nested - {tube}]))
        self.covers = tuple(sorted(covers))
        self._up = {i: [] for i in range(len(self.faces) + 1)}
        self._down = {i: [] for i in range(len(self.faces) + 1)}
        for low, high in self.covers:
            self._up[low].append(high)
            self._down[high].append(low)

    def index(self, c: Construct) -> int:
        return self._index[tubes(c)]

    def rank_of(self, i: int) -> int:
        return -1 if i == self.bottom else self._ranks[i]

    def upper_covers(self, i: int) -> tuple:
        return tuple(self._up[i])

    def lower_covers(self, i: int) -> tuple:
        return tuple(self._down[i])

    def length_two_intervals(self):
        """(i, a, b, tops) for every face i and every pair a, b of its upper
        covers (a before b among the upper covers of i), with `tops` the
        set of faces covering both a and b; the bottom face is skipped."""
        for i in range(len(self.faces)):
            ups = self._up[i]
            for a_pos, a in enumerate(ups):
                for b in ups[a_pos + 1 :]:
                    yield i, a, b, set(self._up[a]) & set(self._up[b])

    def le(self, i: int, j: int) -> bool:
        """Face i lies under face j: j's nested set is part of i's."""
        if i == self.bottom or i == j:
            return True
        return j != self.bottom and self._tubes[j] <= self._tubes[i]

    def f_vector(self) -> tuple:
        top = max(self._ranks, default=-1)
        counts = [0] * (top + 1)
        for r in self._ranks:
            counts[r] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        h = self.hypergraph
        return {
            "hypergraph": h.to_json(),
            "faces": [f.to_json(h) for f in self.faces],
            "bottom": self.bottom,
            "ranks": list(self._ranks) + [-1],
            "covers": [list(c) for c in self.covers],
        }

    def to_dot(self) -> str:
        h = self.hypergraph
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, f in enumerate(self.faces):
            label = format_construct(f, h).replace('"', "'")
            lines.append(f'  n{i} [label="{label}"];')
        lines.append(f'  n{self.bottom} [label="empty"];')
        for low, high in self.covers:
            lines.append(f"  n{low} -> n{high};")
        lines.append("}")
        return "\n".join(lines)


def face_poset(h: Hypergraph, max_faces: int = DEFAULT_MAX_FACES) -> FacePoset:
    grades = graded_constructs(h)
    total = sum(map(len, grades))
    if total > max_faces:
        raise CapacityError(f"{total} faces exceed the limit {max_faces}")
    return FacePoset(h, grades)


def check_diamond(h: Hypergraph, poset: FacePoset | None = None):
    """Diamond property of the face poset, with a witness on failure.

    For every construct C covered by two constructs C', C'' there must be a
    face D covering both, and every such interval [C, D] must contain
    exactly C' and C'' strictly between.
    """
    poset = poset or face_poset(h)
    for i, a, b, tops in poset.length_two_intervals():
        if not tops:
            return False, (poset.faces[i], poset.faces[a], poset.faces[b])
        for d in tops:
            middle = set(poset.lower_covers(d)) & set(poset.upper_covers(i))
            if middle != {a, b}:
                return False, (poset.faces[i], poset.faces[d], sorted(middle))
    return True, None
