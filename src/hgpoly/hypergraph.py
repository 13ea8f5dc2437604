"""Finite hypergraphs with connectivity, saturation, restriction and removal.

Vertex subsets are handled as bitmasks over the ordered ground set; every
public operation also accepts and returns label collections.  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

import warnings

from .errors import CapacityError, DisconnectedError, InputError, ValidationError

MAX_VERTICES = 20


def _popcount(mask: int) -> int:
    return mask.bit_count()


def _submasks(mask: int):
    """All nonempty submasks of `mask`, descending."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _closure(edges, seed: int) -> int:
    """Vertices reached from `seed` through chains of meeting edges."""
    reached = seed
    while True:
        grown = reached
        for m in edges:
            if m & grown:
                grown |= m
        if grown == reached:
            return reached
        reached = grown


class Hypergraph:
    """An ordered vertex set together with a family of hyperedges.

    Invariants: the hyperedges cover the vertex set, every singleton is a
    hyperedge, there are no duplicates and no empty edge.  The distinguished
    empty hypergraph (no vertices, no edges) is permitted and is produced
    only where the recursion on constructs demands it.
    """

    __slots__ = ("vertices", "edges", "_pos")

    def __init__(self, vertices, hyperedges, *, auto_singletons=True):
        vertices = tuple(vertices)
        if len(vertices) > MAX_VERTICES:
            raise CapacityError(
                f"ground set has {len(vertices)} vertices, limit is {MAX_VERTICES}"
            )
        if len(set(vertices)) != len(vertices):
            raise ValidationError("duplicate vertex labels")
        self.vertices = vertices
        self._pos = {v: i for i, v in enumerate(vertices)}

        masks = set()
        for edge in hyperedges:
            mask = edge if isinstance(edge, int) else self.mask_of(edge)
            if mask == 0:
                raise ValidationError("empty hyperedge")
            masks.add(mask)
        full = (1 << len(vertices)) - 1
        for m in masks:
            if m & ~full:
                raise ValidationError("hyperedge outside the ground set")
        missing = [1 << i for i in range(len(vertices)) if (1 << i) not in masks]
        if missing and auto_singletons:
            warnings.warn("adding missing singleton hyperedges", stacklevel=2)
            masks.update(missing)
        elif missing:
            raise ValidationError("missing singleton hyperedges")
        # singletons present => the union of hyperedges covers the vertex set
        self.edges = tuple(sorted(masks, key=lambda m: (_popcount(m), m)))

    # -- subset helpers ----------------------------------------------------

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            try:
                mask |= 1 << self._pos[lab]
            except (KeyError, TypeError):
                raise InputError(f"unknown vertex {lab!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    @property
    def ground_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        edges = [",".join(self.labels_of(m)) for m in self.edges]
        return f"Hypergraph({list(self.vertices)}, [{' '.join(edges)}])"

    # -- core operations ---------------------------------------------------

    def is_connected(self) -> bool:
        """No nontrivial bipartition of the vertices separates every edge."""
        return bool(self.vertices) and self._connected_within(self.ground_mask)

    def restriction(self, subset) -> "Hypergraph":
        """Sub-hypergraph on `subset` keeping the edges contained in it."""
        mask = subset if isinstance(subset, int) else self.mask_of(subset)
        if mask == 0:
            raise InputError("restriction to the empty set")
        verts = self.labels_of(mask)
        edges = []
        for m in self.edges:
            if m & ~mask:
                continue
            edges.append(sum(1 << verts.index(v) for v in self.labels_of(m)))
        return Hypergraph(verts, edges, auto_singletons=False)

    def remove(self, subset) -> "Hypergraph":
        """Restriction to the complement of `subset`."""
        mask = subset if isinstance(subset, int) else self.mask_of(subset)
        comp = self.ground_mask & ~mask
        if comp == 0:
            raise InputError("removal of the whole vertex set")
        return self.restriction(comp)

    def saturate(self) -> "Hypergraph":
        """Add every nonempty subset whose restriction is connected."""
        edges = [m for m in _submasks(self.ground_mask) if self._connected_within(m)]
        return Hypergraph(self.vertices, edges, auto_singletons=False)

    def saturation_masks(self) -> tuple:
        """Masks of Sat(H), sorted like hyperedges."""
        return self.saturate().edges

    def _connected_within(self, mask: int) -> bool:
        """Connectivity of the restriction to `mask`, without rebuilding it."""
        inner = [m for m in self.edges if not m & ~mask]
        return _closure(inner, mask & -mask) == mask

    def is_saturated(self) -> bool:
        """Closed under unions of intersecting hyperedges."""
        edges = self.edges
        edge_set = set(edges)
        for i, x in enumerate(edges):
            for y in edges[i + 1 :]:
                if x & y and (x | y) not in edge_set:
                    return False
        return True

    def components(self) -> tuple:
        """Maximal connected restrictions, ordered by minimal vertex."""
        masks = self.component_masks()
        return tuple(self.restriction(m) for m in masks)

    def component_masks(self, scope=None) -> tuple:
        """Vertex masks of the components of the restriction to `scope`
        (default: every vertex), ordered by minimal vertex."""
        remaining = self.ground_mask if scope is None else scope
        inner = [m for m in self.edges if not m & ~remaining]
        out = []
        while remaining:
            reached = _closure(inner, remaining & -remaining)
            out.append(reached)
            remaining &= ~reached
        return tuple(out)

    def minus(self, subset) -> "Hypergraph":
        """Truncate the saturated edges by `subset`; differs from `remove`."""
        mask = subset if isinstance(subset, int) else self.mask_of(subset)
        if mask == 0:
            raise InputError("minus of the empty set")
        comp = self.ground_mask & ~mask
        if comp == 0:
            raise InputError("minus of the whole vertex set")
        verts = self.labels_of(comp)
        pos = {v: i for i, v in enumerate(verts)}
        edges = set()
        for m in self.saturation_masks():
            t = m & comp
            if t:
                edges.add(sum(1 << pos[v] for v in self.labels_of(t)))
        return Hypergraph(verts, edges, auto_singletons=False)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "hyperedges": [list(self.labels_of(m)) for m in self.edges],
        }

    @classmethod
    def from_json(cls, data) -> "Hypergraph":
        if not isinstance(data, dict):
            raise ValidationError("hypergraph JSON must be an object")
        try:
            vertices = data["vertices"]
            hyperedges = data["hyperedges"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"hypergraph JSON missing field: {exc}") from None
        if not isinstance(vertices, list) or not isinstance(hyperedges, list):
            raise ValidationError("hypergraph JSON 'vertices' and 'hyperedges' must be lists")
        for v in vertices:
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise ValidationError(f"vertex label {v!r} is not a string or number")
        if not all(isinstance(e, list) for e in hyperedges):
            raise ValidationError("every hyperedge must be a list of vertex labels")
        return cls(vertices, hyperedges)


def require_connected(h: Hypergraph):
    if not h.is_connected():
        raise DisconnectedError("operation requires a connected hypergraph")
