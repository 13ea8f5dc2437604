"""Traced run: one workload op replayed layer by layer, with spans and counts.

Each `traced_*` function repeats, step for step, what the CLI handler does
for that op (`cli._model_homology`, `cli._model_check`, `cli._hg_realize`,
and the `pipeline` and `games.realize` bodies they call), calling each
layer's functions directly so that every call gets its own span.  The
rebuilt report must match the CLI's output byte for byte, which catches a
replay that has drifted from the handler it mirrors.

Spans are (name, start, end, parent, op) tuples kept in memory; counts are
exact numbers computed from each call's inputs and outputs.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from pathlib import Path

from hgpoly import games
from hgpoly.constructs import covers_of, enumerate_constructs, face_poset, format_construct
from hgpoly.graphs import Graph, alpha, alpha_inv, incidence_hypergraph
from hgpoly.homology import ChainComplex, diamond_sign_check, exact_rank, verify_complex
from hgpoly.hypergraph import Hypergraph, require_connected
from hgpoly.minimodel import (
    DEFAULT_CONVENTION,
    FreeComponent,
    boundary,
    boundary_matrix,
    boundary_of_basis,
    rho,
)

# Spans whose tracemalloc peak is reported; peaks come from a separate pass.
PEAK_SPANS = ("minimodel.boundary_matrix", "homology.rank", "games.realize")


class OpFailed(Exception):
    """The replayed op found a property violation the CLI would report."""


class Tracer:
    """Spans and counts of one traced run.

    With `peaks=True` the spans named in PEAK_SPANS also record the
    tracemalloc peak above the memory in use when they start; tracemalloc
    must then be running."""

    def __init__(self, peaks=False):
        self.spans = []
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int) if peaks else None
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        track = self.peaks is not None and name in PEAK_SPANS
        if track:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if track:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks[name], peak)
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name, value=1):
        self.counts[name] += value

    def self_times(self) -> dict:
        """Busy time per span name, minus the time of each span's children."""
        totals = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals


def _split_attempts(c) -> int:
    """Bipartitions `split` is tried on when every node of `c` is split."""
    return sum(2 ** bin(node.decoration).count("1") - 2 for node in c.nodes())


def _count_splits(tr, c, accepted):
    tr.count("constructs.split_attempts", _split_attempts(c))
    tr.count("constructs.splits_accepted", accepted)


def _emit(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _load_graph(tr, path) -> Graph:
    with tr.span("graphs.load"):
        return Graph.from_json(json.loads(Path(path).read_text()))


def _complex_for_graph(tr, g, convention, name=None) -> ChainComplex:
    """pipeline.complex_for_graph, with minimodel.basis_by_grade inlined."""
    with tr.span("pipeline.complex_for_graph"):
        with tr.span("graphs.incidence"):
            h = incidence_hypergraph(g)
        with tr.span("constructs.enumerate"):
            faces = enumerate_constructs(h)
        tr.count("constructs.faces", len(faces))
        n = len(h)
        grades = [[] for _ in range(n)]
        for c in faces:
            grades[n - c.num_nodes()].append(c)
        bases = [[format_construct(c, h) for c in grade] for grade in grades]
        matrices = []
        for k in range(1, len(grades)):
            with tr.span("minimodel.boundary_matrix"):
                _, cols, mat = boundary_matrix(g, k, convention)
            nonzeros = sum(1 for row in mat for x in row if x)
            tr.count("minimodel.boundary_matrix_calls")
            tr.count("minimodel.nonzeros", nonzeros)
            tr.count("constructs.split_attempts", sum(map(_split_attempts, cols)))
            tr.count("constructs.splits_accepted", nonzeros)
            matrices.append(mat)
        tag = {"sign_convention": convention.name}
        if name:
            tag["graph"] = name
        with tr.span("homology.complex_init"):
            return ChainComplex(bases, matrices, tag)


def _verify(tr, complex_) -> bool:
    tr.count("homology.verify_calls")
    with tr.span("homology.verify"):
        return verify_complex(complex_)


def _betti(tr, complex_) -> list:
    """homology.betti: a second verification, then one rank per boundary."""
    if not _verify(tr, complex_):
        raise OpFailed("betti numbers of an unverified complex")
    ranks = []
    for mat in complex_.matrices:
        with tr.span("homology.rank"):
            ranks.append(exact_rank(mat))
    tr.count("homology.pivots", sum(ranks))
    dims = complex_.dims()
    return [
        d - (ranks[k - 1] if k >= 1 else 0) - (ranks[k] if k < len(ranks) else 0)
        for k, d in enumerate(dims)
    ]


def traced_homology(tr, path) -> str:
    """`model homology PATH`."""
    g = _load_graph(tr, path)
    name = Path(path).stem
    complex_ = _complex_for_graph(tr, g, DEFAULT_CONVENTION, name)
    ok = _verify(tr, complex_)
    report = {
        "betti": _betti(tr, complex_) if ok else None,
        "f_vector": list(complex_.f_vector()),
        "d_squared_zero": ok,
        "graph": name,
    }
    return _emit(report)


def _cover_signs(tr, g, convention):
    """pipeline.cover_signs."""
    with tr.span("pipeline.cover_signs"):
        with tr.span("graphs.incidence"):
            h = incidence_hypergraph(g)
        with tr.span("constructs.face_poset"):
            poset = face_poset(h)
        tr.count("constructs.split_attempts", sum(map(_split_attempts, poset.faces)))
        tr.count("constructs.splits_accepted", sum(low != poset.bottom for low, _ in poset.covers))
        signs = {}
        for i, c in enumerate(poset.faces):
            if poset.rank_of(i) < 1:
                continue
            with tr.span("minimodel.boundary_of_basis"):
                terms = boundary_of_basis(h, c, convention)
            _count_splits(tr, c, len(terms))
            for face, sign in terms:
                signs[(poset.index(face), i)] = sign
        return poset, signs


def traced_check(tr, path) -> str:
    """`model check PATH`."""
    g = _load_graph(tr, path)
    convention = DEFAULT_CONVENTION
    with tr.span("graphs.incidence"):
        h = incidence_hypergraph(g)
    complex_ = _complex_for_graph(tr, g, convention)
    if not _verify(tr, complex_):
        raise OpFailed("d^2 != 0")

    with tr.span("constructs.enumerate"):
        faces = enumerate_constructs(h)
    for c in faces:
        with tr.span("minimodel.boundary_of_basis"):
            terms = boundary_of_basis(h, c, convention)
        _count_splits(tr, c, len(terms))
        with tr.span("constructs.covers"):
            expected = covers_of(h, c)
        _count_splits(tr, c, len(expected))
        support = {face for face, _ in terms}
        if support != set(expected):
            raise OpFailed("boundary support differs from the covered faces")
        if any(sign not in (1, -1) for _, sign in terms) or len(support) != len(terms):
            raise OpFailed("boundary coefficients are not distinct +-1 terms")

    poset, signs = _cover_signs(tr, g, convention)
    with tr.span("homology.diamond_sign"):
        ok, _ = diamond_sign_check(poset, signs)
    if not ok:
        raise OpFailed("diamond sign relation fails")

    with tr.span("constructs.enumerate"):
        faces = enumerate_constructs(h)
    for c in faces:
        if len(h) - c.num_nodes() == 1:
            with tr.span("minimodel.rho"):
                image = boundary(FreeComponent.basis(g, c), convention)
                value = rho(image)
            _count_splits(tr, c, len(image.coeffs))
            if value != 0:
                raise OpFailed("augmentation does not kill the boundary")

    with tr.span("constructs.enumerate"):
        faces = enumerate_constructs(h)
    for c in faces:
        with tr.span("graphs.alpha_roundtrip"):
            back = alpha_inv(alpha(g, c), g)
        tr.count("graphs.alpha_calls")
        if back != c:
            raise OpFailed("construct/graph-tree roundtrip fails")

    return _emit(
        {
            "d_squared_zero": True,
            "support_plus_minus_one": True,
            "diamond_signs": True,
            "chain_map": True,
            "alpha_roundtrip": True,
            "betti": _betti(tr, complex_),
        }
    )


def _realize(tr, h, game):
    """games.realize, with games.core_hrep inlined.  The tight system of a
    vertex is solved by the library's own helper, which has no public name."""
    with tr.span("games.realize"):
        require_connected(h)
        with tr.span("games.convexity"):
            convex = games.is_strictly_convex(game)
        tr.count("games.convexity_pairs", ((1 << len(h)) - 1) ** 2)
        if not convex:
            raise OpFailed("core realization requires a strictly convex game")
        with tr.span("hypergraph.saturation"):
            saturated = h.saturation_masks()
        tr.count("hypergraph.saturated_edges", len(saturated))
        full = h.ground_mask
        hrep = games.HRepresentation(
            h.vertices,
            [(m, game.value(m)) for m in saturated if m != full],
            (full, game.value(full)),
        )
        with tr.span("constructs.enumerate"):
            faces = enumerate_constructs(h)
        tr.count("constructs.faces", len(faces))
        n = len(h)
        vertex_map = {}
        for c in faces:
            if c.num_nodes() != n:
                continue
            coords = [None] * n
            games._solve_tight(c, game, coords)
            point = tuple(coords)
            if not hrep.is_feasible(point):
                raise OpFailed("tight-system solution violates the core constraints")
            vertex_map[c] = point
        if len(set(vertex_map.values())) != len(vertex_map):
            raise OpFailed("realized vertices are not pairwise distinct")
        terms = n + sum(bin(m).count("1") for m, _ in hrep.inequalities)
        tr.count("games.vertices", len(vertex_map))
        tr.count("games.feasibility_terms", terms * len(vertex_map))
        return games.Realization(h, game, hrep, vertex_map)


def traced_realize(tr, path, brute_force) -> str:
    """`hg realize PATH --game pow3 [--verify-brute-force]`."""
    with tr.span("hypergraph.load"):
        h = Hypergraph.from_json(json.loads(Path(path).read_text()))
    game = games.builtin_game("pow3", h.vertices)
    realization = _realize(tr, h, game)
    report = realization.to_json()
    if brute_force:
        with tr.span("games.brute_force"):
            points = games.brute_force_vertices(realization.hrep)
        systems = comb(len(realization.hrep.inequalities), len(h) - 1)
        tr.count("games.brute_force_systems", systems)
        tr.count("games.brute_force_vertices", len(points))
        if set(points) != realization.points():
            raise OpFailed("brute-force vertex enumeration disagrees")
        report["verification"] = {"brute_force_agrees": True, "num_vertices": len(points)}
    return _emit(report)
