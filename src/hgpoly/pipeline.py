"""End-to-end assembly: graph -> construct basis -> signed complex -> report."""

from __future__ import annotations

from .constructs import face_poset, format_construct
from .graphs import Graph, incidence_hypergraph
from .homology import ChainComplex, betti, verify_complex
from .minimodel import (
    DEFAULT_CONVENTION,
    SignConvention,
    basis_by_grade,
    boundary_of_basis,
    grade_matrix,
)


def complex_for_graph(
    g: Graph, convention: SignConvention = DEFAULT_CONVENTION, name=None
) -> ChainComplex:
    """Chain complex of the construct basis of a graph, canonical order.

    The constructs are enumerated once; every grade's matrix is filled from
    that one basis."""
    h, grades = basis_by_grade(g)
    bases = [[format_construct(c, h) for c in grade] for grade in grades]
    matrices = [
        grade_matrix(h, grades[k - 1], grades[k], convention)
        for k in range(1, len(grades))
    ]
    tag = {"sign_convention": convention.name}
    if name:
        tag["graph"] = name
    return ChainComplex(bases, matrices, tag)


def homology_report(g: Graph, convention=DEFAULT_CONVENTION, name=None) -> dict:
    complex_ = complex_for_graph(g, convention, name)
    ok = verify_complex(complex_)
    report = {
        "betti": list(betti(complex_)) if ok else None,
        "f_vector": list(complex_.f_vector()),
        "d_squared_zero": ok,
    }
    if name:
        report["graph"] = name
    return report


def cover_signs(g: Graph, convention=DEFAULT_CONVENTION):
    """Face poset of the incidence hypergraph together with the +-1 sign of
    every construct covering pair, read off the boundary."""
    h = incidence_hypergraph(g)
    poset = face_poset(h)
    signs = {}
    for i, c in enumerate(poset.faces):
        if poset.rank_of(i) < 1:
            continue
        for face, sign in boundary_of_basis(h, c, convention):
            signs[(poset.index(face), i)] = sign
    return poset, signs
