"""End-to-end assembly: graph -> construct basis -> signed complex -> report.

`model homology` and `model boundary` read the signed differential off
collapses (`minimodel.collapse_columns`): each face lies in the boundary of
the faces its nested set loses one non-root tube to.  `model check` builds
its columns from splits instead (`minimodel.grade_columns`) and compares
their support with the collapse covers of the face poset, so the split
route stays the independent oracle."""

from __future__ import annotations

import gc

from .constructs import FacePoset, format_construct, graded_constructs, tubes
from .errors import InputError, PropertyViolation
from .graphs import Graph, alpha_invs, graph_trees, incidence_hypergraph
from .homology import ChainComplex, betti, diamond_sign_check
from .minimodel import (
    DEFAULT_CONVENTION,
    SignConvention,
    collapse_columns,
    grade_columns,
)


def signed_covers(g: Graph, convention: SignConvention = DEFAULT_CONVENTION):
    """The signed covering relation of the construct basis of a graph.

    Returns (h, grades, columns): the incidence hypergraph, the constructs
    grouped by grade in canonical order, and the boundary columns, where
    `columns[k - 1]` holds the boundary of each construct of grade k as
    (row, sign) pairs indexing grade k - 1.  The constructs are enumerated
    once and the columns are read off collapses; no split is tried and no
    basis label is formatted."""
    h = incidence_hypergraph(g)
    grades = graded_constructs(h)
    return h, grades, collapse_columns(grades, convention)


def complex_for_graph(
    g: Graph, convention: SignConvention = DEFAULT_CONVENTION, name=None
) -> ChainComplex:
    """Chain complex of the construct basis of a graph, canonical order,
    with formatted basis labels and a tag naming the sign convention."""
    h, grades, columns = signed_covers(g, convention)
    bases = [[format_construct(c, h) for c in grade] for grade in grades]
    tag = {"sign_convention": convention.name}
    if name:
        tag["graph"] = name
    return ChainComplex.from_columns(bases, columns, tag)


def _betti_or_none(grades, columns):
    """Betti numbers, or None when d^2 != 0 (`betti` verifies first)."""
    try:
        return list(betti(ChainComplex.from_columns(grades, columns)))
    except InputError:
        return None


def homology_report(g: Graph, convention=DEFAULT_CONVENTION, name=None) -> dict:
    _, grades, columns = signed_covers(g, convention)
    numbers = _betti_or_none(grades, columns)
    report = {
        "betti": numbers,
        "f_vector": [len(grade) for grade in grades],
        "d_squared_zero": numbers is not None,
    }
    if name:
        report["graph"] = name
    return report


def cover_signs(g: Graph, convention=DEFAULT_CONVENTION):
    """Face poset of the incidence hypergraph together with the +-1 sign of
    every construct covering pair, read off the boundary and keyed by the
    (lower, upper) face indices of the poset."""
    h, grades, columns = signed_covers(g, convention)
    poset = FacePoset(h, grades)
    signs = {}
    for k, grade in enumerate(columns, start=1):
        low = poset.index(grades[k - 1][0])
        high = poset.index(grades[k][0])
        for j, column in enumerate(grade):
            for row, sign in column:
                signs[(low + row, high + j)] = sign
    return poset, signs


def check_report(g: Graph, convention=DEFAULT_CONVENTION, name=None) -> dict:
    """Every statement `model check` verifies, read off one signed pass:
    d^2 = 0, distinct +-1 boundary terms whose support is exactly the
    one-step collapses, the diamond signs, the augmentation as a chain map
    (grade-1 column sums vanish) and the `alpha` round trip.  Raises
    PropertyViolation with a witness on the first statement that fails;
    within a statement the lowest failing column of the lowest grade
    names it.

    The constructs are enumerated once and each face's nested set is built
    once, shared by `FacePoset`, the row index and `signed_splits`.  The
    boundary is built from splits, so the support check compares each
    split column's rows with the lower covers `FacePoset` reads off
    collapses.  Once that check has passed, each column's signs are
    aligned with its face's lower covers, so `diamond_sign_check` reads
    them as they stand, without a walk over every covering pair.  The
    round trip builds all graph-trees in one `graph_trees` pass and
    inverts them in one `alpha_invs` pass whose memo is its own.  The
    cyclic garbage collector is paused for the call, since the pass makes
    many objects and no reference cycle."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        h = incidence_hypergraph(g)
        grades = graded_constructs(h)
        numbers = _check_complex(h, grades, convention, name)
        _check_roundtrip(g, h, grades)
    finally:
        if collecting:
            gc.enable()
    return {
        "d_squared_zero": True,
        "support_plus_minus_one": True,
        "diamond_signs": True,
        "chain_map": True,
        "alpha_roundtrip": True,
        "betti": numbers,
    }


def _check_complex(h, grades, convention, name) -> list:
    """The statements of `check_report` about the signed complex, in order;
    returns the Betti numbers.  Its columns, poset and signs are dropped on
    return, before the round trip builds the graph-trees."""
    nested = [[tubes(c) for c in grade] for grade in grades]
    columns = [
        grade_columns(h, grades[k - 1], grades[k], convention, (nested[k - 1], nested[k]))
        for k in range(1, len(grades))
    ]
    numbers = _betti_or_none(grades, columns)
    if numbers is None:
        raise PropertyViolation("d^2 != 0", {"graph": name})

    for k, grade in enumerate(columns, start=1):
        for j, column in enumerate(grade):
            if any(sign not in (1, -1) for _, sign in column):
                problem = "boundary coefficient outside {-1,+1}"
            elif len({row for row, _ in column}) != len(column):
                problem = "a covered face appears twice"
            else:
                continue
            raise PropertyViolation(problem, {"construct": grades[k][j].to_json(h)})

    poset = FacePoset(h, grades, nested)
    # first[k]: the poset index of the first face of grade k (top grade first)
    first = [0] * len(grades)
    for k in range(len(grades) - 2, -1, -1):
        first[k] = first[k + 1] + len(grades[k + 1])
    signs = [()] * poset.bottom
    for k, grade in enumerate(columns, start=1):
        for j, column in enumerate(grade):
            face = first[k] + j
            if tuple(first[k - 1] + row for row, _ in column) != poset.lower_covers(face):
                raise PropertyViolation(
                    "boundary support differs from the covered faces",
                    {"construct": grades[k][j].to_json(h)},
                )
            signs[face] = [sign for _, sign in column]

    ok, witness = diamond_sign_check(poset, signs)
    if not ok:
        raise PropertyViolation("diamond sign relation fails", witness)

    for j, column in enumerate(columns[0] if columns else ()):
        if sum(sign for _, sign in column):
            raise PropertyViolation(
                "augmentation does not kill the boundary",
                {"construct": grades[1][j].to_json(h)},
            )
    return numbers


def _check_roundtrip(g: Graph, h, grades):
    """`alpha_inv(alpha(C)) = C` for every face C, top grade first."""
    faces = [c for grade in reversed(grades) for c in grade]
    for c, back in zip(faces, alpha_invs(graph_trees(g, faces), g)):
        if back != c:
            raise PropertyViolation(
                "construct/graph-tree roundtrip fails", {"construct": c.to_json(h)}
            )
