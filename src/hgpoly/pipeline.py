"""End-to-end assembly: graph -> construct basis -> signed complex -> report."""

from __future__ import annotations

from .constructs import FacePoset, format_construct, graded_constructs
from .errors import InputError, PropertyViolation
from .graphs import Graph, alpha, alpha_inv, incidence_hypergraph
from .homology import ChainComplex, betti, diamond_sign_check
from .minimodel import DEFAULT_CONVENTION, SignConvention, grade_columns


def signed_covers(
    g: Graph, convention: SignConvention = DEFAULT_CONVENTION, name=None
):
    """The signed covering relation of the construct basis of a graph.

    Returns (h, grades, complex_): the incidence hypergraph, the constructs
    grouped by grade in canonical order, and their chain complex, whose
    `columns[k - 1]` hold the boundary of each construct of grade k as (row,
    sign) pairs indexing grade k - 1.  The constructs are enumerated once
    and `signed_splits` runs once per construct of positive grade."""
    h = incidence_hypergraph(g)
    grades = graded_constructs(h)
    bases = [[format_construct(c, h) for c in grade] for grade in grades]
    columns = [
        grade_columns(h, grades[k - 1], grades[k], convention)
        for k in range(1, len(grades))
    ]
    tag = {"sign_convention": convention.name}
    if name:
        tag["graph"] = name
    return h, grades, ChainComplex.from_columns(bases, columns, tag)


def complex_for_graph(
    g: Graph, convention: SignConvention = DEFAULT_CONVENTION, name=None
) -> ChainComplex:
    """Chain complex of the construct basis of a graph, canonical order."""
    return signed_covers(g, convention, name)[2]


def _betti_or_none(complex_):
    """Betti numbers, or None when d^2 != 0 (`betti` verifies first)."""
    try:
        return list(betti(complex_))
    except InputError:
        return None


def homology_report(g: Graph, convention=DEFAULT_CONVENTION, name=None) -> dict:
    complex_ = complex_for_graph(g, convention, name)
    numbers = _betti_or_none(complex_)
    report = {
        "betti": numbers,
        "f_vector": list(complex_.f_vector()),
        "d_squared_zero": numbers is not None,
    }
    if name:
        report["graph"] = name
    return report


def _poset_and_signs(signed):
    """The face poset of the signed basis, and the sign of each boundary
    term keyed by the (lower, upper) face indices of the poset."""
    h, grades, complex_ = signed
    poset = FacePoset(h, grades)
    signs = {}
    for k, grade in enumerate(complex_.columns, start=1):
        low = poset.index(grades[k - 1][0])
        high = poset.index(grades[k][0])
        for j, column in enumerate(grade):
            for row, sign in column:
                signs[(low + row, high + j)] = sign
    return poset, signs


def cover_signs(g: Graph, convention=DEFAULT_CONVENTION):
    """Face poset of the incidence hypergraph together with the +-1 sign of
    every construct covering pair, read off the boundary."""
    return _poset_and_signs(signed_covers(g, convention))


def check_report(g: Graph, convention=DEFAULT_CONVENTION, name=None) -> dict:
    """Every statement `model check` verifies, read off one signed pass:
    d^2 = 0, distinct +-1 boundary terms whose support is exactly the
    one-step collapses, the diamond signs, the augmentation as a chain map
    (grade-1 column sums vanish) and the `alpha` round trip.  Raises
    PropertyViolation with a witness on the first statement that fails."""
    signed = signed_covers(g, convention)
    h, grades, complex_ = signed
    columns = complex_.columns
    numbers = _betti_or_none(complex_)
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

    poset, signs = _poset_and_signs(signed)
    covered = {pair for pair in poset.covers if pair[0] != poset.bottom}
    if set(signs) != covered:
        wrong = min(
            (high for _, high in covered ^ set(signs)),
            key=lambda i: (poset.rank_of(i), i),
        )
        raise PropertyViolation(
            "boundary support differs from the covered faces",
            {"construct": poset.faces[wrong].to_json(h)},
        )

    ok, witness = diamond_sign_check(poset, signs)
    if not ok:
        raise PropertyViolation("diamond sign relation fails", witness)

    for j, column in enumerate(columns[0] if columns else ()):
        if sum(sign for _, sign in column):
            raise PropertyViolation(
                "augmentation does not kill the boundary",
                {"construct": grades[1][j].to_json(h)},
            )

    for grade in reversed(grades):
        for c in grade:
            if alpha_inv(alpha(g, c), g) != c:
                raise PropertyViolation(
                    "construct/graph-tree roundtrip fails", {"construct": c.to_json(h)}
                )

    return {
        "d_squared_zero": True,
        "support_plus_minus_one": True,
        "diamond_signs": True,
        "chain_map": True,
        "alpha_roundtrip": True,
        "betti": numbers,
    }
