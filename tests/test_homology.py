import random
from fractions import Fraction

import pytest

from hgpoly.constructs import face_poset
from hgpoly.errors import InputError, ValidationError
from hgpoly import homology
from hgpoly.homology import (
    ChainComplex,
    _rank,
    _sparse_rows,
    _unit_pivots,
    betti,
    boundary_ranks,
    diamond_sign_check,
    euler_poincare_check,
    exact_rank,
    verify_complex,
)
from hgpoly.pipeline import complex_for_graph, cover_signs

from test_hypergraph import H2


def F(x):
    return Fraction(x)


# -- rank oracle: plain rational Gaussian elimination ---------------------------


def rank_oracle(matrix):
    if not matrix or not matrix[0]:
        return 0
    mat = [[F(x) for x in row] for row in matrix]
    rank = 0
    rows = len(mat)
    cols = len(mat[0])
    pivot_row = 0
    for col in range(cols):
        chosen = None
        for r in range(pivot_row, rows):
            if mat[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        mat[pivot_row], mat[chosen] = mat[chosen], mat[pivot_row]
        pv = mat[pivot_row][col]
        mat[pivot_row] = [x / pv for x in mat[pivot_row]]
        for r in range(rows):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def test_exact_rank_matches_oracle_random():
    rng = random.Random(31337)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert exact_rank(mat) == rank_oracle(mat)


def test_exact_rank_matches_oracle_random_integer():
    rng = random.Random(4242)
    for _ in range(80):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        density = rng.choice([0.2, 0.5, 0.9])
        mat = [
            [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        assert exact_rank(mat) == rank_oracle(mat)


def test_exact_rank_mixes_int_and_rational_rows():
    mat = [[2, 4, 0], [Fraction(1, 2), 1, Fraction(1, 3)], [1, 2, 0]]
    assert exact_rank(mat) == rank_oracle(mat) == 2


def test_exact_rank_matches_oracle_on_boundaries(graphs):
    for name in ("theta", "line4", "star4"):
        c = complex_for_graph(graphs[name])
        numbers = betti(c)
        rank = 0
        for k, mat in enumerate(c.matrices, start=1):
            # the rank `betti` took from the grade-k columns
            rank = c.dims()[k - 1] - rank - numbers[k - 1]
            assert exact_rank(mat) == rank_oracle(mat) == rank


# -- unit-pivot reduction against the oracles ---------------------------------------


def test_boundary_ranks_match_oracles_on_random_integer_matrices():
    """A matrix is a one-grade complex; entries beyond +-1 reach the Bareiss
    fallback, entries in {-1, 0, 1} mostly stay on unit pivots."""
    rng = random.Random(8086)
    paths = set()
    for _ in range(120):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        bound = rng.choice([1, 1, 3])
        density = rng.choice([0.3, 0.6, 0.9])
        mat = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        c = ChainComplex([[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]], [mat])
        [(rank, path)] = boundary_ranks(c)
        assert rank == _rank(_sparse_rows(c.columns[0], rows)) == rank_oracle(mat), mat
        paths.add(path)
    assert paths == {"unit", "bareiss"}


def test_rp2_type_complex_falls_back_in_its_top_grade():
    """Z --2--> Z --0--> Z: rationally acyclic above grade 0, with 2-torsion."""
    c = ChainComplex([["v"], ["e"], ["f"]], [[[0]], [[2]]])
    assert betti(c) == (1, 0, 0)
    assert boundary_ranks(c) == [(0, "unit"), (1, "bareiss")]


def spy_on_clearing(monkeypatch):
    """The `cleared` argument of each `_unit_pivots` call, in call order."""
    seen = []

    def spied(columns, cleared=frozenset()):
        seen.append(set(cleared))
        return _unit_pivots(columns, cleared)

    monkeypatch.setattr(homology, "_unit_pivots", spied)
    return seen


def test_grade_below_a_fallback_runs_without_clearing(monkeypatch):
    """d_2 = 2(e0 - e1) has no unit pivot, so d_1 reduces both its columns;
    with d_2 = e0 - e1 the pivot row e1 clears column 1 of d_1."""
    d_1 = [[1, 1]]
    for top, cleared, path in (([[2], [-2]], set(), "bareiss"), ([[1], [-1]], {1}, "unit")):
        c = ChainComplex([["v"], ["e0", "e1"], ["f"]], [d_1, top])
        seen = spy_on_clearing(monkeypatch)
        assert boundary_ranks(c) == [(1, "unit"), (1, path)]
        assert seen == [set(), cleared]
        assert [_rank(_sparse_rows(grade, n)) for grade, n in zip(c.columns, c.dims())] == [1, 1]
        assert betti(c) == (0, 0, 0)


def test_fraction_entries_rank_exactly():
    c = ChainComplex([["x"], ["y"]], [[[Fraction(1, 2)]]])
    assert betti(c) == (0, 0)
    assert boundary_ranks(c) == [(1, "bareiss")]
    mat = [[Fraction(1, 2), 1, 0], [Fraction(-1, 3), 0, 1], [0, 0, 0]]
    c = ChainComplex([["a", "b", "c"], ["x", "y", "z"]], [mat])
    assert boundary_ranks(c) == [(rank_oracle(mat), "bareiss")]
    assert betti(c) == (1, 1)


def test_clearing_keeps_every_rank_on_the_corpus(graphs):
    names = [name for name, g in graphs.items() if len(g.edges) <= 5] + ["bowtie"]
    for name in names:
        c = complex_for_graph(graphs[name])
        cleared = boundary_ranks(c)
        for k, grade in enumerate(c.columns):
            reference = _rank(_sparse_rows(grade, c.dims()[k]))
            assert cleared[k] == (reference, "unit"), (name, k)
            assert len(_unit_pivots(grade)) == reference, (name, k)


# -- complexes ----------------------------------------------------------------------


def test_line3_complex(graphs):
    c = complex_for_graph(graphs["line3"])
    assert verify_complex(c)
    assert betti(c) == (1, 0)


def test_pentagon_hexagon_betti(graphs):
    assert betti(complex_for_graph(graphs["line4"])) == (1, 0, 0)
    assert betti(complex_for_graph(graphs["theta"])) == (1, 0, 0)


def flip_entry(c, k, r, s):
    """Negate the stored nonzero entry in row r, column s of the grade-k
    boundary of `c`."""
    column = c.columns[k - 1][s]
    t = [row for row, _ in column].index(r)
    column[t] = (r, -column[t][1])


def test_flipped_sign_breaks_complex(graphs):
    c = complex_for_graph(graphs["line4"])
    flip_entry(c, 2, 0, 0)
    assert not verify_complex(c)
    with pytest.raises(InputError):
        betti(c)


def test_dense_constructor_round_trip(graphs):
    for name, g in graphs.items():
        if len(g.edges) > 5:
            continue  # the 6-edge graphs take seconds to serialize densely
        c = complex_for_graph(g, name=name)
        again = ChainComplex(c.bases, c.matrices, c.tag)
        assert again.columns == c.columns, name
        assert again.to_json() == c.to_json(), name
        assert again.to_triplets() == c.to_triplets(), name


def test_single_grade_complex():
    c = ChainComplex([["only"]], [])
    assert verify_complex(c)
    assert betti(c) == (1,)


def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        ChainComplex([["x"], ["y"]], [[[1], [1]]])


def test_inexact_entries_rejected():
    with pytest.raises(ValidationError):
        ChainComplex([["x"], ["y"]], [[[1.0]]])
    ChainComplex([["x"], ["y"]], [[[Fraction(1, 2)]]])


def test_complex_for_graph_entries_are_int(graphs):
    for name in ("line3", "theta", "line4", "star4", "multiloop"):
        c = complex_for_graph(graphs[name])
        for mat in c.matrices:
            assert all(type(x) is int and x in (-1, 0, 1) for row in mat for x in row)


def test_euler_poincare(graphs):
    for name in ("line3", "theta", "line4", "star4", "multiloop"):
        assert euler_poincare_check(complex_for_graph(graphs[name]))


def test_corpus_acyclicity_small(graphs):
    for name in ("edge", "loop", "fragile_root", "triangle", "theta_loop", "line5"):
        numbers = betti(complex_for_graph(graphs[name]))
        assert numbers[0] == 1 and all(x == 0 for x in numbers[1:])


# -- diamond signs ----------------------------------------------------------------------


def test_diamond_signs_from_model(graphs):
    for name in ("line3", "theta", "line4", "star4"):
        poset, signs = cover_signs(graphs[name])
        ok, witness = diamond_sign_check(poset, signs)
        assert ok, witness


def test_all_plus_one_fails_on_pentagon(graphs):
    poset, signs = cover_signs(graphs["line4"])
    forced = {k: 1 for k in signs}
    ok, witness = diamond_sign_check(poset, forced)
    assert not ok and witness is not None


def test_segment_with_opposite_signs_passes():
    poset = face_poset(H2)
    top = max(range(len(poset.faces)), key=poset.rank_of)
    lows = [i for i in range(len(poset.faces)) if poset.rank_of(i) == 0]
    signs = {(lows[0], top): 1, (lows[1], top): -1}
    ok, witness = diamond_sign_check(poset, signs)
    assert ok


def test_missing_sign_rejected(graphs):
    poset, signs = cover_signs(graphs["line4"])
    signs.pop(next(iter(signs)))
    with pytest.raises(InputError):
        diamond_sign_check(poset, signs)


def test_sign_check_tracks_d_squared(graphs):
    """Perturbing one cover sign breaks both the sign relation and d^2=0."""
    g = graphs["line4"]
    poset, signs = cover_signs(g)
    key = next(iter(signs))
    bad = dict(signs)
    bad[key] = -bad[key]
    ok, _ = diamond_sign_check(poset, bad)
    assert not ok

    c = complex_for_graph(g)
    low, high = key
    # flip the matching boundary entry and watch d^2 fail
    k = poset.rank_of(high)
    grade_low = [i for i in range(len(poset.faces)) if poset.rank_of(i) == k - 1]
    grade_high = [i for i in range(len(poset.faces)) if poset.rank_of(i) == k]
    flip_entry(c, k, grade_low.index(low), grade_high.index(high))
    assert not verify_complex(c)
