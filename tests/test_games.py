import itertools
import random
from fractions import Fraction

import pytest

from hgpoly.constructs import Construct, enumerate_constructs
from hgpoly.errors import CapacityError, InputError, NotConvexError
from hgpoly.games import (
    CooperativeGame,
    additive_game,
    brute_force_vertices,
    builtin_game,
    construct_face_support,
    core_hrep,
    game_from_json,
    is_strictly_convex,
    realize,
    _solve_square,
)

from test_hypergraph import H2, H3K, H3P, hg, k5_minus

H4K = hg("abcd", [
    "a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd", "cd",
])
STAR4 = hg("abcd", ["a", "b", "c", "d", "ab", "ac", "ad"])
H4P = hg("abcd", ["a", "b", "c", "d", "ab", "bc", "cd"])


def F(x):
    return Fraction(x)


# -- builtin games ----------------------------------------------------------


def test_pow3_values():
    g = builtin_game("pow3", "ab")
    assert g.value(0b11) == 9
    assert g.value(0b01) == 3


def test_loday_values():
    g = builtin_game("loday", "abc")
    assert g.value(0b111) == 6
    assert g.value(0b011) == 3


def test_empty_coalition_is_zero():
    for name in ("pow3", "loday"):
        assert builtin_game(name, "abc").value(0) == 0


def test_unknown_game_rejected():
    with pytest.raises(InputError):
        builtin_game("nope", "ab")


def test_game_json_table():
    g = game_from_json(
        {"type": "table", "values": {"a": 1, "b": 1, "a,b": 3}}, "ab"
    )
    assert g.value(0b11) == 3
    again = game_from_json(g.to_json(), "ab")
    assert again.values == g.values


# -- convexity ------------------------------------------------------------------


def test_builtin_games_strictly_convex_up_to_five():
    for n in range(1, 6):
        ground = "abcde"[:n]
        assert is_strictly_convex(builtin_game("pow3", ground))
        assert is_strictly_convex(builtin_game("loday", ground))


def test_additive_game_not_strict():
    assert not is_strictly_convex(additive_game("abcd"))


def test_convexity_capacity():
    labels = [f"p{i}" for i in range(11)]
    with pytest.raises(CapacityError):
        is_strictly_convex(additive_game(labels))


# -- H-representation --------------------------------------------------------------


def test_core_hrep_segment():
    rep = core_hrep(H2, builtin_game("loday", H2.vertices))
    assert rep.equality == (0b11, F(3))
    assert set(rep.inequalities) == {(0b01, F(1)), (0b10, F(1))}


def test_core_hrep_complete_three():
    rep = core_hrep(H3K, builtin_game("loday", H3K.vertices))
    assert len(rep.inequalities) == 6
    assert rep.equality[1] == 6


def test_core_hrep_path_misses_ac():
    rep = core_hrep(H3P, builtin_game("loday", H3P.vertices))
    masks = {m for m, _ in rep.inequalities}
    assert H3P.mask_of("ac") not in masks
    assert len(masks) == 5


def test_core_hrep_rejects_non_convex():
    with pytest.raises(NotConvexError):
        core_hrep(H2, additive_game(H2.vertices))


# -- face supports ------------------------------------------------------------------


def test_support_examples():
    c = Construct(H2.mask_of("a"), [Construct(H2.mask_of("b"))])
    assert set(construct_face_support(c)) == {0b11, 0b10}
    h = k5_minus()
    c2 = Construct(h.mask_of("xy"), [Construct(h.mask_of("zuv"))])
    assert set(construct_face_support(c2)) == {h.mask_of("xyzuv"), h.mask_of("zuv")}
    top = Construct(H3P.mask_of("abc"))
    assert construct_face_support(top) == (H3P.mask_of("abc"),)


def test_support_reverses_order():
    h = H3P
    chain = Construct(
        h.mask_of("a"), [Construct(h.mask_of("b"), [Construct(h.mask_of("c"))])]
    )
    top = Construct(h.mask_of("a"), [Construct(h.mask_of("bc"))])
    assert set(construct_face_support(top)) <= set(construct_face_support(chain))


def test_support_containment_over_whole_poset():
    from hgpoly.constructs import face_poset

    for h in (H3P, H3K):
        poset = face_poset(h)
        n = len(poset.faces)
        for i in range(n):
            for j in range(n):
                if poset.le(i, j):
                    lower = set(construct_face_support(poset.faces[i]))
                    upper = set(construct_face_support(poset.faces[j]))
                    assert lower >= upper


def test_bruteforce_segment_points():
    rep = core_hrep(H2, builtin_game("loday", H2.vertices))
    assert set(brute_force_vertices(rep)) == {(F(2), F(1)), (F(1), F(2))}


# -- realization ----------------------------------------------------------------------


def test_segment_realization_points():
    r = realize(H2, builtin_game("loday", H2.vertices))
    assert r.points() == {(F(2), F(1)), (F(1), F(2))}


def test_hexagon_realization_is_permutations():
    r = realize(H3K, builtin_game("loday", H3K.vertices))
    expected = {tuple(map(F, p)) for p in itertools.permutations((1, 2, 3))}
    assert r.points() == expected


def test_pentagon_realization_five_distinct():
    r = realize(H3P, builtin_game("loday", H3P.vertices))
    assert r.points() == {
        (F(3), F(2), F(1)),
        (F(3), F(1), F(2)),
        (F(2), F(1), F(3)),
        (F(1), F(2), F(3)),
        (F(1), F(4), F(1)),
    }


def test_realized_points_satisfy_every_constraint():
    for h in (H2, H3P, H3K, STAR4, H4P, H4K):
        for game_name in ("pow3", "loday"):
            r = realize(h, builtin_game(game_name, h.vertices))
            for p in r.points():
                assert r.hrep.is_feasible(p)


def test_vertices_match_bruteforce_and_rank0():
    for h in (H2, H3P, H3K, STAR4, H4P, H4K):
        for game_name in ("pow3", "loday"):
            game = builtin_game(game_name, h.vertices)
            r = realize(h, game)
            bf = set(brute_force_vertices(r.hrep))
            rank0 = [c for c in enumerate_constructs(h) if c.num_nodes() == len(h)]
            assert r.points() == bf
            assert len(r.vertex_map) == len(rank0)


def test_complete_loday_gives_permutations_up_to_four():
    for n in (2, 3, 4):
        labels = "abcd"[:n]
        edges = [[v] for v in labels] + [
            list(pair) for pair in itertools.combinations(labels, 2)
        ]
        h = hg(labels, ["".join(e) for e in edges])
        r = realize(h, builtin_game("loday", labels))
        expected = {
            tuple(map(F, p)) for p in itertools.permutations(range(1, n + 1))
        }
        assert r.points() == expected


def test_pow3_hexagon_six_vertices():
    rep = core_hrep(H3K, builtin_game("pow3", H3K.vertices))
    assert len(brute_force_vertices(rep)) == 6


def test_bruteforce_capacity():
    labels = "abcdefg"
    edges = [[v] for v in labels] + [
        list(p) for p in itertools.combinations(labels, 2)
    ]
    h = hg(labels, ["".join(e) for e in edges])
    rep = core_hrep(h, builtin_game("loday", labels))
    with pytest.raises(CapacityError):
        brute_force_vertices(rep)


def test_realization_json():
    r = realize(H2, builtin_game("loday", H2.vertices))
    data = r.to_json()
    coords = {tuple(v["coordinates"]) for v in data["vertices"]}
    assert coords == {("2", "1"), ("1", "2")}


# -- exact integer arithmetic against oracles -------------------------------------------


def pairwise_strictly_convex(g):
    """The O(4^n) definition: supermodular on every pair of coalitions,
    strictly unless the pair is nested."""
    masks = range(1, 1 << len(g.ground))
    for x in masks:
        for y in masks:
            lhs = g.value(x | y) + g.value(x & y)
            rhs = g.value(x) + g.value(y)
            if x & y in (x, y):
                if lhs < rhs:
                    return False
            elif lhs <= rhs:
                return False
    return True


def random_convex_values(rng, n, fractional, dropped_pair=None):
    """v(S) = sum of weights of the nonempty T inside S.  Every pair gets a
    positive weight, so the game is strictly convex, unless `dropped_pair`
    is given: then no T holding both gets weight and the game is convex
    but not strictly."""
    weights = {}
    for t in range(1, 1 << n):
        if dropped_pair is not None and t & dropped_pair == dropped_pair:
            continue
        w = rng.randint(1 if bin(t).count("1") == 2 else 0, 5)
        weights[t] = Fraction(w, rng.randint(1, 6)) if fractional else w
    return {s: sum(w for t, w in weights.items() if t & s == t) for s in range(1, 1 << n)}


def break_one_local_inequality(rng, n, values):
    """Lower one value until one second difference is at most 0, then add
    a modular term so every value stays nonnegative."""
    v = {0: 0, **values}
    i, j = (1 << k for k in rng.sample(range(n), 2))
    s = rng.randrange(1 << n) & ~(i | j)
    local = v[s | i | j] - v[s | i] - v[s | j] + v[s]
    v[s | i | j] -= local + rng.choice([0, Fraction(1, 3), 2])
    lift = max(0, -min(v.values()))
    return {m: v[m] + lift * bin(m).count("1") for m in range(1, 1 << n)}


def test_local_convexity_matches_pairwise_definition():
    rng = random.Random(7103)
    kinds = {True: 0, False: 0}
    for trial in range(160):
        n = rng.randint(1, 5)
        ground = "abcde"[:n]
        fractional = trial % 2 == 1
        kind = trial // 2 % 4
        if kind == 0:
            values = random_convex_values(rng, n, fractional)
        elif kind == 1 and n >= 2:
            pair = sum(1 << i for i in rng.sample(range(n), 2))
            values = random_convex_values(rng, n, fractional, dropped_pair=pair)
        elif kind == 2 and n >= 2:
            values = break_one_local_inequality(
                rng, n, random_convex_values(rng, n, fractional)
            )
        else:
            values = {
                m: Fraction(rng.randint(0, 40), rng.randint(1, 3) if fractional else 1)
                for m in range(1, 1 << n)
            }
        g = CooperativeGame(ground, values)
        expected = pairwise_strictly_convex(g)
        assert is_strictly_convex(g) == expected, (ground, values)
        if kind == 0:
            assert expected
        elif kind in (1, 2) and n >= 2:
            assert not expected
        kinds[expected] += 1
    assert min(kinds.values()) >= 40


def fraction_gauss_jordan(rows, n):
    """Gaussian elimination over `Fraction`; None when singular."""
    mat = [[Fraction(mask >> j & 1) for j in range(n)] + [Fraction(b)] for mask, b in rows]
    for col in range(n):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(len(mat)):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def test_solve_square_matches_fraction_oracle():
    rng = random.Random(3301)
    outcomes = {"singular": 0, "solved": 0}
    for trial in range(400):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(n):
            b = rng.randint(-30, 30)
            if trial % 2:
                b = Fraction(b, rng.randint(1, 12))
            rows.append((rng.randrange(1 << n), b))
        expected = fraction_gauss_jordan(rows, n)
        assert _solve_square(rows, n) == expected, rows
        outcomes["singular" if expected is None else "solved"] += 1
    assert min(outcomes.values()) >= 50


def test_solve_square_worked_systems():
    assert _solve_square([(0b11, 1), (0b11, 2)], 2) is None
    assert _solve_square([(0b01, 1), (0b00, 0)], 2) is None
    assert _solve_square([(0b011, 1), (0b110, 1), (0b101, Fraction(1, 2))], 3) == (
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 4),
    )


def test_pow3_realization_is_integral_without_enumerating_faces(monkeypatch):
    from hgpoly.constructs import enumerate_constructs
    from test_cli import count_calls

    counts = count_calls(monkeypatch, enumerate_constructs)
    for h in (H3K, STAR4, H4K, k5_minus()):
        r = realize(h, builtin_game("pow3", h.vertices))
        assert all(type(x) is int for p in r.points() for x in p)
        assert all(type(b) is int for _, b in r.hrep.inequalities)
    assert counts == {"enumerate_constructs": 0}


def test_table_game_values_are_ints_where_integral():
    g = game_from_json({"type": "table", "values": {"a": "2/2", "b": "1/3", "a,b": 2}}, "ab")
    assert type(g.value(0b01)) is int and g.value(0b10) == Fraction(1, 3)
    assert type(g.value(0)) is int
