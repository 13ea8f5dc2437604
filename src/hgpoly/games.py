"""Cooperative games, strict convexity, and exact core realizations.

Everything here is exact rational arithmetic: a game value, a bound or a
coordinate is a Python `int` where it is integral and a `fractions.Fraction`
otherwise, so the builtin games and integral tables run on ints alone.
Floating point is banned because the power game grows like 3^n and the
verification contracts are zero-tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .constructs import Construct, tubes, vertex_constructs
from .errors import CapacityError, InfeasibleError, InputError, NotConvexError
from .hypergraph import Hypergraph, _popcount, _submasks, require_connected

CONVEXITY_CAP = 10
BRUTE_FORCE_CAP = 6
# A table value may have at most VALUE_DIGITS_CAP digits and a decimal
# exponent of magnitude at most VALUE_EXPONENT_CAP, checked before `Fraction`
# parses it.  Its numerator and denominator then have at most 350 digits, so
# a coordinate, a sum of at most CONVEXITY_CAP + 1 values, prints far below
# the interpreter's 4,300-digit limit on converting an int to a string.
VALUE_DIGITS_CAP = 200
VALUE_EXPONENT_CAP = 150


class CooperativeGame:
    """Nonnegative coalition values on every nonempty subset; value(empty)=0.

    A value is stored as an `int` when it is integral, else as a `Fraction`.
    """

    __slots__ = ("ground", "values", "name")

    def __init__(self, ground, values, name="table"):
        self.ground = tuple(ground)
        self.name = name
        full = (1 << len(self.ground)) - 1
        vals = {}
        for mask, val in values.items():
            val = Fraction(val)
            if val < 0:
                raise InputError("game values must be nonnegative")
            vals[mask] = val.numerator if val.denominator == 1 else val
        for mask in _submasks(full):
            if mask not in vals:
                raise InputError("game value missing for a coalition")
        self.values = vals

    def value(self, mask: int):
        if mask == 0:
            return 0
        return self.values[mask]

    def to_json(self) -> dict:
        if self.name in ("pow3", "loday"):
            return {"type": self.name}
        pos = {i: v for i, v in enumerate(self.ground)}
        table = {}
        for mask, val in sorted(self.values.items()):
            key = ",".join(sorted(pos[i] for i in range(len(self.ground)) if mask >> i & 1))
            table[key] = str(val)
        return {"type": "table", "values": table}


def builtin_game(name: str, ground) -> CooperativeGame:
    ground = tuple(ground)
    full = (1 << len(ground)) - 1
    if name == "pow3":
        rule = lambda k: 3 ** k
    elif name == "loday":
        rule = lambda k: k * (k + 1) // 2
    else:
        raise InputError(f"unknown builtin game {name!r}")
    values = {m: rule(_popcount(m)) for m in _submasks(full)}
    return CooperativeGame(ground, values, name=name)


def additive_game(ground) -> CooperativeGame:
    """value(I) = |I|; convex but nowhere strictly (the standard non-example)."""
    ground = tuple(ground)
    full = (1 << len(ground)) - 1
    return CooperativeGame(ground, {m: _popcount(m) for m in _submasks(full)})


def game_from_json(data, ground) -> CooperativeGame:
    if not isinstance(data, dict):
        raise InputError("game JSON must be an object")
    kind = data.get("type")
    if kind in ("pow3", "loday"):
        return builtin_game(kind, ground)
    if kind != "table":
        raise InputError(f"unknown game type {kind!r}")
    ground = tuple(ground)
    pos = {v: i for i, v in enumerate(ground)}
    table = data.get("values")
    if not isinstance(table, dict):
        raise InputError("a table game needs a 'values' object")
    values = {}
    for key, val in table.items():
        labels = [k for k in key.split(",") if k]
        mask = 0
        for lab in labels:
            if lab not in pos:
                raise InputError(f"unknown player {lab!r} in game table")
            mask |= 1 << pos[lab]
        if isinstance(val, (bool, float)):
            raise InputError(
                f"game value {val!r} of {key!r} must be an integer or a string "
                'such as "1/10"'
            )
        _require_value_size(val, key)
        try:
            values[mask] = Fraction(val)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise InputError(f"game value {val!r} of {key!r} is not a number") from None
    return CooperativeGame(ground, values)


def _require_value_size(val, key):
    """Reject a table value over the digit or exponent cap, reading only its
    digits, so that no huge number is ever built."""
    if isinstance(val, int):
        if abs(val) >= 10**VALUE_DIGITS_CAP:
            raise InputError(f"game value of {key!r} has more than {VALUE_DIGITS_CAP} digits")
        return
    if not isinstance(val, str):
        return  # `Fraction` rejects it
    if sum(ch.isdecimal() for ch in val) > VALUE_DIGITS_CAP:
        raise InputError(f"game value of {key!r} has more than {VALUE_DIGITS_CAP} digits")
    _, _, exponent = val.lower().partition("e")
    digits = "".join(ch for ch in exponent if ch.isdecimal())
    if digits and int(digits) > VALUE_EXPONENT_CAP:
        raise InputError(
            f"game value {val!r} of {key!r} has an exponent beyond {VALUE_EXPONENT_CAP}"
        )


def is_strictly_convex(g: CooperativeGame) -> bool:
    """value(X∪Y) >= value(X)+value(Y)-value(X∩Y), strict unless nested.

    Checked on local second differences (Shapley, "Cores of convex games"):
    v(S+i+j) - v(S+i) - v(S+j) + v(S) > 0 for every S and every pair i < j
    outside S, in O(n^2 2^n).  For nested X, Y the two sides are equal; for
    any other pair the gap is a sum of |X-Y|*|Y-X| local terms, so the
    local test is equivalent to the pairwise one.
    """
    n = len(g.ground)
    if n > CONVEXITY_CAP:
        raise CapacityError(f"convexity check capped at {CONVEXITY_CAP} players")
    v = [g.value(m) for m in range(1 << n)]
    for s, vs in enumerate(v):
        outside = [1 << i for i in range(n) if not s >> i & 1]
        for a, i in enumerate(outside):
            vi = v[s | i] - vs
            for j in outside[a + 1 :]:
                if v[s | i | j] - v[s | j] - vi <= 0:
                    return False
    return True


class HRepresentation:
    """One lower-bound inequality per proper saturated hyperedge plus the
    efficiency equality on the full ground set."""

    __slots__ = ("ground", "inequalities", "equality")

    def __init__(self, ground, inequalities, equality):
        self.ground = tuple(ground)
        self.inequalities = tuple(inequalities)
        self.equality = equality

    def is_feasible(self, point) -> bool:
        """Every constraint holds at `point`; the coalition sums come from one
        subset-sum table of 2^n additions."""
        sums = [0]
        for x in point:
            sums += [s + x for s in sums]
        full_mask, total = self.equality
        if sums[full_mask] != total:
            return False
        return all(sums[m] >= b for m, b in self.inequalities)

    def to_json(self, h: Hypergraph) -> dict:
        return {
            "ground": list(self.ground),
            "inequalities": [
                {"coalition": list(h.labels_of(m)), "bound": str(b)}
                for m, b in self.inequalities
            ],
            "equality": {
                "coalition": list(self.ground),
                "value": str(self.equality[1]),
            },
        }


def core_hrep(h: Hypergraph, g: CooperativeGame) -> HRepresentation:
    require_connected(h)
    if tuple(g.ground) != h.vertices:
        raise InputError("game ground set must match the hypergraph vertices")
    if not is_strictly_convex(g):
        raise NotConvexError("core realization requires a strictly convex game")
    full = h.ground_mask
    inequalities = [
        (m, g.value(m)) for m in h.saturation_masks() if m != full
    ]
    return HRepresentation(h.vertices, inequalities, (full, g.value(full)))


def construct_face_support(c: Construct) -> tuple:
    """The nested set of `c` (the tight coalitions), largest tubes first."""
    return tuple(sorted(tubes(c), key=lambda m: (-_popcount(m), m)))


class Realization:
    """Vertex map of the core polytope plus its verification report."""

    __slots__ = ("hypergraph", "game", "hrep", "vertex_map")

    def __init__(self, hypergraph, game, hrep, vertex_map):
        self.hypergraph = hypergraph
        self.game = game
        self.hrep = hrep
        self.vertex_map = vertex_map

    def points(self) -> set:
        return set(self.vertex_map.values())

    def to_json(self) -> dict:
        h = self.hypergraph
        verts = []
        for c, point in sorted(self.vertex_map.items(), key=lambda kv: kv[0].sort_key()):
            verts.append(
                {
                    "construct": c.to_json(h),
                    "coordinates": [str(x) for x in point],
                }
            )
        return {
            "ground": list(h.vertices),
            "game": self.game.to_json(),
            "h_representation": self.hrep.to_json(h),
            "vertices": verts,
        }


def realize(h: Hypergraph, g: CooperativeGame) -> Realization:
    """Solve the tight-coalition system of every rank-0 construct exactly.

    Each point is checked against the full H-representation and the points
    are checked pairwise distinct; either failure signals a convexity or
    saturation bug and raises.
    """
    hrep = core_hrep(h, g)
    n = len(h)
    vertex_map = {}
    for c in vertex_constructs(h):
        coords = [None] * n
        _solve_tight(c, g, coords)
        point = tuple(coords)
        if not hrep.is_feasible(point):
            raise InfeasibleError(
                f"tight-system solution violates the core constraints: {point}"
            )
        vertex_map[c] = point
    points = list(vertex_map.values())
    if len(set(points)) != len(points):
        raise InfeasibleError("realized vertices are not pairwise distinct")
    return Realization(h, g, hrep, vertex_map)


def _solve_tight(c: Construct, g: CooperativeGame, coords):
    """x at a node = value(subtree union) - sum of child subtree values."""
    total = g.value(c.subtree_union)
    for child in c.children:
        total -= g.value(child.subtree_union)
        _solve_tight(child, g, coords)
    coords[c.decoration.bit_length() - 1] = total


def brute_force_vertices(hrep: HRepresentation) -> tuple:
    """Independent vertex oracle: solve every (n-1)-subset of inequalities
    together with the efficiency equality, keep feasible solutions."""
    n = len(hrep.ground)
    require_brute_force_size(n)
    rows_all = [(m, b) for m, b in hrep.inequalities]
    eq_mask, eq_val = hrep.equality
    found = set()
    for combo in itertools.combinations(rows_all, n - 1):
        system = list(combo) + [(eq_mask, eq_val)]
        point = _solve_square(system, n)
        if point is not None and hrep.is_feasible(point):
            found.add(point)
    return tuple(sorted(found))


def require_brute_force_size(n: int):
    """Raise CapacityError if `brute_force_vertices` refuses n players."""
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force capped at {BRUTE_FORCE_CAP} players")


def _solve_square(rows, n):
    """Fraction-free (Bareiss) Gauss-Jordan elimination; None when singular.

    The right-hand side is scaled by the LCM of its denominators, so every
    entry is an int and each step divides exactly by the previous pivot.
    At the end every diagonal entry is the last pivot, the determinant up
    to the sign of the row swaps, and x_i is row i's last entry over that
    pivot times the scale."""
    scale = math.lcm(*(b.denominator for _, b in rows))
    mat = [[mask >> j & 1 for j in range(n)] + [b.numerator * (scale // b.denominator)]
           for mask, b in rows]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col]), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        top = mat[col]
        pv = top[col]
        for r, row in enumerate(mat):
            if r != col:
                f = row[col]
                mat[r] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
    return tuple(Fraction(mat[i][n], prev * scale) for i in range(n))
