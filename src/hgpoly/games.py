"""Cooperative games, strict convexity, and exact core realizations.

Everything here is exact rational arithmetic over `fractions.Fraction`;
floating point is banned because the power game grows like 3^n and the
verification contracts are zero-tolerance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .constructs import Construct, graded_constructs, tubes
from .errors import CapacityError, InfeasibleError, InputError, NotConvexError
from .hypergraph import Hypergraph, _popcount, _submasks, require_connected

CONVEXITY_CAP = 10
BRUTE_FORCE_CAP = 6


class CooperativeGame:
    """Nonnegative coalition values on every nonempty subset; value(empty)=0."""

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
            vals[mask] = val
        for mask in _submasks(full):
            if mask not in vals:
                raise InputError("game value missing for a coalition")
        self.values = vals

    def value(self, mask: int) -> Fraction:
        if mask == 0:
            return Fraction(0)
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
        rule = lambda k: Fraction(3) ** k
    elif name == "loday":
        rule = lambda k: Fraction(k * (k + 1), 2)
    else:
        raise InputError(f"unknown builtin game {name!r}")
    values = {m: rule(_popcount(m)) for m in _submasks(full)}
    return CooperativeGame(ground, values, name=name)


def additive_game(ground) -> CooperativeGame:
    """value(I) = |I|; convex but nowhere strictly (the standard non-example)."""
    ground = tuple(ground)
    full = (1 << len(ground)) - 1
    return CooperativeGame(ground, {m: Fraction(_popcount(m)) for m in _submasks(full)})


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
        try:
            values[mask] = Fraction(val)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"game value {val!r} of {key!r} is not a number") from None
    return CooperativeGame(ground, values)


def is_strictly_convex(g: CooperativeGame) -> bool:
    """value(X∪Y) >= value(X)+value(Y)-value(X∩Y), strict unless nested."""
    n = len(g.ground)
    if n > CONVEXITY_CAP:
        raise CapacityError(f"convexity check capped at {CONVEXITY_CAP} players")
    full = (1 << n) - 1
    masks = list(_submasks(full))
    for x in masks:
        for y in masks:
            lhs = g.value(x | y) + g.value(x & y)
            rhs = g.value(x) + g.value(y)
            if x & y == x or x & y == y:
                if lhs < rhs:
                    return False
            elif lhs <= rhs:
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
        full_mask, total = self.equality
        if _dot(full_mask, point) != total:
            return False
        return all(_dot(m, point) >= b for m, b in self.inequalities)

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


def _dot(mask: int, point) -> Fraction:
    total = Fraction(0)
    i = 0
    while mask:
        if mask & 1:
            total += point[i]
        mask >>= 1
        i += 1
    return total


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
    for c in graded_constructs(h)[0]:
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
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force capped at {BRUTE_FORCE_CAP} players")
    rows_all = [(m, b) for m, b in hrep.inequalities]
    eq_mask, eq_val = hrep.equality
    found = set()
    for combo in itertools.combinations(rows_all, n - 1):
        system = list(combo) + [(eq_mask, eq_val)]
        point = _solve_square(system, n)
        if point is not None and hrep.is_feasible(point):
            found.add(point)
    return tuple(sorted(found))


def _solve_square(rows, n):
    """Exact Gaussian elimination; None when singular."""
    mat = [[Fraction(1) if mask >> j & 1 else Fraction(0) for j in range(n)] + [b]
           for mask, b in rows]
    for col in range(n):
        pivot = None
        for r in range(col, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
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
