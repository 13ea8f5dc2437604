"""Exact chain-complex verification and rational Betti numbers.

Boundaries are integer matrices (entries 0 and +-1 for the construct
complexes), stored as sparse columns.  Ranks come from column reduction
over unit pivots, top grade first, with clearing (Kaczynski-Mischaikow-Mrozek,
*Computational Homology*, 2004; Chen-Kerber, "Persistent homology computation
with a twist", 2011).  A grade whose reduction meets a leading entry other
than the int 1 or -1 is ranked by fraction-free (Bareiss) elimination
instead; Bareiss is also the oracle the tests compare against.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import InputError, ValidationError


class ChainComplex:
    """Graded basis label lists with one sparse boundary per positive grade.

    `columns[k-1][j]` is the boundary of basis element j of grade k: its
    nonzero entries as (row, value) pairs in increasing row order, rows
    indexing grade k-1.  Values are exact numbers (int or Fraction).  Dense
    matrices exist only for output: the `matrices` view and `to_json`.

    `ChainComplex(bases, matrices, tag)` takes dense matrices: `matrices[k-1]`
    maps grade k to grade k-1 and has shape len(bases[k-1]) x len(bases[k]);
    grade 0 has no outgoing boundary.
    """

    __slots__ = ("bases", "columns", "tag")

    def __init__(self, bases, matrices, tag=None):
        bases = [list(b) for b in bases]
        matrices = [[list(row) for row in mat] for mat in matrices]
        if len(matrices) != max(len(bases) - 1, 0):
            raise ValidationError("one boundary matrix per positive grade")
        columns = []
        for k, mat in enumerate(matrices, start=1):
            num_cols = len(bases[k])
            if len(mat) != len(bases[k - 1]) or any(len(r) != num_cols for r in mat):
                raise ValidationError(f"matrix shape mismatch in grade {k}")
            kinds = set()
            for row in mat:
                kinds.update(map(type, row))
            if not all(issubclass(t, Rational) for t in kinds):
                raise ValidationError(f"inexact matrix entry in grade {k}")
            columns.append([
                [(i, row[j]) for i, row in enumerate(mat) if row[j]]
                for j in range(num_cols)
            ])
        self.bases = bases
        self.columns = columns
        self.tag = tag or {}

    @classmethod
    def from_columns(cls, bases, columns, tag=None) -> "ChainComplex":
        """Complex over the given column store, taken as is (no copy, no
        checks).  `bases` may be any per-grade sequences: only their lengths
        enter the ranks, so `pipeline` ranks the construct lists themselves
        and formats labels only for a complex it prints."""
        c = cls.__new__(cls)
        c.bases = bases
        c.columns = columns
        c.tag = tag or {}
        return c

    @property
    def matrices(self) -> list:
        """Dense boundary matrices, built afresh on each access."""
        return [
            dense(grade, len(self.bases[k])) for k, grade in enumerate(self.columns)
        ]

    def dims(self):
        return [len(b) for b in self.bases]

    def f_vector(self):
        return tuple(self.dims())

    def euler_characteristic(self):
        return sum((-1) ** k * d for k, d in enumerate(self.dims()))

    def to_json(self, degree=None) -> dict:
        """Every basis and the dense boundary of each positive grade, or only
        that of grade `degree` when given; only printed grades are made
        dense."""
        return {
            "tag": self.tag,
            "grades": [
                {"rank": k, "basis": list(map(str, b))}
                for k, b in enumerate(self.bases)
            ],
            "matrices": {
                str(k): [
                    [str(x) for x in row]
                    for row in dense(self.columns[k - 1], len(self.bases[k - 1]))
                ]
                for k in self._degrees(degree)
            },
        }

    def to_triplets(self, degree=None) -> str:
        """Sparse text form: one `grade row col value` line per entry, read
        row by row off the sparse columns; only grade `degree` when given."""
        lines = []
        for k in self._degrees(degree):
            rows = _sparse_rows(self.columns[k - 1], len(self.bases[k - 1]))
            for i, row in enumerate(rows):
                lines.extend(f"{k} {i} {j} {x}" for j, x in row.items())
        return "\n".join(lines)

    def _degrees(self, degree) -> range:
        """The grades with a boundary, or just `degree`; InputError when
        grade `degree` has none."""
        every = range(1, len(self.columns) + 1)
        if degree is None:
            return every
        if degree not in every:
            raise InputError(f"no boundary in degree {degree}")
        return range(degree, degree + 1)


def dense(columns, num_rows: int) -> list:
    """Dense row-major matrix of a list of columns of (row, value) pairs."""
    cols = range(len(columns))
    return [[row.get(j, 0) for j in cols] for row in _sparse_rows(columns, num_rows)]


def verify_complex(c: ChainComplex) -> bool:
    """All composites of consecutive boundaries are exactly zero."""
    for lower, upper in zip(c.columns, c.columns[1:]):
        for column in upper:
            acc = {}
            for t, u in column:
                for i, v in lower[t]:
                    acc[i] = acc.get(i, 0) + u * v
            if any(acc.values()):
                return False
    return True


def exact_rank(matrix) -> int:
    """Rank of a dense matrix of exact numbers; see `_rank`."""
    return _rank([{j: x for j, x in enumerate(row) if x} for row in matrix])


def _rank(rows) -> int:
    """Fraction-free (Bareiss) integer elimination on sparse rows, each a
    dict from column to exact nonzero value: the fallback of
    `boundary_ranks` for a grade without unit pivots, and the oracle the
    tests hold the unit reduction to.

    Columns are taken in increasing order, each pivoting on the first
    remaining row with a nonzero entry.  Every surviving row is rescaled
    each step so the one-step divisions stay exact."""
    rows = [_integer_row(row) for row in rows]
    rank = 0
    prev_pivot = 1
    row_order = list(range(len(rows)))
    for col in sorted(set().union(*rows)):
        pivot_row = None
        for idx in row_order:
            if rows[idx].get(col):
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        row_order.remove(pivot_row)
        pivot = rows[pivot_row][col]
        prow = rows[pivot_row]
        for idx in row_order:
            target = rows[idx]
            entry = target.get(col, 0)
            new_row = {}
            if entry:
                for j in set(target) | set(prow):
                    if j <= col:
                        continue
                    val = target.get(j, 0) * pivot - entry * prow.get(j, 0)
                    if val:
                        new_row[j] = val // prev_pivot
            else:
                for j, val in target.items():
                    if j > col:
                        new_row[j] = val * pivot // prev_pivot
            rows[idx] = new_row
        prev_pivot = pivot
        rank += 1
    return rank


def _integer_row(row: dict) -> dict:
    """Sparse row scaled to integers; denominators are cleared only for
    rows holding entries that are not `int`."""
    if all(type(x) is int for x in row.values()):
        return row
    denom = lcm(*(Fraction(x).denominator for x in row.values()))
    return {j: int(Fraction(x) * denom) for j, x in row.items()}


def _sparse_rows(columns, num_rows: int) -> list:
    """Transpose of a list of columns of (row, value) pairs, as sparse rows."""
    rows = [{} for _ in range(num_rows)]
    for j, column in enumerate(columns):
        for i, value in column:
            rows[i][j] = value
    return rows


def _unit_pivots(columns, cleared=frozenset()):
    """Reduce each column, in order, against the reduced columns before it.

    Returns the reduced nonzero columns as dicts keyed by their lowest
    (largest) row, or None as soon as a lowest entry is not the int 1 or
    -1.  Every stored pivot is thus a unit, and `col -= (col[low] *
    p[low]) * p` clears `col[low]` exactly.  Columns whose index is in
    `cleared` are skipped."""
    pivots = {}
    for j, column in enumerate(columns):
        if not column or j in cleared:
            continue
        col = dict(column)
        low = column[-1][0]
        while low in pivots:
            p = pivots[low]
            m = col[low] * p[low]
            for i, v in p.items():
                x = col.get(i, 0) - m * v
                if x:
                    col[i] = x
                else:
                    del col[i]
            if not col:
                break
            low = max(col)
        else:
            x = col[low]
            if type(x) is not int or x not in (1, -1):
                return None
            pivots[low] = col
    return pivots


def boundary_ranks(c: ChainComplex) -> list:
    """(rank, path) of each boundary, grade 1 first, where path names how
    the rank was certified: "unit" or "bareiss".

    Grades are reduced from the top down.  In grade k the columns indexed
    by a pivot row of grade k+1 are cleared (skipped): once d^2 = 0 is
    verified, such a column is an integer combination of the other
    columns, so it changes neither the rank nor the column lattice.  A
    grade ranked by Bareiss leaves no pivots, so the grade below it runs
    without clearing.  In an integer complex, unit pivots in a grade make
    its boundary's Smith form diag(1, ..., 1, 0, ...), so integral
    homology has no torsion there."""
    if not verify_complex(c):
        raise InputError("ranks of an unverified complex")
    dims = c.dims()
    ranks = [None] * len(c.columns)
    cleared = frozenset()
    for k in reversed(range(len(c.columns))):
        grade = c.columns[k]
        pivots = _unit_pivots(grade, cleared)
        if pivots is None:
            ranks[k] = (_rank(_sparse_rows(grade, dims[k])), "bareiss")
            cleared = frozenset()
        else:
            ranks[k] = (len(pivots), "unit")
            cleared = pivots.keys()
    return ranks


def betti(c: ChainComplex) -> tuple:
    """dim ker - rank of the incoming boundary, per grade."""
    ranks = [0] + [rank for rank, _ in boundary_ranks(c)] + [0]
    return tuple(d - ranks[k] - ranks[k + 1] for k, d in enumerate(c.dims()))


def euler_poincare_check(c: ChainComplex) -> bool:
    b = betti(c)
    return c.euler_characteristic() == sum((-1) ** k * x for k, x in enumerate(b))


def diamond_sign_check(poset, signs):
    """Two-path sign cancellation over every length-2 interval.

    `signs` gives the +-1 sign of each covering pair of the face poset; the
    bottom face is exempt.  It is either a mapping keyed by the pairs
    (lower_index, upper_index), which must name every pair, or, as
    `model check` builds it from its columns, one sequence per face
    `signs[upper]` aligned with `poset.lower_covers(upper)`, empty for
    the rank-0 faces.  Returns (ok, witness)."""
    if isinstance(signs, Mapping):
        for low, high in poset.covers:
            if low != poset.bottom and (low, high) not in signs:
                raise InputError(f"missing sign on cover {(low, high)}")
        signs = [
            [signs[low, high] for low in poset.lower_covers(high) if low != poset.bottom]
            for high in range(poset.bottom)
        ]
    down = poset.lower_covers
    for i, a, b, tops in poset.length_two_intervals():
        via_a = signs[a][down(a).index(i)]
        via_b = signs[b][down(b).index(i)]
        for d in tops:
            below = down(d)
            if signs[d][below.index(a)] * via_a + signs[d][below.index(b)] * via_b:
                return False, (i, a, b, d)
    return True, None
