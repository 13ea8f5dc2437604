"""Exact chain-complex verification and rational Betti numbers.

Boundary matrices are integer matrices (entries 0 and +-1 for the construct
complexes); ranks come from fraction-free Gaussian elimination over the
integers with deterministic pivoting (first nonzero row in basis order), so
intermediate dumps are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from numbers import Rational

from .errors import InputError, ValidationError


class ChainComplex:
    """Graded basis label lists with one boundary matrix per positive grade.

    `matrices[k]` maps grade k to grade k-1 and has shape
    len(bases[k-1]) x len(bases[k]); grade 0 has no outgoing boundary.
    Entries are kept as given and must be exact numbers (int or Fraction).
    """

    __slots__ = ("bases", "matrices", "tag")

    def __init__(self, bases, matrices, tag=None):
        self.bases = [list(b) for b in bases]
        self.matrices = [[list(row) for row in mat] for mat in matrices]
        self.tag = tag or {}
        if len(self.matrices) != max(len(self.bases) - 1, 0):
            raise ValidationError("one boundary matrix per positive grade")
        for k, mat in enumerate(self.matrices, start=1):
            rows = len(self.bases[k - 1])
            cols = len(self.bases[k])
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValidationError(f"matrix shape mismatch in grade {k}")
            kinds = set()
            for row in mat:
                kinds.update(map(type, row))
            if not all(issubclass(t, Rational) for t in kinds):
                raise ValidationError(f"inexact matrix entry in grade {k}")

    def dims(self):
        return [len(b) for b in self.bases]

    def f_vector(self):
        return tuple(self.dims())

    def euler_characteristic(self):
        return sum((-1) ** k * d for k, d in enumerate(self.dims()))

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "grades": [
                {"rank": k, "basis": list(map(str, b))}
                for k, b in enumerate(self.bases)
            ],
            "matrices": {
                str(k): [[str(x) for x in row] for row in mat]
                for k, mat in enumerate(self.matrices, start=1)
            },
        }

    def to_triplets(self) -> str:
        """Sparse text form: one `grade row col value` line per entry."""
        lines = []
        for k, mat in enumerate(self.matrices, start=1):
            for i, row in enumerate(mat):
                for j, x in enumerate(row):
                    if x:
                        lines.append(f"{k} {i} {j} {x}")
        return "\n".join(lines)


def _column_sparse(matrix):
    cols = [{} for _ in range(len(matrix[0]) if matrix else 0)]
    for i, row in enumerate(matrix):
        for j in compress(range(len(row)), row):
            cols[j][i] = row[j]
    return cols


def verify_complex(c: ChainComplex) -> bool:
    """All composites of consecutive boundaries are exactly zero."""
    for k in range(1, len(c.matrices)):
        if not c.matrices[k - 1]:
            continue
        lower_cols = _column_sparse(c.matrices[k - 1])
        for column in _column_sparse(c.matrices[k]):
            acc = {}
            for t, u in column.items():
                for i, v in lower_cols[t].items():
                    acc[i] = acc.get(i, 0) + u * v
            if any(acc.values()):
                return False
    return True


def exact_rank(matrix) -> int:
    """Fraction-free (Bareiss) integer elimination on sparse rows.

    Pivot choice is deterministic: columns in basis order, first remaining
    row with a nonzero entry.  Every surviving row is rescaled each step so
    the one-step divisions stay exact."""
    if not matrix or not matrix[0]:
        return 0
    rows = [_integer_row(row) for row in matrix]
    rank = 0
    prev_pivot = 1
    ncols = len(matrix[0])
    row_order = list(range(len(rows)))
    for col in range(ncols):
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


def _integer_row(row) -> dict:
    """Sparse row scaled to integers; denominators are cleared only for
    rows holding nonzero entries that are not `int`."""
    sparse = {j: row[j] for j in compress(range(len(row)), row)}
    if all(type(x) is int for x in sparse.values()):
        return sparse
    denom = lcm(*(Fraction(x).denominator for x in sparse.values()))
    return {j: int(Fraction(x) * denom) for j, x in sparse.items()}


def betti(c: ChainComplex) -> tuple:
    """dim ker - rank of the incoming boundary, per grade."""
    if not verify_complex(c):
        raise InputError("betti numbers of an unverified complex")
    dims = c.dims()
    ranks = [exact_rank(m) for m in c.matrices]
    out = []
    for k, d in enumerate(dims):
        below = ranks[k - 1] if k >= 1 else 0
        above = ranks[k] if k < len(ranks) else 0
        out.append(d - below - above)
    return tuple(out)


def euler_poincare_check(c: ChainComplex) -> bool:
    b = betti(c)
    return c.euler_characteristic() == sum((-1) ** k * x for k, x in enumerate(b))


def diamond_sign_check(poset, signs):
    """Two-path sign cancellation over every length-2 interval.

    `signs` maps covering pairs (lower_index, upper_index) of the face
    poset to +-1; the bottom face is exempt.  Returns (ok, witness)."""
    n = len(poset.faces)
    for low, high in poset.covers:
        if low != poset.bottom and (low, high) not in signs:
            raise InputError(f"missing sign on cover {(low, high)}")
    for i in range(n):
        ups = poset.upper_covers(i)
        for a_pos, a in enumerate(ups):
            for b in ups[a_pos + 1 :]:
                for d in set(poset.upper_covers(a)) & set(poset.upper_covers(b)):
                    total = (
                        signs[(a, d)] * signs[(i, a)]
                        + signs[(b, d)] * signs[(i, b)]
                    )
                    if total != 0:
                        return False, (i, a, b, d)
    return True, None
