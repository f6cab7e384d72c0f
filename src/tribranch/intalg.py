"""Exact integer linear algebra: Smith normal form and cokernels.

All arithmetic is over Python's arbitrary-precision integers; intermediate
entry growth during the reduction is well known and no float or fixed-width
path exists anywhere in this module, because the homology certificates built
on top of it cannot be tolerance-based.

Pivots are chosen as the smallest nonzero absolute value, ties broken in
row-major order, so outputs are deterministic.

``cokernel`` needs only the invariant factors.  It takes them from
``invariant_factors``, which runs the elimination of ``smith_normal_form``
without the unimodular transforms U and V; their entries grow far beyond
those of the diagonalised matrix (to about 40,000 bits at rank 60).
``smith_normal_form`` keeps U and V for callers that need them and, with
``determinantal_divisors``, serves as the test oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd

from .errors import TribranchError


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise TribranchError("matrix dimensions do not match the entry grid")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        n_rows = len(entries)
        n_cols = len(entries[0]) if entries else 0
        return IntMatrix(n_rows, n_cols, entries)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise TribranchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                )
            out.append(row)
        return IntMatrix.from_rows(out) if out else IntMatrix(0, other.cols, ())

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise TribranchError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def to_json(self) -> list:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization U * A * V = S with unimodular U, V.

    The diagonal of S carries the invariant factors d_1 | d_2 | ... with
    d_i >= 0 and trailing zeros allowed; ``invariant_factors`` lists the
    whole diagonal.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    invariant_factors: tuple


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforming matrices, exactly over the integers."""
    m, n = a.rows, a.cols
    s = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    def pick_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pick_pivot(t)
        if pos is None:
            break
        while True:
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            if s[t][t] < 0:
                negate_row(t)
            # Clear the edging below and to the right of the pivot.
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    add_row(i, t, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    add_col(j, t, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                pos = pick_pivot(t)
                continue
            # Enforce divisibility: fold any non-multiple into the pivot row.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
            pos = pick_pivot(t)
        t += 1

    factors = tuple(s[i][i] for i in range(min(m, n)))
    return SnfResult(
        u=IntMatrix.from_rows(u) if m else IntMatrix(0, 0, ()),
        s=IntMatrix.from_rows(s) if m else IntMatrix(0, n, ()),
        v=IntMatrix.from_rows(v) if n else IntMatrix(0, 0, ()),
        invariant_factors=factors,
    )


def _smallest_entry(block):
    """(row, column) of the first smallest nonzero |entry| in row-major order."""
    best, where = 0, None
    for i, row in enumerate(block):
        low = min(filter(None, map(abs, row)), default=0)
        if low and (where is None or low < best):
            best = low
            where = (i, next(j for j, x in enumerate(row) if abs(x) == low))
            if low == 1:
                return where
    return where


def invariant_factors(a: IntMatrix) -> tuple:
    """The diagonal of :func:`smith_normal_form`, without U and V.

    The elimination is the same step for step (smallest pivot in row-major
    order, the same edge clearing, the same divisibility fold), so the
    diagonal is identical.  A finished pivot's row and column are zero
    elsewhere, so they are dropped and the work goes on in the block left.
    """
    block = [list(row) for row in a.entries]
    factors = []
    while block and block[0]:
        pos = _smallest_entry(block)
        if pos is None:
            break
        while True:
            i, j = pos
            block[0], block[i] = block[i], block[0]
            if j:
                for row in block:
                    row[0], row[j] = row[j], row[0]
            if block[0][0] < 0:
                block[0] = [-x for x in block[0]]
            top = block[0]
            p = top[0]
            # Clear the edging: rows first, then columns, as in
            # smith_normal_form.  Each step subtracts a multiple of the
            # pivot row or column, which no other step changes.
            for r in range(1, len(block)):
                q = block[r][0] // p
                if q:
                    block[r] = [x - q * y for x, y in zip(block[r], top)]
            quotients = [0] + [x // p for x in top[1:]]
            if any(quotients):
                for r, row in enumerate(block):
                    if row[0]:
                        block[r] = [x - q * row[0] for x, q in zip(row, quotients)]
            if not any(row[0] for row in block[1:]) and not any(block[0][1:]):
                # Enforce divisibility: fold the first non-multiple's row in.
                offender = next((row for row in block[1:]
                                 if p != 1 and any(x % p for x in row)), None)
                if offender is None:
                    break
                block[0] = [x + y for x, y in zip(block[0], offender)]
            pos = _smallest_entry(block)
        factors.append(p)
        block = [row[1:] for row in block[1:]]
    return tuple(factors) + (0,) * (min(a.rows, a.cols) - len(factors))


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^free_rank + sum of Z/d cyclic parts.

    ``torsion`` lists the cyclic orders >= 2 in divisibility order.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise TribranchError(f"torsion {self.torsion} not in divisibility order")
        if any(d < 2 for d in self.torsion):
            raise TribranchError("torsion orders must be >= 2")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def invariant_factor_form(self) -> list:
        """Torsion orders in divisibility order, one 0 per free summand."""
        return list(self.torsion) + [0] * self.free_rank

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "invariant_factors": self.invariant_factor_form(),
        }


def cokernel(a: IntMatrix) -> AbelianGroup:
    """The cokernel of the map Z^cols -> Z^rows given by ``a``."""
    nonzero = [d for d in invariant_factors(a) if d != 0]
    return AbelianGroup(
        free_rank=a.rows - len(nonzero),
        torsion=tuple(d for d in nonzero if d > 1),
    )


def fits_str_limit(x: int) -> bool:
    """Whether ``str(x)`` stays within Python's int-to-str digit limit.

    The limit came with Python 3.10.7; before it, every integer fits.
    Below 8 ** limit no power of ten needs to be built.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or abs(x).bit_length() <= 3 * limit or abs(x) < 10 ** limit


def min_generators(g: AbelianGroup) -> int:
    """Minimal number of generators: free rank plus torsion summand count."""
    return g.free_rank + len(g.torsion)


def determinantal_divisors(a: IntMatrix) -> list:
    """gcds D_k of all k x k minors, k = 1..min(rows, cols).

    Independent of any reduction: minors are enumerated directly.  Useful as
    an oracle because the invariant factors are the ratios D_k / D_{k-1}.
    """
    from itertools import combinations

    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows(
                    [[a.entries[i][j] for j in cols] for i in rows]
                )
                g = gcd(g, sub.det())
        out.append(abs(g))
    return out
