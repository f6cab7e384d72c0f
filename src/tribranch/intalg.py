"""Exact integer linear algebra: invariant factors, determinants and cokernels.

All arithmetic is over Python's arbitrary-precision integers; no float or
fixed-width path exists anywhere in this module, because the homology
certificates built on top of it cannot be tolerance-based.

``invariant_factors`` computes the invariant factors s_1 | s_2 | ... of a
matrix A, which is all ``cokernel`` needs.  One fraction-free (Bareiss) pass
gives the rank r of A and a nonzero r x r minor D; ``IntMatrix.det`` is the
same pass.  The matrix is then diagonalised over Z/DZ, where its entries stay
below D (H. Cohen, A Course in Computational Algebraic Number Theory, 2.4;
Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987).  This is exact:

- every r x r minor is a multiple of s_1 ... s_r, so each nonzero s_i
  divides D and is gcd(s_i, D), which the diagonal over Z/DZ determines;
- the rank is exact, so the zero factors s_{r+1}, ... (0 mod D, like D
  itself) are never read as D.

``smith_normal_form`` (with its unimodular transforms U and V, pivots of
smallest absolute value in row-major order) and ``determinantal_divisors``
(gcds of all k x k minors) are test oracles.  They stay in this module
because the benchmark harness in ``perfbench/`` looks them up by name.
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
        """Determinant: sign * D from :func:`_fraction_free` at full rank, else 0."""
        if self.rows != self.cols:
            raise TribranchError("determinant of a non-square matrix")
        rank, sign, minor = _fraction_free(self.entries)
        return sign * minor if rank == self.rows else 0

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


def _fraction_free(rows) -> tuple:
    """Rank r, row-swap sign and last pivot D of one Bareiss elimination.

    Columns are taken left to right and a column with no pivot is skipped.
    After each step the entries left are minors of the matrix (Bareiss, Math.
    Comp. 22, 1968), so the division is exact and D is the nonzero r x r
    minor on the pivot rows and columns; D is 1 when r = 0.
    """
    block = [list(row) for row in rows]
    rank, sign, minor = 0, 1, 1
    while block and block[0]:
        k = next((i for i, row in enumerate(block) if row[0]), None)
        if k is None:
            block = [row[1:] for row in block]
            continue
        if k:
            block[0], block[k] = block[k], block[0]
            sign = -sign
        top = block[0]
        p, tail = top[0], top[1:]
        block = [[(x * p - row[0] * y) // minor for x, y in zip(row[1:], tail)]
                 for row in block[1:]]
        rank, minor = rank + 1, p
    return rank, sign, minor


def _bezout(a: int, b: int) -> tuple:
    """(g, x, y) with g = gcd(a, b) = x a + y b for a > 0, b >= 0.

    Whenever a divides b this is (a, 1, 0), so a pivot that already divides
    an entry keeps its row; Euclid's (a, 0, 1) for a = b would swap the two
    rows instead and the clearing would never end.
    """
    if b % a == 0:
        return a, 1, 0
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
    return a, x0, y0


def invariant_factors(a: IntMatrix) -> tuple:
    """The invariant factors s_1 | s_2 | ... of ``a``, min(rows, cols) of them.

    One :func:`_fraction_free` pass gives the rank r and a nonzero r x r
    minor D.  The matrix is diagonalised over Z/DZ by extended-gcd row steps;
    a pivot that does not divide its row is cleared the same way after a
    transpose, which keeps the invariant factors.  Each diagonal entry d
    stands for gcd(d, D), the positions left over for D, and gcd/lcm pairs
    sort these into a divisibility chain whose first r entries are s_1..s_r.
    """
    rank, _, d = _fraction_free(a.entries)
    d = abs(d)
    block = [[x % d for x in row] for row in a.entries]
    chain = []
    while True:
        pos = next(((i, j) for i, row in enumerate(block)
                    for j, x in enumerate(row) if x), None)
        if pos is None:
            break
        i, j = pos
        block[0], block[i] = block[i], block[0]
        for row in block:
            row[0], row[j] = row[j], row[0]
        while True:
            top = block[0]
            for i in range(1, len(block)):
                row = block[i]
                if row[0]:
                    g, x, y = _bezout(top[0], row[0])
                    u, v = row[0] // g, top[0] // g
                    block[i] = [(u * s - v * t) % d for s, t in zip(top, row)]
                    if y:
                        top = block[0] = [(x * s + y * t) % d for s, t in zip(top, row)]
            if not any(x % top[0] for x in top[1:]):
                break
            block = [list(col) for col in zip(*block)]
        chain.append(gcd(top[0], d))
        block = [row[1:] for row in block[1:]]
    chain += [d] * (min(a.rows, a.cols) - len(chain))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return tuple(chain[:rank]) + (0,) * (len(chain) - rank)


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
