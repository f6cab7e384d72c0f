"""Exact integer linear algebra: invariant factors, determinants and cokernels.

All arithmetic is over Python's arbitrary-precision integers; no float or
fixed-width path exists anywhere in this module, because the homology
certificates built on top of it cannot be tolerance-based.

``invariant_factors`` computes the invariant factors s_1 | s_2 | ... of a
matrix A, which is all ``cokernel`` needs.  Without A's zero rows and columns,
the +-1 entries are split off over Z first: each clears its column by row
steps, and its row and column go with one invariant factor 1 (Cohen, below).
One fraction-free (Bareiss) pass over what is left reads its rows in
order, drops the rows that vanish and stops once its pivots span all the
columns.  Once its last pivot has cleared a row, it tests each later row
against a basis of the pivot rows' kernel over Q, formed once by exact
back-substitution, and skips the rows in their span instead of reducing
them; the first row outside it is reduced, and the test ends.  The pass
gives the rank r, a nonzero r x r minor D and a modulus G: |D| itself at
full column rank, else the gcd of the last pivot row and of the rows that
pivot cleared.  ``IntMatrix.det`` is the same pass on the whole matrix,
which also reads the sign of D off the pivot columns.  The
rest is turned to its short side, no more rows than columns, and
diagonalised over Z/GZ, where its entries stay below G (H. Cohen, A Course
in Computational Algebraic Number Theory, 2.4; Domich, Kannan & Trotter,
Math. Oper. Res. 12, 1987).  Its unit pivots modulo G go first: the rows
are read in order, each stepped by the pivots found before it, and a
row's first entry prime to G becomes the next pivot; a row with none is
set aside until the later pivots have stepped it too.  Only the set-aside
rows, on the columns that hold no pivot, go through the extended-gcd
loop, where a pivot that does not divide its row takes an extended-gcd
column step; unit factors and G's skip the sort.  This is exact:

- a unit step is unimodular, so it keeps the cokernel, and after s of them
  every entry is an (s + 1) x (s + 1) minor of A divided by a pivot minor
  of +-1 (Sylvester's identity): no entry grows beyond what the Bareiss
  pass carries anyway;
- D and every entry G is the gcd of are r x r minors (Sylvester's
  identity again), and every r x r minor is a multiple of s_1 ... s_r, so
  G is too: each nonzero s_i divides G and is gcd(s_i, G), which the
  diagonal over Z/GZ determines;
- row and column steps with extended-gcd coefficients, and the transpose,
  keep the invariant factors;
- a unit pivot's row step adds a multiple of the pivot row to another row
  and scales none, so in pivot order the block becomes [[U, X], [0, R]]
  with U upper triangular and units on its diagonal modulo G; column steps
  by U's columns clear X without touching R, and U is invertible over
  Z/GZ, so the diagonal is a 1 for each pivot followed by R's;
- the rank is exact, so the zero factors s_{r+1}, ... (0 mod G, like G
  itself) are never read as G.

G divides D; where the rank falls short of the column count it is often
far smaller (README, "Cost of homology").  At full column rank the rows
after the last pivot could only bring G further down, and on the dense
presentations the benchmark draws they do not, so they are never read.
A row skipped by the kernel test would add only r x r minors to the gcd,
so G without it is still a multiple of s_1 ... s_r; it can be larger than
with it, never smaller, and the rank and D do not depend on it.

On a stabilized open book each boundary circle that stabilization added
brings a winding column with a unit, so the Bareiss pass and the pass
modulo G see the base page's presentation, not one more row per rung.

``smith_normal_form`` (with its unimodular transforms U and V, pivots of
smallest absolute value in row-major order) and ``determinantal_divisors``
(gcds of all k x k minors) are test oracles.  They stay in this module
because the benchmark harness in ``perfbench/`` looks them up by name.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import gcd
from operator import index, mul

from .errors import TribranchError


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """An immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise TribranchError("matrix dimensions do not match the entry grid")
        return tuple.__new__(cls, (rows, cols, entries))

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        """A matrix from outside input; an entry that is no ``operator.index`` is an error."""
        try:
            entries = tuple([tuple([index(x) for x in row]) for row in rows])
        except TypeError as err:
            raise TribranchError(f"matrix must be a grid of integers: {err}") from None
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

    def transpose(self) -> "IntMatrix":
        # Shaped directly: from_rows would read an r x 0 matrix's transpose as 0 x 0.
        return IntMatrix(self.cols, self.rows, tuple(
            [tuple([row[j] for row in self.entries]) for j in range(self.cols)]))

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
        rank, sign, minor, _ = _fraction_free(self.entries)
        return sign * minor if rank == self.rows else 0

    def to_json(self) -> list:
        return [list(row) for row in self.entries]


class SnfResult(namedtuple("SnfResult", "u s v invariant_factors")):
    """Diagonalization U * A * V = S with unimodular U, V (three IntMatrix).

    The diagonal of S carries the invariant factors d_1 | d_2 | ... with
    d_i >= 0 and trailing zeros allowed; ``invariant_factors`` is a tuple
    of the whole diagonal.
    """

    __slots__ = ()


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
    """Rank r, column-order sign, last pivot D and modulus G of a Bareiss pass.

    The rows are read in order and each is reduced by the pivot rows found
    before it with Bareiss' exact divisions (Math. Comp. 22, 1968): after k
    steps its entries are the (k + 1) x (k + 1) minors on the first k pivot
    rows, itself, the first k pivot columns and one more column.  A row left
    nonzero becomes the next pivot row at its first nonzero entry, so D is
    the nonzero r x r minor on the pivot rows and columns.  No row is
    swapped: the sign is (-1)^(sum of k), k being each pivot's position
    among the columns still free, so sign * D is the determinant of a
    square matrix of full rank.  Once r is the column count no later row
    is read and G = |D|, a nonzero r x r minor and so a multiple of the gcd
    of all of them.

    The first time a row is cleared by the last pivot so far, the pivot
    rows are likely to be all of them, and each later row x is tested
    instead of reduced (see :func:`_pivot_kernel`): x . v = 0 for every
    vector v of a basis of the pivot rows' kernel over Q means that x lies
    in their rational span, where the reduction would clear it, so x is
    skipped.  The first x that fails the test raises the rank; it is
    reduced as before, and the pass goes on without the test.  The test
    costs one back-substitution, O(r^2 (n - r)) for n columns, and
    O(n (n - r)) per row, against O(r n) to reduce a row.

    Short of full column rank G is the gcd of the last pivot row and of
    the rows that the last pivot reduced to zero, both before that step:
    each entry is an r x r minor (Sylvester's identity), so again G is a
    multiple of the gcd of all r x r minors, and it divides D.  A skipped
    row adds nothing to G, which can only make G larger than a pass that
    reduces every row.  D and G are 1 when r = 0.  A row that vanishes
    stays zero and is dropped; a row an earlier pivot cleared would add
    only zero minors to G.
    """
    pivots, sign, minor, kernel = [], 1, 1, None
    for row in rows:
        cols = len(row)
        if not cols:
            break
        if kernel:
            if not any(sum(map(mul, row, v)) for v in kernel):
                continue
            kernel = ()
        x, prev = list(row), 1
        for pos, p, tail in pivots:
            c = x.pop(pos)
            before, x = x, [(p * a - c * b) // prev for a, b in zip(x, tail)]
            if not any(x):
                # Cleared by the last pivot, not by an earlier one.
                if tail is last:
                    cleared = gcd(cleared, c, *before)
                    if kernel is None:
                        kernel = _pivot_kernel(pivots, cols)
                break
            prev = p
        else:
            pos = next((j for j, a in enumerate(x) if a), None)
            if pos is None:
                continue
            if pos % 2:
                sign = -sign
            minor = x.pop(pos)
            pivots.append((pos, minor, x))
            if len(pivots) == cols:
                return cols, sign, minor, abs(minor)
            last, cleared = x, abs(minor)
    return len(pivots), sign, minor, gcd(cleared, *last) if pivots else 1


def _pivot_kernel(pivots, cols) -> list:
    """A basis of the kernel over Q of the pivot rows of :func:`_fraction_free`.

    The pivot rows are in echelon form: row i is 0 at the pivot columns
    c_0, ..., c_(i-1), holds its pivot p_i at c_i and its tail after it.
    Each is a rational combination of the input rows it came from, and
    the other way round, so they have the same kernel.  Each column f that
    holds no pivot gives one vector v, D (the last pivot) at f and 0 at
    the other such columns, filled in reverse order at the pivot columns
    by back-substitution, v[c_i] = -(tail_i . v) / p_i.  Each division is
    exact: v at the pivot columns solves A_P u = -D a_f, with A_P the
    input pivot rows at the pivot columns in pivot order, whose
    determinant is D, and a_f their column f, so by Cramer's rule u is an
    integer vector.  A remainder is an error all the same, never an
    assert.  The n - r vectors are independent, each the only one nonzero
    at its own column f, and annihilate the r independent pivot rows, so
    they span the kernel.  The back-substitution costs O(r^2) per vector.
    """
    free, placed = list(range(cols)), []
    for pos, p, tail in pivots:
        placed.append((free.pop(pos), p, dict(zip(free, tail))))
    on = [c for c, _, _ in placed]
    d = pivots[-1][1]
    # Row i at the pivot columns, in pivot order: 0 up to and at c_i.
    steps = [(p, [tail.get(c, 0) for c in on], tail) for _, p, tail in placed]
    basis = []
    for f in free:
        u = [0] * len(on)
        for i in reversed(range(len(on))):
            p, at_pivots, tail = steps[i]
            u[i], rem = divmod(-sum(map(mul, at_pivots, u)) - tail[f] * d, p)
            if rem:
                raise TribranchError("inexact back-substitution in the pivots' kernel")
        v = [0] * cols
        v[f] = d
        for c, x in zip(on, u):
            v[c] = x
        basis.append(v)
    return basis


def _drop_zero_lines(rows) -> list:
    """The nonzero rows as lists, without the columns that are zero in all of them."""
    rows = list(filter(any, rows))
    kept = [j for j, col in enumerate(zip(*rows)) if any(col)]
    return [[row[j] for j in kept] for row in rows]


def _reduce_mod(x, pivots, d) -> list:
    """Row x after a row step by each unit pivot in turn, entries in [0, d).

    A pivot (j, w, tail) stands for a row whose entry p at position j among
    the columns still free is prime to d, w = p^-1 mod d, and whose other
    free entries are ``tail``.  x drops its entry c at j and takes
    x - (c w mod d) tail, which is the row step that clears x at p's
    column modulo d, so x keeps only the columns free after the pivot.
    Entries are reduced modulo d once, at the end, in a new list.
    """
    x = list(x)
    for j, w, tail in pivots:
        q = x.pop(j) * w % d
        if q:
            x = [s - q * t for s, t in zip(x, tail)]
    return [s % d for s in x]


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

    Rows and columns that are zero over Z are dropped (the padding to
    min(rows, cols) entries stands for them).  Then, while an entry p = +-1
    is left (the first in row-major order), each other row subtracts
    c * p times p's row, for its entry c in p's column; that is unimodular
    and clears the column, since p * p = 1.  p's row and column are dropped
    with one factor 1, and so is every row that vanished; the units go
    first in the chain and count towards the rank.  One
    :func:`_fraction_free` pass over the rest gives its rank r and a
    multiple G of s_1 ... s_r: |D| for its last pivot D when r is the
    column count, where the pass stops, else the gcd of the last pivot row
    and the rows it cleared (see the module docstring).  The rest is
    transposed if it has more rows than columns, which keeps the invariant
    factors, and its rows are read in order over Z/GZ: each is stepped by
    the unit pivots found before it (:func:`_reduce_mod`), and its first
    entry prime to G becomes the next pivot, with one factor 1.  A row
    without one is set aside and at the end stepped by the pivots found
    after it.  In pivot order the block is then [[U, X], [0, R]], U upper
    triangular with units on its diagonal; column steps clear X and leave
    R, the set-aside rows on the columns without a pivot, so the factors
    modulo G are the pivots' 1's and R's.  R without its zero rows and
    columns is diagonalised by extended-gcd row steps, each row that
    vanishes dropped.  Where the pivot p does not divide an entry t of its
    row, one extended-gcd column step on p's column and t's, unimodular
    like the row steps, puts gcd(p, t) in the pivot and clears t; the row
    steps then start over on the pivot column.  Each diagonal entry d
    stands for gcd(d, G), the positions left over for G.  All of them
    divide G: the unit factors go first, the G's last, and gcd/lcm pairs
    sort the rest into a divisibility chain whose first r entries are
    s_1..s_r.
    """
    block = _drop_zero_lines(a.entries)
    units = 0
    while True:
        i = next((i for i, row in enumerate(block) if 1 in row or -1 in row), None)
        if i is None:
            break
        top = block.pop(i)
        j = next(j for j, x in enumerate(top) if x in (1, -1))
        p = top.pop(j)
        qs = [row.pop(j) * p for row in block]
        block = list(filter(any, [[x - q * y for x, y in zip(row, top)] if q else row
                                  for row, q in zip(block, qs)]))
        units += 1
    rank, _, _, d = _fraction_free(block)
    rank += units
    if block and len(block) > len(block[0]):
        block = [list(col) for col in zip(*block)]
    pivots, aside = [], []
    for row in block:
        x = _reduce_mod(row, pivots, d)
        j = next((j for j, t in enumerate(x) if t and gcd(t, d) == 1), None)
        if j is not None:
            pivots.append((j, pow(x.pop(j), -1, d), x))
        elif any(x):
            aside.append((len(pivots), x))
    units += len(pivots)
    block = _drop_zero_lines([_reduce_mod(x, pivots[k:], d) for k, x in aside])
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
            p = top[0]
            if not any(x % p for x in top):
                break
            for j in range(1, len(top)):
                if top[j] % p:
                    g, x, y = _bezout(p, top[j])
                    u, v = top[j] // g, p // g
                    for row in block:
                        s, t = row[0], row[j]
                        row[0], row[j] = (x * s + y * t) % d, (u * s - v * t) % d
                    p = g
        chain.append(gcd(top[0], d))
        block = [row[1:] for row in block[1:] if any(row)]
    mid = [x for x in chain if 1 < x < d]
    for i in range(len(mid)):
        for j in range(i + 1, len(mid)):
            g = gcd(mid[i], mid[j])
            mid[i], mid[j] = g, mid[i] * mid[j] // g
    units += chain.count(1)
    chain = [1] * units + mid + [d] * (min(a.rows, a.cols) - units - len(mid))
    return tuple(chain[:rank]) + (0,) * (len(chain) - rank)


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion")):
    """A finitely generated abelian group Z^free_rank + sum of Z/d cyclic parts.

    ``torsion`` is a tuple of the cyclic orders >= 2 in divisibility order.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple):
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise TribranchError(f"torsion {torsion} not in divisibility order")
        if any(d < 2 for d in torsion):
            raise TribranchError("torsion orders must be >= 2")
        return tuple.__new__(cls, (free_rank, torsion))

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
