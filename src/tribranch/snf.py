"""Test oracles for ``intalg.invariant_factors``; no command loads this module.

``smith_normal_form`` (with its unimodular transforms U and V, pivots of
smallest absolute value in row-major order) and ``determinantal_divisors``
(gcds of all k x k minors) are not exported by the package.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import gcd

from .intalg import IntMatrix


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


def determinantal_divisors(a: IntMatrix) -> list:
    """gcds D_k of all k x k minors, k = 1..min(rows, cols).

    Independent of any reduction: minors are enumerated directly.  Useful as
    an oracle because the invariant factors are the ratios D_k / D_{k-1}.
    """
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
