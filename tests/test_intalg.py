import inspect
import sys
from math import gcd

import pytest

from tribranch import (
    AbelianGroup,
    IntMatrix,
    SurfaceSig,
    TribranchError,
    cokernel,
    invariant_factors,
    min_generators,
)
from tribranch import intalg, snf
from tribranch.intalg import determinantal_divisors, smith_normal_form

from genutils import (
    dense_monodromy,
    make_rng,
    random_matrix,
    rows_tested_and_reduced,
    traced_rows,
)


def oracle_invariant_factors(a: IntMatrix) -> list:
    """Independent oracle via determinantal divisors: the k-th invariant
    factor is D_k / D_{k-1}, where D_k is the gcd of all k x k minors."""
    divisors = determinantal_divisors(a)
    factors = []
    prev = 1
    for d in divisors:
        if d == 0:
            factors.append(0)
        else:
            factors.append(d // prev)
            prev = d
    return factors


def laplace(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * laplace([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def check_snf_contract(a: IntMatrix):
    res = smith_normal_form(a)
    assert res.u.mul(a).mul(res.v) == res.s
    assert abs(res.u.det()) == 1
    assert abs(res.v.det()) == 1
    diag = list(res.invariant_factors)
    # S is diagonal with the reported diagonal.
    for i in range(res.s.rows):
        for j in range(res.s.cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert res.s.entries[i][j] == expected
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # Trailing zeros only.
    if 0 in diag:
        assert all(d == 0 for d in diag[diag.index(0):])
    return res


def test_identity_and_zero():
    assert smith_normal_form(IntMatrix.identity(2)).invariant_factors == (1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 2)).invariant_factors == (0, 0)


def test_worked_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = check_snf_contract(a)
    assert res.invariant_factors == (2, 4)
    # d1 is the gcd of the entries; d1 * d2 is |det|.
    assert gcd(2, gcd(4, gcd(6, 8))) == 2
    assert abs(a.det()) == 8 == 2 * 4


def test_rectangular_and_empty_shapes():
    check_snf_contract(IntMatrix.from_rows([[3, 0, 0], [0, 0, 5]]))
    check_snf_contract(IntMatrix.from_rows([[1], [2], [3]]))
    res = smith_normal_form(IntMatrix(0, 0, ()))
    assert res.invariant_factors == ()


def test_snf_against_minor_oracle_200_random_matrices():
    rng = make_rng(20)
    for _ in range(200):
        a = random_matrix(rng, max_dim=5, lo=-9, hi=9)
        res = check_snf_contract(a)
        assert list(res.invariant_factors) == oracle_invariant_factors(a)


def test_product_of_factors_matches_determinantal_divisor_chain():
    rng = make_rng(21)
    for _ in range(60):
        a = random_matrix(rng, max_dim=4)
        res = smith_normal_form(a)
        divisors = determinantal_divisors(a)
        product = 1
        for k, d in enumerate(res.invariant_factors):
            if d == 0:
                break
            product *= d
            assert product == divisors[k]


def _edge_case_matrices(rng):
    """Seeded matrices of every shape the elimination treats specially."""
    yield IntMatrix(0, 0, ())
    for n in range(1, 5):
        yield IntMatrix(0, n, ())
        yield IntMatrix.from_rows([[]] * n)
        yield IntMatrix.zeros(n, n + 1)
        yield IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n + 2)]])
        yield IntMatrix.from_rows([[rng.randint(-9, 9)] for _ in range(n + 2)])
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        kind = rng.randrange(4)
        if kind == 0:
            entries[rng.randrange(rows)] = [0] * cols
            for row in entries:
                row[rng.randrange(cols)] = 0
        elif kind == 1:
            entries = [[-abs(x) - 1 for x in row] for row in entries]
        elif kind == 2:
            entries = [[rng.choice((2, 4, 6, 12)) * x for x in row] for row in entries]
        yield IntMatrix.from_rows(entries)


def test_invariant_factors_equal_snf_diagonal_and_minor_oracle():
    rng = make_rng(24)
    shapes = set()
    for a in _edge_case_matrices(rng):
        shapes.add((a.rows, a.cols))
        factors = invariant_factors(a)
        assert factors == smith_normal_form(a).invariant_factors, a
        assert list(factors) == oracle_invariant_factors(a), a
    assert {(0, 3), (3, 0), (1, 5), (5, 1)} <= shapes


def test_invariant_factors_equal_snf_diagonal_on_larger_matrices():
    rng = make_rng(25)
    for _ in range(40):
        a = random_matrix(rng, max_dim=9, lo=-30, hi=30)
        assert invariant_factors(a) == smith_normal_form(a).invariant_factors


def test_cokernel_never_runs_the_transform_tracking_snf(monkeypatch):
    rng = make_rng(26)
    matrices = [random_matrix(rng, max_dim=6) for _ in range(30)]
    expected = []
    for a in matrices:
        nonzero = [d for d in smith_normal_form(a).invariant_factors if d]
        torsion = tuple(d for d in nonzero if d > 1)
        expected.append(AbelianGroup(a.rows - len(nonzero), torsion))
    calls = []

    def counted(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(snf, "smith_normal_form", counted)
    assert [cokernel(a) for a in matrices] == expected
    assert calls == []


def test_cokernel_examples():
    assert cokernel(IntMatrix.zeros(3, 3)) == AbelianGroup(3, ())
    assert cokernel(IntMatrix.identity(4)) == AbelianGroup(0, ())
    assert cokernel(IntMatrix.from_rows([[0, 1], [0, 0]])) == AbelianGroup(1, ())
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == AbelianGroup(0, (6,))
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])) == AbelianGroup(0, (2, 4))


def test_cokernel_invariant_under_permutations():
    rng = make_rng(22)
    for _ in range(40):
        a = random_matrix(rng, max_dim=4)
        rows = list(a.entries)
        rng.shuffle(rows)
        cols = list(range(a.cols))
        rng.shuffle(cols)
        b = IntMatrix.from_rows([[row[j] for j in cols] for row in rows])
        assert cokernel(a) == cokernel(b)


def test_fits_str_limit_agrees_with_str():
    limit = sys.get_int_max_str_digits()
    for x in (0, 7, -10 ** 20, 8 ** limit - 1, 8 ** limit, 10 ** limit - 1,
              -(10 ** limit - 1), 10 ** limit, -(10 ** limit), 10 ** (2 * limit)):
        try:
            str(x)
            printable = True
        except ValueError:
            printable = False
        assert intalg.fits_str_limit(x) == printable


def test_min_generators():
    assert min_generators(AbelianGroup(4, ())) == 4
    assert min_generators(AbelianGroup(3, (2,))) == 4
    assert min_generators(AbelianGroup(0, ())) == 0


def test_abelian_group_validates_divisibility():
    with pytest.raises(TribranchError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(TribranchError):
        AbelianGroup(0, (1,))


def test_big_entries_stay_exact():
    # Entries overflow any fixed width during reduction; results stay exact.
    a = IntMatrix.from_rows(
        [
            [10**18, 10**9 + 7, 3],
            [5, 10**15, 10**12 + 39],
            [7, 11, 13],
        ]
    )
    res = check_snf_contract(a)
    product = 1
    for d in res.invariant_factors:
        product *= d
    assert product == abs(a.det())


def test_matrix_shape_validation():
    with pytest.raises(TribranchError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(TribranchError):
        IntMatrix.from_rows([[1, 2], [3, 4]]).mul(IntMatrix.identity(3))


def test_transpose_keeps_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 0), (0, 1)):
        t = IntMatrix.zeros(rows, cols).transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == IntMatrix.zeros(rows, cols)
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])


def test_determinant_bareiss():
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix(0, 0, ()).det() == 1
    # Pivots that leave column order: no row is swapped, and the sign comes
    # from each pivot's position among the columns still free.
    for rows, det in [([[0, 1], [1, 0]], -1),
                      ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
                      ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
                      ([[0, 2, 1], [0, 0, 3], [4, 1, 0]], 24)]:
        assert IntMatrix.from_rows(rows).det() == laplace(rows) == det, rows
    rng = make_rng(23)
    for i in range(90):
        n = rng.randint(1, 4) if i < 30 else rng.randint(2, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if i >= 30:
            # Rows that start with zeros, so pivots land right of the diagonal.
            for row in rows:
                k = rng.randint(0, n - 1)
                row[:k] = [0] * k
        a = IntMatrix.from_rows(rows)
        assert a.det() == laplace([list(r) for r in a.entries]), rows


def test_determinant_of_singular_and_non_square_matrices():
    # The first column has no pivot and is skipped; the rank stays below 3.
    assert IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 7]]).det() == 0
    assert IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).det() == 0
    assert IntMatrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]]).det() == -6
    with pytest.raises(TribranchError):
        IntMatrix.from_rows([[1, 2]]).det()
    with pytest.raises(TribranchError):
        IntMatrix(2, 0, ((), ())).det()


def test_invariant_factors_named_cases_mod_d():
    def diag(*xs):
        return IntMatrix.from_rows([[x if i == j else 0 for j in range(len(xs))]
                                    for i, x in enumerate(xs)])

    # D = 5 and A = 0 mod D: the one factor is the padding D itself.
    assert invariant_factors(IntMatrix.from_rows([[5]])) == (5,)
    # D = 6 = s_2, and 2, 3 on the diagonal form a chain only as 1 | 6.
    assert invariant_factors(diag(2, 3)) == (1, 6)
    # D = 24: the diagonal 6, 4 becomes the chain 2 | 12.
    assert invariant_factors(diag(6, 4)) == (2, 12)
    # D = 4 and the column is (0, 3, 3) mod D: 3 stands for gcd(3, 4) = 1.
    assert invariant_factors(IntMatrix.from_rows([[-4], [-5], [-1]])) == (1,)
    # D = 12 and the first column is (8, 10) mod D: the pivot 8 does not
    # divide 10, so the row step needs Bezout coefficients.
    assert invariant_factors(IntMatrix.from_rows([[-4, -4], [-2, -5]])) == (1, 12)
    # Rank 1 of 2: the zero factor is not D = 3.
    assert invariant_factors(IntMatrix.from_rows([[3, 6], [6, 12]])) == (3, 0)
    # D = 2: the column (4, 0) is nonzero over Z but zero mod D, like the
    # whole matrix, so both positions are padding and only the first is s_1.
    assert invariant_factors(IntMatrix.from_rows([[2, 4], [0, 0]])) == (2, 0)
    # D = 24 and a zero row between nonzero rows: the diagonal 6, 4 and the
    # padding 24 sort into 2 | 12 | 24, and rank 2 makes the last one 0.
    assert invariant_factors(IntMatrix.from_rows([[6, 0, 12], [0, 0, 0], [0, 4, 0]])) == (2, 12, 0)
    # D = 15 with the middle row and the middle column zero.
    assert invariant_factors(IntMatrix.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, 5]])) == (1, 15, 0)
    # One column left after the zero columns go: the gcd of its entries.
    assert invariant_factors(IntMatrix.from_rows([[0, 4, 0], [0, 6, 0]])) == (2, 0)
    # The unit's step leaves the one column (4, 6), whose gcd is 2.
    assert invariant_factors(IntMatrix.from_rows([[1, 3], [2, 10], [3, 15]])) == (1, 2)


def test_bezout_keeps_a_dividing_pivot():
    assert intalg._bezout(3, 3) == (3, 1, 0)
    assert intalg._bezout(2, 6) == (2, 1, 0)
    assert intalg._bezout(5, 0) == (5, 1, 0)
    for a, b in [(8, 10), (10, 8), (7, 5), (12, 18)]:
        g, x, y = intalg._bezout(a, b)
        assert g == gcd(a, b) == x * a + y * b


def _pruned_shapes(rng):
    """Seeded matrices on which the elimination drops rows, columns or factors."""
    for _ in range(60):
        # Zero rows and columns mixed in anywhere.
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            entries[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in entries:
                row[j] = 0
        yield "zero-lines", entries
    for _ in range(60):
        # Rows that are combinations of earlier ones vanish in the middle of
        # the Bareiss pass, after as many pivots as there are base rows.
        cols, t = rng.randint(2, 6), rng.randint(1, 4)
        base = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(t)]
        entries = list(base)
        for _ in range(rng.randint(1, 3)):
            cs = [rng.randint(-3, 3) for _ in range(t)]
            entries.append([sum(c * row[j] for c, row in zip(cs, base)) for j in range(cols)])
        rng.shuffle(entries)
        yield "dependent-rows", entries
    for _ in range(60):
        # Sparse with unit entries, like a stabilized presentation: a dense
        # block of M - 1 beside winding columns of 0 and +-1.
        g = rng.randint(1, 2)
        extra = rng.randint(1, 6 - 2 * g)
        k = 2 * g + extra
        entries = [[rng.randint(-3, 3) for _ in range(2 * g)]
                   + [rng.choice((0, 0, 0, 1, -1)) for _ in range(extra)] for _ in range(k)]
        for i in rng.sample(range(k), extra):
            entries[i][:2 * g] = [0] * (2 * g)
        yield "sparse-unit", entries
    for _ in range(40):
        # Diagonal chains of 1s and D only, scattered by row and column swaps.
        n, d = rng.randint(1, 6), rng.choice((2, 6, 12, 30))
        diag = [rng.choice((1, d)) for _ in range(n)]
        entries = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rng.shuffle(entries)
        perm = rng.sample(range(n), n)
        yield "units-and-d", [[row[j] for j in perm] for row in entries]


def test_pruned_elimination_matches_snf_minor_and_laplace_oracles():
    rng = make_rng(26)
    kinds = set()
    vanished = 0
    for kind, entries in _pruned_shapes(rng):
        kinds.add(kind)
        a = IntMatrix.from_rows(entries)
        factors = invariant_factors(a)
        assert factors == smith_normal_form(a).invariant_factors, (kind, entries)
        assert list(factors) == oracle_invariant_factors(a), (kind, entries)
        if a.rows == a.cols:
            assert a.det() == laplace(entries), (kind, entries)
        rank = intalg._fraction_free(a.entries)[0]
        vanished += any(entries) and rank < len([row for row in entries if any(row)])
    assert kinds == {"zero-lines", "dependent-rows", "sparse-unit", "units-and-d"}
    # Rows do vanish in the middle of the pass on a good share of the inputs.
    assert vanished >= 60


def _unit_rich_matrices(rng):
    """Seeded matrices whose +-1 entries the unit split takes as pivots."""
    for n in range(1, 5):
        yield "empty", IntMatrix(0, n, ())
        yield "empty", IntMatrix.from_rows([[]] * n)
    for _ in range(60):
        # Signed permutation matrices, some entries scaled: -1 pivots.
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        yield "permutation", IntMatrix.from_rows(
            [[rng.choice((1, -1, -1, 2, -3)) if j == perm[i] else 0 for j in range(n)]
             for i in range(n)])
    for _ in range(100):
        # Tall, wide and square, mostly 0 and +-1, with zero rows and columns.
        short, long = rng.randint(1, 3), rng.randint(4, 8)
        rows, cols = rng.choice(((short, long), (long, short),
                                 (rng.randint(1, 6), rng.randint(1, 6))))
        entries = [[rng.choice((0, 0, 1, -1, -1, 2, -2, 5)) for _ in range(cols)]
                   for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            entries[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
            for row in entries:
                row[j] = 0
        yield "sparse", IntMatrix.from_rows(entries)
    for _ in range(80):
        # L D U with unitriangular L and U whose other entries are 0, +-2 or
        # +-3: most units of D surface only after earlier unit steps.
        n = rng.randint(2, 6)
        tri = [[rng.choice((0, 2, -2, 3, -3)) for _ in range(n)] for _ in range(2)]
        low = [[1 if i == j else tri[0][j] * (j < i) for j in range(n)] for i in range(n)]
        up = [[1 if i == j else tri[1][j] * (j > i) for j in range(n)] for i in range(n)]
        diag = [rng.choice((1, -1, 1, -1, 2, 6)) for _ in range(n)]
        ldu = [[sum(low[i][t] * diag[t] * up[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
        rng.shuffle(ldu)
        perm = rng.sample(range(n), n)
        yield "hidden", IntMatrix.from_rows([[row[j] for j in perm] for row in ldu])


def test_unit_split_matches_snf_minor_and_laplace_oracles(monkeypatch):
    rng = make_rng(27)
    fraction_free = intalg._fraction_free
    seen = []
    monkeypatch.setattr(intalg, "_fraction_free",
                        lambda rows: seen.append(rows) or fraction_free(rows))
    kinds = set()
    hidden = 0
    for kind, a in _unit_rich_matrices(rng):
        kinds.add(kind)
        entries = [list(row) for row in a.entries]
        seen.clear()
        factors = invariant_factors(a)
        (rest,) = seen
        assert factors == smith_normal_form(a).invariant_factors, (kind, entries)
        assert list(factors) == oracle_invariant_factors(a), (kind, entries)
        # The Bareiss pass gets what the s unit steps left: no +-1 entry,
        # and at most rows - s rows and cols - s columns.
        s = sum(1 for d in factors if d) - fraction_free(rest)[0]
        assert not any(x in (1, -1) for row in rest for x in row), (kind, entries)
        assert len(rest) <= a.rows - s, (kind, entries)
        assert all(len(row) <= a.cols - s for row in rest), (kind, entries)
        hidden += s > sum(x in (1, -1) for row in entries for x in row)
        if a.rows == a.cols:
            assert a.det() == laplace(entries), (kind, entries)
    assert kinds == {"empty", "permutation", "sparse", "hidden"}
    assert hidden >= 20, hidden


def _nonzeros(row) -> int:
    return sum(1 for x in row if x)


def _split_cases(rng):
    """Seeded matrices for the cases of the +-1 split's pivot rule."""
    def dense(cols, entries=(-5, -4, -3, -2, 2, 3, 4, 5)):
        return [rng.choice(entries) for _ in range(cols)]

    for _ in range(60):
        # A lone unit row after a dense row that holds a +-1 and has an
        # entry in the lone unit's column: the lone one goes first.
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        entries = [dense(cols, (-3, -1, 0, 1, 2, 3)) for _ in range(rows)]
        j, top = rng.randrange(cols), rng.randrange(rows - 1)
        entries[top] = dense(cols)
        entries[top][rng.choice([c for c in range(cols) if c != j])] = rng.choice((1, -1))
        entries[rng.randint(top + 1, rows - 1)] = [rng.choice((1, -1)) * (c == j)
                                                   for c in range(cols)]
        yield "lone-after-dense", entries
    for _ in range(60):
        # A +-1 column with an entry in every row: every row is stepped.
        rows, cols = rng.randint(2, 6), rng.randint(1, 6)
        entries = [dense(cols, (-4, -2, 0, 2, 3, 4)) for _ in range(rows)]
        j = rng.randrange(cols)
        for row in entries:
            row[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        entries[rng.randrange(rows)][j] = rng.choice((1, -1))
        yield "full-column", entries
    for _ in range(60):
        # No +1 entry: the first pivot p is -1, and p * p = 1 clears its column.
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [dense(cols, (-1, -1, 0, 0, 2, -2, 3)) for _ in range(rows)]
        entries[rng.randrange(rows)][rng.randrange(cols)] = -1
        yield "minus-one", entries
    for _ in range(60):
        # Multiples of the sparsest unit row vanish in its step; the dense
        # rows have no zero entry, so that row is the first pivot.
        rows, cols = rng.randint(3, 6), rng.randint(2, 6)
        entries = [dense(cols) for _ in range(rows)]
        unit = [0] * cols
        j, other = rng.sample(range(cols), 2)
        unit[j], unit[other] = rng.choice((1, -1)), rng.choice((-3, 2, 4))
        at = rng.sample(range(rows), rng.randint(2, rows))
        entries[at[0]] = unit
        for i, c in zip(at[1:], rng.choices((-3, -2, 2, 3), k=len(at) - 1)):
            entries[i] = [c * x for x in unit]
        yield "vanishing", entries


def _reaches(kind, entries) -> bool:
    """Whether ``entries`` has the property its case is about."""
    units = [i for i, row in enumerate(entries) if 1 in row or -1 in row]
    if kind == "lone-after-dense":
        lone = [(i, row.index(1) if 1 in row else row.index(-1))
                for i, row in enumerate(entries) if i in units and _nonzeros(row) == 1]
        return any(_nonzeros(entries[t]) > 1 and entries[t][j]
                   for i, j in lone for t in units if t < i)
    if kind == "full-column":
        return any(all(col) and (1 in col or -1 in col) for col in zip(*entries))
    if kind == "minus-one":
        return bool(units) and not any(1 in row for row in entries)
    # vanishing: a nonzero multiple of the sparsest unit row.
    if not units:
        return False
    top = entries[min(units, key=lambda i: _nonzeros(entries[i]))]
    j = top.index(1) if 1 in top else top.index(-1)
    return any(row is not top and row[j] and row == [row[j] * top[j] * x for x in top]
               for row in entries)


def test_split_pivot_rule_cases_match_snf_and_minor_oracles():
    rng = make_rng(39)
    reached = dict.fromkeys(["lone-after-dense", "full-column", "minus-one", "vanishing"], 0)
    for kind, entries in _split_cases(rng):
        a = IntMatrix.from_rows(entries)
        factors = invariant_factors(a)
        assert factors == smith_normal_form(a).invariant_factors, (kind, entries)
        assert list(factors) == oracle_invariant_factors(a), (kind, entries)
        reached[kind] += _reaches(kind, entries)
    assert all(n >= 50 for n in reached.values()), reached


def test_fraction_free_drops_vanished_rows_without_changing_rank_or_minor():
    # Row 3 is row 1 + row 2: it vanishes after the second pivot, and D is
    # the minor on rows 1, 2 and 4.  The rank reaches the column count
    # there and the pass stops, so G = |D|.
    rows = [[1, 2, 3], [0, 1, 4], [1, 3, 7], [2, 1, 1]]
    rank, _, minor, block_gcd = intalg._fraction_free(rows)
    assert (rank, minor) == (3, laplace([rows[0], rows[1], rows[3]])) == (3, 7)
    assert block_gcd == 7
    assert intalg._fraction_free([[0, 0], [0, 0]]) == (0, 1, 1, 1)
    # Full column rank after two rows: the third is never read, so G = |D|
    # although the 2 x 2 minors on rows 1-2 and 1-3, -8 and -12, have gcd 4.
    assert intalg._fraction_free([[2, 4], [6, 8], [4, 2]]) == (2, 1, -8, 8)
    # Rank 2 of 3 columns: the last pivot row [0, -8, -8] and the row it
    # clears, [0, -12, -12] before that step, give G = 4 = d_2 while D = -8.
    assert intalg._fraction_free([[2, 4, 6], [6, 8, 14], [4, 2, 6]]) == (2, 1, -8, 4)
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0


class _CountedRows(list):
    """Rows that count how many of them an iteration has read."""

    read = 0

    def __iter__(self):
        for row in super().__iter__():
            self.read += 1
            yield row


def _rank(rows) -> int:
    return sum(1 for d in smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors if d)


def _fraction_free_by_minors(rows) -> tuple:
    """(r, sign, D, G) of the row-by-row Bareiss pass, from minors alone.

    A row is a pivot row when it is not in the span of the rows before it,
    and its pivot column is the first free column j where the minor on the
    pivot rows so far, the earlier pivot columns and j is nonzero.  At full
    column rank G = |D|; otherwise G is the gcd, over rows x and columns j,
    of the minor on the first r - 1 pivot rows and x, the first r - 1 pivot
    columns and j.  The rows x are all rows, unless the first row that the
    last pivot so far clears (in the span of the k pivots before it, and
    not of the first k - 1 when k > 1) has the final rank r in its prefix:
    then they are that prefix, and the rows after it are skipped.
    """
    def minor(rs, cs):
        return laplace([[row[j] for j in cs] for row in rs])

    n = len(rows[0])
    pivots, cols, sign, trigger = [], [], 1, None
    for i, row in enumerate(rows):
        k = len(pivots)
        if _rank(pivots + [row]) > k:
            pivots.append(row)
            free = [j for j in range(n) if j not in cols]
            j = next(j for j in free if minor(pivots, cols + [j]))
            sign *= (-1) ** free.index(j)
            cols.append(j)
        elif trigger is None and k and (k == 1 or _rank(pivots[:-1] + [row]) == k):
            trigger = i
    r = len(pivots)
    if not r:
        return 0, 1, 1, 1
    d = minor(pivots, cols)
    if r == n:
        return r, sign, d, abs(d)
    if trigger is not None and _rank(rows[:trigger + 1]) == r:
        rows = rows[:trigger + 1]
    g = 0
    for x in rows:
        for j in range(n):
            if j not in cols[:-1]:
                g = gcd(g, minor(pivots[:-1] + [x], cols[:-1] + [j]))
    return r, sign, d, g


def test_fraction_free_reads_no_row_past_full_column_rank():
    # Full column rank after rows 1 and 3 (row 2 vanishes): rows 4 and 5
    # are never read, and G = |D|.
    rows = _CountedRows([[2, 4], [3, 6], [6, 8], [4, 2], [1, 1]])
    assert intalg._fraction_free(rows) == (2, 1, -8, 8)
    assert rows.read == 3
    # Short of full column rank, every row is read.
    for entries in ([[1, 2], [2, 4], [3, 6], [4, 8]],
                    [[2, 4, 6], [6, 8, 14], [4, 2, 6]],
                    [[0, 0, 0], [0, 2, 0], [0, 0, 0]]):
        rows = _CountedRows(entries)
        assert intalg._fraction_free(rows)[0] == _rank(entries) < len(entries[0])
        assert rows.read == len(entries)
    # Seeded tall matrices: the pass stops at the first prefix of full
    # column rank, or reads all rows when there is none, and its sign, D
    # and G are the ones its pivot rows and columns give by minors.
    rng = make_rng(30)
    stopped = short = 0
    for i in range(180):
        n = rng.randint(1, 4)
        entries = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(n)]
                   for _ in range(n + rng.randint(1, 4))]
        if i % 3 == 0:
            # A product through a middle of width t has rank at most t.
            t = rng.randint(1, n)
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(t)]
            entries = [[sum(row[s] * right[s][j] for s in range(t)) for j in range(n)]
                       for row in entries]
        rows = _CountedRows(entries)
        out = intalg._fraction_free(rows)
        assert out == _fraction_free_by_minors(entries), entries
        rank, _, minor, block_gcd = out
        divisors = determinantal_divisors(IntMatrix.from_rows(entries))
        if rank:
            assert block_gcd % divisors[rank - 1] == 0 and minor % block_gcd == 0, entries
        full = next((k for k in range(1, len(entries) + 1) if _rank(entries[:k]) == n), None)
        assert rows.read == (full or len(entries)), entries
        stopped += full is not None and full < len(entries)
        short += 0 < out[0] < n
    assert stopped >= 100, stopped
    assert short >= 30, short


def test_rows_in_the_pivots_span_are_tested_not_reduced():
    # A prefix of rank t < n with a row in the span of the others, so the
    # last pivot clears a row and the kernel is formed; then rows in the
    # span, which are skipped, and a row outside it, which is reduced and
    # ends the test; then a few rows of either kind.
    rng = make_rng(31)
    skipped = fell_back = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        t = rng.randint(1, n - 1)
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(t)]
        while _rank(right) < t:
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(t)]

        def in_span():
            coeffs = [rng.randint(-3, 3) for _ in range(t)]
            return [sum(c * row[j] for c, row in zip(coeffs, right)) for j in range(n)]

        entries = [list(row) for row in right] + [in_span() for _ in range(rng.randint(1, 2))]
        rng.shuffle(entries)
        entries += [in_span() for _ in range(rng.randint(0, 3))]
        outside = in_span()
        while _rank(entries + [outside]) == _rank(entries):
            outside = [rng.randint(-6, 6) for _ in range(n)]
        entries.append(outside)
        entries += [rng.choice((in_span(), [rng.randint(-6, 6) for _ in range(n)]))
                    for _ in range(rng.randint(0, 2))]
        log = []
        out = intalg._fraction_free(traced_rows(entries, log))
        assert out == _fraction_free_by_minors(entries), entries
        tested, reduced = rows_tested_and_reduced(log)
        # A row the test passes is never reduced; the first it fails is,
        # and the test reads no row after it.
        passed = [i for i in tested if i not in reduced]
        failed = [i for i in tested if i in reduced]
        assert len(failed) <= 1 and all(i < j for i in passed for j in failed), entries
        if failed:
            assert tested == list(range(tested[0], failed[0] + 1)), entries
        skipped += bool(passed)
        fell_back += bool(failed)
        a = IntMatrix.from_rows(entries)
        factors = invariant_factors(a)
        assert factors == smith_normal_form(a).invariant_factors, entries
        assert list(factors) == oracle_invariant_factors(a), entries
    assert skipped >= 90, skipped
    assert fell_back >= 120, fell_back


def test_kernel_back_substitution_is_exact_or_an_error():
    # The pivot rows of [[2, 4, 6], [4, 4, 4]] are [2, 4, 6] and [0, -8, -16];
    # their kernel is spanned by (1, -2, 1), and with v = D = -8 at the free
    # column the back-substitution gives (-8, 16, -8).
    pivots = [(0, 2, [4, 6]), (0, -8, [-16])]
    assert intalg._pivot_kernel(pivots, 3) == [[-8, 16, -8]]
    # The third row is cleared by the last pivot and forms the kernel; the
    # fourth passes the test and is skipped.
    log = []
    rows = traced_rows([[2, 4, 6], [4, 4, 4], [6, 8, 10], [1, 2, 3]], log)
    assert intalg._fraction_free(rows) == (2, 1, -8, 8)
    assert rows_tested_and_reduced(log) == ([3], [0, 1, 2])
    # Pivot rows that no pass makes leave a remainder: an error, not a
    # wrong basis (and not an assert, which python -O would strip).
    with pytest.raises(TribranchError, match="inexact"):
        intalg._pivot_kernel([(0, 2, [1, 0]), (0, 3, [1])], 3)


def test_tall_full_rank_stops_at_the_first_square_and_steps_columns(monkeypatch):
    # Tall matrices without +-1 entries, whose first n rows are a square B
    # of nonzero determinant: the unit split takes nothing, the Bareiss
    # pass reads n rows and the pass modulo G runs modulo |det B|, though
    # the later rows often bring the gcd d_n of all n x n minors below it.
    fraction_free, bezout = intalg._fraction_free, intalg._bezout
    reads = []

    def counted(rows):
        rows = _CountedRows(rows)
        out = fraction_free(rows)
        reads.append(rows.read)
        return out

    # The second call of _bezout in invariant_factors is the column step.
    lines, start = inspect.getsourcelines(intalg.invariant_factors)
    row_site, column_site = [start + k for k, line in enumerate(lines) if "_bezout(" in line]
    sites = []
    monkeypatch.setattr(intalg, "_fraction_free", counted)
    monkeypatch.setattr(intalg, "_bezout",
                        lambda a, b: sites.append(sys._getframe(1).f_lineno) or bezout(a, b))
    # The first set has entries prime to most moduli, which the unit phase
    # takes as pivots.  The second has only the primes 2 and 3, so modulo a
    # G with both of them no entry is a unit and most blocks reach the
    # extended-gcd loop; the floor on its column step is for that set.
    for values in ((0, 2, -2, 3, -3, 4, 5, -6, 7, 9, -10),
                   (0, 2, -2, 3, -3, 4, -6, 8, 9, -12)):
        rng = make_rng(29)
        below = stepped = 0
        for _ in range(120):
            n, extra = rng.randint(2, 5), rng.randint(1, 4)
            square = None
            while not square or not IntMatrix.from_rows(square).det():
                square = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            a = IntMatrix.from_rows(square + [[rng.choice(values) for _ in range(n)]
                                              for _ in range(extra)])
            reads.clear()
            sites.clear()
            factors = invariant_factors(a)
            assert reads == [n], a
            assert set(sites) <= {row_site, column_site}, a
            assert factors == smith_normal_form(a).invariant_factors, a
            assert list(factors) == oracle_invariant_factors(a), a
            below += determinantal_divisors(a)[-1] < abs(IntMatrix.from_rows(square).det())
            stepped += column_site in sites
        assert below >= 100, (values, below)
    assert stepped >= 90, stepped


def _chain_matrices(rng):
    """Seeded U S V, S's diagonal a chain whose product has two or more primes.

    S holds the chain in reverse, its largest factor first.  U and V are
    products of row and column steps with multipliers +-2 and +-3, U's
    adding rows only to later ones, so the first rows tend to hold no unit
    modulo the product and are set aside before a later pivot steps them.
    A third of the inputs drop one factor, which leaves the rank short of
    both sides.
    """
    for i in range(240):
        target = rng.choice((6, 12, 30, 60, 210, 360,
                             2 ** rng.randint(1, 5) * 3 ** rng.randint(1, 4)))
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        r = min(m, n) - (i % 3 == 0)
        chain = [1] * r
        for p in (2, 3, 5, 7):
            e = 0
            while target % p ** (e + 1) == 0:
                e += 1
            places = [0] * r
            for _ in range(e):
                places[rng.randrange(r)] += 1
            for k, x in enumerate(sorted(places)):
                chain[k] *= p ** x
        a = [[chain[r - 1 - k] if k == j and k < r else 0 for j in range(n)] for k in range(m)]
        for _ in range(2 * (m + n)):
            c = rng.choice((2, -2, 3, -3))
            if rng.random() < 0.5:
                t, k = sorted(rng.sample(range(m), 2))
                a[k] = [x + c * y for x, y in zip(a[k], a[t])]
            else:
                k, t = rng.sample(range(n), 2)
                for row in a:
                    row[k] += c * row[t]
        yield IntMatrix.from_rows(a), tuple(chain) + (0,) * (min(m, n) - r)


def test_unit_pivots_modulo_g_match_the_oracles(monkeypatch):
    fraction_free, reduce_mod = intalg._fraction_free, intalg._reduce_mod
    moduli, sites = [], []
    monkeypatch.setattr(intalg, "_fraction_free",
                        lambda rows: moduli.append(fraction_free(rows)[3]) or fraction_free(rows))
    # The second call of _reduce_mod steps the set-aside rows by the pivots
    # found after them.
    lines, start = inspect.getsourcelines(intalg.invariant_factors)
    _, aside_site = [start + k for k, line in enumerate(lines) if "_reduce_mod(" in line]
    monkeypatch.setattr(intalg, "_reduce_mod", lambda x, pivots, d: sites.append(
        (sys._getframe(1).f_lineno, len(pivots))) or reduce_mod(x, pivots, d))
    # Over Z/6 the row [2, 3] holds no unit and is set aside; the next row,
    # [13, 19], is [1, 1] modulo 6 and a pivot, and the row step by it
    # leaves [0, 1]: the set-aside row gains a unit only after that pivot.
    a = IntMatrix.from_rows([[2, 3, 0], [13, 19, 0], [0, 0, 6]])
    assert invariant_factors(a) == (1, 1, 6)
    assert moduli == [6] and (aside_site, 1) in sites
    assert invariant_factors(a) == smith_normal_form(a).invariant_factors
    assert list(invariant_factors(a)) == oracle_invariant_factors(a)
    stepped = 0
    for a, chain in _chain_matrices(make_rng(30)):
        moduli.clear()
        sites.clear()
        factors = invariant_factors(a)
        (g,) = moduli
        # G is a multiple of the chain's product, so it has two primes too.
        assert sum(g % p == 0 for p in (2, 3, 5, 7)) >= 2, (a, g)
        assert factors == chain, (a, chain)
        assert factors == smith_normal_form(a).invariant_factors, a
        assert list(factors) == oracle_invariant_factors(a), a
        stepped += any(line == aside_site and k for line, k in sites)
    assert stepped >= 45, stepped


def test_block_gcd_lies_between_the_last_divisor_and_the_pivot(monkeypatch):
    rng = make_rng(28)
    # Small matrices, a third of them products through a narrower middle
    # so that the rank falls short of both sides: d_r | G | D.
    short = 0
    for i in range(300):
        if i % 3:
            a = random_matrix(rng, max_dim=5, lo=-6, hi=6)
        else:
            m, t, n = rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 5)
            left = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(t)] for _ in range(m)])
            right = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(t)])
            a = left.mul(right)
        rank, _, minor, block_gcd = intalg._fraction_free(a.entries)
        if rank:
            assert block_gcd % determinantal_divisors(a)[rank - 1] == 0, a
            assert minor % block_gcd == 0, a
        else:
            assert block_gcd == 1, a
        short += rank < min(a.rows, a.cols)
    assert short >= 60, short
    # Dense presentations as h1_open_book builds them, windings zero: the
    # columns of M - 1 on the handle classes.  A zero shift or a handle past
    # the shifts leaves a free summand, so the rank falls short of 2g.  The
    # spy reads G and D on what the unit split left for the Bareiss pass.
    fraction_free = intalg._fraction_free
    seen = []
    monkeypatch.setattr(intalg, "_fraction_free",
                        lambda rows: seen.append(rows) or fraction_free(rows))
    below = short = 0
    for _ in range(150):
        g, b = rng.randint(1, 3), rng.randint(1, 3)
        shifts = [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(rng.randint(0, g))]
        m = dense_monodromy(SurfaceSig(g, b), rng, shifts).matrix
        a = IntMatrix.from_rows([[x - (i == j) for j, x in enumerate(row[:2 * g])]
                                 for i, row in enumerate(m.entries)])
        seen.clear()
        factors = invariant_factors(a)
        (rest,) = seen
        assert factors == smith_normal_form(a).invariant_factors, a
        assert list(factors) == oracle_invariant_factors(a), a
        _, _, minor, block_gcd = fraction_free(rest)
        below += block_gcd < abs(minor)
        short += 0 in factors
    # The pass modulo G, not modulo D, on a good share of the inputs.
    assert below >= 30, below
    assert short >= 100, short


def test_from_rows_takes_integers_only():
    for bad in (1.5, "3", None):
        with pytest.raises(TribranchError, match="grid of integers"):
            IntMatrix.from_rows([[1, bad], [0, 1]])
    with pytest.raises(TribranchError, match="grid of integers"):
        IntMatrix.from_rows([3])
    a = IntMatrix.from_rows([[1, -2], [3, 10**30]])
    assert a.entries == ((1, -2), (3, 10**30))
    assert all(type(x) is int for row in a.entries for x in row)
    assert IntMatrix.from_rows(a.to_json()) == a
