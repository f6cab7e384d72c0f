import sys
from math import gcd

import pytest

from tribranch import (
    AbelianGroup,
    IntMatrix,
    TribranchError,
    cokernel,
    determinantal_divisors,
    invariant_factors,
    min_generators,
    smith_normal_form,
)
from tribranch import intalg

from genutils import make_rng, random_matrix


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
    assert res.u.is_unimodular()
    assert res.v.is_unimodular()
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

    monkeypatch.setattr(intalg, "smith_normal_form", counted)
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


def test_determinant_bareiss():
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix(0, 0, ()).det() == 1
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    rng = make_rng(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        assert a.det() == laplace([list(r) for r in a.entries])


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


def test_bezout_keeps_a_dividing_pivot():
    assert intalg._bezout(3, 3) == (3, 1, 0)
    assert intalg._bezout(2, 6) == (2, 1, 0)
    assert intalg._bezout(5, 0) == (5, 1, 0)
    for a, b in [(8, 10), (10, 8), (7, 5), (12, 18)]:
        g, x, y = intalg._bezout(a, b)
        assert g == gcd(a, b) == x * a + y * b
