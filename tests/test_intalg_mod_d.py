"""Property test of the elimination modulo G, the modulus of the Bareiss
pass. Kept apart from test_intalg.py so that only this module needs the
optional `hypothesis` test dependency."""
from hypothesis import given, settings, strategies as st

from tribranch import IntMatrix, invariant_factors

from test_intalg import laplace, oracle_invariant_factors


@st.composite
def shaped_matrices(draw, max_dim=6):
    """Matrices up to max_dim x max_dim, each optionally of lower rank (a
    product through a thinner middle), scaled, and with zeroed rows and
    columns; 0 x n and m x 0 shapes included."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))

    def grid(m, n):
        return draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                             min_size=m, max_size=m))

    entries = grid(rows, cols)
    kinds = draw(st.sets(st.sampled_from(("low_rank", "scaled", "zero_rows", "zero_cols"))))
    if "low_rank" in kinds:
        t = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        left, right = grid(rows, t), grid(t, cols)
        entries = [[sum(left[i][s] * right[s][j] for s in range(t)) for j in range(cols)]
                   for i in range(rows)]
    if "scaled" in kinds:
        c = draw(st.sampled_from((2, 3, 4, 6, 12, 30)))
        entries = [[c * x for x in row] for row in entries]
    if "zero_rows" in kinds and rows:
        for i in draw(st.sets(st.integers(0, rows - 1), min_size=1)):
            entries[i] = [0] * cols
    if "zero_cols" in kinds and cols:
        for j in draw(st.sets(st.integers(0, cols - 1), min_size=1)):
            for row in entries:
                row[j] = 0
    return IntMatrix(rows, cols, tuple(tuple(row) for row in entries))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(shaped_matrices())
def test_elimination_mod_d_matches_minor_and_laplace_oracles(a):
    assert list(invariant_factors(a)) == oracle_invariant_factors(a)
    if a.rows == a.cols:
        assert a.det() == laplace([list(row) for row in a.entries])
