"""The sparse elimination kernel against the dense oracle.

Reduced row echelon form is unique, so on every input the sparse kernel
must return exactly what dense Gauss-Jordan elimination returns, not just
something equivalent.  Matrices are mostly zero, like the ones ratho
builds, and include all-zero rows and columns and empty shapes.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import _dense_oracle as dense
from ratho import _linalg as sparse

ZERO = Fraction(0)
_NONZERO = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                     st.integers(1, 3))


@st.composite
def _vector(draw, ncols, max_nonzero):
    v = [ZERO] * ncols
    if ncols:
        entries = st.dictionaries(st.integers(0, ncols - 1), _NONZERO,
                                  max_size=max_nonzero)
        for c, x in draw(entries).items():
            v[c] = x
    return v


@st.composite
def _matrix(draw, ncols=None):
    """(rows, ncols): sparse rows with some rows and columns forced to 0."""
    if ncols is None:
        ncols = draw(st.integers(0, 9))
    nrows = draw(st.integers(0, 9))
    max_nonzero = draw(st.integers(1, 4))
    rows = [draw(_vector(ncols, max_nonzero)) for _ in range(nrows)]
    if ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[c] = ZERO
    if nrows:
        for r in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            rows[r] = [ZERO] * ncols
    return rows, ncols


@st.composite
def _system(draw):
    """(rows, rhs): rhs is either in the span of rows or arbitrary."""
    rows, ncols = draw(_matrix())
    if draw(st.booleans()):
        return rows, draw(_vector(ncols, 4))
    coeffs = [Fraction(draw(st.integers(-2, 2))) for _ in rows]
    rhs = [sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO)
           for j in range(ncols)]
    return rows, rhs


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_rref_and_rank_match_dense(m):
    rows, _ = m
    before = copy.deepcopy(rows)
    assert sparse.rref(rows) == dense.rref(rows)
    assert sparse.rank(rows) == dense.rank(rows)
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_sparse_rank_and_dense_round_trip_match_dense(m):
    rows, ncols = m
    sparse_rows = [{c: x for c, x in enumerate(r) if x} for r in rows]
    before = copy.deepcopy(sparse_rows)
    assert sparse.sparse_rank(sparse_rows) == dense.rank(rows)
    assert sparse_rows == before
    assert [sparse.dense(r, ncols) for r in sparse_rows] == rows
    assert (sparse.dense_transpose(sparse_rows, ncols)
            == [[row[c] for row in rows] for c in range(ncols)])


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_nullspace_matches_dense(m):
    rows, ncols = m
    assert sparse.nullspace(rows, ncols) == dense.nullspace(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(_system())
def test_solve_matches_dense(system):
    rows, rhs = system
    x = sparse.solve(rows, rhs)
    assert x == dense.solve(rows, rhs)
    if x is not None:
        assert [sum((c * row[j] for c, row in zip(x, rows)), ZERO)
                for j in range(len(rhs))] == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n))))
def test_echelon_residuals_and_membership_match_dense(pair):
    (adds, ncols), (probes, _) = pair
    ours, theirs = sparse.Echelon(ncols), dense.Echelon(ncols)
    for v in adds:
        assert ours.add(v) == theirs.add(v)
        assert ours.dim == theirs.dim
    for v in adds + probes:
        assert ours.reduce(v) == theirs.reduce(v)
        assert ours.contains(v) == theirs.contains(v)


@settings(max_examples=100, deadline=None)
@given(_matrix().flatmap(lambda m: st.tuples(
    st.just(m), st.sets(st.integers(0, max(m[1] - 1, 0))))))
def test_intersect_with_coordinate_subspace_matches_dense(case):
    (rows, ncols), allowed = case
    allowed = {c for c in allowed if c < ncols}
    assert (sparse.intersect_with_coordinate_subspace(rows, allowed, ncols)
            == dense.intersect_with_coordinate_subspace(rows, allowed, ncols))
