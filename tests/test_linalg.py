"""The sparse elimination kernel against the dense oracle.

Reduced row echelon form is unique, so on every input the sparse kernel
must return exactly what dense Gauss-Jordan elimination returns, not just
something equivalent.  Matrices are mostly zero, like the ones ratho
builds, and include all-zero rows and columns and empty shapes.  Entries
are small, like ratho's, or have numerators and denominators up to 10^6,
and some matrices get extra rows that are rational combinations of drawn
ones, so the kernel's integer rows grow, lose their content and cancel to
zero.  The kernel takes sparse rows ({column: value}, no zero entries) of
ints and Fractions and returns sparse rows of Fractions; the tests draw
dense matrices of Fractions for the oracle and convert at this boundary,
and one property gives the same rows with each integral entry as an int,
as the rows of d come.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import _dense_oracle as dense
from ratho import _linalg as sparse

ZERO = Fraction(0)
_WIDE = 10 ** 6
_NONZERO = st.one_of(
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-_WIDE, _WIDE).filter(bool),
              st.integers(1, _WIDE)))
_COEFF = st.one_of(st.just(ZERO), _NONZERO)


def _combination(coeffs, rows, ncols):
    """The dense vector sum(c * row) over ncols columns."""
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO)
            for j in range(ncols)]


def _sparse(vec):
    """The sparse row of a dense vector."""
    return {c: x for c, x in enumerate(vec) if x}


def _sparse_rows(rows):
    return [_sparse(r) for r in rows]


def _dense(row, ncols):
    """The dense vector of length ncols with the entries of a sparse row."""
    assert all(x for x in row.values()), "a sparse row holds a zero"
    v = [ZERO] * ncols
    for c, x in row.items():
        v[c] = x
    return v


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
    """(rows, ncols): dense rows with some rows and columns forced to 0,
    and up to 3 rows inserted that depend on the others."""
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
        for _ in range(draw(st.integers(0, 3))):
            coeffs = [draw(_COEFF) for _ in rows]
            rows.insert(draw(st.integers(0, len(rows))),
                        _combination(coeffs, rows, ncols))
    return rows, ncols


@st.composite
def _system(draw):
    """(rows, rhs): rhs is either in the span of rows or arbitrary."""
    rows, ncols = draw(_matrix())
    if draw(st.booleans()):
        return rows, draw(_vector(ncols, 4))
    coeffs = [draw(_COEFF) for _ in rows]
    return rows, _combination(coeffs, rows, ncols)


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_rref_and_rank_match_dense(m):
    rows, ncols = m
    sparse_rows = _sparse_rows(rows)
    before = copy.deepcopy(sparse_rows)
    red, pivots = sparse.rref(sparse_rows)
    assert ([_dense(r, ncols) for r in red], pivots) == dense.rref(rows)
    assert sparse.sparse_rank(sparse_rows) == dense.rank(rows)
    assert sparse_rows == before


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_sparse_rank_and_dense_round_trip_match_dense(m):
    rows, ncols = m
    sparse_rows = _sparse_rows(rows)
    before = copy.deepcopy(sparse_rows)
    assert sparse.sparse_rank(sparse_rows) == dense.rank(rows)
    assert sparse_rows == before
    assert [_dense(r, ncols) for r in sparse_rows] == rows
    cols = sparse.transpose(sparse_rows)
    assert ([_dense(cols.get(c, {}), len(rows)) for c in range(ncols)]
            == [[row[c] for row in rows] for c in range(ncols)])


@settings(max_examples=100, deadline=None)
@given(_matrix())
def test_nullspace_matches_dense(m):
    rows, ncols = m
    assert ([_dense(v, ncols)
             for v in sparse.nullspace(_sparse_rows(rows), ncols)]
            == dense.nullspace(rows, ncols))


@settings(max_examples=100, deadline=None)
@given(_system())
def test_solve_matches_dense(system):
    rows, rhs = system
    x = sparse.solve(_sparse_rows(rows), _sparse(rhs))
    want = dense.solve(rows, rhs)
    if x is None:
        assert want is None
        return
    x = _dense(x, len(rows))
    assert x == want
    assert _combination(x, rows, len(rhs)) == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n))))
def test_echelon_residuals_and_membership_match_dense(pair):
    (adds, ncols), (probes, _) = pair
    ours, theirs = sparse.Echelon(), dense.Echelon(ncols)
    for v in adds:
        residual = ours.add(_sparse(v))
        assert type(residual) is dict
        assert _dense(residual, ncols) == theirs.add(v)
        assert ours.dim == theirs.dim
    for v in adds + probes:
        assert _dense(ours.reduce(_sparse(v)), ncols) == theirs.reduce(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n),
                        st.sets(st.integers(0, max(n - 1, 0))))))
def test_intersect_with_coordinate_subspace_matches_dense(case):
    """The intersection is an Echelon: its span is the dense basis's, so
    every residual modulo it is the dense residual."""
    (rows, ncols), (probes, _), allowed = case
    allowed = {c for c in allowed if c < ncols}
    ours = sparse.intersect_with_coordinate_subspace(_sparse_rows(rows),
                                                     allowed)
    basis = dense.intersect_with_coordinate_subspace(rows, allowed, ncols)
    assert ours.dim == len(basis)
    theirs = dense.Echelon(ncols)
    for v in basis:
        assert ours.reduce(_sparse(v)) == {}
        theirs.add(v)
    for v in rows + probes:
        assert _dense(ours.reduce(_sparse(v)), ncols) == theirs.reduce(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n), _vector(n, 4),
                        st.sets(st.integers(0, max(n - 1, 0))))))
def test_entry_points_leave_their_input_unchanged(case):
    """Callers pass rows they keep (the memoized rows of d), so no entry
    point may reduce its arguments in place."""
    (rows, ncols), (probes, _), rhs, allowed = case
    rows, probes, rhs = (_sparse_rows(rows), _sparse_rows(probes),
                         _sparse(rhs))
    allowed = {c for c in allowed if c < ncols}
    ech = sparse.Echelon()
    calls = [
        lambda: sparse.rref(rows),
        lambda: sparse.sparse_rank(rows),
        lambda: sparse.transpose(rows),
        lambda: sparse.nullspace(rows, ncols),
        lambda: sparse.solve(rows, rhs),
        lambda: sparse.intersect_with_coordinate_subspace(rows, allowed),
        lambda: sparse.intersect_with_coordinate_subspace(
            rows, set(range(ncols))),
    ]
    # adds first, so the probes below meet pivots to reduce against
    calls += [lambda v=v: ech.add(v) for v in rows + probes]
    calls += [lambda v=v: ech.reduce(v) for v in rows + probes]
    for call in calls:
        before = copy.deepcopy((rows, probes, rhs, allowed))
        call()
        assert (rows, probes, rhs, allowed) == before


def _values(result):
    """Every value in a sparse row or a list of them."""
    if isinstance(result, dict):
        return list(result.values())
    return [x for row in result for x in row.values()]


def _with_ints(row):
    """The sparse row with each integral entry as an int."""
    return {c: x.numerator if x.denominator == 1 else x
            for c, x in row.items()}


def _entry_point_results(rows, ncols, probes, srows, rhs, allowed):
    """The sparse rows, or lists of them, that the entry points return."""
    ech = sparse.Echelon()
    inter = sparse.intersect_with_coordinate_subspace(rows, allowed)
    results = [sparse.rref(rows)[0], sparse.nullspace(rows, ncols),
               sparse.solve(srows, rhs) or {},
               [inter.reduce(v) for v in rows + probes],
               [inter.copy().add(v) for v in probes]]
    results += [ech.add(v) for v in rows + probes]
    results += [ech.reduce(v) for v in rows + probes]
    return results


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n), _system(),
                        st.sets(st.integers(0, max(n - 1, 0))))))
def test_entry_points_return_nonzero_fractions(case):
    """The kernel eliminates on ints; what leaves it is a nonzero Fraction,
    since ratho._complex wraps it in Polynomials without a type check.
    The rows of d hold ints where the differential is integral, so the
    same rows with each integral entry as an int give the same Fractions."""
    (rows, ncols), (probes, _), (srows, rhs), allowed = case
    rows, probes, srows = (_sparse_rows(rows), _sparse_rows(probes),
                           _sparse_rows(srows))
    rhs = _sparse(rhs)
    allowed = {c for c in allowed if c < ncols}
    results = _entry_point_results(rows, ncols, probes, srows, rhs, allowed)
    ints = [[_with_ints(r) for r in part] for part in (rows, probes, srows)]
    int_results = _entry_point_results(ints[0], ncols, ints[1], ints[2],
                                       _with_ints(rhs), allowed)
    assert int_results == results
    assert sparse.sparse_rank(ints[0]) == sparse.sparse_rank(rows)
    for result in results + int_results:
        assert all(type(x) is Fraction and x for x in _values(result))
