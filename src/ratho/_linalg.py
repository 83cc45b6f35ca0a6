"""Sparse exact linear algebra over Fraction.

A vector is a sparse row: a ``{column: value}`` dict that holds only
nonzero entries.  A matrix is a sequence of such rows.  Every function here
takes and returns sparse rows, so elimination costs what the nonzeros cost
rather than what the shape costs: the matrices ratho builds are almost
entirely zero.  The private helpers reduce rows in place; the public
functions never mutate their arguments, since callers hand in rows they
keep (ratho._complex memoizes the rows of d), and eliminate on copies.

Every pivot is the lowest nonzero column of its row and pivot rows are
monic.  _rref reduces them fully, which gives the reduced row echelon form;
that form is unique for a row space, and so is the residual of a vector
modulo a span once it is zero on every pivot column.  Every result here,
and every representative or witness built from one, is therefore the same
as Gauss-Jordan elimination on full matrices gives, in whatever order the
rows are eliminated.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

ONE = Fraction(1)


def _reduce(pivots, v):
    """Make the sparse row v zero on every pivot column, in place.

    pivots maps each pivot column to its monic row, whose lowest column it
    is.  Rows are used lowest pivot first, so a row may still carry entries
    on higher pivot columns: those are cleared when their turn comes.
    """
    heap = [c for c in v if c in pivots]
    heapify(heap)
    while heap:
        pc = heappop(heap)
        f = v.get(pc)
        if f is None:
            continue
        for c, x in pivots[pc].items():
            y = v.get(c)
            if y is None:
                v[c] = -f * x
                if c in pivots:
                    heappush(heap, c)
            else:
                y -= f * x
                if y:
                    v[c] = y
                else:
                    del v[c]
    return v


def _insert(pivots, v):
    """Add the reduced nonzero row v to pivots, scaled to be monic."""
    pc = min(v)
    inv = ONE / v[pc]
    row = pivots[pc] = {c: x * inv for c, x in v.items()}
    return row


def _echelon(rows):
    """Monic echelon rows spanning the given rows, by pivot column."""
    pivots = {}
    for v in rows:
        if _reduce(pivots, v):
            _insert(pivots, v)
    return pivots


def _rref(rows):
    """Reduced row echelon form of the given rows, by pivot column."""
    pivots = _echelon(rows)
    # from the highest pivot down, each row is reduced against rows that
    # are already fully reduced, so no reduction spills into another
    for pc in sorted(pivots, reverse=True):
        row = pivots.pop(pc)
        pivots[pc] = _reduce(pivots, row)
    return pivots


def rref(rows):
    """Reduced row echelon form: (reduced rows, their pivot columns)."""
    pivots = _rref(dict(r) for r in rows)
    order = sorted(pivots)
    return [pivots[pc] for pc in order], order


def sparse_rank(rows):
    """Rank of sparse rows."""
    return len(_echelon(dict(r) for r in rows))


def transpose(rows):
    """The columns of sparse rows: {column: {row index: value}}."""
    cols = {}
    for i, row in enumerate(rows):
        for c, x in row.items():
            cols.setdefault(c, {})[i] = x
    return cols


def nullspace(rows, ncols):
    """Basis of the right null space of sparse rows over ncols columns.

    One basis vector per free column, with that free coordinate set to 1;
    ordered by increasing free-column index.
    """
    pivots = _rref(dict(r) for r in rows)
    basis = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    # in a fully reduced row every entry off the pivot is in a free column
    for pc, row in pivots.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def solve(rows, rhs):
    """Solve sum_i x[i] * rows[i] = rhs for the sparse coefficient row x.

    Treats the given rows as spanning vectors and rhs as a target vector;
    returns x or None if rhs is outside the span.  Vectors that depend on
    earlier ones get coefficient 0.
    """
    if not rows:
        return None if rhs else {}
    # columns of the system are the spanning vectors; augment with rhs
    nvec = len(rows)
    pivots = _rref(transpose(list(rows) + [rhs]).values())
    if nvec in pivots:
        return None
    return {pc: row[nvec] for pc, row in pivots.items() if nvec in row}


class Echelon:
    """Incremental echelon basis with monic pivots, for span membership.

    Each pivot is the lowest column of its row.  reduce() returns the
    residual of a vector modulo the span, which is empty exactly when the
    vector lies in it.  add() also adds that residual, made monic, to the
    basis and returns its (column, value) pairs: none when the vector was
    already in the span.
    """

    def __init__(self):
        self._pivots = {}

    @property
    def dim(self):
        return len(self._pivots)

    def reduce(self, vec):
        return _reduce(self._pivots, dict(vec))

    def add(self, vec):
        v = _reduce(self._pivots, dict(vec))
        return list(_insert(self._pivots, v).items()) if v else []


def intersect_with_coordinate_subspace(vectors, allowed, ncols):
    """Basis of span(vectors) ∩ {v : v supported on the allowed coordinates}.

    allowed is a set of coordinates below ncols.  Each allowed column c
    moves to c + ncols, after every disallowed one; the rref rows whose
    pivot falls there are supported on the allowed coordinates entirely.
    """
    pivots = _rref({c + ncols if c in allowed else c: x
                    for c, x in v.items()} for v in vectors)
    return [{c - ncols: x for c, x in pivots[pc].items()}
            for pc in sorted(pivots) if pc >= ncols]
