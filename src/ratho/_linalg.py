"""Sparse exact linear algebra over Fraction.

The public functions take and return dense vectors (lists of Fraction) and
matrices (lists of row vectors), except sparse_rank, which takes sparse
rows directly.  Inside, a row is a ``{column: value}`` dict that holds
only nonzero entries, so elimination costs what the nonzeros cost rather
than what the shape costs: the matrices ratho builds are almost entirely
zero.  dense and dense_transpose turn sparse rows built by callers into
the dense arguments, with every zero the shared ZERO.

Every pivot is the lowest nonzero column of its row and pivot rows are
monic.  rref reduces them fully, which gives the reduced row echelon form;
that form is unique for a row space, and so is the residual of a vector
modulo a span once it is zero on every pivot column.  Every result here,
and every representative or witness built from one, is therefore the same
as dense Gauss-Jordan elimination gives, in whatever order the rows are
eliminated.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

ZERO = Fraction(0)
ONE = Fraction(1)


def _sparse(vec):
    # callers fill a vector from one shared Fraction(0): skipping that
    # object by identity saves a Fraction.__bool__ call on most zeros
    zero = next((x for x in vec if not x), None)
    return {c: x for c, x in enumerate(vec) if x is not zero and x}


def dense(row, ncols):
    """The dense vector of length ncols with the entries of a sparse row."""
    v = [ZERO] * ncols
    for c, x in row.items():
        v[c] = x
    return v


def dense_transpose(rows, ncols):
    """The dense transpose of sparse rows over ncols columns."""
    cols = [[ZERO] * len(rows) for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            cols[c][i] = x
    return cols


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
    """Monic echelon rows spanning the given sparse rows, by pivot column."""
    pivots = {}
    for v in rows:
        if _reduce(pivots, v):
            _insert(pivots, v)
    return pivots


def _rref(rows):
    """Reduced row echelon form of the given sparse rows, by pivot column."""
    pivots = _echelon(rows)
    # from the highest pivot down, each row is reduced against rows that
    # are already fully reduced, so no reduction spills into another
    for pc in sorted(pivots, reverse=True):
        row = pivots.pop(pc)
        pivots[pc] = _reduce(pivots, row)
    return pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns).  Input is not mutated.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = _rref(_sparse(r) for r in rows)
    order = sorted(pivots)
    return [dense(pivots[pc], ncols) for pc in order], order


def sparse_rank(rows):
    """Rank of sparse rows ({column: Fraction}, no zero entries).

    The rows are copied before elimination, which reduces rows in place,
    so the input is not mutated.
    """
    return len(_echelon(dict(r) for r in rows))


def rank(rows):
    return sparse_rank(_sparse(r) for r in rows)


def nullspace(rows, ncols):
    """Basis of the right null space of the matrix, as vectors of length ncols.

    One basis vector per free column, with that free coordinate set to 1;
    ordered by increasing free-column index.
    """
    pivots = _rref(_sparse(r) for r in rows)
    # in a fully reduced row every entry off the pivot is in a free column
    by_free = {}
    for pc, row in pivots.items():
        for c, x in row.items():
            if c != pc:
                by_free.setdefault(c, []).append((pc, -x))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for pc, x in by_free.get(free, ()):
            v[pc] = x
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve sum_i x_i * rows[i] = rhs for the coefficient list x.

    Treats the given rows as spanning vectors and rhs as a target vector;
    returns a coefficient list or None if rhs is outside the span.  Vectors
    that depend on earlier ones get coefficient 0.
    """
    if not rows:
        return None if any(x != 0 for x in rhs) else []
    # columns of the system are the spanning vectors; augment with rhs
    nvec = len(rows)
    aug = {}
    for i, row in enumerate(list(rows) + [rhs]):
        for c, x in _sparse(row).items():
            aug.setdefault(c, {})[i] = x
    pivots = _rref(aug.values())
    if nvec in pivots:
        return None
    x = [ZERO] * nvec
    for pc, row in pivots.items():
        x[pc] = row.get(nvec, ZERO)
    return x


class Echelon:
    """Incremental echelon basis with monic pivots, for span membership.

    Each pivot is the lowest nonzero coordinate of its row.  add() returns
    the residual of the vector after reduction, made monic (the zero
    vector means it was already in the span).
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._pivots = {}

    @property
    def dim(self):
        return len(self._pivots)

    def reduce(self, vec):
        return dense(_reduce(self._pivots, _sparse(vec)), self.ncols)

    def add(self, vec):
        v = _reduce(self._pivots, _sparse(vec))
        if not v:
            return [ZERO] * self.ncols
        return dense(_insert(self._pivots, v), self.ncols)

    def contains(self, vec):
        return not _reduce(self._pivots, _sparse(vec))


def intersect_with_coordinate_subspace(vectors, allowed, ncols):
    """Basis of span(vectors) ∩ {v : v supported on the allowed coordinates}.

    allowed is a set of coordinate indices.  Works by reordering columns so
    the disallowed ones come first; rref rows whose pivot falls in the
    allowed block are supported there entirely.
    """
    disallowed = [c for c in range(ncols) if c not in allowed]
    order = disallowed + [c for c in range(ncols) if c in allowed]
    inv_order = [0] * ncols
    for pos, c in enumerate(order):
        inv_order[c] = pos
    pivots = _rref({inv_order[c]: x for c, x in _sparse(v).items()}
                   for v in vectors)
    cut = len(disallowed)
    return [dense({order[pos]: x for pos, x in pivots[pc].items()}, ncols)
            for pc in sorted(pivots) if pc >= cut]
