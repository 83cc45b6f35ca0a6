"""Sparse exact linear algebra over Fraction, eliminated on integers.

A vector is a sparse row: a ``{column: value}`` dict that holds only
nonzero entries.  A matrix is a sequence of such rows.  Every function here
takes sparse rows whose values are ints or Fractions, mixed freely (the
rows of d hold ints where the differential is integral), and hands out
sparse rows of Fractions, so elimination costs what the nonzeros cost
rather than what the shape costs: the matrices ratho builds are almost
entirely zero.  The private helpers reduce rows in place; the
public functions never mutate their arguments, since callers hand in rows
they keep (ratho._complex memoizes the rows of d), and eliminate on copies.

Inside, elimination is fraction-free.  Each row that comes in is cleared
of its denominators into a row of ints (an int entry has denominator 1,
so an integral row passes unscaled); a row is reduced against a pivot row
by cross-multiplying, a*v - b*row, with a/b the two entries in the pivot
column in lowest terms; and a pivot row is kept primitive: divided by the
gcd of its entries, with a positive lead.  Most entries of the
matrices ratho builds are +-1 over denominators 1, 2 and 4, so the ints
stay small, and no elimination step makes a Fraction.

Every pivot is the lowest nonzero column of its row.  _rref reduces the
pivot rows fully, which gives the reduced row echelon form up to one
positive factor per row; that form is unique for a row space, and so is
the residual of a vector modulo a span once it is zero on every pivot
column, up to the factor _reduce reports.  So dividing at the boundary,
each row by its lead and each residual by its factor, gives Fractions that
are the same as Gauss-Jordan elimination on full Fraction matrices gives,
in whatever order the rows are eliminated; and so is every representative
or witness built from one.  Pivot columns depend only on the span too,
so intersect_with_coordinate_subspace needs no back-reduction: Fractions
leave its Echelon of forward-eliminated rows only through reduce and add.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

ONE = Fraction(1)


def _integer(v):
    """(w, D): the sparse row v is w / D, w a new row of ints and D the
    lcm of v's denominators."""
    D = lcm(*[x.denominator for x in v.values()])
    return {c: x.numerator * (D // x.denominator) for c, x in v.items()}, D


def _reduce(pivots, v):
    """Make the integer row v zero on every pivot column, in place.

    pivots maps each pivot column to its primitive row, whose lowest
    column it is.  Rows are used lowest pivot first, so a row may still
    carry entries on higher pivot columns: those are cleared when their
    turn comes.  Clearing column pc sets v to a*v - b*row, where a/b is
    row[pc] / v[pc] in lowest terms.  Returns (v, scale) with scale the
    product of the a's: scale times the v given, minus an integer
    combination of pivot rows, is the v returned.
    """
    heap = [c for c in v if c in pivots]
    heapify(heap)
    scale = 1
    while heap:
        pc = heappop(heap)
        y = v.get(pc)
        if y is None:
            continue
        row = pivots[pc]
        lead = row[pc]
        g = gcd(lead, y)
        a, b = lead // g, y // g
        if a != 1:
            scale *= a
            for c in v:
                v[c] *= a
        for c, x in row.items():
            z = v.get(c)
            if z is None:
                v[c] = -b * x
                if c in pivots:
                    heappush(heap, c)
            else:
                z -= b * x
                if z:
                    v[c] = z
                else:
                    del v[c]
    return v, scale


def _insert(pivots, v):
    """Add the reduced nonzero integer row v to pivots, divided by its
    content and signed so that its lead is positive; return its pivot."""
    pc = min(v)
    g = gcd(*v.values())
    if v[pc] < 0:
        g = -g
    pivots[pc] = {c: x // g for c, x in v.items()} if g != 1 else v
    return pc


def _monic(row, pc):
    """The Fractions of the integer row divided by its lead, at pc."""
    lead = row[pc]
    return {c: Fraction(x, lead) for c, x in row.items()}


def _echelon(rows):
    """Primitive echelon rows spanning the given rows, by pivot column."""
    pivots = {}
    for r in rows:
        v = _reduce(pivots, _integer(r)[0])[0]
        if v:
            _insert(pivots, v)
    return pivots


def _rref(rows):
    """Reduced row echelon form of rows, as primitive rows by pivot column."""
    pivots = _echelon(rows)
    # from the highest pivot down, each row is reduced against rows that
    # are already fully reduced, so no reduction spills into another
    for pc in sorted(pivots, reverse=True):
        _insert(pivots, _reduce(pivots, pivots.pop(pc))[0])
    return pivots


def rref(rows):
    """Reduced row echelon form: (reduced rows, their pivot columns)."""
    pivots = _rref(rows)
    order = sorted(pivots)
    return [_monic(pivots[pc], pc) for pc in order], order


def sparse_rank(rows):
    """Rank of sparse rows."""
    return len(_echelon(rows))


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
    pivots = _rref(rows)
    basis = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    # in a fully reduced row every entry off the pivot is in a free column
    for pc, row in pivots.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = Fraction(-x, row[pc])
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
    return {pc: Fraction(row[nvec], row[pc])
            for pc, row in pivots.items() if nvec in row}


class Echelon:
    """Incremental echelon basis, for span membership.

    Each pivot is the lowest column of its row, kept as a primitive
    integer row.  reduce() returns the residual of a vector modulo the
    span, in Fractions, which is empty exactly when the vector lies in it.
    add() also adds that residual to the basis and returns it monic, as a
    sparse row: empty when the vector was already in the span.  copy()
    shares the pivot rows: reduce() and add() never change a stored row.
    """

    def __init__(self):
        self._pivots = {}

    def copy(self):
        ech = Echelon()
        ech._pivots = dict(self._pivots)
        return ech

    @property
    def dim(self):
        return len(self._pivots)

    def reduce(self, vec):
        w, D = _integer(vec)
        v, scale = _reduce(self._pivots, w)
        D *= scale
        return {c: Fraction(x, D) for c, x in v.items()}

    def add(self, vec):
        v = _reduce(self._pivots, _integer(vec)[0])[0]
        if not v:
            return {}
        pc = _insert(self._pivots, v)
        return _monic(self._pivots[pc], pc)


def intersect_with_coordinate_subspace(vectors, allowed):
    """Echelon of span(vectors) ∩ {v : v supported on the allowed coordinates}.

    Each column c outside the set allowed moves to ~c, below every column
    (if none is outside, the rows go in as they are), for one forward
    elimination.  A row with pivot >= 0, its lowest column, is zero on every
    moved column; a combination using a row with a moved pivot is nonzero
    at the lowest such pivot.  So the rows with pivots >= 0 span exactly
    the intersection, and are kept as they are."""
    if not allowed.issuperset(chain.from_iterable(vectors)):
        vectors = [{c if c in allowed else ~c: x for c, x in v.items()}
                   for v in vectors]
    ech = Echelon()
    ech._pivots = {pc: r for pc, r in _echelon(vectors).items() if pc >= 0}
    return ech
