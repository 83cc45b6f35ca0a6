"""Finite graded cochain complexes: the linear algebra under cohomology.

Ordinary cohomology of a DGCA (graded by degree, dgca._slices) and twisted
de Rham cohomology (graded by residue, twisted_derham._residues) are both
computed here.  A grading adapter supplies, for each grade k, basis(k), a
finite list of monomials in a fixed order; window(m), whether a monomial
lies in the cocycle window (None: every monomial does); shift(k, s), the
grade s steps away, so d maps grade k to shift(k, 1); and d(m), the
differential of one monomial as a term dict {monomial: coefficient} with
no zero coefficients, each an int where the differential is integral and
a Fraction elsewhere.  The adapter reads the differential's derivation
table once, when it builds the Complex, so d(m) makes no Polynomial and
does no validation.

Window and overflow rule.  The columns of grade k are basis(k) followed
by its overflow: the monomials outside basis(k) that d of a monomial of
grade shift(k, -1) produces, in order of first appearance.  An adapter
without overflow raises "element leaves the truncated slice" instead.
Cocycles of grade k are the kernel of d on the window monomials of
basis(k), against their full images, overflow included.  Boundaries are
the image of d on all of basis(shift(k, -1)) intersected with the span of
the window coordinates of grade k: the image directions with any entry on
a coordinate outside the window, overflow or not, are cut.  One echelon
of them per grade, _bounds(k), serves dims, homology, image and class_key:
dim H^k = |window| - rank(d on the window) - its dim, and without a window
or overflow this is plain cohomology.

Maps into cohomology.  image(k, vectors) takes the map R^m -> H^k that
sends e_i to the class of vectors[i], a sparse row over basis(k), and
returns (relations, cokernel).  relations is a basis of its kernel over
the indices 0..m-1: the nullspace of the residuals of vectors modulo the
boundaries, by increasing free index.  cokernel lists, in homology(k)'s
order, the representatives new modulo the boundaries plus the span of
vectors.  homology(k) is computed first, so slice errors come in its
order.  No other module calls ratho._linalg.

Each basis, each monomial's row of d, each grade's boundary echelon and
each grade's homology is built once per instance, on first use.  An
instance serves one computation: the objects it reads (DGCA.d in
particular) are mutable, so nothing is kept on them.

Vectors over basis(k), the rows of d among them, are sparse rows
{position: coefficient}, the one vector format of ratho._linalg, and the
memoized rows go to it as they are, ints included; every vector it
returns, and so every Polynomial made here, holds Fractions.  Only
class_key returns a full tuple over basis(k), since a key must be
hashable.
"""

from collections import namedtuple
from fractions import Fraction

from . import _linalg
from .core_algebra import _trusted

ZERO = Fraction(0)
LEAVES = "element leaves the truncated slice"

# kernel is a basis of the cocycles as sparse rows over basis(k), dim is
# dim H^k; for each new class, representatives holds the cocycle reduced
# modulo the boundaries and the classes before it, cocycles the kernel
# vector it came from
Homology = namedtuple("Homology", "kernel dim representatives cocycles")


def _once(method):
    """Memoize a method per instance, keyed on its arguments."""
    def memoized(self, *args):
        key = (method.__name__,) + args
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return memoized


class Complex:
    """A finite graded cochain complex fed by a grading adapter."""

    def __init__(self, gens, basis, shift, d, window=None, overflow=False):
        self.gens = gens
        self._basis = basis
        self._shift = shift
        self._d = d
        self._in_window = window
        self._overflow = overflow
        self._memo = {}

    @_once
    def basis(self, k):
        return self._basis(k)

    @_once
    def window(self, k):
        """Positions in basis(k) of the cocycle window."""
        basis = self.basis(k)
        if self._in_window is None:
            return range(len(basis))
        return [i for i, m in enumerate(basis) if self._in_window(m)]

    @_once
    def _columns(self, k):
        """Column monomials of grade k (grown by overflow) and positions."""
        cols = list(self.basis(k))
        return cols, {m: i for i, m in enumerate(cols)}

    def _rows(self, k, positions):
        """Sparse rows {column: coefficient} of d on basis(k)[i], i in
        positions, each built on first use."""
        memo = self._memo.setdefault(("rows", k), {})
        missing = [i for i in positions if i not in memo]
        if missing:
            basis = self.basis(k)
            cols, pos = self._columns(self._shift(k, 1))
            for i in missing:
                row = {}
                for m, c in self._d(basis[i]).items():
                    j = pos.get(m)
                    if j is None:
                        if not self._overflow:
                            raise ValueError(LEAVES)
                        j = pos[m] = len(cols)
                        cols.append(m)
                    row[j] = c
                memo[i] = row
        return [memo[i] for i in positions]

    def _incoming(self, k):
        """Rows of d on all of the grade before k."""
        j = self._shift(k, -1)
        return self._rows(j, range(len(self.basis(j))))

    def dims(self, k):
        """|window| - rank(d on the window) - dim of the boundary echelon."""
        window = self.window(k)
        return (len(window) - _linalg.sparse_rank(self._rows(k, window))
                - self._bounds(k).dim)

    @_once
    def kernel(self, k):
        """Basis of the cocycles of grade k, as sparse rows over basis(k)."""
        window = self.window(k)
        rows = self._rows(k, window)
        if not rows:
            return []
        # columns of the system are the d-images of the window monomials
        return [{window[j]: x for j, x in v.items()}
                for v in _linalg.nullspace(_linalg.transpose(rows).values(),
                                           len(rows))]

    @_once
    def _bounds(self, k):
        """Echelon of the boundaries inside the window; never added to."""
        return _linalg.intersect_with_coordinate_subspace(
            self._incoming(k), set(self.window(k)))

    @_once
    def homology(self, k):
        """Kernel, dim H^k and one canonical class per new cocycle."""
        kernel = self.kernel(k)
        bounds = self._bounds(k)
        ech = bounds.copy()
        reps, cocycles = [], []
        for v in kernel:
            r = ech.add(v)
            if r:
                reps.append(self.poly(k, r))
                cocycles.append(self.poly(k, v))
        return Homology(kernel, len(kernel) - bounds.dim, reps, cocycles)

    def image(self, k, vectors):
        """(relations, cokernel) of R^m -> H^k, e_i -> [vectors[i]]; see
        "Maps into cohomology" above."""
        reps = self.homology(k).representatives
        ech = self._bounds(k).copy()
        resid = [ech.reduce(v) for v in vectors]
        # a list, so that every residual is added; if each is new, the
        # residuals are independent and there is no relation
        relations = [] if all([ech.add(r) for r in resid]) else (
            _linalg.nullspace(_linalg.transpose(resid).values(), len(resid)))
        return relations, [p for p in reps if ech.add(self.vector(k, p))]

    def primitive(self, k, p):
        """y of grade shift(k, -1) with d(y) = p, or None if none exists."""
        rows = self._incoming(k)
        pos = self._columns(k)[1]
        target = {}
        for m, c in p.terms.items():
            if m not in pos:
                if not self._overflow:
                    raise ValueError(LEAVES)
                return None
            target[pos[m]] = c
        x = _linalg.solve(rows, target)
        return None if x is None else self.poly(self._shift(k, -1), x)

    def class_key(self, k, p):
        """Canonical key of p's class: its residue modulo the boundaries."""
        r = self._bounds(k).reduce(self.vector(k, p))
        return tuple(r.get(i, ZERO) for i in range(len(self.basis(k))))

    def vector(self, k, p):
        """Sparse coordinates of p over basis(k)."""
        nb = len(self.basis(k))
        pos = self._columns(k)[1]
        v = {}
        for m, c in p.terms.items():
            i = pos.get(m, nb)
            if i >= nb:
                raise ValueError(LEAVES)
            v[i] = c
        return v

    def poly(self, k, v):
        """The polynomial with sparse coordinates v, terms in basis order."""
        basis = self.basis(k)
        return _trusted(self.gens,
                        {basis[i]: v[i] for i in sorted(v) if v[i]})

    def combine(self, k, coeffs, vectors):
        """The polynomial sum(c * v) over basis(k)."""
        total = {}
        for c, v in zip(coeffs, vectors):
            if c:
                for i, x in v.items():
                    total[i] = total.get(i, ZERO) + c * x
        return self.poly(k, total)
