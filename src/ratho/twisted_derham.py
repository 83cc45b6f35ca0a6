"""Twisted de Rham complexes: differential d - H /\\ (-), 2r-periodic ranks.

The twist H is a closed homogeneous element of odd degree 2r + 1 and acts by
left wedge, so the twisted differential raises total degree mod 2r by one.
For r >= 1 the complex folds into 2r residues; the degree-1 case r = 0 stays
graded by plain degree.  Bases must be finite-dimensional (all generators
odd) or come with an explicit total-degree truncation, in which case every
reported rank is flagged boundary_affected: kernels are computed against the
full, untruncated images, boundaries only from witnesses inside the window.
The linear algebra is ratho._complex's, with _residues as its grading
adapter, so each residue's differential is built once per computation.
_residues reads the base's derivation table and the twist's terms once per
complex and maps each monomial through dgca._d_row, the row kernel of
ordinary cohomology too, to the term dict of d(m) - H*m; twisted_d is the
Polynomial form of the same map.
"""

from ._complex import Complex
from .core_algebra import GeneratorSetMismatch, _integer, basis_of_degree
from .dgca import _d_row, _derivation_table, _row_terms, apply_d


class TwistedComplex:
    """Base dgca, closed odd twist, period; finite or explicitly truncated."""

    def __init__(self, base, twist, period=None, truncation=None):
        self.base = base
        self.twist = twist
        if any(d == 0 for d in base.gens.degrees):
            raise ValueError("degree-0 generators are not supported here")
        period = None if period is None else _integer(period, "period")
        if twist.is_zero():
            if period is None:
                raise ValueError("zero twist needs an explicit period")
        else:
            deg = twist.degree()
            if deg % 2 == 0:
                raise ValueError("twist degree must be odd")
            if period is None:
                period = (deg - 1) // 2
            elif 2 * period + 1 != deg:
                raise ValueError("twist degree %d does not match period %d"
                                 % (deg, period))
            if not apply_d(base, twist).is_zero():
                raise ValueError("twist must be closed")
        if period < 0:
            raise ValueError("period must be >= 0")
        self.period = period
        self.finite = all(d % 2 for d in base.gens.degrees)
        if self.finite:
            self.top = sum(base.gens.degrees)
            self.truncation = None
        else:
            if truncation is None:
                raise ValueError(
                    "even-degree generators need a total-degree truncation")
            self.top = self.truncation = _integer(truncation, "truncation")

    def residues(self):
        if self.period == 0:
            return list(range(self.top + 1))
        return list(range(2 * self.period))

    def fold(self, n):
        """The residue of degree n: n mod 2r, or n itself when r = 0."""
        return n % (2 * self.period) if self.period else n

    def residue_basis(self, k):
        """Monomials of total degree <= top whose degree folds to k's.

        Only the degrees of that residue are enumerated: fold(k) and every
        2r above it up to top, or k alone when r = 0 and 0 <= k <= top.
        """
        if self.period:
            degrees = range(self.fold(k), self.top + 1, 2 * self.period)
        else:
            degrees = [k] if 0 <= k <= self.top else []
        return [m for n in degrees for m in basis_of_degree(self.base.gens, n)]

    def __repr__(self):
        return "TwistedComplex(period=%d, twist=%s)" % (self.period, self.twist)


def twisted_d(C, x):
    """d(x) - H * x."""
    if x.gens != C.base.gens:
        raise GeneratorSetMismatch("element does not live on the twisted base")
    return apply_d(C.base, x) - C.twist * x


class TwistedClass:
    """Twisted-closed representative in a fixed residue."""

    def __init__(self, complex_, rep, residue=None):
        self.complex = complex_
        self.rep = rep
        folded = {complex_.fold(complex_.base.gens.monomial_degree(m))
                  for m in rep.terms}
        if len(folded) > 1:
            raise ValueError("representative mixes residues")
        if residue is None:
            if not folded:
                raise ValueError("zero representative needs an explicit residue")
            residue = folded.pop()
        elif folded and folded != {complex_.fold(residue)}:
            raise ValueError("representative does not lie in residue %d" % residue)
        self.residue = complex_.fold(residue)
        if not twisted_d(complex_, rep).is_zero():
            raise ValueError("representative is not twisted-closed")

    def __eq__(self, other):
        return (isinstance(other, TwistedClass)
                and self.complex is other.complex
                and self.residue == other.residue and self.rep == other.rep)

    __hash__ = None

    def __repr__(self):
        return "TwistedClass(residue=%d, rep=%s)" % (self.residue, self.rep)


class TwistedSlice:
    """Rank data of one residue of the twisted complex."""

    def __init__(self, residue, dim, representatives, boundary_affected):
        self.residue = residue
        self.dim = dim
        self.representatives = representatives
        self.boundary_affected = boundary_affected

    def __repr__(self):
        flag = ", boundary-affected" if self.boundary_affected else ""
        return "<twisted H_%d dim %d%s>" % (self.residue, self.dim, flag)


def _residues(C):
    """The finite complex of C's residues, truncation overflow kept.

    Every monomial of a residue is in its window, so cocycles are taken
    against the full, untruncated images and only boundaries are cut.  The
    base's derivation table and the twist's terms are read once here, each
    integral coefficient as an int.
    """
    gens = C.base.gens
    table = _derivation_table(C.base)
    twist = _row_terms(C.twist)
    return Complex(gens, C.residue_basis, lambda k, s: C.fold(k + s),
                   lambda m: _d_row(gens, table, m, twist), overflow=True)


def twisted_cohomology(C):
    """TwistedSlice per residue: exact ranks of the folded two-term complexes."""
    cx = _residues(C)
    out = []
    for k in C.residues():
        h = cx.homology(k)
        reps = [TwistedClass(C, p, residue=k) for p in h.cocycles]
        out.append(TwistedSlice(k, h.dim, reps, not C.finite))
    return out


def twisted_cohomology_dims(C):
    """Per-residue dimensions, from ranks only; equal to twisted_cohomology's.

    Each residue's differential is built once and its rank taken once; no
    kernel basis or representative is formed.
    """
    cx = _residues(C)
    return tuple(cx.dims(k) for k in C.residues())


def twisted_is_exact(C, x, residue=None):
    """Witness y with twisted_d(y) = x inside the truncated window, or None."""
    if x.is_zero():
        return C.base.zero()
    cls = TwistedClass(C, x, residue)
    return _residues(C).primitive(cls.residue, x)


def op_wedge_twist(C, cls):
    """Right wedge with the twist: rep -> rep * H, same complex, residue + 1.

    H has degree 2r + 1, which folds to 1 for every r.
    """
    if cls.complex is not C:
        raise ValueError("class does not live on this complex")
    return TwistedClass(C, cls.rep * C.twist,
                        residue=C.fold(cls.residue + 2 * C.period + 1))


def op_wedge_square(C, cls):
    """Square an even-residue class; lands in the complex twisted by 2H."""
    if cls.complex is not C:
        raise ValueError("class does not live on this complex")
    if cls.residue % 2:
        raise ValueError("wedge square needs an even residue")
    doubled = TwistedComplex(C.base, 2 * C.twist, period=C.period,
                             truncation=C.truncation)
    return TwistedClass(doubled, cls.rep * cls.rep,
                        residue=C.fold(2 * cls.residue))


def op_square_then_twist(C, cls):
    """Square, then wedge with the doubled twist."""
    sq = op_wedge_square(C, cls)
    return op_wedge_twist(sq.complex, sq)
