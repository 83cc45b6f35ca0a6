"""Characteristic forms of curvature matrices with commuting even entries.

A connection enters this library only through its curvature, packaged as a
square matrix of homogeneous degree-2 elements of a graded-commutative
algebra.  Degree-2 elements commute with everything even, so determinants,
traces, matrix powers and Pfaffians all make sense verbatim and every
classical identity between characteristic forms can be checked exactly.

Normalization convention: matrices are taken pre-scaled, with entries
standing for the curvature divided by 2*pi (times i in the complex case).
This keeps every coefficient rational; the transcendental constants of the
differential-geometry formulas are recovered by rescaling outside this
module.

Sign conventions, fixed once here:

  * chern_forms reads c_k off det(1 + F) directly.
  * pontrjagin_forms(F) returns the degree-4k coefficients of det(1 + F)
    for real antisymmetric F, with no extra sign.  The classical relation
    p_k = (-1)^k c_2k refers to the Chern forms of the complexification,
    whose normalized curvature is i*F; since c_2k(i*F) = (-1)^k c_2k(F)
    the two signs cancel, leaving the plain coefficient.  Concretely
    p_1 = -tr(F^2)/2, which is nonnegative-definite in the classical
    setting, and for [[0,a],[-a,0]] gives p_1 = a^2.
  * pfaffian uses the convention Pf([[0,a],[-a,0]]) = a, so Pf^2 = det.
    euler_form is the Pfaffian of the pre-scaled matrix; whether a global
    sign should accompany odd half-sizes is a matter of orientation
    bookkeeping outside the algebra and is not imposed here.
"""

from fractions import Fraction

from .core_algebra import (
    DegreeError,
    GeneratorSet,
    GeneratorSetMismatch,
    Polynomial,
    _integer,
)
from .dgca import DGCA


class CurvatureMatrix:
    """Square matrix of homogeneous degree-2 algebra elements.

    The antisymmetric flag marks matrices of real/orthogonal type and is a
    verified property: setting it checks M + M^T = 0 entrywise.
    """

    def __init__(self, entries, antisymmetric=False):
        rows = [list(row) for row in entries]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must form a nonempty square matrix")
        first = rows[0][0]
        if not isinstance(first, Polynomial):
            raise TypeError("entries must be Polynomial instances")
        gens = first.gens
        for row in rows:
            for p in row:
                if not isinstance(p, Polynomial):
                    raise TypeError("entries must be Polynomial instances")
                if p.gens != gens:
                    raise GeneratorSetMismatch(
                        "matrix entries over different generator sets")
                if not p.is_zero() and p.degree() != 2:
                    raise DegreeError(
                        "matrix entries must be homogeneous of degree 2")
        self.gens = gens
        self.entries = rows
        self.size = len(rows)
        self.antisymmetric = bool(antisymmetric)
        if self.antisymmetric:
            for i in range(self.size):
                for j in range(self.size):
                    if not (rows[i][j] + rows[j][i]).is_zero():
                        raise ValueError(
                            "antisymmetric flag set but M + M^T != 0 "
                            "at (%d, %d)" % (i, j))

    def __repr__(self):
        return "CurvatureMatrix(size=%d%s)" % (
            self.size, ", antisymmetric" if self.antisymmetric else "")


def diagonal_matrix(polys):
    """Diagonal curvature matrix from a list of degree-2 elements."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one diagonal entry")
    z = polys[0].gens.zero()
    entries = [[polys[i] if i == j else z for j in range(len(polys))]
               for i in range(len(polys))]
    return CurvatureMatrix(entries)


def block_sum(a, b):
    """Block-diagonal direct sum; the matrix side of Whitney sums."""
    if a.gens != b.gens:
        raise GeneratorSetMismatch("blocks over different generator sets")
    z = a.gens.zero()
    n, m = a.size, b.size
    entries = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(a.entries[i][j])
            elif i >= n and j >= n:
                row.append(b.entries[i - n][j - n])
            else:
                row.append(z)
        entries.append(row)
    return CurvatureMatrix(
        entries, antisymmetric=a.antisymmetric and b.antisymmetric)


# -- matrix arithmetic over the even subalgebra ---------------------------

def _det(entries, gens):
    # expansion along successive rows, memoized on the surviving columns;
    # valid because all entries commute
    return _minor(entries, gens, {}, tuple(range(len(entries))))


# _minor and _pf are module-level: a nested recursive function refers to
# itself through its cell, a cycle that would keep memo until gc runs
def _minor(entries, gens, memo, cols):
    """The minor of entries on its last len(cols) rows and columns cols."""
    if not cols:
        return gens.one()
    cached = memo.get(cols)
    if cached is not None:
        return cached
    row = len(entries) - len(cols)
    out = gens.zero()
    for j, c in enumerate(cols):
        e = entries[row][c]
        if e.is_zero():
            continue
        term = e * _minor(entries, gens, memo, cols[:j] + cols[j + 1:])
        out = out + (term if j % 2 == 0 else -term)
    memo[cols] = out
    return out


def determinant(phi):
    """Determinant of the matrix itself (not of 1 + matrix)."""
    return _det(phi.entries, phi.gens)


# -- characteristic forms --------------------------------------------------

def _det_one_plus_parts(phi, step, kmax):
    """The degree-step*k parts of det(1 + phi) for k = 1 .. kmax."""
    if _integer(kmax, "kmax") < 0:
        raise ValueError("kmax must be nonnegative")
    one = phi.gens.one()
    shifted = [[phi.entries[i][j] + (one if i == j else 0)
                for j in range(phi.size)] for i in range(phi.size)]
    parts = _det(shifted, phi.gens).homogeneous_parts()
    return [parts.get(step * k, phi.gens.zero())
            for k in range(1, kmax + 1)]


def chern_forms(phi, kmax):
    """Chern forms [c_1 .. c_kmax]: degree-2k parts of det(1 + phi).

    c_0 = 1 is implicit and not returned.  Indices beyond the matrix size
    come back as zero polynomials rather than raising.
    """
    return _det_one_plus_parts(phi, 2, kmax)


def chern_character(phi, cutoff):
    """Chern character through total degree <= cutoff.

    ch = n + sum_{k>=1} tr(phi^k)/k!, truncated after the degree-cutoff
    term; the result is an inhomogeneous even element whose degree-0 part
    is the matrix size.  No matrix power is formed: p_k = tr(phi^k) comes
    from the Chern forms e_k (zero past the size) by Newton's identities
    p_k = sum_{i<k} (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k, which hold
    over any commutative ring, and degree-2 entries commute.
    """
    if _integer(cutoff, "cutoff") < 0:
        raise ValueError("cutoff must be nonnegative")
    e = chern_forms(phi, cutoff // 2)
    out = phi.gens.constant(phi.size)
    p = []
    fact = 1
    for k in range(1, len(e) + 1):
        pk = e[k - 1] * (k if k % 2 else -k)
        for i in range(1, k):
            term = e[i - 1] * p[k - i - 1]
            pk = pk + term if i % 2 else pk - term
        p.append(pk)
        fact *= k
        out = out + pk / fact
    return out


def pontrjagin_forms(phi, kmax):
    """Pontrjagin forms [p_1 .. p_kmax] of an antisymmetric matrix.

    p_k is the degree-4k coefficient of det(1 + phi); see the module
    docstring for why no extra (-1)^k appears.  In particular
    p_1 = -tr(phi^2)/2 identically.
    """
    if not phi.antisymmetric:
        raise ValueError("Pontrjagin forms need an antisymmetric matrix")
    return _det_one_plus_parts(phi, 4, kmax)


def pfaffian(phi):
    """Pfaffian of an antisymmetric matrix of even size.

    Convention Pf([[0,a],[-a,0]]) = a; on generic 4x4 input the result is
    a01*a23 - a02*a13 + a03*a12, and Pf^2 = det always.
    """
    if not phi.antisymmetric:
        raise ValueError("Pfaffian needs an antisymmetric matrix")
    if phi.size % 2:
        raise ValueError("Pfaffian needs even size, got %d" % phi.size)
    return _pf(phi.entries, phi.gens, {}, tuple(range(phi.size)))


def _pf(entries, gens, memo, idx):
    """The Pfaffian of entries on the rows and columns idx, memoized."""
    if not idx:
        return gens.one()
    cached = memo.get(idx)
    if cached is not None:
        return cached
    i0 = idx[0]
    out = gens.zero()
    for j in range(1, len(idx)):
        e = entries[i0][idx[j]]
        if e.is_zero():
            continue
        term = e * _pf(entries, gens, memo, idx[1:j] + idx[j + 1:])
        out = out + (term if j % 2 == 1 else -term)
    memo[idx] = out
    return out


def euler_form(phi):
    """Euler form of a pre-scaled antisymmetric even-size matrix.

    Equal to the Pfaffian under the normalization convention of the module
    docstring; the combinatorial prefactor of the geometric formula is
    absorbed into the entry scaling.
    """
    return pfaffian(phi)


def i8(p1, p2):
    """The standard degree-8 combination (p2 - p1^2/4)/48.

    Arguments are homogeneous elements of degrees 4 and 8 (zero allowed);
    48*i8(p1, p2) + p1^2/4 == p2 identically.
    """
    if not p1.is_zero() and (not p1.is_homogeneous() or p1.degree() != 4):
        raise DegreeError("first argument must be homogeneous of degree 4")
    if not p2.is_zero() and (not p2.is_homogeneous() or p2.degree() != 8):
        raise DegreeError("second argument must be homogeneous of degree 8")
    return (p2 - p1 * p1 / 4) / 48


class InvRing:
    """Free graded-commutative ring on named generators, zero differential.

    Models a ring of invariant polynomials: gauge-invariant combinations of
    curvature entries are closed, so the differential vanishes identically.
    """

    def __init__(self, pairs):
        self.algebra = DGCA(GeneratorSet(pairs))
        self.names = self.algebra.gens.names
        self.degrees = self.algebra.gens.degrees


def inv_ring_sp2():
    """Invariant ring of the rank-2 symplectic group.

    Free on hp1 (degree 4, half the first Pontrjagin form) and ch8
    (degree 8), with zero differential.  In terms of Pontrjagin forms the
    degree-8 generator denotes p2/2 - hp1^2; that relation is about what
    the names stand for, not about this presentation, so it is recorded
    here and not enforced.
    """
    return InvRing([("hp1", 4), ("ch8", 8)])
