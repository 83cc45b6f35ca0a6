"""Differential graded-commutative algebras and their cohomology.

A DGCA is a free graded-commutative algebra together with a differential
assignment on generators, each d(g) homogeneous of degree |g|+1 (or zero),
extended to everything as a graded derivation.  d*d = 0 is a certified
property (check_d_squared), not a constructor assumption.

Cohomology is computed degreewise by sparse exact-rational row reduction
(ratho._linalg) that pivots on the lowest nonzero column.  Reduced row
echelon form is unique, so representatives are reproducible across runs
and do not depend on how the elimination is carried out.  The rows of d
are built sparse, by one builder (_d_rows); cohomology, is_exact and
is_quasi_iso densify them for the representative and witness routines,
while cohomology_dims only takes ranks of them and never forms a kernel
basis or a representative.

Truncation semantics for algebras with degree-0 generators (interval,
simplex and cylinder algebras): the differential never raises the total
exponent of degree-0 generators, so the sub-space of polynomial degree
<= D is a subcomplex.  cohomology(..., polybound=D) takes cocycles of
polynomial degree <= D-1 modulo differentials of elements of polynomial
degree <= D.  With this convention the inclusion of a base algebra into
its cylinder is a quasi-isomorphism at every D >= 1, and on simplex
algebras every closed positive-degree element of polynomial degree < D
is exact (Poincare lemma at truncation scale).
"""

from fractions import Fraction

from . import _linalg
from .core_algebra import (
    GeneratorSet,
    Polynomial,
    AlgebraMorphism,
    apply_morphism,
    basis_of_degree,
    gens_of,
)


class NotClosedError(ValueError):
    pass


class ChainMapError(ValueError):
    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator


class DGCA:
    """Finitely presented differential graded-commutative algebra."""

    def __init__(self, gens, d=None):
        self.gens = gens if isinstance(gens, GeneratorSet) else GeneratorSet(gens)
        d = dict(d or {})
        self.d = {}
        for name in self.gens.names:
            p = d.pop(name, None)
            if p is None:
                p = self.gens.zero()
            if not isinstance(p, Polynomial) or p.gens != self.gens:
                raise ValueError("d(%s) is not a polynomial over the algebra"
                                 % name)
            if not p.is_zero() and p.degree() != self.gens.degree_of(name) + 1:
                raise ValueError(
                    "d(%s) must be homogeneous of degree %d"
                    % (name, self.gens.degree_of(name) + 1))
            self.d[name] = p
        if d:
            raise ValueError("differential for unknown generators %s"
                             % sorted(d))

    # element builders, delegated to the generator context
    def zero(self):
        return self.gens.zero()

    def one(self):
        return self.gens.one()

    def constant(self, c):
        return self.gens.constant(c)

    def gen(self, name):
        return self.gens.gen(name)

    def monomial(self, powers, coeff=1):
        return self.gens.monomial(powers, coeff)

    def __eq__(self, other):
        return (isinstance(other, DGCA) and self.gens == other.gens
                and self.d == other.d)

    __hash__ = None

    def __repr__(self):
        eqs = ["d %s = %s" % (n, self.d[n]) for n in self.gens.names
               if not self.d[n].is_zero()]
        return "<DGCA %s | %s>" % (
            ", ".join("%s:%d" % (n, d)
                      for n, d in zip(self.gens.names, self.gens.degrees)),
            "; ".join(eqs) if eqs else "d = 0")


def apply_d(A, p):
    """Extend the generator assignment as a degree +1 graded derivation."""
    gens = A.gens
    if p.gens != gens:
        raise ValueError("polynomial not over the algebra")
    out = gens.zero()
    n = len(gens)
    for m, c in p.terms.items():
        for i in range(n):
            e = m[i]
            if e == 0:
                continue
            dgi = A.d[gens.names[i]]
            if dgi.is_zero():
                continue
            prefix = list(m[:i]) + [e - 1] + [0] * (n - i - 1)
            suffix = [0] * (i + 1) + list(m[i + 1:])
            pre_deg = gens.monomial_degree(prefix)
            sign = -1 if pre_deg % 2 else 1
            term = gens.from_exponents(prefix, c * e * sign)
            term = term * dgi * gens.from_exponents(suffix)
            out = out + term
    return out


class DSquaredReport:
    def __init__(self, failures):
        self.failures = failures  # list of (generator name, residual)

    @property
    def passed(self):
        return not self.failures

    def __str__(self):
        if self.passed:
            return "d^2 = 0 on all generators"
        return "; ".join("d^2(%s) = %s" % (n, r) for n, r in self.failures)


def check_d_squared(A):
    """d*d on every generator; zero there suffices by the Leibniz rule."""
    failures = []
    for name in A.gens.names:
        r = apply_d(A, A.d[name])
        if not r.is_zero():
            failures.append((name, r))
    return DSquaredReport(failures)


# -- slice linear algebra -------------------------------------------------


def _zero_degree_exponent(gens, m):
    return sum(e for e, d in zip(m, gens.degrees) if d == 0)


class _Slice:
    """Linear-algebra data of one cohomological degree.

    basis indexes the witness-budget slice (polynomial degree <= D); the
    window is the sub-list of coordinates within budget D-1, where cocycles
    live.  Without degree-0 generators window == everything.
    """

    def __init__(self, A, n, polybound):
        self.A = A
        self.n = n
        self.polybound = polybound
        gens = A.gens
        bounded = any(d == 0 for d in gens.degrees)
        if bounded and (polybound is None or polybound < 1):
            # basis_of_degree raises the canonical error for None
            basis_of_degree(gens, max(n, 0), polybound)
            raise ValueError("polybound must be >= 1")
        self.bounded = bounded
        self.basis = basis_of_degree(gens, n, polybound) if n >= 0 else []
        self.pos = {m: i for i, m in enumerate(self.basis)}
        if bounded:
            self.window = [i for i, m in enumerate(self.basis)
                           if _zero_degree_exponent(gens, m) <= polybound - 1]
        else:
            self.window = list(range(len(self.basis)))

    def row(self, p):
        """Sparse coordinates {index: coefficient} of p in this slice."""
        out = {}
        for m, c in p.terms.items():
            if m not in self.pos:
                raise ValueError("element leaves the truncated slice")
            out[self.pos[m]] = c
        return out

    def vector(self, p):
        return _linalg.dense(self.row(p), len(self.basis))

    def poly(self, v):
        out = self.A.gens.zero()
        for i, c in enumerate(v):
            if c:
                out = out + self.A.gens.from_exponents(self.basis[i], c)
        return out


def _d_rows(A, monomials, target):
    """Sparse rows of d on the given monomials, in the target slice."""
    return [target.row(apply_d(A, A.gens.from_exponents(m)))
            for m in monomials]


def _slice_cohomology(A, n, polybound):
    """Kernel, boundary and representative data in degree n.

    Returns (slice_n, ker_vectors, boundary_vectors, rep_vectors) where
    boundary_vectors spans im(d) intersected with the cocycle window.
    """
    sl = _Slice(A, n, polybound)
    sl_up = _Slice(A, n + 1, polybound)
    # cocycles: kernel of d restricted to the window coordinates
    rows = _d_rows(A, [sl.basis[i] for i in sl.window], sl_up)
    if rows:
        # columns of the system are the d-images of the window monomials
        mat = _linalg.dense_transpose(rows, len(sl_up.basis))
        ker_small = _linalg.nullspace(mat, len(rows))
    else:
        ker_small = []
    ker = []
    for v in ker_small:
        big = [Fraction(0)] * len(sl.basis)
        for local, c in enumerate(v):
            big[sl.window[local]] = c
        ker.append(big)
    # boundaries landing inside the window
    sl_dn = _Slice(A, n - 1, polybound)
    img = [_linalg.dense(r, len(sl.basis))
           for r in _d_rows(A, sl_dn.basis, sl)]
    if sl.bounded:
        window_set = set(sl.window)
        bnd = _linalg.intersect_with_coordinate_subspace(
            img, window_set, len(sl.basis))
    else:
        bnd = _linalg.rref(img)[0]
    # representatives: kernel vectors reduced modulo the boundaries
    ech = _linalg.Echelon(len(sl.basis))
    for v in bnd:
        ech.add(v)
    reps = []
    for v in ker:
        dim = ech.dim
        r = ech.add(v)
        if ech.dim > dim:
            reps.append(r)
    return sl, ker, bnd, reps


class CohomologySlice:
    """Dimension and representative cocycles of one H^n."""

    def __init__(self, degree, dim, representatives):
        self.degree = degree
        self.dim = dim
        self.representatives = representatives

    def __repr__(self):
        return "<H^%d dim %d>" % (self.degree, self.dim)


def cohomology(A, degrees, polybound=None):
    """CohomologySlice list over an inclusive degree range (lo, hi)."""
    lo, hi = degrees
    out = []
    for n in range(lo, hi + 1):
        sl, ker, bnd, reps = _slice_cohomology(A, n, polybound)
        out.append(CohomologySlice(n, len(ker) - len(bnd),
                                   [sl.poly(v) for v in reps]))
    return out


def cohomology_dims(A, degrees, polybound=None):
    """{n: dim H^n} over an inclusive degree range (lo, hi), from ranks only.

    With d_n the map from degree n to degree n+1 and window_n the cocycle
    window (everything when there are no degree-0 generators),

        dim H^n = (|window_n| - rank d_n|window_n) - b_n,

    where b_n, the dimension of the boundaries inside the window, is
    rank d_{n-1} without degree-0 generators and otherwise
    rank d_{n-1} - rank(d_{n-1} on the columns outside window_n): the
    dimension of im d_{n-1} intersected with the window's coordinates.
    Each degree builds the rows that cohomology builds, so the answers and
    errors are the same; no kernel basis or representative is formed.
    """
    lo, hi = degrees
    dims = {}
    for n in range(lo, hi + 1):
        sl = _Slice(A, n, polybound)
        sl_up = _Slice(A, n + 1, polybound)
        cycles = len(sl.window) - _linalg.sparse_rank(
            _d_rows(A, [sl.basis[i] for i in sl.window], sl_up))
        d_in = _d_rows(A, _Slice(A, n - 1, polybound).basis, sl)
        bnd = _linalg.sparse_rank(d_in)
        if sl.bounded and bnd:
            window = set(sl.window)
            bnd -= _linalg.sparse_rank(
                {c: x for c, x in r.items() if c not in window} for r in d_in)
        dims[n] = cycles - bnd
    return dims


def is_exact(A, p, polybound=None):
    """Witness q with dq = p, or None when no witness exists in the slice.

    p must be closed and homogeneous; with a polybound, witnesses are
    searched within polynomial degree <= polybound.
    """
    if p.is_zero():
        return A.gens.zero()
    if not p.is_homogeneous():
        raise NotClosedError("is_exact wants a homogeneous element")
    if not apply_d(A, p).is_zero():
        raise NotClosedError("element is not closed")
    n = p.degree()
    sl = _Slice(A, n, polybound)
    sl_dn = _Slice(A, n - 1, polybound)
    rows = [_linalg.dense(r, len(sl.basis))
            for r in _d_rows(A, sl_dn.basis, sl)]
    coeffs = _linalg.solve(rows, sl.vector(p))
    if coeffs is None:
        return None
    out = A.gens.zero()
    for c, m in zip(coeffs, sl_dn.basis):
        if c:
            out = out + A.gens.from_exponents(m, c)
    return out


def is_chain_map(phi):
    """Check d_target(phi(g)) == phi(d_source(g)) on every generator.

    Returns (ok, failures) with failures a list of (generator, residual).
    """
    src, tgt = phi.source, phi.target
    failures = []
    for name in gens_of(src).names:
        lhs = apply_d(tgt, phi.assignment[name])
        rhs = apply_morphism(phi, src.d[name])
        r = lhs - rhs
        if not r.is_zero():
            failures.append((name, r))
    return (not failures, failures)


def is_quasi_iso(phi, degrees, polybound=None):
    """Does phi induce isomorphisms on H^n over the inclusive range?

    Chain-map failure is a precondition error (ChainMapError).  Returns
    (ok, reports); each report records per-degree dimensions and the
    injectivity/surjectivity verdicts, obtained by reducing mapped
    representatives against the target's boundary space (the echelon
    form plays the role of repeated exactness tests).
    """
    ok_chain, failures = is_chain_map(phi)
    if not ok_chain:
        name = failures[0][0]
        raise ChainMapError("not a chain map at generator %r" % name, name)
    lo, hi = degrees
    reports = []
    all_ok = True
    for n in range(lo, hi + 1):
        ssl, sker, sbnd, sreps = _slice_cohomology(phi.source, n, polybound)
        tsl, tker, tbnd, treps = _slice_cohomology(phi.target, n, polybound)
        ech = _linalg.Echelon(len(tsl.basis))
        for v in tbnd:
            ech.add(v)
        dim = ech.dim
        for v in sreps:
            ech.add(tsl.vector(apply_morphism(phi, ssl.poly(v))))
        injective = ech.dim - dim == len(sreps)
        dim = ech.dim
        for v in treps:
            ech.add(v)
        surjective = ech.dim == dim
        reports.append({
            "degree": n,
            "dim_source": len(sreps),
            "dim_target": len(treps),
            "injective": injective,
            "surjective": surjective,
        })
        all_ok = all_ok and injective and surjective
    return all_ok, reports


def tensor(A, B, rename=None):
    """Tensor product DGCA (the coproduct); generator names must not clash.

    rename maps B generator names to replacements, as the renaming hook
    for clashes.
    """
    rename = rename or {}
    b_names = [rename.get(n, n) for n in B.gens.names]
    clash = set(A.gens.names) & set(b_names)
    if clash:
        raise ValueError("generator name clash %s; pass rename=..."
                         % sorted(clash))
    gens = GeneratorSet(
        list(zip(A.gens.names, A.gens.degrees))
        + list(zip(b_names, B.gens.degrees)))
    na, nb = len(A.gens), len(B.gens)

    def embed_a(p):
        return Polynomial(gens, {m + (0,) * nb: c for m, c in p.terms.items()})

    def embed_b(p):
        return Polynomial(gens, {(0,) * na + m: c for m, c in p.terms.items()})

    d = {}
    for n in A.gens.names:
        d[n] = embed_a(A.d[n])
    for old, new in zip(B.gens.names, b_names):
        d[new] = embed_b(B.d[old])
    return DGCA(gens, d)
