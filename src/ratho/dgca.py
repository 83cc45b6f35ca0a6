"""Differential graded-commutative algebras and their cohomology.

A DGCA is a free graded-commutative algebra together with a differential
assignment on generators, each d(g) homogeneous of degree |g|+1 (or zero),
extended to everything as a graded derivation.  d*d = 0 is a certified
property (check_d_squared), not a constructor assumption.

d has one kernel, _derive, which reads a derivation table (the terms of
each nonzero d(x_i), integral coefficients kept as ints).  apply_d is its
Polynomial form and reads the table per call; _slices reads it once per
complex and maps each basis monomial straight to its term dict (_d_row).
_d_row is the one row builder of both finite complexes: its row is d(m)
minus the twist's product H * m, with an empty twist for _slices and the
twist's terms for twisted_derham._residues.

Cohomology is computed degreewise on the finite complex of A's slices
(_slices, a grading adapter over ratho._complex).  The rows of d are built
once, as sparse rows that hold ints where the differential is integral
and Fractions elsewhere, and go unchanged into the exact-rational row
reduction of ratho._linalg, which eliminates on ints and pivots on the
lowest nonzero column.  Reduced row echelon form is unique, so
representatives are reproducible across runs and do not depend on how the
elimination is carried out.
cohomology_dims only takes ranks and never forms a kernel basis or a
representative.

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

from ._complex import Complex
from .core_algebra import (
    GeneratorSet,
    Polynomial,
    AlgebraMorphism,
    _integer,
    _trusted,
    apply_morphism,
    basis_of_degree,
    gens_of,
    normalize_product,
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


def _row_terms(p):
    """The terms of p as [(exponents, coefficient), ...], each integral
    coefficient as its int numerator and every other one as its Fraction."""
    return [(m, c.numerator if c.denominator == 1 else c)
            for m, c in p.terms.items()]


def _derivation_table(A):
    """The nonzero d(x_i) of A as (i, [(exponents, coefficient), ...]).

    Coefficients are as _row_terms gives them: ints where the differential
    is integral.  Read once per computation: by apply_d per call, by a
    grading adapter (_slices, twisted_derham._residues) per complex.
    Nothing is stored on A, which is mutable.
    """
    return [(i, _row_terms(A.d[x]))
            for i, x in enumerate(A.gens.names) if A.d[x].terms]


def _derive(gens, table, m, c, out):
    """Add c * d(m) for one canonical monomial m into the term dict out.

    d(prefix * x_i^e * suffix) has the term (-1)^|prefix| e * prefix *
    x_i^(e-1) * d(x_i) * suffix; exponents merge through normalize_product.
    Cancelled terms stay in out as zeros.
    """
    for i, dterms in table:
        e = m[i]
        if e == 0:
            continue
        prefix = m[:i] + (e - 1,) + (0,) * (len(m) - i - 1)
        suffix = (0,) * (i + 1) + m[i + 1:]
        ce = -c * e if gens.monomial_degree(prefix) % 2 else c * e
        for dm, dc in dterms:
            left = normalize_product(gens, prefix, dm)
            right = left and normalize_product(gens, left[1], suffix)
            if right:
                term = ce * dc if left[0] == right[0] else -ce * dc
                out[right[1]] = out.get(right[1], 0) + term


def _d_row(gens, table, m, twist=()):
    """d(m) - H * m of one canonical monomial: {monomial: coefficient}.

    The per-monomial row of both grading adapters: m is not validated, no
    Polynomial is built and table is _derivation_table(A), read once per
    complex.  twist holds the terms (hm, hc) of H, as _row_terms gives
    them, each merged in as -hc * hm * m; _slices passes none, so its row
    is d(m) alone.  The row is built with c = 1, so a coefficient is an int
    wherever the terms it sums are, and a Fraction otherwise.
    """
    out = {}
    _derive(gens, table, m, 1, out)
    for hm, hc in twist:
        r = normalize_product(gens, hm, m)
        if r:
            out[r[1]] = out.get(r[1], 0) - r[0] * hc
    return {k: v for k, v in out.items() if v}


def apply_d(A, p):
    """Extend the generator assignment as a degree +1 graded derivation.

    The Polynomial form of d: p is checked to live on A, the derivation
    table is read once per call, and every term goes through _derive, the
    kernel the rows of d (_d_row) are built from, so both give the same
    terms.  Each coefficient of p is a Fraction, so each one out is too.
    """
    gens = A.gens
    if p.gens != gens:
        raise ValueError("polynomial not over the algebra")
    table = _derivation_table(A)
    out = {}
    for m, c in p.terms.items():
        _derive(gens, table, m, c, out)
    return _trusted(gens, {m: c for m, c in out.items() if c})


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


def _residuals(pairs):
    """The (name, residual) pairs whose residual is nonzero, in order."""
    return [(name, r) for name, r in pairs if not r.is_zero()]


def check_d_squared(A):
    """d*d on every generator; zero there suffices by the Leibniz rule."""
    return DSquaredReport(_residuals((name, apply_d(A, A.d[name]))
                                     for name in A.gens.names))


# -- slice linear algebra -------------------------------------------------


def _slices(A, polybound):
    """The finite complex of A's polynomial-degree slices, by degree.

    Degree n's basis is its slice (polynomial degree <= D), its window the
    monomials within budget D-1, where cocycles live; without degree-0
    generators the window is everything.  d leaving the slice is an error.
    """
    gens = A.gens
    bounded = any(d == 0 for d in gens.degrees)
    polybound = None if polybound is None else _integer(polybound, "polybound")

    def basis(n):
        if bounded and (polybound is None or polybound < 1):
            # basis_of_degree raises the canonical error for None
            basis_of_degree(gens, max(n, 0), polybound)
            raise ValueError("polybound must be >= 1")
        return basis_of_degree(gens, n, polybound) if n >= 0 else []

    def in_window(m):
        zero_exponent = sum(e for e, d in zip(m, gens.degrees) if d == 0)
        return zero_exponent <= polybound - 1

    table = _derivation_table(A)
    return Complex(gens, basis, lambda n, s: n + s,
                   lambda m: _d_row(gens, table, m),
                   in_window if bounded else None)


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
    lo, hi = (_integer(b, "degree bound") for b in degrees)
    cx = _slices(A, polybound)
    out = []
    for n in range(lo, hi + 1):
        h = cx.homology(n)
        out.append(CohomologySlice(n, h.dim, h.representatives))
    return out


def cohomology_dims(A, degrees, polybound=None):
    """{n: dim H^n} over an inclusive degree range (lo, hi), from ranks only.

    It builds the rows cohomology builds, so the answers and errors are the
    same; no kernel basis or representative is formed.
    """
    lo, hi = (_integer(b, "degree bound") for b in degrees)
    cx = _slices(A, polybound)
    return {n: cx.dims(n) for n in range(lo, hi + 1)}


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
    return _slices(A, polybound).primitive(p.degree(), p)


def is_chain_map(phi):
    """Check phi(d_source(g)) == d_target(phi(g)) on every generator.

    Returns (ok, failures) with failures a list of (generator, residual),
    the residual being phi(dg) - d(phi g).  This is the one chain-map
    check: flat data (ratho.character) are verified through it.
    """
    src, tgt = phi.source, phi.target
    failures = _residuals(
        (name, apply_morphism(phi, src.d[name])
         - apply_d(tgt, phi.assignment[name]))
        for name in gens_of(src).names)
    return (not failures, failures)


def _require_chain_map(phi, message):
    """Raise ChainMapError(message % g) at the first generator g that fails."""
    ok, failures = is_chain_map(phi)
    if not ok:
        name = failures[0][0]
        raise ChainMapError(message % (name,), name)


def _induced(phi, source, target, n):
    """(reps, relations, cokernel): source.homology(n)'s representatives
    and target.image(n, ...) of their images under phi."""
    reps = source.homology(n).representatives
    return (reps,) + target.image(
        n, [target.vector(n, apply_morphism(phi, p)) for p in reps])


def is_quasi_iso(phi, degrees, polybound=None):
    """Does phi induce isomorphisms on H^n over the inclusive range?

    Chain-map failure is a precondition error (ChainMapError).  Returns
    (ok, reports); each report records per-degree dimensions and the
    injectivity/surjectivity verdicts, all read from the target's
    Complex.image of the source's mapped representatives: injective when
    it has no relations, surjective when it has no cokernel, and
    dim_target = dim_source - relations + cokernel.
    """
    _require_chain_map(phi, "not a chain map at generator %r")
    lo, hi = (_integer(b, "degree bound") for b in degrees)
    source = _slices(phi.source, polybound)
    target = _slices(phi.target, polybound)
    reports = []
    for n in range(lo, hi + 1):
        sreps, relations, cokernel = _induced(phi, source, target, n)
        reports.append({
            "degree": n,
            "dim_source": len(sreps),
            "dim_target": len(sreps) - len(relations) + len(cokernel),
            "injective": not relations,
            "surjective": not cokernel,
        })
    return all(r["injective"] and r["surjective"] for r in reports), reports


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
        return _trusted(gens, {m + (0,) * nb: c for m, c in p.terms.items()})

    def embed_b(p):
        return _trusted(gens, {(0,) * na + m: c for m, c in p.terms.items()})

    d = {}
    for n in A.gens.names:
        d[n] = embed_a(A.d[n])
    for old, new in zip(B.gens.names, b_names):
        d[new] = embed_b(B.d[old])
    return DGCA(gens, d)
