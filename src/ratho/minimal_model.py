"""Degreewise construction of minimal Sullivan models; relative extensions.

The absolute construction runs one step per degree n = 0 .. N+1.  Step n
reads H^n(phi): H^n(M) -> H^n(A) once (dgca._induced), adjoins a killing
generator v of degree n-1, dv = z and phi(v) a primitive of phi(z), for
each relation z, then, if n <= N, a closed generator for each cokernel
class.  Every generator has degree >= 2, so v adds nothing in degree n:
H^n(M + v) = H^n(M)/<[z]> has the same image in H^n(A), and the cokernel
read before the kills is the one after them.  At n = 0, 1, where M is
empty and H^0(M) = Q hits the unit, a cokernel is the refusal: H^0(A)
must be Q and H^1(A) must vanish.  Representatives follow the
deterministic echelon order, so reruns give the same presentation;
counts per degree are the only isomorphism invariant asserted.  The model,
phi and the model's complex are built once before step 0 and again only
after a step that adjoins: a step that adds nothing leaves M unchanged, so
the next step reads the complex whose bases, rows of d and homology are
already memoized.

Relative Sullivan extensions are verified, never constructed.  Relative
minimality is the strict condition: no differential of a new generator may
contain a term that is a single new generator with no base factor.  Both
relative legs are the absolute checks of linfty's dependency-graph helpers
(_order, _linear_offenders) run on the new generators alone.
"""

from .core_algebra import (
    AlgebraMorphism,
    GeneratorSet,
    _integer,
    _trusted,
    apply_morphism,
    compose_morphisms,
    morphism_by_names,
)
from .dgca import (DGCA, ChainMapError, _induced, _require_chain_map,
                   _slices, is_quasi_iso)
from .linfty import _dependencies, _linear_offenders, _order


class BudgetExceeded(RuntimeError):
    pass


class MinimalModelResult:
    """Minimal model M, comparison map into A, bound N, counts per degree.

    The construction makes comparison a quasi-isomorphism through N but
    does not re-check it; is_quasi_iso and is_minimal are the checks."""

    def __init__(self, model, comparison, bound, counts):
        self.model = model
        self.comparison = comparison
        self.bound = bound
        self.counts = counts

    def __repr__(self):
        return "MinimalModelResult(bound=%d, counts=%r)" % (self.bound, self.counts)


def _embed(p, gens):
    # re-express a polynomial over a prefix generator set in the grown one
    pad = (0,) * (len(gens) - len(p.gens))
    return _trusted(gens, {m + pad: c for m, c in p.terms.items()})


def minimal_model(A, N, polybound=None, budget=64):
    """Minimal Sullivan model of A through degree N with comparison map.

    The presentation follows the generator order of A, which orders every
    basis: declaring A's generators in another order may change it, but
    not the counts.  budget caps the total number of adjoined generators.
    """
    if _integer(N, "degree bound") < 1:
        raise ValueError("degree bound must be >= 1")
    budget = _integer(budget, "generator budget")
    slices = _slices(A, polybound)
    pairs = []
    d_data = {}
    phi_data = {}

    def adjoin(n, image, d=None):
        # the one place a generator is added: named by its index within
        # degree n, counted against budget; a closed one stores no d
        name = "v%d_%d" % (n, sum(1 for _, deg in pairs if deg == n))
        pairs.append((name, n))
        if len(pairs) > budget:
            raise BudgetExceeded("generator budget %d exceeded in degree %d"
                                 % (budget, n))
        if d is not None:
            d_data[name] = d
        phi_data[name] = image

    def build():
        gens = GeneratorSet(pairs)
        M = DGCA(gens, {n: _embed(p, gens) for n, p in d_data.items()})
        phi = AlgebraMorphism(M, A, dict(phi_data))
        return M, phi, _slices(M, None)

    M, phi, model = build()
    for n in range(N + 2):
        grown = len(pairs)
        zs, relations, cokernel = _induced(phi, model, slices, n)
        if cokernel and n < 2:
            raise ValueError("H^0 must be one-dimensional" if n == 0
                             else "H^1 must vanish")
        # killing generators of degree n-1 for the kernel of H^n(phi)
        zvecs = [model.vector(n, z) for z in zs]
        for cvec in relations:
            z = model.combine(n, cvec.values(), [zvecs[i] for i in cvec])
            q = slices.primitive(n, apply_morphism(phi, z))
            if q is None:
                raise RuntimeError(
                    "no primitive witness within the polynomial-degree budget")
            adjoin(n - 1, q, z)
        if n <= N:
            # closed generators of degree n for the cokernel of H^n(phi)
            for p in cokernel:
                adjoin(n, p)
        if len(pairs) > grown:
            M, phi, model = build()

    counts = {}
    for _, deg in pairs:
        counts[deg] = counts.get(deg, 0) + 1
    return MinimalModelResult(M, phi, N, dict(sorted(counts.items())))


class RelativeExtension:
    """Base algebra sitting generator-wise inside a total algebra.

    The constructor checks containment, degree agreement, and that the total
    differential restricts to the base one; the Sullivan and minimality
    conditions on the new generators are the business of verify_relative.
    """

    def __init__(self, base, total):
        self.base = base
        self.total = total
        for name, deg in zip(base.gens.names, base.gens.degrees):
            if name not in total.gens.index:
                raise ValueError("base generator %r missing from total" % name)
            if total.gens.degree_of(name) != deg:
                raise ValueError("degree mismatch on base generator %r" % name)
        self.inclusion = morphism_by_names(base, total)
        _require_chain_map(
            self.inclusion,
            "total differential does not restrict to the base on %r")
        self.new_names = tuple(n for n in total.gens.names
                               if n not in base.gens.index)

    def __repr__(self):
        return "RelativeExtension(base=%r, new=%r)" % (
            self.base.gens.names, self.new_names)


class RelativeReport:
    """Per-leg outcome of relative-extension verification."""

    def __init__(self, sullivan, minimal_offenders, quasi_ok, quasi_detail):
        self.sullivan = sullivan
        self.minimal_offenders = list(minimal_offenders)
        self.quasi_ok = quasi_ok
        self.quasi_detail = quasi_detail

    @property
    def minimal(self):
        return not self.minimal_offenders

    @property
    def passed(self):
        return self.sullivan.ok and self.minimal and self.quasi_ok

    def __repr__(self):
        return ("RelativeReport(sullivan=%r, minimal=%r, quasi_iso=%r)"
                % (self.sullivan.ok, self.minimal, self.quasi_ok))


def _relative_sullivan(ext):
    deps = _dependencies(ext.total)
    new = list(ext.new_names)
    return _order(new, {g: deps[g].intersection(new) for g in new})


def verify_relative(ext, target, N, base_map=None, polybound=None):
    """Certify a relative Sullivan extension against a comparison map.

    Legs: (i) the new generators admit an order relative to the base,
    (ii) strict relative minimality (no bare linear new-generator term),
    (iii) target is a quasi-isomorphism through degree N.  Precondition
    failures (target not a chain map, triangle over the base not commuting)
    raise; leg failures are reported with witnesses.
    """
    _require_chain_map(target, "target is not a chain map on %r")
    if base_map is not None:
        if compose_morphisms(target, ext.inclusion) != base_map:
            raise ChainMapError("triangle over the base does not commute")
    cert = _relative_sullivan(ext)
    offenders = _linear_offenders(ext.total, ext.new_names)
    quasi_ok, detail = is_quasi_iso(target, (0, N), polybound=polybound)
    return RelativeReport(cert, offenders, quasi_ok, detail)


def cofiber(ext):
    """Quotient of the total algebra by the base: keep new generators, zero the rest."""
    gens = ext.total.gens
    keep = [i for i, n in enumerate(gens.names) if n in ext.new_names]
    new_pairs = [(gens.names[i], gens.degrees[i]) for i in keep]
    new_gens = GeneratorSet(new_pairs)
    d = {}
    for g in ext.new_names:
        out = new_gens.zero()
        for m, c in ext.total.d[g].terms.items():
            if any(m[i] for i in range(len(m)) if i not in keep):
                continue
            out = out + new_gens.from_exponents(tuple(m[i] for i in keep), c)
        d[g] = out
    return DGCA(new_gens, d)
