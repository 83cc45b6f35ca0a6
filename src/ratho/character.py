"""Flat algebra-valued differential-form data and their concordances.

A flat datum is a chain algebra map out of a Chevalley-Eilenberg algebra:
the generator images are the component forms, and the chain-map equations
on generators are exactly the Bianchi / Maurer-Cartan constraints.  Twisted
and cylinder data are flat data too: a twisted datum is one on the total
algebra of a relative extension, with the restriction to the base pinned
to a given twist datum; a concordance is one on the cylinder of the
target, restricting to the two given data at the endpoints and taking
their coefficients and twist.

Reports never decide more than they can certify: general concordance is
verification-only, while two families are decided exactly and in both
directions, with witnesses either way:

  * line coefficients (one closed generator), where concordance classes
    are ordinary cohomology classes, and
  * the h3-twisted periodic family (a bundle equal to
    twisted_ku_bundle(kmax)), where they are odd twisted classes cut at
    degree 2kmax+1: classes of degree 2kmax+1 in target (x) Lambda(u).

Both are decided by one construction, the straight cylinder
(1-t) F0 + t F1 + dt h, where the witness h is a primitive of F1 - F0;
_straight_concordance alone builds it and certifies it, for
linear_concordance, decide_concordance and both lattice quotients.
_family alone recognizes a family, from the coefficients and the bundle
and never from the Python type.  Both are line data over an algebra B,
the target or, for the h3 family, the target with u, d u = -H: _lift
sends a datum's images into B, apply_d there checks a witness, and
_slices(B) searches one.  A witness found gives the concordance, checked
by its report and by integrating the witness back off the cylinder; none
found refutes it.  Other coefficients, twisted data over other bundles
included, are verification-only.

The lattice quotients of both families (line_quotient, twisted_ku_quotient)
are one level loop, _lattice_classes: from the family's zero datum each
generator g takes a particular solution of the coefficients' own
d F(g) = F(dg) plus lattice combinations of cocycles, each datum is lifted
once and keyed by the class of its lift, and each datum is verified once:
a class's first member directly, every later one as the far end of a
cylinder, which the join certifies from both endpoint reports and lifts.

Residuals in every report follow one convention, is_chain_map's: image of
the source differential minus differential of the image, so a residual
states how far the form-side derivative falls short of what the
coefficients demand.
"""

import copy
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .core_algebra import (
    AlgebraMorphism,
    GeneratorSet,
    Polynomial,
    _embed,
    _integer,
    _rational,
    _trusted,
    apply_morphism,
    gens_of,
    morphism_by_names,
)
from .dgca import (DGCA, _residuals, _slices, apply_d, is_chain_map,
                   is_exact, tensor)
from .minimal_model import RelativeExtension, _keep, _relative_sullivan
from .simplicial_forms import CylinderAlgebra, fiber_integrate
from .chern_weil import inv_ring_sp2


class NotConcordant(ValueError):
    """Two data provably have no concordance: their classes differ."""


def _morphism(coefficients, target, assignment):
    """assignment as a morphism coefficients -> target.

    A prebuilt AlgebraMorphism must have matching endpoints, and is rebuilt
    over coefficients and target, so the datum's own differentials are the
    ones its checks read.
    """
    if isinstance(assignment, AlgebraMorphism):
        if gens_of(assignment.source) != coefficients.gens \
                or gens_of(assignment.target) != target.gens:
            raise ValueError("morphism endpoints do not match the datum")
        assignment = assignment.assignment
    return AlgebraMorphism(coefficients, target, assignment)


class FlatFormDatum:
    """Generator assignment from a coefficient algebra into a target.

    Flatness (the chain-map property) is a certified property of the
    datum, checked by verify_flat, not a constructor assumption.  An
    untwisted datum has no bundle and no twist.
    """

    bundle = twist = None

    def __init__(self, coefficients, target, assignment):
        self.coefficients = coefficients
        self.target = target
        self.morphism = _morphism(coefficients, target, assignment)

    def image(self, name):
        return self.morphism.assignment[name]

    def __repr__(self):
        return "%s(%r -> target)" % (type(self).__name__,
                                     list(self.coefficients.gens.names))


class FlatReport:
    """Bianchi-identity failures of a flat datum, with residuals."""

    def __init__(self, failures):
        self.failures = list(failures)

    @property
    def passed(self):
        return not self.failures

    def __repr__(self):
        if self.passed:
            return "FlatReport(passed)"
        return "FlatReport(failed on %s)" % [n for n, _ in self.failures]


def verify_flat(F):
    """Check each generator's Bianchi identity F(d g) = d(F g).

    This is is_chain_map on F.morphism, for twisted and cylinder data
    too; the residual reported for a failing generator is F(d g) - d(F g).
    """
    return FlatReport(is_chain_map(F.morphism)[1])


class TwistedFlatFormDatum(FlatFormDatum):
    """Flat datum over a relative extension, twisted by a base datum.

    bundle is the coefficient extension, twist a FlatFormDatum on its
    base, and assignment covers every total generator.  The verified
    invariants (verify_twisted_flat) are the relative Sullivan order of
    the bundle, the chain-map property of the assignment, and the
    triangle: the assignment restricted to the base equals the twist.
    """

    def __init__(self, bundle, twist, assignment):
        if twist.coefficients != bundle.base:
            raise ValueError("twist is not a datum on the bundle base")
        self.bundle = bundle
        self.twist = twist
        super().__init__(bundle.total, twist.target, assignment)

    def __repr__(self):
        return "TwistedFlatFormDatum(base=%r, new=%r)" % (
            list(self.bundle.base.gens.names), list(self.bundle.new_names))


class TwistedFlatReport:
    """Per-leg outcome: bundle order, Bianchi system, base triangle."""

    def __init__(self, sullivan, chain_failures, triangle_failures):
        self.sullivan = sullivan
        self.chain_failures = list(chain_failures)
        self.triangle_failures = list(triangle_failures)

    @property
    def passed(self):
        return (self.sullivan.ok and not self.chain_failures
                and not self.triangle_failures)

    def __repr__(self):
        return ("TwistedFlatReport(sullivan=%r, chain=%r, triangle=%r)"
                % (self.sullivan.ok,
                   [n for n, _ in self.chain_failures],
                   [n for n, _ in self.triangle_failures]))


def verify_twisted_flat(T):
    """Certify a twisted flat datum.

    Legs: the new generators of the bundle admit an order relative to the
    base; the assignment satisfies every twisted Bianchi identity; the
    restriction to the base agrees with the twist (triangle), reported
    with the offending base generator as witness.  Relative minimality of
    the bundle is deliberately not required: twists of interest (the
    twistorial one included) live on non-minimal extensions.
    """
    triangle = _residuals((b, T.twist.image(b) - T.image(b))
                          for b in T.bundle.base.gens.names)
    return TwistedFlatReport(_relative_sullivan(T.bundle),
                             verify_flat(T).failures, triangle)


def _verify_datum(F):
    if isinstance(F, TwistedFlatFormDatum):
        return verify_twisted_flat(F)
    return verify_flat(F)


class ConcordanceDatum(FlatFormDatum):
    """Flat datum on the cylinder of the endpoints' target.

    The coefficients, bundle and twist are the endpoints' own, read from
    f0.  For twisted endpoints the twist adds the twist-constancy
    requirement: base generators map to the constant inclusion of the
    twist, not to anything t-dependent.
    """

    def __init__(self, cylinder, f0, f1, assignment):
        if f0.coefficients != f1.coefficients:
            raise ValueError("endpoints have different coefficients")
        if f0.target.gens != cylinder.base.gens \
                or f1.target.gens != cylinder.base.gens:
            raise ValueError("endpoints do not land in the cylinder base")
        self.cylinder = cylinder
        self.f0 = f0
        self.f1 = f1
        self.bundle = f0.bundle
        self.twist = f0.twist
        super().__init__(f0.coefficients, cylinder.algebra, assignment)


class ConcordanceReport:
    """Cylinder chain map, endpoint restrictions, twist constancy."""

    def __init__(self, endpoint_reports, chain_failures, endpoint_failures,
                 twist_failures):
        self.endpoint_reports = endpoint_reports
        self.chain_failures = list(chain_failures)
        self.endpoint_failures = list(endpoint_failures)
        self.twist_failures = list(twist_failures)

    @property
    def passed(self):
        return (all(r.passed for r in self.endpoint_reports)
                and not self.chain_failures and not self.endpoint_failures
                and not self.twist_failures)

    def __repr__(self):
        return ("ConcordanceReport(endpoints=%r, chain=%r, restriction=%r, "
                "twist=%r)" % ([r.passed for r in self.endpoint_reports],
                               [n for n, _ in self.chain_failures],
                               [(w, n) for w, n, _ in self.endpoint_failures],
                               [n for n, _ in self.twist_failures]))


def verify_concordance(ccd):
    """Certify a concordance datum end to end.

    Checks that both endpoints are flat, that the cylinder assignment is a
    chain map, that evaluation at 0 and 1 reproduces the endpoints
    (failures name ev0/ev1), and, for twisted data, that base generators
    are constant in the cylinder direction.
    """
    return _concordance_report(ccd, _verify_datum(ccd.f0),
                               _verify_datum(ccd.f1))


def _concordance_report(ccd, r0, r1):
    """verify_concordance's report on ccd, given its endpoints' reports.

    r0 and r1 are _verify_datum's reports on ccd.f0 and ccd.f1, so a
    caller that already holds them does not verify the endpoints again.
    """
    cyl = ccd.cylinder
    names = ccd.coefficients.gens.names
    endpoint = []
    for which, ev, end in (("ev0", cyl.ev0, ccd.f0), ("ev1", cyl.ev1, ccd.f1)):
        endpoint += [(which, name, r) for name, r in _residuals(
            (name, end.image(name) - ev(ccd.image(name))) for name in names)]
    twist = [] if ccd.twist is None else _residuals(
        (b, cyl.inclusion(ccd.twist.image(b)) - ccd.image(b))
        for b in ccd.bundle.base.gens.names)
    return ConcordanceReport((r0, r1), verify_flat(ccd).failures, endpoint,
                             twist)


def constant_concordance(F):
    """Pull a datum back along the projection: same form at every time."""
    cyl = CylinderAlgebra(F.target)
    assignment = {name: cyl.inclusion(F.morphism.assignment[name])
                  for name in F.coefficients.gens.names}
    return ConcordanceDatum(cyl, F, F, assignment)


def reverse_concordance(ccd):
    """Reparameterize t -> 1 - t; endpoints swap."""
    cyl = ccd.cylinder
    t = cyl.algebra.gen(cyl.t_name)
    dt = cyl.algebra.gen(cyl.dt_name)
    flip = morphism_by_names(cyl.algebra, cyl.algebra,
                             overrides={cyl.t_name: 1 - t,
                                        cyl.dt_name: -dt})
    assignment = {name: apply_morphism(flip, ccd.morphism.assignment[name])
                  for name in ccd.coefficients.gens.names}
    return ConcordanceDatum(cyl, ccd.f1, ccd.f0, assignment)


# names move along a cylinder, _lift sends their images into algebra by
# weights, and complex and grade are where primitives and keys are taken
_Family = namedtuple("_Family", "names algebra complex grade weights")


def _family(f, polybound=None):
    """The decidable family of f's coefficients, or NotImplementedError.

    Line coefficients (no bundle, one closed generator of degree k) are
    decided in B = target at grade k, weight 1.  The h3-twisted family (a
    bundle equal to twisted_ku_bundle(kmax)) is decided in B = target (x)
    Lambda(u), |u| = 2, d u = -H, at grade 2kmax+1: as d(x u^j/j!) = dx
    u^j/j! - H x u^(j-1)/(j-1)! for even x, the cylinder's equations
    F1_k - F0_k = d h_(k-1) - H h_(k-3) for odd k <= 2kmax+1, no further,
    say that sum_i (F1 - F0)(f_(2i+1)) u^(kmax-i)/(kmax-i)! is exact in B.
    """
    gens, target, bundle = f.coefficients.gens, f.target, f.bundle
    if bundle is None:
        if len(gens.names) == 1 and f.coefficients.d[gens.names[0]].is_zero():
            return _Family(gens.names, target, _slices(target, polybound),
                           gens.degrees[0], {gens.names[0]: ((), 1)})
    elif bundle.new_names:
        kmax = len(bundle.new_names) - 1
        ku = twisted_ku_bundle(kmax)
        if (ku.base, ku.total) == (bundle.base, bundle.total):
            u = next(n for n in map("u%d".__mod__, itertools.count())
                     if n not in target.gens.names)
            B = tensor(target, DGCA([(u, 2)]))
            B = DGCA(B.gens, {**B.d, u: -_embed(f.twist.image("h3"), B.gens)})
            weights = {n: ((kmax - i,), Fraction(1, math.factorial(kmax - i)))
                       for i, n in enumerate(bundle.new_names)}
            return _Family(bundle.new_names, B, _slices(B, polybound),
                           2 * kmax + 1, weights)
    raise NotImplementedError(
        "concordance decision is available only for line coefficients and "
        "the h3-twisted periodic family; general data support verification "
        "only")


def _lift(family, image):
    """sum of c * image(name) * u^tail over names of weight (tail, c)."""
    terms = {}
    for name in family.names:
        tail, c = family.weights[name]
        terms.update((m + tail, c * x) for m, x in image(name).terms.items())
    return _trusted(family.algebra.gens, terms)


def _straight_concordance(f0, f1, r0, r1, x0, x1, family, cyl,
                          witness=None):
    """The straight cylinder from f0 to f1 on cyl, certified.

    The one place a straight cylinder is built and checked.  r0 and r1
    are _verify_datum's reports on f0 and f1, and x0 and x1 their lifts
    into the family's algebra B.  The witness h has d(h) = x1 - x0 in B:
    a given one (each g lifts its degree |g|-1 part) is checked, else
    ValueError; an omitted one is zero when x1 = x0, and otherwise a
    primitive in _slices(B); where there is none, no concordance exists
    and NotConcordant is raised.  Each named generator g maps to
    (1-t) f0(g) + t f1(g) + dt times its part of h, read back through its
    weight; each base generator of f0's bundle maps to the constant
    inclusion of its image under f0's twist.  The cylinder's report,
    _concordance_report on r0 and r1, must pass, and the witness
    integrated back off the cylinder and lifted into B must again have
    d = x1 - x0; either failure raises RuntimeError.  cyl, the
    CylinderAlgebra over f0's target, is the caller's to reuse.
    """
    zero, degree_of = f0.target.zero(), f0.coefficients.gens.degree_of
    diff = x1 - x0
    if witness is None:
        witness = diff if diff.is_zero() else family.complex.primitive(
            family.grade, diff)
        if witness is None:
            raise NotConcordant("the endpoint forms differ in class; "
                                "no concordance exists")
    else:
        parts = witness.homogeneous_parts()
        witness = _lift(family, lambda n: parts.get(degree_of(n) - 1, zero))
        if apply_d(family.algebra, witness) != diff:
            raise ValueError("dh does not equal the endpoint difference")
    t = cyl.algebra.gen(cyl.t_name)
    dt = cyl.algebra.gen(cyl.dt_name)
    s = 1 - t
    assignment = {}
    if f0.bundle is not None:
        for b in f0.bundle.base.gens.names:
            assignment[b] = cyl.inclusion(f0.twist.image(b))
    n = len(f0.target.gens)
    for name in family.names:
        tail, c = family.weights[name]
        h = Polynomial(f0.target.gens, {
            m[:n]: x / c for m, x in witness.terms.items() if m[n:] == tail})
        assignment[name] = (s * cyl.inclusion(f0.image(name))
                            + t * cyl.inclusion(f1.image(name))
                            + dt * cyl.inclusion(h))
    ccd = ConcordanceDatum(cyl, f0, f1, assignment)
    if not _concordance_report(ccd, r0, r1).passed:
        raise RuntimeError("straight concordance failed verification")
    back = _lift(family, lambda n: fiber_integrate(cyl, ccd.image(n)))
    if apply_d(family.algebra, back) != diff:
        raise RuntimeError("extracted witness does not integrate "
                           "the endpoint difference")
    return ccd


def linear_concordance(f0, f1, h=None, polybound=None):
    """Certified straight cylinder between two data of one decidable family.

    Both endpoints are verified first, then must share bundle,
    coefficients, target and twist, else ValueError; coefficients _family
    does not recognize raise NotImplementedError.  A generator of degree k
    takes h's degree k-1 part, and h lifted to the family's algebra B has
    d(h) = F1 - F0.  When h is omitted it is searched in _slices(B); if
    none exists the construction is refused with NotConcordant, as no
    concordance exists.  The cylinder is certified by
    _straight_concordance, with the endpoint reports already taken here.
    """
    reports = []
    for which, f in (("f0", f0), ("f1", f1)):
        rep = _verify_datum(f)
        if not rep.passed:
            raise ValueError("endpoint %s fails verification: %r"
                             % (which, rep))
        reports.append(rep)
    b0, b1 = (f.bundle and (f.bundle.base, f.bundle.total) for f in (f0, f1))
    if b0 != b1:
        raise ValueError("endpoints live over different bundles")
    if f0.coefficients != f1.coefficients:
        raise ValueError("endpoints have different coefficients")
    if f0.target.gens != f1.target.gens:
        raise ValueError("endpoints have different targets")
    if f0.twist is not None and f0.twist.morphism != f1.twist.morphism:
        raise ValueError("endpoints have different twists")
    family = _family(f0, polybound)
    return _straight_concordance(
        f0, f1, *reports, _lift(family, f0.image), _lift(family, f1.image),
        family, CylinderAlgebra(f0.target), h)


class QuotientResult:
    """Concordance classes of lattice data, certified both ways.

    classes maps a canonical class key to its members, and reps holds the
    form of one member per class, in first-seen order.  concordances
    counts the straight cylinders built within classes, each verified with
    its fiber-integrated witness re-checked; refusals counts the
    differences across classes certified to have no primitive.  Both
    quotients set h_dim, the dimension of the cohomology the keys live in:
    H^(n+1) of a line target, H^(2kmax+1) of target (x) Lambda(u) for the
    h3 family.
    """

    def __init__(self, classes, reps, concordances, refusals, h_dim):
        self.classes = classes
        self.reps = reps
        self.concordances = concordances
        self.refusals = refusals
        self.h_dim = h_dim

    @property
    def class_count(self):
        return len(self.classes)

    def __repr__(self):
        return ("QuotientResult(classes=%d, concordances=%d, refusals=%d)"
                % (self.class_count, self.concordances, self.refusals))


def _lattice_classes(zero, lattice, polybound=None):
    """Concordance classes of the lattice data grown from zero, certified.

    zero, a datum of a decidable family (_family) sending its names to 0,
    seeds the level loop: with F the partial datum, a name g of degree k
    takes a primitive of F(dg) in _slices(target), or 0 when F(dg) = 0,
    plus each lattice combination of the degree-k cocycles; each datum is
    lifted into B once, and its key is the class of that lift.  Each datum
    passes _verify_datum exactly once: the first member of each class
    before its cylinders, each later member as the far end of its own.  On
    one CylinderAlgebra _straight_concordance joins the first member to
    each later one, given both endpoint reports and lifts, and certifies
    the cylinder; this loop checks nothing of it.  Across classes,
    differences of first members' lifts must have no primitive in
    _slices(B): all pairs up to 16 classes, else a chain and a star.
    Returns (family, classes, concordances, refusals); classes hold
    (datum, lift) pairs in creation order.
    """
    family = _family(zero, polybound)
    lattice = [_rational(v, "lattice value") for v in lattice]
    coefficients, target = zero.coefficients, zero.target
    slices = _slices(target, polybound)
    partial = [zero.morphism.assignment]
    for g in family.names:
        k, dg = coefficients.gens.degree_of(g), coefficients.d[g]
        closed = slices.kernel(k)
        grown = []
        for images in partial:
            source = target.zero() if dg.is_zero() else apply_morphism(
                AlgebraMorphism(coefficients, target, images), dg)
            particular = source if source.is_zero() else slices.primitive(
                k + 1, source)
            if particular is None:
                raise ValueError(
                    "lattice datum admits no flat extension at level %d" % k)
            for combo in itertools.product(lattice, repeat=len(closed)):
                grown.append({**images, g: particular
                              + slices.combine(k, combo, closed)})
        partial = grown
    classes = {}
    for images in partial:
        datum = copy.copy(zero)
        datum.morphism = AlgebraMorphism(coefficients, target, images)
        lift = _lift(family, datum.image)
        classes.setdefault(family.complex.class_key(family.grade, lift),
                           []).append((datum, lift))
    cyl = CylinderAlgebra(target)
    for (d0, x0), *rest in classes.values():
        r0 = _verify_datum(d0)
        if not r0.passed:
            raise RuntimeError("enumerated datum failed verification")
        for d1, x1 in rest:
            _straight_concordance(d0, d1, r0, _verify_datum(d1), x0, x1,
                                  family, cyl)
    reps = [members[0][1] for members in classes.values()]
    if len(reps) <= 16:
        pairs = list(itertools.combinations(range(len(reps)), 2))
    else:
        pairs = [(i, i + 1) for i in range(len(reps) - 1)]
        pairs += [(0, i) for i in range(2, len(reps))]
    for i, j in pairs:
        if family.complex.primitive(family.grade,
                                    reps[j] - reps[i]) is not None:
            raise RuntimeError("distinct classes had a difference with a "
                               "primitive")
    return family, classes, len(partial) - len(classes), len(pairs)


# -- line coefficients -------------------------------------------------------

def line_algebra(n):
    """One closed generator in degree n+1: coefficients for (n+1)-forms."""
    if _integer(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    return DGCA([("c%d" % (n + 1), n + 1)])


def line_datum(omega, n, p):
    """The flat datum sending the degree-(n+1) line generator to p."""
    coeffs = line_algebra(n)
    return FlatFormDatum(coeffs, omega, {coeffs.gens.names[0]: p})


def line_quotient(omega, n, lattice, polybound=None):
    """Concordance classes of all lattice-coefficient flat (n+1)-form data.

    The data send the line generator to lattice combinations of a cocycle
    basis in degree n+1; _lattice_classes keys them by cohomology class
    and certifies the grouping both ways.  Each class holds its members'
    forms, and h_dim is dim H^(n+1), read from the ranks of d.
    """
    family, data, concordances, refusals = _lattice_classes(
        line_datum(omega, n, omega.zero()), lattice, polybound)
    classes = {key: [F.image(family.names[0]) for F, _ in members]
               for key, members in data.items()}
    return QuotientResult(classes, [m[0] for m in classes.values()],
                          concordances, refusals,
                          family.complex.dims(family.grade))


# -- the h3-twisted periodic family ------------------------------------------

def twisted_ku_bundle(kmax):
    """Base Q[h3] inside the twisted periodic family truncated at 2*kmax+1.

    Total generators h3 (degree 3) and f1, f3, ..., f_{2*kmax+1} with
    d f_k = h3 * f_{k-2}; the base is the closed degree-3 generator alone.
    """
    if _integer(kmax, "kmax") < 0:
        raise ValueError("kmax must be nonnegative")
    g = GeneratorSet([("h3", 3)] + [("f%d" % k, k)
                                    for k in range(1, 2 * kmax + 2, 2)])
    total = DGCA(g, {"f%d" % k: g.gen("h3") * g.gen("f%d" % (k - 2))
                     for k in range(3, 2 * kmax + 2, 2)})
    return RelativeExtension(DGCA([("h3", 3)]), total)


def twisted_ku_quotient(omega, twist_form, lattice, kmax=4):
    """Concordance classes of lattice data in the h3-twisted family.

    The data have twist h3 -> twist_form, which must be closed.  Through
    _lattice_classes each F(f_k) solves the bundle's own
    d f_k = h3 f_(k-2) up to lattice combinations of closed forms, and the
    keys are classes of the lift into _family's algebra, whose degree
    2kmax+1 cohomology has dimension h_dim.  Each rep is a member's summed
    odd forms.
    """
    bundle = twisted_ku_bundle(kmax)
    twist = FlatFormDatum(bundle.base, omega, {"h3": twist_form})
    if not verify_flat(twist).passed:
        raise ValueError("twist must be closed")
    family, data, concordances, refusals = _lattice_classes(
        TwistedFlatFormDatum(bundle, twist, {
            "h3": twist_form,
            **dict.fromkeys(bundle.new_names, omega.zero())}), lattice)
    classes = {key: [T for T, _ in members] for key, members in data.items()}
    reps = [sum(map(members[0].image, family.names), omega.zero())
            for members in classes.values()]
    return QuotientResult(classes, reps, concordances, refusals,
                          family.complex.dims(family.grade))


def decide_concordance(f0, f1, polybound=None):
    """Decide concordance where a decision procedure exists.

    Returns linear_concordance's certified ConcordanceDatum when the data
    are concordant and None when they are provably not; the endpoints are
    verified once, and the cylinder is certified by the same join as the
    lattice quotients'.  The decision goes by the coefficient family
    (_family), read off the data and never their type: only line
    coefficients and the h3-twisted periodic family are decidable here.
    Both are decided as line data over the family's algebra B.  For any
    other coefficients, twisted data over any other bundle included,
    concordance is verification-only and this raises NotImplementedError.
    Endpoints that fail their own verification, or that
    linear_concordance cannot join, raise ValueError.
    """
    try:
        return linear_concordance(f0, f1, polybound=polybound)
    except NotConcordant:
        return None


# -- the twistorial preset -----------------------------------------------------

class TwistorialPreset:
    """Target algebra and the two twisted data of the twistorial system.

    omega is free on F2, H3, G4, q (a quarter of the first Pontrjagin
    form), e8 and G7, with dH3 = G4 - q - F2^2 and
    d(2 G7) = -(G4 - q)(G4 + q) - e8.  datum carries the full twistor
    bundle over the symplectic invariant ring; pushforward is its
    restriction to the quaternionic-Hopf stage (G4, 2 G7 alone), the
    sub-DGCA of datum's total algebra on hp1, ch8, w4, w7, with datum's
    images.  charge_form is omega's d H3, exact with witness H3.
    """

    def __init__(self, omega, datum, pushforward):
        self.omega = omega
        self.datum = datum
        self.pushforward = pushforward
        self.charge_form = omega.d["H3"]

    def charge_witness(self):
        return is_exact(self.omega, self.charge_form)


def preset_twistorial():
    """The twistorial Bianchi system, pre-verified shapes included.

    Only omega and the twistor bundle's total algebra are typed here.  The
    quaternionic-Hopf stage is the sub-DGCA of total on hp1, ch8, w4 and
    w7, and the pushforward sends each stage generator to its image under
    datum.
    """
    g = GeneratorSet([("F2", 2), ("H3", 3), ("G4", 4), ("q", 4), ("e8", 8),
                      ("G7", 7)])
    omega = DGCA(g, d={
        "H3": g.gen("G4") - g.gen("q") - g.monomial({"F2": 2}),
        "G7": (-Fraction(1, 2) * g.monomial({"G4": 2})
               + Fraction(1, 2) * g.monomial({"q": 2})
               - Fraction(1, 2) * g.gen("e8")),
    })
    base = inv_ring_sp2().algebra
    tg = GeneratorSet([("hp1", 4), ("ch8", 8), ("f2", 2), ("h3", 3),
                       ("w4", 4), ("w7", 7)])
    total = DGCA(tg, d={
        "h3": (tg.gen("w4") - Fraction(1, 2) * tg.gen("hp1")
               - tg.monomial({"f2": 2})),
        "w7": (-tg.monomial({"w4": 2})
               + Fraction(1, 4) * tg.monomial({"hp1": 2})
               - tg.gen("ch8")),
    })
    twist = FlatFormDatum(base, omega, {
        "hp1": 2 * g.gen("q"),
        "ch8": g.gen("e8"),
    })
    datum = TwistedFlatFormDatum(RelativeExtension(base, total), twist, {
        **twist.morphism.assignment,
        "f2": g.gen("F2"),
        "h3": g.gen("H3"),
        "w4": g.gen("G4"),
        "w7": 2 * g.gen("G7"),
    })
    stage = _keep(total, ("hp1", "ch8", "w4", "w7"))
    pushforward = TwistedFlatFormDatum(
        RelativeExtension(base, stage), twist,
        {n: datum.image(n) for n in stage.gens.names})
    return TwistorialPreset(omega, datum, pushforward)
