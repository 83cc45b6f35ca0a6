"""Polynomial differential forms on standard simplices and cylinders.

The n-simplex carries free coordinates t0..t{n-1} in degree 0 with
differentials dt0..dt{n-1}; the remaining barycentric coordinate is
eliminated, t_n = 1 - sum(t_i).  Face and degeneracy pullbacks act on
coordinates by the usual preimage sums, with the eliminated coordinate
substituted out.

Orientation convention for the cylinder A (x) Q[t0, dt0]: ev0 evaluates at
t0 = 0 and ev1 at t0 = 1.  Under the identification of the interval with the
1-simplex, ev0 is face_pullback(0, 1) (the face opposite vertex 0) and ev1 is
face_pullback(1, 1).  Fiberwise integration sends m * t0^k * dt0 to
(-1)^deg(m) * m / (k+1) for a base monomial m, the sign that makes

    d(integrate(w)) = ev1(w) - ev0(w) - integrate(d w)

hold identically.
"""

from fractions import Fraction

from .core_algebra import (
    AlgebraMorphism,
    GeneratorSetMismatch,
    _integer,
    morphism_by_names,
)
from .dgca import DGCA, apply_d, tensor


class SimplexAlgebra:
    """Forms on the n-simplex; dimension plus the underlying free dgca."""

    def __init__(self, n):
        n = _integer(n, "simplex dimension")
        if n < 0:
            raise ValueError("simplex dimension must be >= 0")
        self.n = n
        pairs = ([("t%d" % i, 0) for i in range(n)]
                 + [("dt%d" % i, 1) for i in range(n)])
        A = DGCA(pairs)
        self.algebra = DGCA(
            A.gens, d={"t%d" % i: A.gens.gen("dt%d" % i) for i in range(n)})

    def coordinate(self, j):
        """Barycentric t_j as a polynomial, including the eliminated t_n."""
        if not 0 <= j <= self.n:
            raise ValueError("coordinate index out of range")
        A = self.algebra
        if j < self.n:
            return A.gen("t%d" % j)
        out = A.one()
        for i in range(self.n):
            out = out - A.gen("t%d" % i)
        return out

    def __eq__(self, other):
        return isinstance(other, SimplexAlgebra) and self.n == other.n

    __hash__ = None

    def __repr__(self):
        return "SimplexAlgebra(%d)" % self.n


def _pullback(n, m, preimages):
    """Pullback from forms on the n-simplex to the m-simplex.

    t_j maps to the sum of the target coordinates listed by preimages(j)
    (eliminated one included, substituted out) and dt_j to its d.
    """
    tgt = SimplexAlgebra(m)
    assign = {}
    for j in range(n):
        img = sum((tgt.coordinate(k) for k in preimages(j)),
                  tgt.algebra.zero())
        assign["t%d" % j] = img
        assign["dt%d" % j] = apply_d(tgt.algebra, img)
    return AlgebraMorphism(SimplexAlgebra(n).algebra, tgt.algebra, assign)


def face_pullback(i, n):
    """Pullback along the i-th coface, forms on the n-simplex to the (n-1)-simplex.

    Coordinates map by t_j -> t_j (j < i), t_i -> 0, t_j -> t_{j-1} (j > i);
    an image hitting the eliminated coordinate is substituted out.
    """
    if n < 1:
        raise ValueError("face pullback needs n >= 1")
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    return _pullback(n, n - 1, lambda j: [j] if j < i else
                     [] if j == i else [j - 1])


def degeneracy_pullback(i, n):
    """Pullback along the i-th codegeneracy, forms on the n-simplex to the (n+1)-simplex.

    t_i picks up the sum of its two preimage coordinates; later ones shift up.
    """
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    return _pullback(n, n + 1, lambda j: [j] if j < i else
                     [i, i + 1] if j == i else [j + 1])


def interval_algebra():
    return SimplexAlgebra(1).algebra


class CylinderAlgebra:
    """A (x) Q[t, dt] with its two evaluations and the constant inclusion.

    The interval coordinate is named t0/dt0 unless the base already uses
    those names, in which case the first free tk/dtk pair is taken; the
    chosen names are exposed as t_name and dt_name.  ev0 and ev1
    substitute the coordinate by 0 and 1 (killing its differential); both
    are chain algebra maps onto the base, and inclusion is a one-sided
    inverse to each.
    """

    def __init__(self, base):
        self.base = base
        taken = set(base.gens.names)
        k = 0
        while "t%d" % k in taken or "dt%d" % k in taken:
            k += 1
        self.t_name = "t%d" % k
        self.dt_name = "dt%d" % k
        self.algebra = tensor(base, interval_algebra(),
                              rename={"t0": self.t_name,
                                      "dt0": self.dt_name})
        self.inclusion = morphism_by_names(base, self.algebra)
        self.ev0 = morphism_by_names(
            self.algebra, base,
            overrides={self.t_name: base.zero(), self.dt_name: base.zero()})
        self.ev1 = morphism_by_names(
            self.algebra, base,
            overrides={self.t_name: base.one(), self.dt_name: base.zero()})

    def __repr__(self):
        return "CylinderAlgebra(%r)" % (self.base,)


def fiber_integrate(C, w):
    """Integrate a cylinder form over the interval factor.

    Monomials without the interval differential die; m * t^k * dt
    integrates to (-1)^deg(m) * m / (k+1).
    """
    base = C.base
    if w.gens != C.algebra.gens:
        raise GeneratorSetMismatch("form does not live on the cylinder")
    nb = len(base.gens)
    out = base.zero()
    for m, c in w.terms.items():
        if m[nb + 1] == 0:
            continue
        k = m[nb]
        body = m[:nb]
        sign = -1 if base.gens.monomial_degree(body) % 2 else 1
        out = out + base.gens.from_exponents(body, c * sign * Fraction(1, k + 1))
    return out


def check_stokes(C, w):
    lhs = apply_d(C.base, fiber_integrate(C, w))
    rhs = C.ev1(w) - C.ev0(w) - fiber_integrate(C, apply_d(C.algebra, w))
    return lhs == rhs


def check_projection(C, beta, alpha):
    """Projection formula: integrate(beta * alpha) = (-1)^deg(beta) * beta * integrate(alpha)."""
    lhs = fiber_integrate(C, C.inclusion(beta) * alpha)
    rhs = C.base.zero()
    part_int = fiber_integrate(C, alpha)
    for p, part in beta.homogeneous_parts().items():
        sign = -1 if p % 2 else 1
        rhs = rhs + sign * (part * part_int)
    return lhs == rhs
