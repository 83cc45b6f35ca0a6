"""Free graded-commutative algebras over the exact rationals.

A generator set is an ordered list of named generators with non-negative
integer (cohomological) degrees.  A monomial is an exponent vector over
that fixed order; odd-degree generators never carry an exponent above 1.
A polynomial is a finite map from monomials to nonzero Fractions.

Sign convention: the product of two canonical monomials is the canonical
monomial of the merged exponents, times (-1)^k where k counts the pairs
of odd generators that must cross during the merge (odd generator i
active in the right factor, odd generator j > i active in the left one).
This realizes graded commutativity a*b = (-1)^{|a||b|} b*a.
normalize_product walks the odd generators right to left, adding for each
odd factor of the right monomial the odd factors of the left one above it.
It is the one sign rule.  Sums, products and morphism images run on term
dicts {monomial: Fraction} (_add_terms, _mul_terms), which delete a term
as soon as it cancels: their output has no zero coefficient, and
_trusted wraps it without filtering again.

basis_of_degree is output-sensitive: bit masks hold the degrees that can
be left before each position and completed after it, and suffix tables,
built right to left over those live states only, put one exponent in
front of each suffix per position, so no table is longer than the output.

No floating point anywhere: coefficients are fractions.Fraction.
"""

from fractions import Fraction
from collections import namedtuple
from operator import add

Generator = namedtuple("Generator", ["name", "degree"])


class GeneratorSetMismatch(ValueError):
    pass


class UnboundedSliceError(ValueError):
    pass


class DegreeError(ValueError):
    pass


def _integer(value, what):
    """value if it is an int but not a bool, else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s %r is not an integer" % (what, value))
    return value


def _rational(value, what):
    """Fraction(value) for a non-bool int or a Fraction, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError("%s %r is not an integer or a Fraction"
                         % (what, value))
    return Fraction(value)


class GeneratorSet:
    """Ordered generator context; declaration order is the canonical order."""

    def __init__(self, gens):
        gens = [Generator(str(n), _integer(d, "degree")) for (n, d) in gens]
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for g in gens:
            if g.degree < 0:
                raise ValueError("negative degree for generator %s" % g.name)
        self.gens = tuple(gens)
        self.names = tuple(names)
        self.degrees = tuple(g.degree for g in gens)
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.odd = tuple(d % 2 == 1 for d in self.degrees)
        self.odd_indices = tuple(i for i, o in enumerate(self.odd) if o)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return "GeneratorSet(%s)" % (", ".join(
            "%s:%d" % (n, d) for n, d in zip(self.names, self.degrees)))

    def degree_of(self, name):
        return self.degrees[self.index[name]]

    # -- element builders ------------------------------------------------

    def zero(self):
        return _trusted(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _rational(c, "coefficient")
        if c == 0:
            return self.zero()
        unit = (0,) * len(self.gens)
        return _trusted(self, {unit: c})

    def gen(self, name):
        if name not in self.index:
            raise KeyError("unknown generator %r" % name)
        exps = [0] * len(self.gens)
        exps[self.index[name]] = 1
        return _trusted(self, {tuple(exps): Fraction(1)})

    def monomial(self, powers, coeff=1):
        """Polynomial with a single term; powers maps name -> exponent."""
        exps = [0] * len(self.gens)
        for name, e in powers.items():
            if name not in self.index:
                raise KeyError("unknown generator %r" % name)
            exps[self.index[name]] = e
        return self.from_exponents(exps, coeff)

    def from_exponents(self, exps, coeff=1):
        m = self._canonical(exps)
        c = _rational(coeff, "coefficient")
        return _trusted(self, {m: c} if c else {})

    def _canonical(self, exps):
        """exps as a canonical monomial tuple, else GeneratorSetMismatch
        (wrong length) or ValueError (not a sequence, not an integer,
        negative, or an odd generator squared)."""
        try:
            m = tuple(_integer(e, "exponent") for e in exps)
        except TypeError:
            raise ValueError("%r is not a monomial" % (exps,)) from None
        if len(m) != len(self.gens):
            raise GeneratorSetMismatch("exponent vector length mismatch")
        for e, odd in zip(m, self.odd):
            if e < 0:
                raise ValueError("negative exponent")
            if odd and e > 1:
                raise ValueError("odd generator squared")
        return m

    def monomial_degree(self, exps):
        return sum(e * d for e, d in zip(exps, self.degrees))

    def monomial_str(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e >= 2:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


def normalize_product(gens, m1, m2):
    """Merge two canonical monomials; returns (sign, monomial) or None.

    None means the product vanishes because an odd generator repeats.
    """
    if len(m1) != len(gens.gens) or len(m2) != len(gens.gens):
        raise GeneratorSetMismatch("monomial over a different generator set")
    inv = above = 0  # above: odd factors of m1 past the current index
    for i in reversed(gens.odd_indices):
        if m2[i]:
            if m1[i]:
                return None
            inv += above
        elif m1[i]:
            above += 1
    return (-1 if inv & 1 else 1, tuple(map(add, m1, m2)))


def _add_terms(t1, t2, sign):
    """Add sign * t2 into the term dict t1, deleting cancelled terms."""
    for m, c in t2.items():
        s = t1.get(m)
        if s is None:
            t1[m] = c if sign > 0 else -c
        else:
            s = s + c if sign > 0 else s - c
            if s:
                t1[m] = s
            else:
                del t1[m]
    return t1


def _mul_terms(gens, t1, t2):
    """Product of two term dicts, Koszul signs from normalize_product."""
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            r = normalize_product(gens, m1, m2)
            if r is None:
                continue
            sign, m = r
            c = c1 * c2
            s = out.get(m)
            if s is None:
                out[m] = c if sign > 0 else -c
            else:
                s = s + c if sign > 0 else s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _trusted(gens, terms):
    """A Polynomial on terms that are already canonical: monomials of gens,
    nonzero Fraction coefficients.  Nothing is checked."""
    p = Polynomial.__new__(Polynomial)
    p.gens, p.terms = gens, terms
    return p


class Polynomial:
    """Exact-rational linear combination of canonical monomials.

    Immutable by convention: no method mutates self, and the term dict is
    never handed out for writing.  The constructor checks each term as
    from_exponents does and drops zeros; ratho's kernels use _trusted.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms):
        self.gens = gens
        self.terms = {}
        for m, c in terms.items():
            m, c = gens._canonical(m), _rational(c, "coefficient")
            if c:
                self.terms[m] = c

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        terms = _add_terms(dict(self.terms), self._coerce(other).terms, 1)
        return _trusted(self.gens, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _trusted(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        terms = _add_terms(dict(self.terms), self._coerce(other).terms, -1)
        return _trusted(self.gens, terms)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _rational(other, "scalar")
            return _trusted(self.gens, {m: c * v for m, v in
                                        self.terms.items()} if c else {})
        other = self._coerce(other)
        return _trusted(self.gens,
                        _mul_terms(self.gens, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return self._coerce(other).__mul__(self)

    def __pow__(self, k):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError("exponent %r is not a nonnegative integer" % (k,))
        out = self.gens.one()
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, c):
        return self * (Fraction(1) / _rational(c, "divisor"))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.gens != self.gens:
                raise GeneratorSetMismatch(
                    "polynomials over different generator sets")
            return other
        if isinstance(other, (int, Fraction)):
            return self.gens.constant(other)
        raise TypeError("cannot combine Polynomial with %r" % type(other))

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        # a bool is no scalar (see _rational), so it equals no Polynomial
        if isinstance(other, bool):
            return False
        if isinstance(other, (int, Fraction)):
            other = self.gens.constant(other)
        return (isinstance(other, Polynomial) and self.gens == other.gens
                and self.terms == other.terms)

    __hash__ = None

    def homogeneous_parts(self):
        """Map degree -> homogeneous Polynomial, no zero entries."""
        parts = {}
        for m, c in self.terms.items():
            d = self.gens.monomial_degree(m)
            parts.setdefault(d, {})[m] = c
        return {d: _trusted(self.gens, t) for d, t in sorted(parts.items())}

    def is_homogeneous(self):
        return len({self.gens.monomial_degree(m) for m in self.terms}) <= 1

    def degree(self):
        """Degree of a homogeneous polynomial; None for zero."""
        ds = {self.gens.monomial_degree(m) for m in self.terms}
        if not ds:
            return None
        if len(ds) > 1:
            raise DegreeError("inhomogeneous polynomial has no degree")
        return ds.pop()

    def coefficient(self, other):
        """Coefficient of the single monomial of other inside self."""
        (m,) = other.terms.keys()
        return self.terms.get(m, Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc:
                      (self.gens.monomial_degree(mc[0]), mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            ms = self.gens.monomial_str(m)
            if ms == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = ms
            else:
                body = "%s*%s" % (abs(c), ms)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "<Polynomial %s>" % self


def basis_of_degree(gens, n, polybound=None):
    """All canonical monomials of total degree n, as exponent tuples.

    Deterministic order: lexicographic in the exponent vector.  polybound
    caps the total exponent of degree-0 generators; it is required as soon
    as any degree-0 generator is present, since the slice is infinite
    otherwise.  Every suffix built completes some monomial of the output.
    """
    n = _integer(n, "degree")
    polybound = None if polybound is None else _integer(polybound, "polybound")
    if n < 0:
        return []
    degrees, odd, k = gens.degrees, gens.odd, len(gens.degrees)
    first = degrees.index(0) if 0 in degrees else -1
    last = k - 1 - degrees[::-1].index(0) if first >= 0 else -1
    if first >= 0 and polybound is None:
        raise UnboundedSliceError(
            "unbounded slice: degree-0 generators need a polybound")
    zbudget = polybound if first >= 0 else 0
    # bit t of ahead[i] is set when positions 0..i-1 can use exactly n - t:
    # an odd generator uses 0 or d, an even one any multiple of d (closed
    # under + d by doubling the shift), a degree-0 one nothing
    ahead = [1 << n]
    for d, o in zip(degrees, odd):
        a = ahead[-1]
        if o:
            a |= a >> d
        elif d:
            s = d
            while s <= n:
                a |= a >> s
                s *= 2
        ahead.append(a)
    if zbudget < 0 or not ahead[k] & 1:
        return []
    # suffix tables, right to left: table[z][r] lists in order the
    # exponents of positions i..k-1 that add degree r within degree-0
    # budget z, for live states only: r a bit of ahead[i] that position i
    # takes to a live r of position i + 1, z a budget some prefix leaves
    # (0 past the last degree-0 position)
    table, below = {0: {0: [()]}}, 1
    for i in range(k - 1, -1, -1):
        d, o, live = degrees[i], odd[i], below
        if o:
            live |= live << d
        elif d:
            s = d
            while s <= n:
                live |= live << s
                s *= 2
        live &= ahead[i]
        budgets = ((zbudget,) if i <= first else
                   range(zbudget + 1) if i <= last else (0,))
        level = {}
        for z in budgets:
            lz = level[z] = {}
            bits = live
            while bits:
                r = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if o:
                    steps = [((0,), table[z][r])] if below >> r & 1 else []
                    if r >= d and below >> (r - d) & 1:
                        steps.append(((1,), table[z][r - d]))
                elif d:
                    steps, q = [], r
                    for e in range(r // d + 1):
                        if below >> q & 1:
                            steps.append(((e,), table[z][q]))
                        q -= d
                else:
                    steps = [((e,), table[z - e if i < last else 0][r])
                             for e in range(z + 1)]
                lz[r] = [p + t for p, ts in steps for t in ts]
        table, below = level, live
    return table[zbudget][n]


class AlgebraMorphism:
    """Degree-preserving generator assignment between two algebras.

    source and target may be GeneratorSets or anything exposing .gens
    (e.g. a DGCA).  Every source generator must be assigned a polynomial
    over the target that is homogeneous of the generator's degree, or zero.
    """

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        sgens = gens_of(source)
        tgens = gens_of(target)
        self.assignment = {}
        for name in sgens.names:
            if name not in assignment:
                raise ValueError("morphism misses generator %r" % name)
            p = assignment[name]
            if not isinstance(p, Polynomial) or p.gens != tgens:
                raise GeneratorSetMismatch(
                    "image of %r is not over the target algebra" % name)
            if not p.is_zero() and p.degree() != sgens.degree_of(name):
                raise DegreeError(
                    "image of %r is not homogeneous of degree %d"
                    % (name, sgens.degree_of(name)))
            self.assignment[name] = p
        extra = set(assignment) - set(sgens.names)
        if extra:
            raise ValueError("assignment for unknown generators %s"
                             % sorted(extra))

    def __call__(self, p):
        return apply_morphism(self, p)

    def __eq__(self, other):
        return (isinstance(other, AlgebraMorphism)
                and gens_of(self.source) == gens_of(other.source)
                and gens_of(self.target) == gens_of(other.target)
                and self.assignment == other.assignment)

    __hash__ = None


def gens_of(obj):
    """The GeneratorSet of a GeneratorSet, DGCA, or similar."""
    if isinstance(obj, GeneratorSet):
        return obj
    return obj.gens


def apply_morphism(phi, p):
    """Multiplicative unital extension of the generator assignment."""
    sgens = gens_of(phi.source)
    tgens = gens_of(phi.target)
    if p.gens != sgens:
        raise GeneratorSetMismatch("polynomial not over the morphism source")
    unit = (0,) * len(tgens)
    powers = {}  # (i, e) -> terms of g_i^e, each built once per call
    out = {}
    for m, c in p.terms.items():
        img = {unit: c}
        # factors in canonical order; Koszul signs handled by the product
        for i, e in enumerate(m):
            if e == 0:
                continue
            g = powers.get((i, e))
            if g is None:
                g = base = phi.assignment[sgens.names[i]].terms
                for _ in range(e - 1):
                    g = _mul_terms(tgens, g, base)
                powers[(i, e)] = g
            img = _mul_terms(tgens, img, g)
            if not img:
                break
        _add_terms(out, img, 1)
    return _trusted(tgens, out)


def morphism_by_names(source, target, overrides=None):
    """Morphism sending each generator to the same-named target generator.

    overrides maps selected source generator names to explicit images.
    """
    sgens = gens_of(source)
    tgens = gens_of(target)
    overrides = overrides or {}
    assignment = {}
    for name in sgens.names:
        if name in overrides:
            assignment[name] = overrides[name]
        else:
            if name not in tgens.index:
                raise ValueError("target has no generator %r" % name)
            assignment[name] = tgens.gen(name)
    return AlgebraMorphism(source, target, assignment)


def compose_morphisms(outer, inner):
    """outer after inner, defined when inner's target is outer's source."""
    if gens_of(inner.target) != gens_of(outer.source):
        raise GeneratorSetMismatch("morphisms do not compose")
    assignment = {name: apply_morphism(outer, img)
                  for name, img in inner.assignment.items()}
    return AlgebraMorphism(inner.source, outer.target, assignment)
