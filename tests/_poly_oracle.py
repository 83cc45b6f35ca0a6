"""The polynomial layer's earlier kernels: the oracle for its fast paths.

These are the straightforward versions ratho used before it took the
Koszul sign from the odd generators only, built d from derivation tables
and read the Chern character off the Chern forms by Newton's identities.
They build a Polynomial per term and form matrix powers, so they are slow,
but they are short enough to check by eye.  Tests compare the library's
normalize_product, apply_d and chern_character against them, and use
_matmul and _trace wherever they need a trace of a matrix power that does
not come from the code under test.

add, sub, mul and apply_morphism are the Polynomial sums, products and
morphism images from before the term-dict kernels: a Fraction(0) per
term, sub as the sum with a negated copy, apply_morphism as one
Polynomial product per generator factor.  Their bodies are the earlier
methods' text, with self kept as the first argument and each nested
operation routed to these functions.  Every sum and product in this
module goes through them, so no oracle result comes from the library's
term-dict kernels.
"""

from fractions import Fraction

from ratho.core_algebra import GeneratorSetMismatch, Polynomial, gens_of


def normalize_product(gens, m1, m2):
    """Merge two canonical monomials; returns (sign, monomial) or None.

    None means the product vanishes because an odd generator repeats.
    """
    if len(m1) != len(gens.gens) or len(m2) != len(gens.gens):
        raise GeneratorSetMismatch("monomial over a different generator set")
    inv = 0
    left_odd = [j for j in range(len(m1)) if m1[j] and gens.odd[j]]
    for i in range(len(m2)):
        if m2[i] and gens.odd[i]:
            if m1[i]:
                return None
            # count odd factors of m1 that the incoming factor crosses
            inv += sum(1 for j in left_odd if j > i)
    merged = tuple(a + b for a, b in zip(m1, m2))
    return (-1 if inv % 2 else 1, merged)


def add(self, other):
    other = self._coerce(other)
    out = dict(self.terms)
    for m, c in other.terms.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return Polynomial(self.gens, out)


def sub(self, other):
    return add(self, self._coerce(other).__neg__())


def mul(self, other):
    if isinstance(other, (int, Fraction)):
        c = Fraction(other)
        return Polynomial(self.gens,
                          {m: c * v for m, v in self.terms.items()})
    other = self._coerce(other)
    out = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            r = normalize_product(self.gens, m1, m2)
            if r is None:
                continue
            sign, m = r
            s = out.get(m, Fraction(0)) + sign * c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return Polynomial(self.gens, out)


def apply_morphism(phi, p):
    """Multiplicative unital extension of the generator assignment."""
    sgens = gens_of(phi.source)
    tgens = gens_of(phi.target)
    if p.gens != sgens:
        raise GeneratorSetMismatch("polynomial not over the morphism source")
    out = tgens.zero()
    for m, c in p.terms.items():
        img = tgens.constant(c)
        # factors in canonical order; Koszul signs handled by the product
        for i, e in enumerate(m):
            if e == 0:
                continue
            g = phi.assignment[sgens.names[i]]
            for _ in range(e):
                img = mul(img, g)
            if img.is_zero():
                break
        out = add(out, img)
    return out


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
            term = mul(mul(term, dgi), gens.from_exponents(suffix))
            out = add(out, term)
    return out


def _matmul(x, y, gens):
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = gens.zero()
            for k in range(n):
                if x[i][k].is_zero() or y[k][j].is_zero():
                    continue
                s = add(s, mul(x[i][k], y[k][j]))
            row.append(s)
        out.append(row)
    return out


def _trace(entries, gens):
    s = gens.zero()
    for i in range(len(entries)):
        s = add(s, entries[i][i])
    return s


def chern_character(phi, cutoff):
    """Chern character through total degree <= cutoff.

    ch = n + sum_{k>=1} tr(phi^k)/k!, truncated after the degree-cutoff
    term; the result is an inhomogeneous even element whose degree-0 part
    is the matrix size.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    out = phi.gens.constant(phi.size)
    power = [[phi.gens.one() if i == j else phi.gens.zero()
              for j in range(phi.size)] for i in range(phi.size)]
    fact = 1
    for k in range(1, cutoff // 2 + 1):
        power = _matmul(power, phi.entries, phi.gens)
        fact *= k
        out = add(out, _trace(power, phi.gens) / fact)
    return out
