"""Earlier texts of minimal_model and cofiber, kept as oracles.

minimal_model is the construction as ratho ran it before the model and
its complex were rebuilt only after a step adjoins: every step n = 0 ..
N+1 makes a fresh GeneratorSet, DGCA and validated AlgebraMorphism and a
fresh Complex of the model, whether or not the step before it added a
generator.  It repeats work but is short enough to check by eye.  Tests
compare the library's minimal_model against it presentation by
presentation.  The body is the earlier function's text; the helpers it
calls (_embed, BudgetExceeded, MinimalModelResult and the kernels) are
the library's.

cofiber is the quotient as ratho computed it before the projection went
through the morphism kernel: a loop over the terms of each new
generator's d that drops every term with a base factor and cuts the
others to the new generators' exponents.
"""

from ratho.core_algebra import (AlgebraMorphism, GeneratorSet, _embed,
                                _integer, apply_morphism)
from ratho.dgca import DGCA, _induced, _slices
from ratho.minimal_model import BudgetExceeded, MinimalModelResult


def minimal_model(A, N, polybound=None, budget=64):
    if _integer(N, "degree bound") < 1:
        raise ValueError("degree bound must be >= 1")
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
        return M, phi

    M, phi = build()
    for n in range(N + 2):
        model = _slices(M, None)
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
        M, phi = build()

    counts = {}
    for _, deg in pairs:
        counts[deg] = counts.get(deg, 0) + 1
    return MinimalModelResult(M, phi, N, dict(sorted(counts.items())))


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
