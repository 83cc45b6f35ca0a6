"""The earlier minimal-model loop: the oracle for its rebuild-on-adjoin path.

This is the construction as ratho ran it before the model and its complex
were rebuilt only after a step adjoins: every step n = 0 .. N+1 makes a
fresh GeneratorSet, DGCA and validated AlgebraMorphism and a fresh Complex
of the model, whether or not the step before it added a generator.  It
repeats work but is short enough to check by eye.  Tests compare the
library's minimal_model against it presentation by presentation.  The
body is the earlier function's text; the helpers it calls (_embed,
BudgetExceeded, MinimalModelResult and the kernels) are the library's.
"""

from ratho.core_algebra import (AlgebraMorphism, GeneratorSet, _integer,
                                apply_morphism)
from ratho.dgca import DGCA, _induced, _slices
from ratho.minimal_model import BudgetExceeded, MinimalModelResult, _embed


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
