"""Dense Gauss-Jordan elimination over Fraction: the oracle for ratho._linalg.

This is the straightforward dense kernel ratho used before its sparse one.
It scans every entry, so it is slow on large sparse matrices, but it is
short enough to check by eye.  Tests compare the sparse kernel against it
and use it wherever they need a rank that does not come from the code
under test.  Pivots are the first nonzero column, scanning rows top to
bottom; vectors are lists of Fraction and matrices are lists of rows.

twisted_cylinder_solvable is the oracle for deciding the h3-twisted
family: it writes the straight cylinder's equations level by level, with
twisted_d on single monomials, and solves them densely.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns).  Input is not mutated.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of the right null space of the matrix, as vectors of length ncols.

    One basis vector per free column, with that free coordinate set to 1;
    ordered by increasing free-column index.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve sum_i x_i * rows[i] = rhs for the coefficient list x.

    Treats the given rows as spanning vectors and rhs as a target vector;
    returns a coefficient list or None if rhs is outside the span.
    """
    if not rows:
        return None if any(x != 0 for x in rhs) else []
    ncols = len(rows[0])
    # columns of the system are the spanning vectors; augment with rhs
    nvec = len(rows)
    aug = []
    for c in range(ncols):
        aug.append([rows[i][c] for i in range(nvec)] + [rhs[c]])
    red, pivots = rref(aug)
    if nvec in pivots:
        return None
    x = [ZERO] * nvec
    for row, pc in zip(red, pivots):
        x[pc] = row[nvec]
    return x


class Echelon:
    """Incremental echelon basis with monic pivots, for span membership.

    Rows are kept fully reduced against each other; pivot = first nonzero
    coordinate.  add() returns the residual of the vector after reduction
    (zero vector means it was already in the span).
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivot_cols = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        v = list(vec)
        for row, pc in zip(self.rows, self.pivot_cols):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        pc = next((i for i, x in enumerate(v) if x != 0), None)
        if pc is None:
            return v
        inv = ONE / v[pc]
        v = [x * inv for x in v]
        for i, (row, opc) in enumerate(zip(self.rows, self.pivot_cols)):
            if row[pc] != 0:
                f = row[pc]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        at = 0
        while at < len(self.pivot_cols) and self.pivot_cols[at] < pc:
            at += 1
        self.rows.insert(at, v)
        self.pivot_cols.insert(at, pc)
        return v

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))


def intersect_with_coordinate_subspace(vectors, allowed, ncols):
    """Basis of span(vectors) ∩ {v : v supported on the allowed coordinates}.

    allowed is a set of coordinate indices.  Works by reordering columns so
    the disallowed ones come first; rref rows whose pivot falls in the
    allowed block are supported there entirely.
    """
    disallowed = [c for c in range(ncols) if c not in allowed]
    order = disallowed + [c for c in range(ncols) if c in allowed]
    inv_order = [0] * ncols
    for pos, c in enumerate(order):
        inv_order[c] = pos
    permuted = [[v[c] for c in order] for v in vectors]
    red, pivots = rref(permuted)
    cut = len(disallowed)
    out = []
    for row, pc in zip(red, pivots):
        if pc >= cut:
            orig = [ZERO] * ncols
            for pos, c in enumerate(order):
                orig[c] = row[pos]
            out.append(orig)
    return out


def twisted_cylinder_solvable(base, H, kmax, diff):
    """Does the straight cylinder over twisted_ku_bundle(kmax) exist?

    diff maps each odd k <= 2kmax+1 to F1_k - F0_k, a form on base.  The
    unknowns are h_0, h_2, ..., h_2kmax with F1_k - F0_k = d h_(k-1)
    - H h_(k-3) for odd k <= 2kmax+1 and no further.  A monomial m of even
    degree j <= 2kmax is one unknown; its column is twisted_d(m) = dm - H m
    cut to degrees <= 2kmax+1, so dm enters equation j+1 and -H m
    equation j+3.  The twisted complex is truncated at 2kmax+1, where
    the equations stop, so bases with even generators are covered too.
    Returns whether dense elimination solves the system.
    """
    from ratho.core_algebra import basis_of_degree
    from ratho.twisted_derham import TwistedComplex, twisted_d

    gens = base.gens
    top = 2 * kmax + 1
    C = TwistedComplex(base, H, period=1, truncation=top)
    eqs = [m for k in range(1, top + 1, 2) for m in basis_of_degree(gens, k)]
    pos = {m: i for i, m in enumerate(eqs)}
    columns = []
    for j in range(0, top, 2):
        for m in basis_of_degree(gens, j):
            col = [ZERO] * len(eqs)
            for e, c in twisted_d(C, gens.from_exponents(m)).terms.items():
                if gens.monomial_degree(e) <= top:
                    col[pos[e]] += c
            columns.append(col)
    rhs = [ZERO] * len(eqs)
    for p in diff.values():
        for e, c in p.terms.items():
            rhs[pos[e]] += c
    return solve(columns, rhs) is not None
