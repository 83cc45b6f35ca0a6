"""Dictionary between semifree dgc-algebras and L-infinity structure constants.

A dgca on generators g_i determines a bracket system on the shifted dual
basis: v_i has degree |g_i| - 1, and the word-length-n component of the
differential encodes the n-ary bracket.  Writing {v_{i_1}, ..., v_{i_n}} for
the raw coefficient of the canonically ordered monomial g_{i_1}...g_{i_n} in
d(g_c), the bracket is

    [v_{i_1}, ..., v_{i_n}] = (-1)^(n + deg v_{i_1} + ... + deg v_{i_floor(n/2)})
                              * {v_{i_1}, ..., v_{i_n}}

with degrees taken in the shifted grading.  Worked example: for su(2) with
d th1 = th2 th3, d th2 = th3 th1, d th3 = th1 th2 the three basis elements
e1, e2, e3 sit in degree 0, the binary sign is (-1)^(2+0) = +1, and the
recovered table is the textbook one, [e_i, e_j] = epsilon_ijk e_k.

d^2 = 0 on the algebra side is exactly the generalized Jacobi identity on the
bracket side, so Jacobi verification is delegated to the differential.

The generator dependency graph (g depends on the generators in d(g)) has
its helpers here: _reach, _order with its cycle witness, and
_linear_offenders, which minimal_model's relative checks run on the new
generators of an extension where is_sullivan and is_minimal run on all.
"""

from fractions import Fraction

from .core_algebra import DegreeError, GeneratorSet, _integer, _rational
from .dgca import DGCA, check_d_squared


class LInfinityStructure:
    """Graded basis plus a table of n-ary brackets on sorted index multisets.

    brackets maps a tuple of basis names, sorted by basis order and with
    repeats allowed only in odd degrees, to the expansion of the bracket of
    those elements as {target name: coefficient}.
    """

    def __init__(self, basis, brackets):
        basis = tuple((str(n), _integer(d, "degree")) for n, d in basis)
        names = tuple(n for n, _ in basis)
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self.basis = basis
        self.degrees = dict(basis)
        self.index = {n: i for i, n in enumerate(names)}
        table = {}
        for key, targets in brackets.items():
            key = tuple(key)
            if not key:
                raise ValueError("bracket keys must be nonempty")
            for nm in key:
                if nm not in self.index:
                    raise ValueError("unknown basis element %r" % (nm,))
            if list(key) != sorted(key, key=self.index.__getitem__):
                raise ValueError("bracket key not sorted in basis order: %r" % (key,))
            for nm in set(key):
                if key.count(nm) > 1 and self.degrees[nm] % 2 == 0:
                    raise ValueError(
                        "even-degree element %r repeated in bracket key" % (nm,))
            want = sum(self.degrees[nm] for nm in key) + len(key) - 2
            cleaned = {}
            for target, c in targets.items():
                if target not in self.index:
                    raise ValueError("unknown bracket target %r" % (target,))
                c = _rational(c, "bracket coefficient")
                if not c:
                    continue
                if self.degrees[target] != want:
                    raise DegreeError(
                        "bracket on (%s) must land in degree %d, got %r"
                        % (", ".join(key), want, target))
                cleaned[target] = c
            if cleaned:
                table[key] = cleaned
        self.brackets = table

    def bracket(self, key):
        """Expansion of the bracket of the (sorted) key, zero map if absent."""
        return dict(self.brackets.get(tuple(key), {}))

    def __eq__(self, other):
        return (isinstance(other, LInfinityStructure)
                and self.basis == other.basis
                and self.brackets == other.brackets)

    __hash__ = None

    def __repr__(self):
        return "LInfinityStructure(basis=%r, %d brackets)" % (
            list(self.basis), len(self.brackets))


def _bracket_sign(degrees, key):
    n = len(key)
    s = n + sum(degrees[key[i]] for i in range(n // 2))
    return Fraction(-1 if s % 2 else 1)


def brackets_from_ce(A):
    """Read the bracket table off the differential of a dgca.

    The word-length-n part of d(g_c) contributes, monomial by monomial, the
    coefficient of v_c in the n-ary bracket of the monomial's dual multiset.
    """
    if not check_d_squared(A).passed:
        raise ValueError("differential does not square to zero")
    g = A.gens
    basis = [(name, g.degrees[i] - 1) for i, name in enumerate(g.names)]
    degrees = dict(basis)
    table = {}
    for target in g.names:
        for m, c in A.d[target].terms.items():
            key = []
            for i, e in enumerate(m):
                key.extend([g.names[i]] * e)
            key = tuple(key)
            sign = _bracket_sign(degrees, key)
            row = table.setdefault(key, {})
            row[target] = row.get(target, Fraction(0)) + sign * c
    return LInfinityStructure(basis, table)


def ce_from_brackets(L):
    """Chevalley-Eilenberg algebra of a bracket system, inverse to brackets_from_ce."""
    gens = GeneratorSet([(name, deg + 1) for name, deg in L.basis])
    d = {name: gens.zero() for name in gens.names}
    for key, targets in L.brackets.items():
        powers = {}
        for nm in key:
            powers[nm] = powers.get(nm, 0) + 1
        m = gens.monomial(powers)
        sign = _bracket_sign(L.degrees, key)
        for target, c in targets.items():
            d[target] = d[target] + (sign * c) * m
    return DGCA(gens, d)


def check_jacobi(L):
    """Generalized Jacobi identity, verified as d^2 = 0 on the CE side.

    Returns the d-squared report; failures list (generator, residual) pairs.
    """
    return check_d_squared(ce_from_brackets(L))


def lie_algebra_brackets(names, constants):
    """Binary bracket table of an ordinary Lie algebra.

    constants maps a pair (a, b) of basis names to the expansion of [e_a, e_b]
    as {name: coefficient}.  Pairs may come in either order; entries with
    a after b in basis order are folded in with the antisymmetry sign.
    """
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    table = {}
    for (a, b), targets in constants.items():
        if a == b:
            raise ValueError("[e_%s, e_%s] vanishes in degree 0" % (a, b))
        sign = 1
        if index[a] > index[b]:
            a, b, sign = b, a, -1
        row = table.setdefault((a, b), {})
        for target, c in targets.items():
            c = _rational(c, "structure constant")
            row[target] = row.get(target, Fraction(0)) + sign * c
    return LInfinityStructure([(n, 0) for n in names], table)


class SullivanCertificate:
    """Outcome of the well-founded generator-order search.

    Exactly one of order and cycle is set.  order lists all generators such
    that each differential lands in the subalgebra on strictly earlier ones;
    cycle is a dependency loop (g_1, ..., g_k) with each g_i depending on
    g_{i+1} and g_k depending on g_1.
    """

    def __init__(self, order=None, cycle=None):
        if (order is None) == (cycle is None):
            raise ValueError("exactly one of order and cycle must be given")
        self.order = tuple(order) if order is not None else None
        self.cycle = tuple(cycle) if cycle is not None else None

    @property
    def ok(self):
        return self.order is not None

    def __repr__(self):
        if self.ok:
            return "SullivanCertificate(order=%r)" % (list(self.order),)
        return "SullivanCertificate(cycle=%r)" % (list(self.cycle),)


def _dependencies(A):
    deps = {}
    for name in A.gens.names:
        used = set()
        for m in A.d[name].terms:
            for i, e in enumerate(m):
                if e:
                    used.add(A.gens.names[i])
        deps[name] = used
    return deps


def _reach(deps, g):
    """The generators g depends on in one or more steps."""
    seen = set()
    todo = list(deps[g])
    while todo:
        h = todo.pop()
        if h not in seen:
            seen.add(h)
            todo.extend(deps[h])
    return seen


def _cycle_witness(names, deps):
    # walk from the first name on a cycle, among the names it reaches and
    # that reach it back (its strongly connected component)
    start = next(g for g in names if g in _reach(deps, g))
    if start in deps[start]:
        return [start]
    comp = {h for h in _reach(deps, start) if start in _reach(deps, h)}
    path = [start]
    seen = {start}
    while True:
        node = path[-1]
        inside = [h for h in sorted(deps[node], key=names.index) if h in comp]
        fresh = [h for h in inside if h not in seen]
        if fresh:
            path.append(fresh[0])
            seen.add(fresh[0])
            continue
        # close at the dependency that appears earliest in the path
        back = min(inside, key=path.index)
        return path[path.index(back):]


def is_sullivan(A):
    """Search for a generator order in which every d(g) uses only earlier generators.

    Kahn's algorithm with declaration order breaking ties; on failure the
    certificate carries an explicit dependency cycle (self-loops count).
    """
    return _order(list(A.gens.names), _dependencies(A))


def _order(names, deps):
    """Kahn's algorithm over names; deps maps each name to those it needs."""
    placed = set()
    order = []
    while len(order) < len(names):
        ready = [g for g in names
                 if g not in placed and deps[g] <= placed]
        if not ready:
            return SullivanCertificate(cycle=_cycle_witness(names, deps))
        order.append(ready[0])
        placed.add(ready[0])
    return SullivanCertificate(order=order)


def _linear_offenders(A, names):
    """Those of names whose differential has a term that is one of names alone.

    Over all generators this is the word-length-1 test of is_minimal; over
    the new generators of an extension it is strict relative minimality.
    """
    inside = {A.gens.index[g] for g in names}
    return [g for g in names
            if any(sum(m) == 1 and m.index(1) in inside
                   for m in A.d[g].terms)]


def is_minimal(A):
    """Decide minimality; returns (flag, offending generator names).

    A generator offends if its differential has a word-length-1 term.  When
    generators of degree at most 1 are present, a Sullivan order that is
    monotone in degree must also exist: no generator may depend on one of
    strictly larger degree, and the dependencies within each fixed degree
    must be acyclic.
    """
    names = list(A.gens.names)
    offenders = _linear_offenders(A, names)
    if any(d <= 1 for d in A.gens.degrees):
        deps = _dependencies(A)
        deg = dict(zip(names, A.gens.degrees))
        level = {g: {h for h in deps[g] if deg[h] == deg[g]} for g in names}
        offenders = [g for g in names if g in offenders
                     or any(deg[h] > deg[g] for h in deps[g])
                     or g in _reach(level, g)]
    return (not offenders), offenders


def whitehead_summary(A):
    """Generator count per degree of a minimal algebra on degree >= 2 generators.

    The count in degree n is the dimension of the degree-n rational homotopy
    of any space the algebra is a minimal model of.
    """
    ok, offenders = is_minimal(A)
    if not ok:
        raise ValueError("input is not minimal; offenders: %s" % ", ".join(offenders))
    if any(d < 2 for d in A.gens.degrees):
        raise ValueError("summary requires all generators in degree >= 2")
    out = {}
    for d in A.gens.degrees:
        out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))
