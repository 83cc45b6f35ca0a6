"""The finite-complex layer against a dense recomputation, and its memo.

The oracle half rebuilds every expected value here from basis_of_degree
and the matrices of apply_d / twisted_d, with the dense elimination of
_dense_oracle: cocycles are the kernel of d on the cocycle window against
the full images (overflow included), boundaries the image of d on the
previous grade intersected with the window's coordinates, and a class is
a kernel vector that is new modulo the boundaries and the classes before
it.  Ordinary cohomology reports the reduced residual of each such
vector, twisted cohomology the kernel vector itself, and the rank-only
cohomology_dims and twisted_cohomology_dims the same dimensions.  The
windowed algebras have degree-0 generators, so their window cuts
boundaries that reach outside it: the oracle's dense intersection is the
check on that cut, which dims and homology share.  Complex.image, the
map into cohomology that is_quasi_iso and minimal_model both read, is
checked by ranks: m vectors adding rank r to the boundaries have m - r
relations, whose combinations is_exact solves, and dim H^k - r cokernel
classes, independent modulo the boundaries and the vectors.

The build-count half wraps basis_of_degree and dgca._d_row, the
per-monomial row of d that _slices builds from one derivation table: one
computation builds each basis and each row of d once, however many
degrees, classes or witnesses it asks about.
"""

import itertools
import sys
from fractions import Fraction

import pytest

import _dense_oracle as oracle
from ratho import core_algebra, dgca
from ratho.character import line_quotient, twisted_ku_quotient
from ratho.cli import corpus
from ratho.core_algebra import (AlgebraMorphism, Polynomial, apply_morphism,
                                basis_of_degree, morphism_by_names)
from ratho.dgca import (DGCA, _slices, apply_d, cohomology, cohomology_dims,
                        is_chain_map, is_exact)
from ratho.simplicial_forms import CylinderAlgebra, SimplexAlgebra
from ratho.twisted_derham import (TwistedComplex, _residues,
                                  twisted_cohomology,
                                  twisted_cohomology_dims, twisted_d)

ZERO = Fraction(0)


def _rows(images, cols):
    """Dense rows of the polynomials over cols; cols grows by overflow."""
    pos = {m: i for i, m in enumerate(cols)}
    for p in images:
        for m in p.terms:
            if m not in pos:
                pos[m] = len(cols)
                cols.append(m)
    return [[p.terms.get(m, ZERO) for m in cols] for p in images]


def _classes(basis, window, d, basis_next, basis_prev):
    """(dim, [(kernel vector, residual)]) of one grade, by dense algebra."""
    out_rows = _rows([d(basis[i]) for i in window], list(basis_next))
    kernel = []
    for v in oracle.nullspace([list(c) for c in zip(*out_rows)],
                              len(window)):
        big = [ZERO] * len(basis)
        for i, c in zip(window, v):
            big[i] = c
        kernel.append(big)
    cols = list(basis)
    in_rows = _rows([d(m) for m in basis_prev], cols)
    bnd = [v[:len(basis)] for v in oracle.intersect_with_coordinate_subspace(
        in_rows, set(window), len(cols))]
    ech = oracle.Echelon(len(basis))
    for v in bnd:
        ech.add(v)
    classes = []
    for v in kernel:
        dim = ech.dim
        r = ech.add(v)
        if ech.dim > dim:
            classes.append((v, r))
    return len(kernel) - len(bnd), classes


def _poly(gens, basis, v):
    return Polynomial(gens, {m: c for m, c in zip(basis, v) if c})


def _cohomology_cases():
    """Each corpus model at polybound 3, and at several polybounds three
    algebras with degree-0 generators, whose window cuts boundaries."""
    cases = [pytest.param(corpus.algebra(name), 3, id=name)
             for name in corpus.names()]
    s4 = DGCA([("w4", 4), ("w7", 7)])
    s4 = DGCA(s4.gens, d={"w7": -s4.gens.monomial({"w4": 2})})
    # d keeps the degree-0 exponent, so boundaries reach outside the window
    inert = DGCA([("t", 0), ("x", 1), ("y", 2)])
    inert = DGCA(inert.gens, d={"x": inert.gen("y")})
    for label, A in (("simplex2", SimplexAlgebra(2).algebra),
                     ("cylinder-s4", CylinderAlgebra(s4).algebra),
                     ("inert", inert)):
        cases += [pytest.param(A, pb, id="%s-pb%d" % (label, pb))
                  for pb in (1, 2, 3, 5)]
    return cases


@pytest.mark.parametrize("A, pb", _cohomology_cases())
def test_cohomology_representatives_match_dense_oracle(A, pb):
    zero_gens = [i for i, d in enumerate(A.gens.degrees) if d == 0]

    def basis(n):
        return basis_of_degree(A.gens, n, pb) if n >= 0 else []

    def d(m):
        return apply_d(A, A.gens.from_exponents(m))

    slices = cohomology(A, (0, 8), pb)
    for s in slices:
        n = s.degree
        b = basis(n)
        window = [i for i, m in enumerate(b)
                  if sum(m[j] for j in zero_gens) <= pb - 1]
        dim, classes = _classes(b, window, d, basis(n + 1), basis(n - 1))
        assert s.dim == dim
        assert s.representatives == [_poly(A.gens, b, r) for _, r in classes]
    assert cohomology_dims(A, (0, 8), pb) == {s.degree: s.dim for s in slices}


def _twist_cases():
    cases = []
    for name in corpus.names():
        mf = corpus.load(name)
        for tname, t in mf.twists.items():
            cases.append(pytest.param(mf.algebras[t.algebra], t.form, None,
                                      id="%s-%s" % (name, tname)))
    # boundaries meet the kernel's support, so a reduced representative
    # would differ from the kernel vector
    T5 = DGCA([("x%d" % i, 1) for i in range(5)])
    x = [T5.gen(n) for n in T5.gens.names]
    cases.append(pytest.param(T5, x[0] * x[1] * x[2] + x[2] * x[3] * x[4],
                              None, id="t5"))
    # a truncated complex, so the overflow columns are exercised too
    W = DGCA([("w3", 3), ("c4", 4)])
    cases.append(pytest.param(W, W.gen("w3"), None, id="w3c4"))
    cases.append(pytest.param(W, W.zero(), 0, id="w3c4-period0"))
    return cases


@pytest.mark.parametrize("base, twist, period", _twist_cases())
def test_twisted_representatives_match_dense_oracle(base, twist, period):
    C = TwistedComplex(base, twist, period=period, truncation=8)
    r = C.period

    def basis(k):
        out = []
        for n in range(C.top + 1):
            if (n - k) % (2 * r) == 0 if r else n == k:
                out.extend(basis_of_degree(base.gens, n))
        return out

    def step(k):
        return k % (2 * r) if r else k

    def d(m):
        return twisted_d(C, base.gens.from_exponents(m))

    slices = twisted_cohomology(C)
    assert [s.residue for s in slices] == C.residues()
    for s in slices:
        k = s.residue
        b = basis(k)
        dim, classes = _classes(b, range(len(b)), d, basis(step(k + 1)),
                                basis(step(k - 1)))
        assert s.dim == dim
        assert ([c.rep for c in s.representatives]
                == [_poly(base.gens, b, v) for v, _ in classes])
    assert twisted_cohomology_dims(C) == tuple(s.dim for s in slices)


def _image_maps():
    """Chain maps phi with no degree-0 generators on either side: the zero
    self-map of each such corpus model, the self-map doubling its closed
    generators wherever that is a chain map, sp2inv -> twistor and two
    maps line3 -> twistor."""
    cases = []
    for name in corpus.names():
        A = corpus.algebra(name)
        if any(d == 0 for d in A.gens.degrees):
            continue
        cases.append(pytest.param(
            AlgebraMorphism(A, A, {n: A.zero() for n in A.gens.names}),
            id="zero-" + name))
        double = AlgebraMorphism(A, A, {
            n: 2 * A.gen(n) if A.d[n].is_zero() else A.gen(n)
            for n in A.gens.names})
        if is_chain_map(double)[0]:
            cases.append(pytest.param(double, id="double-" + name))
    tw = corpus.algebra("twistor")
    cases.append(pytest.param(
        morphism_by_names(corpus.algebra("sp2inv"), tw), id="sp2inv-twistor"))
    # c4 onto a nonzero boundary (a relation modulo the boundaries only),
    # and onto a sum of two classes (one cokernel class fewer, not two)
    c4 = corpus.algebra("line3")
    for label, image in (("exact", apply_d(tw, tw.gen("h3"))),
                         ("sum", tw.gen("hp1") + tw.monomial({"f2": 2}))):
        cases.append(pytest.param(AlgebraMorphism(c4, tw, {"c4": image}),
                                  id="%s-line3-twistor" % label))
    return cases


@pytest.mark.parametrize("phi", _image_maps())
def test_image_matches_dense_oracle(phi):
    T = phi.target
    source, target = _slices(phi.source, None), _slices(T, None)

    def d(m):
        return apply_d(T, T.gens.from_exponents(m))

    def dense(vs, width):
        return [[v.get(i, ZERO) for i in range(width)] for v in vs]

    for k in range(9):
        basis = basis_of_degree(T.gens, k)
        vectors = [target.vector(k, apply_morphism(phi, p))
                   for p in source.homology(k).representatives]
        relations, cokernel = target.image(k, vectors)
        bnd = _rows([d(m) for m in basis_of_degree(T.gens, k - 1)],
                    list(basis))
        cocycles = len(basis) - oracle.rank(
            _rows([d(m) for m in basis], basis_of_degree(T.gens, k + 1)))
        spanned = bnd + dense(vectors, len(basis))
        added = oracle.rank(spanned) - oracle.rank(bnd)
        assert len(relations) == len(vectors) - added
        assert len(cokernel) == cocycles - oracle.rank(bnd) - added
        assert (oracle.rank(dense(relations, len(vectors)))
                == len(relations))
        for rel in relations:
            p = target.combine(k, rel.values(), [vectors[i] for i in rel])
            q = is_exact(T, p)
            assert q is not None and apply_d(T, q) == p
        # the cokernel classes are new modulo the boundaries and the image
        new = dense((target.vector(k, p) for p in cokernel), len(basis))
        assert (oracle.rank(spanned + new)
                == oracle.rank(spanned) + len(cokernel))


# the image cases with a degree below 9 that has both boundaries and classes
@pytest.mark.parametrize("phi", [
    c for c in _image_maps()
    if c.id.endswith(("twistor", "heis3", "ku1_h3"))])
def test_image_and_homology_leave_the_boundary_echelon(phi):
    """image and homology grow copies of a grade's boundary echelon, so
    class_key after them keys as a fresh Complex does."""
    source = _slices(phi.source, None)
    used, fresh = _slices(phi.target, None), _slices(phi.target, None)
    checked = 0
    for k in range(9):
        vectors = [used.vector(k, apply_morphism(phi, p))
                   for p in source.homology(k).representatives]
        used.image(k, vectors)
        h = used.homology(k)
        probes = (h.representatives + h.cocycles
                  + [used.poly(k, v) for v in vectors])
        assert ([used.class_key(k, p) for p in probes]
                == [fresh.class_key(k, p) for p in probes])
        assert used._bounds(k).dim == fresh._bounds(k).dim
        checked += bool(h.representatives and fresh._bounds(k).dim)
    assert checked


@pytest.mark.parametrize("name", corpus.names())
def test_slices_rows_match_apply_d(name):
    A = corpus.algebra(name)
    pb = 3 if any(d == 0 for d in A.gens.degrees) else None
    cx = _slices(A, pb)
    for n in range(13):
        for m in cx.basis(n):
            assert cx._d(m) == apply_d(A, A.gens.from_exponents(m)).terms


@pytest.mark.parametrize("base, twist, period", _twist_cases())
def test_residues_rows_match_twisted_d(base, twist, period):
    C = TwistedComplex(base, twist, period=period, truncation=8)
    cx = _residues(C)
    for k in C.residues():
        for m in cx.basis(k):
            assert cx._d(m) == twisted_d(C, base.gens.from_exponents(m)).terms


@pytest.mark.parametrize("name, n", [("t3", 0), ("su2", 1)])
def test_line_quotient_classes_match_dense_oracle(name, n):
    omega = corpus.algebra(name)
    lattice = (-1, 0, 1)
    b = basis_of_degree(omega.gens, n + 1)

    def d(m):
        return apply_d(omega, omega.gens.from_exponents(m))

    out_rows = _rows([d(m) for m in b],
                     list(basis_of_degree(omega.gens, n + 2)))
    kernel = oracle.nullspace([list(c) for c in zip(*out_rows)], len(b))
    ech = oracle.Echelon(len(b))
    for v in _rows([d(m) for m in basis_of_degree(omega.gens, n)], list(b)):
        ech.add(v)
    expected = {}
    for combo in itertools.product([Fraction(x) for x in lattice],
                                   repeat=len(kernel)):
        vec = [sum((lam * v[i] for lam, v in zip(combo, kernel)), ZERO)
               for i in range(len(b))]
        expected.setdefault(tuple(ech.reduce(vec)), []).append(
            _poly(omega.gens, b, vec))
    res = line_quotient(omega, n, lattice)
    assert list(res.classes) == list(expected)
    assert res.classes == expected


def test_twisted_ku_quotient_keys_match_dense_oracle():
    omega = corpus.algebra("t3")
    H = omega.monomial({"x": 1, "y": 1, "z": 1})
    C = TwistedComplex(omega, H)
    odd = basis_of_degree(omega.gens, 1) + basis_of_degree(omega.gens, 3)
    even = basis_of_degree(omega.gens, 0) + basis_of_degree(omega.gens, 2)
    ech = oracle.Echelon(len(odd))
    for v in _rows([twisted_d(C, omega.gens.from_exponents(m))
                    for m in even], list(odd)):
        ech.add(v)
    res = twisted_ku_quotient(omega, H, (-1, 0, 1))
    assert res.class_count == 27
    # keys live in the family's own algebra, so compare partitions: two
    # data share a key exactly when their oracle residues agree
    residue = {}
    for key, members in res.classes.items():
        for datum in members:
            total = omega.zero()
            for name in datum.bundle.new_names:
                total = total + datum.image(name)
            (vec,) = _rows([total], list(odd))
            residue[id(datum)] = (key, tuple(ech.reduce(vec)))
    pairs = list(residue.values())
    assert len({k for k, _ in pairs}) == len({r for _, r in pairs}) == 27
    assert len(set(pairs)) == 27


def _count_bases(monkeypatch):
    """Degrees passed to basis_of_degree from any ratho module."""
    calls = []
    original = core_algebra.basis_of_degree

    def counted(gens, n, *args, **kwargs):
        calls.append(n)
        return original(gens, n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "ratho" or name.startswith("ratho."))
                and getattr(module, "basis_of_degree", None) is original):
            monkeypatch.setattr(module, "basis_of_degree", counted)
    return calls


@pytest.mark.parametrize("compute", [cohomology, cohomology_dims])
def test_degree_range_builds_each_basis_once(monkeypatch, compute):
    cp2 = corpus.algebra("cp2")
    calls = _count_bases(monkeypatch)
    compute(cp2, (0, 8))
    assert len(calls) <= 10


def test_degree_range_builds_each_row_once(monkeypatch):
    cp2 = corpus.algebra("cp2")
    calls = []
    original = dgca._d_row

    def counted(gens, table, m):
        calls.append(m)
        return original(gens, table, m)

    monkeypatch.setattr(dgca, "_d_row", counted)
    cohomology(cp2, (0, 8))
    assert len(calls) == sum(len(basis_of_degree(cp2.gens, n))
                             for n in range(9))


# every degree here has a nonempty basis; an empty one needs no rows of d
@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_single_degree_dims_builds_three_bases(monkeypatch, n):
    cp2 = corpus.algebra("cp2")
    calls = _count_bases(monkeypatch)
    cohomology_dims(cp2, (n, n))
    assert sorted(calls) == [n - 1, n, n + 1]


def test_twisted_ku_quotient_reuses_its_complexes(monkeypatch):
    t3 = corpus.algebra("t3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    calls = _count_bases(monkeypatch)
    res = twisted_ku_quotient(t3, xyz, (-1, 0, 1))
    assert (res.class_count, res.concordances, res.refusals) == (27, 54, 51)
    assert len(calls) < 508
