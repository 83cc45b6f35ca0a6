"""Characteristic-form calculus: determinant, trace and Pfaffian identities."""

import gc
import re
from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
import hypothesis.strategies as st

from ratho.core_algebra import DegreeError, GeneratorSet, GeneratorSetMismatch
from ratho.chern_weil import (
    CurvatureMatrix,
    InvRing,
    block_sum,
    chern_character,
    chern_forms,
    determinant,
    diagonal_matrix,
    euler_form,
    i8,
    inv_ring_sp2,
    pfaffian,
    pontrjagin_forms,
)
from ratho.dgca import check_d_squared, cohomology_dims

from _poly_oracle import _matmul, _trace


def _even_gens(*names):
    return GeneratorSet([(n, 2) for n in names])


def _antisym(gens, upper):
    """Antisymmetric matrix from its strict upper triangle, row by row."""
    n = 1
    while n * (n - 1) // 2 < len(upper):
        n += 1
    assert n * (n - 1) // 2 == len(upper)
    z = gens.zero()
    entries = [[z for _ in range(n)] for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            e = next(it)
            entries[i][j] = e
            entries[j][i] = -e
    return CurvatureMatrix(entries, antisymmetric=True)


def _combo(gens, coeffs):
    out = gens.zero()
    for name, c in zip(gens.names, coeffs):
        out = out + c * gens.gen(name)
    return out


def _random_matrix(gens, flat, n):
    width = len(gens.names)
    entries = [[_combo(gens, flat[(i * n + j) * width:(i * n + j + 1) * width])
                for j in range(n)] for i in range(n)]
    return CurvatureMatrix(entries)


# -- constructor ------------------------------------------------------------


def test_constructor_validation():
    G = _even_gens("x", "y")
    x, y = G.gen("x"), G.gen("y")
    with pytest.raises(ValueError):
        CurvatureMatrix([[x, y]])  # not square
    with pytest.raises(DegreeError):
        CurvatureMatrix([[x * y]])  # degree 4 entry
    with pytest.raises(ValueError):
        CurvatureMatrix([[x, y], [y, G.zero()]], antisymmetric=True)
    with pytest.raises(ValueError):
        # antisymmetry forces a zero diagonal
        CurvatureMatrix([[x, y], [-y, x]], antisymmetric=True)
    H = _even_gens("x")
    with pytest.raises(GeneratorSetMismatch):
        CurvatureMatrix([[G.gen("x"), G.zero()], [G.zero(), H.gen("x")]])


# -- Chern forms -------------------------------------------------------------


def test_chern_forms_diagonal():
    G = _even_gens("x", "y")
    x, y = G.gen("x"), G.gen("y")
    c = chern_forms(diagonal_matrix([x, y]), 3)
    assert c[0] == x + y
    assert c[1] == x * y
    assert c[2].is_zero()  # beyond the matrix size


def test_chern_forms_one_by_one():
    G = _even_gens("f")
    c = chern_forms(CurvatureMatrix([[G.gen("f")]]), 3)
    assert c[0] == G.gen("f")
    assert c[1].is_zero() and c[2].is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=27, max_size=27))
def test_chern_c2_newton(flat):
    G = _even_gens("u0", "u1", "u2")
    phi = _random_matrix(G, flat, 3)
    c = chern_forms(phi, 2)
    tr1 = _trace(phi.entries, G)
    tr2 = _trace(_matmul(phi.entries, phi.entries, G), G)
    assert c[1] == (tr1 * tr1 - tr2) / 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=27, max_size=27))
def test_newton_identities_up_to_k4(flat):
    G = _even_gens("u0", "u1", "u2")
    phi = _random_matrix(G, flat, 3)
    c = [G.one()] + chern_forms(phi, 4)
    traces = [None]
    power = phi.entries
    for _ in range(4):
        traces.append(_trace(power, G))
        power = _matmul(power, phi.entries, G)
    for k in range(1, 5):
        rhs = G.zero()
        for i in range(1, k + 1):
            term = c[k - i] * traces[i]
            rhs = rhs + (term if i % 2 == 1 else -term)
        assert k * c[k] == rhs


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=27, max_size=27),
       st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_conjugation_invariance(flat, pflat):
    P = [pflat[0:3], pflat[3:6], pflat[6:9]]

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [s for s in range(3) if s != j]
        return (-1) ** (i + j) * (P[rows[0]][cols[0]] * P[rows[1]][cols[1]]
                                  - P[rows[0]][cols[1]] * P[rows[1]][cols[0]])

    det = sum(P[0][j] * cof(0, j) for j in range(3))
    assume(det != 0)
    pinv = [[Fraction(cof(j, i), det) for j in range(3)] for i in range(3)]
    G = _even_gens("u0", "u1", "u2")
    phi = _random_matrix(G, flat, 3)
    conj = [[sum((P[i][k] * pinv[l][j]) * phi.entries[k][l]
                 for k in range(3) for l in range(3))
             for j in range(3)] for i in range(3)]
    assert chern_forms(CurvatureMatrix(conj), 3) == chern_forms(phi, 3)


# -- Chern character ----------------------------------------------------------


def test_chern_character_zero_matrix():
    G = _even_gens("x")
    z = G.zero()
    phi = CurvatureMatrix([[z, z, z], [z, z, z], [z, z, z]])
    assert chern_character(phi, 6) == G.constant(3)


def test_chern_character_diagonal_example():
    G = _even_gens("x", "y")
    x, y = G.gen("x"), G.gen("y")
    ch = chern_character(diagonal_matrix([x, y]), 4)
    assert ch == 2 + (x + y) + (x * x + y * y) / 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=27, max_size=27))
def test_chern_character_degree4_newton(flat):
    G = _even_gens("u0", "u1", "u2")
    phi = _random_matrix(G, flat, 3)
    c = chern_forms(phi, 2)
    ch4 = chern_character(phi, 4).homogeneous_parts().get(4, G.zero())
    assert ch4 == (c[0] * c[0] - 2 * c[1]) / 2


def test_chern_character_block_additivity():
    G = _even_gens("x", "y", "a")
    A = diagonal_matrix([G.gen("x"), G.gen("y")])
    B = _antisym(G, [G.gen("a")])
    lhs = chern_character(block_sum(A, B), 8)
    assert lhs == chern_character(A, 8) + chern_character(B, 8)


# -- Pontrjagin forms ---------------------------------------------------------


def test_pontrjagin_two_by_two_block():
    G = _even_gens("a")
    a = G.gen("a")
    p = pontrjagin_forms(_antisym(G, [a]), 2)
    assert p[0] == a * a
    assert p[1].is_zero()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=12, max_size=12))
def test_pontrjagin_p1_is_half_trace(flat):
    G = _even_gens("v0", "v1")
    upper = [_combo(G, flat[2 * i:2 * i + 2]) for i in range(6)]
    phi = _antisym(G, upper)
    tr2 = _trace(_matmul(phi.entries, phi.entries, G), G)
    assert pontrjagin_forms(phi, 1)[0] == -tr2 / 2


def test_pontrjagin_zero_and_flag():
    G = _even_gens("x", "y")
    z = G.zero()
    phi = CurvatureMatrix([[z, z], [z, z]], antisymmetric=True)
    assert all(p.is_zero() for p in pontrjagin_forms(phi, 3))
    with pytest.raises(ValueError):
        pontrjagin_forms(diagonal_matrix([G.gen("x"), G.gen("y")]), 1)


@pytest.mark.parametrize("bound", [True, 2.0, 4.5, "3"])
@pytest.mark.parametrize("form,what", [(chern_forms, "kmax"),
                                       (chern_character, "cutoff"),
                                       (pontrjagin_forms, "kmax")])
def test_degree_bounds_must_be_integers(form, what, bound):
    # True would run silently as 1, and a float reached range() unchecked
    G = _even_gens("x", "y")
    x, y = G.gen("x"), G.gen("y")
    phi = (_antisym(G, [x]) if form is pontrjagin_forms
           else diagonal_matrix([x, y]))
    with pytest.raises(ValueError, match=re.escape(
            "%s %r is not an integer" % (what, bound))):
        form(phi, bound)


def test_pontrjagin_whitney_through_degree_8():
    names = ["a%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    names += ["b%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    G = _even_gens(*names)
    A = _antisym(G, [G.gen(n) for n in names[:6]])
    B = _antisym(G, [G.gen(n) for n in names[6:]])
    pa = pontrjagin_forms(A, 2)
    pb = pontrjagin_forms(B, 2)
    ps = pontrjagin_forms(block_sum(A, B), 2)
    assert ps[0] == pa[0] + pb[0]
    assert ps[1] == pa[1] + pa[0] * pb[0] + pb[1]


# -- Pfaffian and Euler form ---------------------------------------------------


def test_pfaffian_two_by_two():
    G = _even_gens("a")
    assert pfaffian(_antisym(G, [G.gen("a")])) == G.gen("a")


def test_pfaffian_four_by_four_generic():
    names = ["a%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    G = _even_gens(*names)
    a = {n: G.gen(n) for n in names}
    pf = pfaffian(_antisym(G, [a[n] for n in names]))
    assert pf == (a["a01"] * a["a23"] - a["a02"] * a["a13"]
                  + a["a03"] * a["a12"])


def test_pfaffian_squares_to_determinant():
    G2 = _even_gens("a")
    phi2 = _antisym(G2, [G2.gen("a")])
    assert pfaffian(phi2) * pfaffian(phi2) == determinant(phi2)
    names = ["a%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    G4 = _even_gens(*names)
    phi4 = _antisym(G4, [G4.gen(n) for n in names])
    assert pfaffian(phi4) * pfaffian(phi4) == determinant(phi4)


def test_pfaffian_preconditions():
    G = _even_gens("a", "b", "c")
    z = G.zero()
    odd = _antisym(G, [G.gen("a"), G.gen("b"), G.gen("c")])
    with pytest.raises(ValueError):
        pfaffian(odd)
    with pytest.raises(ValueError):
        pfaffian(diagonal_matrix([G.gen("a"), G.gen("b")]))
    assert euler_form(_antisym(G, [G.gen("a")])) == G.gen("a")


@pytest.mark.parametrize("form", [determinant,
                                  lambda phi: chern_forms(phi, 2),
                                  pfaffian])
def test_recursions_leave_no_cyclic_garbage(form):
    # the memo of minors and sub-Pfaffians must be freed by reference
    # counting alone, not kept alive until the cyclic collector runs
    names = ["a%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    G = _even_gens(*names)
    phi = _antisym(G, [G.gen(n) for n in names])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        form(phi)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- i8 and invariant rings -----------------------------------------------------


def test_i8_symbolic_identity():
    R = InvRing([("p1", 4), ("p2", 8)])
    A = R.algebra
    p1, p2 = A.gen("p1"), A.gen("p2")
    out = i8(p1, p2)
    assert 48 * out + p1 * p1 / 4 == p2
    assert out.degree() == 8


def test_i8_quarter_square_vanishes():
    R = InvRing([("p1", 4)])
    p1 = R.algebra.gen("p1")
    assert i8(p1, p1 * p1 / 4).is_zero()


def test_i8_degree_validation():
    G = GeneratorSet([("x", 2), ("q", 4), ("e", 8)])
    with pytest.raises(DegreeError):
        i8(G.gen("x"), G.gen("e"))
    with pytest.raises(DegreeError):
        i8(G.gen("q"), G.gen("q"))


def test_i8_from_pontrjagin_forms():
    names = ["a%d%d" % (i, j) for i in range(4) for j in range(i + 1, 4)]
    G = _even_gens(*names)
    phi = _antisym(G, [G.gen(n) for n in names])
    p = pontrjagin_forms(phi, 2)
    out = i8(p[0], p[1])
    assert out.is_zero() or out.degree() == 8
    assert 48 * out + p[0] * p[0] / 4 == p[1]


def test_inv_ring_sp2_preset():
    R = inv_ring_sp2()
    assert list(R.names) == ["hp1", "ch8"]
    assert list(R.degrees) == [4, 8]
    A = R.algebra
    assert all(A.d[n].is_zero() for n in R.names)
    assert check_d_squared(A).passed
    dims = cohomology_dims(A, (0, 8))
    assert dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 1, 5: 0, 6: 0, 7: 0, 8: 2}
