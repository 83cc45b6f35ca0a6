import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratho.core_algebra import (basis_of_degree, compose_morphisms,
                                morphism_by_names)
from ratho.dgca import DGCA, apply_d, cohomology_dims, is_chain_map, is_exact, is_quasi_iso
from ratho.simplicial_forms import (
    CylinderAlgebra,
    SimplexAlgebra,
    check_projection,
    check_stokes,
    degeneracy_pullback,
    face_pullback,
    fiber_integrate,
    interval_algebra,
)


def _s3():
    return DGCA([("w3", 3)])


def _string_su2():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1), ("b2", 2)])
    g = A.gens
    return DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
        "b2": g.gen("th1") * g.gen("th2") * g.gen("th3"),
    })


def test_simplex_algebra_shape():
    S = SimplexAlgebra(2)
    assert S.algebra.gens.names == ("t0", "t1", "dt0", "dt1")
    assert S.algebra.gens.degrees == (0, 0, 1, 1)
    assert apply_d(S.algebra, S.algebra.gen("t1")) == S.algebra.gen("dt1")
    # eliminated coordinate and its differential
    last = S.coordinate(2)
    assert last == S.algebra.one() - S.algebra.gen("t0") - S.algebra.gen("t1")
    assert apply_d(S.algebra, last) == -(S.algebra.gen("dt0") + S.algebra.gen("dt1"))


def test_simplex_dimension_must_be_an_integer():
    # int() would truncate 1.5 and give the 1-simplex
    with pytest.raises(ValueError,
                       match="simplex dimension 1.5 is not an integer"):
        SimplexAlgebra(1.5)


@pytest.mark.parametrize("value", [1.5, 1.0, "1"])
@pytest.mark.parametrize("pullback", [face_pullback, degeneracy_pullback])
def test_pullback_dimension_must_be_an_integer(pullback, value):
    # checked before the index, so the message names the value passed
    with pytest.raises(ValueError, match=re.escape(
            "simplex dimension %r is not an integer" % (value,))):
        pullback(0, value)


def test_point_simplex():
    S = SimplexAlgebra(0)
    assert len(S.algebra.gens) == 0
    assert S.coordinate(0) == S.algebra.one()


def test_interval_evaluations():
    e0 = face_pullback(0, 1)
    e1 = face_pullback(1, 1)
    pt = SimplexAlgebra(0).algebra
    assert e0.assignment["t0"] == pt.zero()
    assert e1.assignment["t0"] == pt.one()
    assert e0(SimplexAlgebra(1).algebra.one()) == pt.one()


def test_face_pullbacks_are_chain_maps():
    for n in (1, 2, 3):
        for i in range(n + 1):
            ok, failures = is_chain_map(face_pullback(i, n))
            assert ok, (n, i, failures)
        for i in range(n):
            ok, failures = is_chain_map(degeneracy_pullback(i, n - 1))
            assert ok, (n, i, failures)


def test_face_index_out_of_range():
    with pytest.raises(ValueError):
        face_pullback(3, 2)
    with pytest.raises(ValueError):
        face_pullback(0, 0)


def test_simplicial_face_identities():
    for n in (2, 3):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose_morphisms(face_pullback(i, n - 1), face_pullback(j, n))
                rhs = compose_morphisms(face_pullback(j - 1, n - 1), face_pullback(i, n))
                assert lhs == rhs, (n, i, j)


def test_simplicial_degeneracy_identities():
    for n in (0, 1, 2):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = compose_morphisms(degeneracy_pullback(i, n + 1), degeneracy_pullback(j, n))
                rhs = compose_morphisms(degeneracy_pullback(j + 1, n + 1), degeneracy_pullback(i, n))
                assert lhs == rhs, (n, i, j)


def test_simplicial_mixed_identities():
    for n in (1, 2, 3):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = compose_morphisms(face_pullback(i, n + 1), degeneracy_pullback(j, n))
                if i == j or i == j + 1:
                    simplex = SimplexAlgebra(n).algebra
                    rhs = morphism_by_names(simplex, simplex)
                elif i < j:
                    rhs = compose_morphisms(degeneracy_pullback(j - 1, n - 1), face_pullback(i, n))
                else:
                    rhs = compose_morphisms(degeneracy_pullback(j, n - 1), face_pullback(i - 1, n))
                assert lhs == rhs, (n, i, j)


def test_cylinder_maps_are_chain_maps():
    C = CylinderAlgebra(_s3())
    for phi in (C.ev0, C.ev1, C.inclusion):
        ok, failures = is_chain_map(phi)
        assert ok, failures
    ok, _ = is_quasi_iso(C.inclusion, (0, 4), polybound=2)
    assert ok


def test_fiber_integrate_examples():
    C = CylinderAlgebra(_s3())
    A = C.algebra
    w3, t, dt = A.gen("w3"), A.gen("t0"), A.gen("dt0")
    assert fiber_integrate(C, w3 * t * t).is_zero()
    assert fiber_integrate(C, t * dt) == C.base.constant(Fraction(1, 2))
    assert fiber_integrate(C, w3 * t * dt) == Fraction(-1, 2) * C.base.gen("w3")


def test_stokes_witness():
    C = CylinderAlgebra(_s3())
    A = C.algebra
    w = A.gen("w3") * A.gen("t0") * A.gen("t0")
    assert fiber_integrate(C, w).is_zero()
    assert fiber_integrate(C, apply_d(A, w)) == C.base.gen("w3")
    assert C.ev1(w) == C.base.gen("w3") and C.ev0(w).is_zero()
    assert check_stokes(C, w)


def test_projection_trivial_cases():
    C = CylinderAlgebra(_s3())
    A = C.algebra
    alpha = A.gen("t0") * A.gen("dt0")
    assert check_projection(C, C.base.one(), alpha)
    assert check_projection(C, C.base.gen("w3"), A.gen("t0"))
    assert fiber_integrate(C, A.gen("t0")).is_zero()


_BASE = _string_su2()
_CYL = CylinderAlgebra(_BASE)


@st.composite
def _cylinder_forms(draw):
    A = _CYL.algebra
    w = A.zero()
    for p, k, e, c in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3),
                      st.integers(0, 1), st.integers(-2, 2)),
            max_size=5)):
        basis = basis_of_degree(_BASE.gens, p)
        if not basis or not c:
            continue
        m = basis[draw(st.integers(0, len(basis) - 1))] + (k, e)
        w = w + A.gens.from_exponents(m, c)
    return w


@st.composite
def _base_forms(draw):
    p = draw(st.integers(0, 3))
    out = _BASE.zero()
    for m in basis_of_degree(_BASE.gens, p):
        c = draw(st.integers(-1, 1))
        if c:
            out = out + _BASE.gens.from_exponents(m, c)
    return out


@settings(max_examples=30, deadline=None)
@given(_cylinder_forms())
def test_stokes_formula_randomized(w):
    assert check_stokes(_CYL, w)


@settings(max_examples=30, deadline=None)
@given(_base_forms(), _cylinder_forms())
def test_projection_formula_randomized(beta, alpha):
    assert check_projection(_CYL, beta, alpha)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_base_forms(), st.sampled_from(
    [1, -2, Fraction(1, 3)])), max_size=3))
def test_evaluations_invert_the_inclusion(parts):
    # on inhomogeneous base forms, and as composed morphisms
    beta = sum((c * p for p, c in parts), _BASE.zero())
    identity = morphism_by_names(_BASE, _BASE)
    for ev in (_CYL.ev0, _CYL.ev1):
        assert ev(_CYL.inclusion(beta)) == beta
        assert compose_morphisms(ev, _CYL.inclusion) == identity


def test_poincare_at_truncation():
    S = SimplexAlgebra(2)
    assert cohomology_dims(S.algebra, (0, 2), polybound=3) == {0: 1, 1: 0, 2: 0}
    A = S.algebra
    p = A.gen("t0") * A.gen("t1") * A.gen("t1") + 3 * A.gen("t0")
    w = apply_d(A, p)
    q = is_exact(A, w, polybound=4)
    assert q is not None and apply_d(A, q) == w


def test_interval_algebra_matches_dimension_one():
    assert interval_algebra() == SimplexAlgebra(1).algebra
