import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import _dense_oracle
from ratho.cli import corpus
from ratho.character import FlatFormDatum, verify_flat
from ratho.core_algebra import (
    AlgebraMorphism,
    apply_morphism,
    basis_of_degree,
    morphism_by_names,
)
from ratho.dgca import (
    DGCA,
    ChainMapError,
    NotClosedError,
    apply_d,
    check_d_squared,
    cohomology,
    cohomology_dims,
    is_chain_map,
    is_exact,
    is_quasi_iso,
    tensor,
)
from ratho.simplicial_forms import CylinderAlgebra, SimplexAlgebra


def _sphere_odd(n):
    g = DGCA([("w%d" % n, n)])
    return g


def _s4():
    A = DGCA([("w4", 4), ("w7", 7)],
             d={"w7": None})
    # d(w7) = -w4^2
    A = DGCA(A.gens, d={"w7": -A.gens.monomial({"w4": 2})})
    return A


def _cp(n):
    gens = [("x2", 2), ("y%d" % (2 * n + 1), 2 * n + 1)]
    A = DGCA(gens)
    return DGCA(A.gens, d={"y%d" % (2 * n + 1): A.gens.monomial({"x2": n + 1})})


def _su2():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    g = A.gens
    return DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
    })


def _string_su2():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1), ("b2", 2)])
    g = A.gens
    return DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
        "b2": g.gen("th1") * g.gen("th2") * g.gen("th3"),
    })


def _interval():
    A = DGCA([("t0", 0), ("dt0", 1)])
    return DGCA(A.gens, d={"t0": A.gens.gen("dt0")})


def test_apply_d_even_sphere():
    A = _s4()
    assert apply_d(A, A.gen("w7")) == -A.monomial({"w4": 2})
    assert apply_d(A, A.gen("w4") * A.gen("w7")) == -A.monomial({"w4": 3})
    assert apply_d(A, A.one()).is_zero()


def test_check_d_squared_su2_and_string():
    assert check_d_squared(_su2()).passed
    assert check_d_squared(_string_su2()).passed


def test_check_d_squared_broken_su2():
    g = _su2().gens
    broken = DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th2") * g.gen("th3"),
        "th3": g.gen("th1") * g.gen("th2"),
    })
    report = check_d_squared(broken)
    assert not report.passed
    names = {n for n, _ in report.failures}
    assert names <= {"th1", "th3"} and names


def test_cohomology_odd_sphere():
    A = _sphere_odd(3)
    dims = cohomology_dims(A, (0, 9))
    assert dims == {n: (1 if n in (0, 3) else 0) for n in range(10)}
    slices = cohomology(A, (3, 3))
    assert slices[0].representatives == [A.gen("w3")]


def test_cohomology_even_sphere():
    dims = cohomology_dims(_s4(), (0, 12))
    assert dims == {n: (1 if n in (0, 4) else 0) for n in range(13)}


def test_cohomology_cp3():
    dims = cohomology_dims(_cp(3), (0, 8))
    assert dims == {n: (1 if n in (0, 2, 4, 6) else 0) for n in range(9)}


def _heisenberg(lambdas):
    """CE algebra of the Heisenberg Lie algebra of dimension 2k + 1, with
    d c = sum lambda_i a_i b_i."""
    k = len(lambdas)
    g = DGCA([("a%d" % i, 1) for i in range(k)]
             + [("b%d" % i, 1) for i in range(k)] + [("c", 1)]).gens
    dc = g.zero()
    for i, lam in enumerate(lambdas):
        dc = dc + lam * g.gen("a%d" % i) * g.gen("b%d" % i)
    return DGCA(g, {"c": dc})


def _heisenberg_betti(k, j):
    """C(2k, j) - C(2k, j - 2) up to degree k, then Poincare duality."""
    if j > k:
        return _heisenberg_betti(k, 2 * k + 1 - j)
    return comb(2 * k, j) - (comb(2 * k, j - 2) if j >= 2 else 0)


# rescaling a_i makes every lambda_i 1, so the Betti numbers are those of
# the standard algebra; with magnitudes 1 and 2 the rows of d have entries
# +-1 and +-2, and elimination meets pivots that are not units
@pytest.mark.parametrize("lambdas", [(1, -2, 2, -1, 1, -2),
                                     (-2, 2, 2, -2, 1, 2)])
def test_cohomology_dims_of_heisenberg_13(lambdas):
    dims = cohomology_dims(_heisenberg(lambdas), (0, 13))
    assert dims == {j: _heisenberg_betti(6, j) for j in range(14)}


def test_is_exact_in_twistor_cofiber():
    A = DGCA([("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    g = A.gens
    A = DGCA(g, d={
        "h3": g.gen("w4") - g.monomial({"f2": 2}),
        "w7": -g.monomial({"w4": 2}),
    })
    witness = is_exact(A, A.gen("w4") - A.monomial({"f2": 2}))
    assert witness == A.gen("h3")


def test_is_exact_nontrivial_class():
    A = _s4()
    assert is_exact(A, A.gen("w4")) is None
    assert is_exact(A, A.zero()).is_zero()


def test_is_exact_requires_closed():
    A = _s4()
    with pytest.raises(NotClosedError):
        is_exact(A, A.gen("w7"))


def test_is_exact_on_the_interval_slices():
    # t0^3 dt0 = d(t0^4 / 4): its polynomial degree 3 leaves the slice at
    # polybound 2, the witness leaves it at 3, and both fit at 4
    interval = corpus.algebra("interval")
    p = interval.monomial({"t0": 3, "dt0": 1})
    with pytest.raises(ValueError, match="element leaves the truncated"):
        is_exact(interval, p, polybound=2)
    assert is_exact(interval, p, polybound=3) is None
    assert str(is_exact(interval, p, polybound=4)) == "1/4*t0^4"


_DEGREES = st.integers(0, 5)


@st.composite
def _homogeneous_pair(draw):
    A = _string_su2()
    out = []
    for _ in range(2):
        n = draw(_DEGREES)
        basis = basis_of_degree(A.gens, n)
        p = A.zero()
        for m in basis:
            c = draw(st.integers(-2, 2))
            if c:
                p = p + A.gens.from_exponents(m, c)
        out.append((p, n))
    return out


@settings(max_examples=60, deadline=None)
@given(_homogeneous_pair())
def test_leibniz_rule(pair):
    A = _string_su2()
    (a, da), (b, _) = pair
    sign = -1 if da % 2 else 1
    assert apply_d(A, a * b) == apply_d(A, a) * b + sign * (a * apply_d(A, b))


@settings(max_examples=30, deadline=None)
@given(_homogeneous_pair())
def test_d_squared_vanishes_on_elements(pair):
    A = _string_su2()
    assert check_d_squared(A).passed
    p = pair[0][0] + pair[1][0]
    assert apply_d(A, apply_d(A, p)).is_zero()


def _slice_rank(A, n):
    basis = basis_of_degree(A.gens, n)
    up = basis_of_degree(A.gens, n + 1)
    pos = {m: i for i, m in enumerate(up)}
    rows = []
    for m in basis:
        img = apply_d(A, A.gens.from_exponents(m))
        v = [Fraction(0)] * len(up)
        for mm, c in img.terms.items():
            v[pos[mm]] = c
        rows.append(v)
    return _dense_oracle.rank(rows), len(basis)


@pytest.mark.parametrize("builder,window", [(_s4, (0, 12)), (_cp, (0, 8))])
def test_rank_nullity_bookkeeping(builder, window):
    A = builder() if builder is _s4 else _cp(3)
    lo, hi = window
    dims = cohomology_dims(A, window)
    ranks = {}
    sizes = {}
    for n in range(lo - 1, hi + 1):
        if n < 0:
            ranks[n], sizes[n] = 0, 0
        else:
            ranks[n], sizes[n] = _slice_rank(A, n)
    for n in range(lo, hi + 1):
        ker = sizes[n] - ranks[n]
        assert dims[n] == ker - ranks[n - 1]
    euler_h = sum((-1) ** n * dims[n] for n in range(lo, hi + 1))
    euler_slices = sum((-1) ** n * sizes[n] for n in range(lo, hi + 1))
    edge = (-1) ** lo * ranks[lo - 1] + (-1) ** hi * ranks[hi]
    assert euler_h == euler_slices - edge


def test_is_quasi_iso_identity():
    A = _s4()
    ok, reports = is_quasi_iso(identity_morphism_dgca(A), (0, 8))
    assert ok
    assert all(r["injective"] and r["surjective"] for r in reports)


def identity_morphism_dgca(A):
    return AlgebraMorphism(A, A, {n: A.gen(n) for n in A.gens.names})


def test_is_quasi_iso_cylinder_inclusion():
    A = _sphere_odd(3)
    cyl = tensor(A, _interval())
    incl = morphism_by_names(A, cyl)
    ok, _ = is_quasi_iso(incl, (0, 4), polybound=3)
    assert ok
    ok2, _ = is_quasi_iso(incl, (0, 4), polybound=1)
    assert ok2


def test_is_quasi_iso_rejects_non_chain_map():
    A = _s4()
    phi = AlgebraMorphism(A, A, {"w4": A.gen("w4"), "w7": A.zero()})
    with pytest.raises(ChainMapError):
        is_quasi_iso(phi, (0, 4))


def test_is_chain_map_reports_witness():
    A = _s4()
    phi = AlgebraMorphism(A, A, {"w4": A.gen("w4"), "w7": A.zero()})
    ok, failures = is_chain_map(phi)
    assert not ok
    assert failures[0][0] == "w7"


def test_chain_map_residual_sign_is_shared_with_verify_flat():
    # one convention: the residual is phi(dg) - d(phi g)
    A = _s4()
    phi = AlgebraMorphism(A, A, {"w4": A.gen("w4"), "w7": A.zero()})
    expected = [("w7", apply_morphism(phi, A.d["w7"])
                 - apply_d(A, phi.assignment["w7"]))]
    assert expected[0][1] == -A.monomial({"w4": 2})
    assert is_chain_map(phi)[1] == expected
    assert verify_flat(FlatFormDatum(A, A, phi)).failures == expected


def test_tensor_of_line_algebras():
    b3 = DGCA([("c4", 4)])
    b7 = DGCA([("c8", 8)])
    T = tensor(b3, b7)
    assert T.gens.names == ("c4", "c8")
    assert all(T.d[n].is_zero() for n in T.gens.names)
    # H is the whole algebra: 1; c4; c4^2, c8; c4^3, c4*c8
    assert cohomology_dims(T, (0, 12)) == {
        0: 1, 4: 1, 8: 2, 12: 2,
        **{n: 0 for n in (1, 2, 3, 5, 6, 7, 9, 10, 11)}}


def test_tensor_with_unit_algebra():
    A = _s4()
    unit = DGCA([])
    assert tensor(A, unit) == A


def test_tensor_name_clash_and_rename():
    A = _sphere_odd(3)
    with pytest.raises(ValueError):
        tensor(A, A)
    T = tensor(A, A, rename={"w3": "w3b"})
    assert T.gens.names == ("w3", "w3b")


def test_tensor_refuses_a_rename_of_no_generator_of_b():
    with pytest.raises(ValueError, match=r"rename of \['yy'\]"):
        tensor(DGCA([("x", 1)]), DGCA([("y", 1)]), rename={"yy": "z"})


def test_polybound_poincare_property():
    I = _interval()
    dims = cohomology_dims(I, (0, 2), polybound=4)
    assert dims == {0: 1, 1: 0, 2: 0}
    # every closed 1-form within the cocycle budget has an in-budget witness
    t, dt = I.gen("t0"), I.gen("dt0")
    w = (t * t * t) * dt
    q = is_exact(I, w, polybound=4)
    assert q is not None and apply_d(I, q) == w


# -- rank-only dimensions against the representative path ---------------------

def _dims_by_representatives(A, degrees, polybound=None):
    return {s.degree: s.dim for s in cohomology(A, degrees, polybound)}


@pytest.mark.parametrize("name", corpus.names())
def test_cohomology_dims_match_representatives_on_corpus(name):
    A = corpus.algebra(name)
    assert (cohomology_dims(A, (0, 8), polybound=3)
            == _dims_by_representatives(A, (0, 8), polybound=3))


def _inert_parameter():
    # d keeps the degree-0 exponent, so boundaries reach outside the window
    A = DGCA([("t", 0), ("x", 1), ("y", 2)])
    return DGCA(A.gens, d={"x": A.gen("y")})


@pytest.mark.parametrize("polybound", [1, 2, 3, 5])
@pytest.mark.parametrize("degrees", [(0, 4), (2, 3), (3, 3), (4, 2)])
def test_cohomology_dims_match_representatives_when_bounded(polybound,
                                                           degrees):
    for A in (SimplexAlgebra(2).algebra, CylinderAlgebra(_s4()).algebra,
              _inert_parameter()):
        assert (cohomology_dims(A, degrees, polybound)
                == _dims_by_representatives(A, degrees, polybound))


def _leaves_slice():
    # d x = t*y raises the degree-0 exponent, so d leaves every truncation
    A = DGCA([("t", 0), ("x", 1), ("y", 2)])
    return DGCA(A.gens, d={"x": A.gen("t") * A.gen("y")})


def _not_an_integer(what, value):
    return pytest.raises(ValueError, match=re.escape(
        "%s %r is not an integer" % (what, value)))


@pytest.mark.parametrize("polybound", [1.5, 2.5, True, "3"])
def test_polybound_must_be_an_integer(polybound):
    # a budget of 1.5 or 2.5 is never spent exactly, so listing the
    # slice would not end; True would read as 1
    B = DGCA([("t", 0), ("x", 1)])
    with _not_an_integer("polybound", polybound):
        is_exact(B, B.gen("x"), polybound)
    with _not_an_integer("polybound", polybound):
        cohomology_dims(B, (0, 1), polybound)


@pytest.mark.parametrize("bound", [True, 2.0, "2"])
def test_degree_bounds_must_be_integers(bound):
    # (0, True) would read as H^0..H^1
    A = _s4()
    for degrees in ((0, bound), (bound, 3)):
        for call in (cohomology, cohomology_dims):
            with _not_an_integer("degree bound", bound):
                call(A, degrees)
        with _not_an_integer("degree bound", bound):
            is_quasi_iso(morphism_by_names(A, A), degrees)


@pytest.mark.parametrize("build,polybound", [
    (_interval, None), (_interval, 0), (_interval, -1), (_leaves_slice, 2),
])
def test_cohomology_dims_raise_what_cohomology_raises(build, polybound):
    A = build()
    with pytest.raises(Exception) as want:
        cohomology(A, (0, 3), polybound)
    with pytest.raises(want.type) as got:
        cohomology_dims(A, (0, 3), polybound)
    assert str(got.value) == str(want.value)
