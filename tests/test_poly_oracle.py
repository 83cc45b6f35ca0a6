"""The polynomial layer's fast paths against the kernels they replaced.

_poly_oracle holds the earlier normalize_product, apply_d, Polynomial sum,
difference and product, apply_morphism and matrix-power chern_character.
The earlier apply_d also checks the rows of d that _slices builds per
monomial.  Random algebras mix odd, even and degree-0 generators, and
random monomials carry odd exponents up to 1 and even ones up to 2, so
every Koszul sign case and every vanishing odd square is reached.  The
Chern character is checked against traces of matrix powers, which do not
go through the Chern forms it is now read from.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ratho.chern_weil import CurvatureMatrix, chern_character
from ratho.core_algebra import (AlgebraMorphism, GeneratorSet, Polynomial,
                                apply_morphism, basis_of_degree,
                                normalize_product)
from ratho.dgca import (DGCA, _d_row, _derivation_table, _row_terms,
                        _slices, apply_d)

import _poly_oracle as oracle

_COEFFS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2),
                           Fraction(1, 4)])


@st.composite
def _generators(draw):
    degrees = draw(st.lists(st.integers(0, 4), min_size=2, max_size=6))
    return GeneratorSet([("x%d" % i, d) for i, d in enumerate(degrees)])


def _monomial(gens):
    return st.tuples(*[st.integers(0, 1 if odd else 2) for odd in gens.odd])


@st.composite
def _polynomial(draw, gens):
    monomials = draw(st.lists(_monomial(gens), min_size=1, max_size=6))
    return Polynomial(gens, {m: Fraction(draw(_COEFFS.filter(bool)))
                             for m in monomials})


@st.composite
def _algebra(draw):
    gens = draw(_generators())
    d = {}
    for name, degree in zip(gens.names, gens.degrees):
        # polybound 2 keeps the slice finite when degree-0 generators exist
        basis = basis_of_degree(gens, degree + 1, 2)
        d[name] = Polynomial(gens, {m: Fraction(draw(_COEFFS))
                                    for m in basis})
    return DGCA(gens, d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_product_matches_oracle(data):
    gens = data.draw(_generators())
    m1 = data.draw(_monomial(gens))
    m2 = data.draw(_monomial(gens))
    assert normalize_product(gens, m1, m2) == \
        oracle.normalize_product(gens, m1, m2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_d_matches_oracle(data):
    A = data.draw(_algebra())
    p = data.draw(_polynomial(A.gens))
    assert apply_d(A, p).terms == oracle.apply_d(A, p).terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slices_rows_match_oracle(data):
    A = data.draw(_algebra())
    n = data.draw(st.integers(0, 6))
    cx = _slices(A, 2)
    for m in cx.basis(n):
        assert cx._d(m) == oracle.apply_d(A, A.gens.from_exponents(m)).terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_d_row_matches_apply_d_and_keeps_integral_rows_in_ints(data):
    """The rows of d come from the table with c = 1, so they hold ints where
    the differential is integral; apply_d reads the same table, and its
    coefficients stay Fractions."""
    A = data.draw(_algebra())
    H = data.draw(_polynomial(A.gens))
    n = data.draw(st.integers(0, 6))
    gens, table = A.gens, _derivation_table(A)
    for i, terms in table:
        assert terms == list(A.d[gens.names[i]].terms.items())
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for _, c in terms)
    integral = all(type(c) is int for _, terms in table for _, c in terms)
    for m in basis_of_degree(gens, n, 2):
        p = gens.from_exponents(m)
        dp = apply_d(A, p)
        assert all(type(c) is Fraction for c in dp.terms.values())
        row = _d_row(gens, table, m)
        assert row == dp.terms
        if integral:
            assert all(type(c) is int for c in row.values())
        assert _d_row(gens, table, m, _row_terms(H)) == (dp - H * p).terms


def _assert_same(out, expected):
    assert out.gens == expected.gens
    assert out.terms == expected.terms
    assert all(out.terms.values()), "kernel output kept a zero coefficient"


@st.composite
def _pair(draw):
    """Two polynomials over one set, q often cancelling terms of p."""
    gens = draw(_generators())
    p = draw(_polynomial(gens))
    q = draw(st.one_of(_polynomial(gens), st.just(p), st.just(-p),
                       _polynomial(gens).map(lambda r: r - p)))
    return p, q


@settings(max_examples=200, deadline=None)
@given(_pair())
def test_sum_and_difference_match_oracle(pq):
    p, q = pq
    _assert_same(p + q, oracle.add(p, q))
    _assert_same(p - q, oracle.sub(p, q))
    _assert_same(q - p, oracle.sub(q, p))


@settings(max_examples=200, deadline=None)
@given(_pair())
def test_product_matches_oracle(pq):
    p, q = pq
    _assert_same(p * q, oracle.mul(p, q))
    _assert_same(q * p, oracle.mul(q, p))


@st.composite
def _morphism(draw):
    """A homogeneous morphism between two random generator sets."""
    source, target = draw(_generators()), draw(_generators())
    assignment = {}
    for name, degree in zip(source.names, source.degrees):
        # polybound 2 keeps the slice finite when degree-0 generators exist
        basis = basis_of_degree(target, degree, 2)
        picked = draw(st.lists(st.sampled_from(basis), min_size=1,
                               max_size=4)) if basis else []
        assignment[name] = Polynomial(target, {
            m: Fraction(draw(_COEFFS.filter(bool))) for m in picked})
    return AlgebraMorphism(source, target, assignment)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_apply_morphism_matches_oracle(data):
    phi = data.draw(_morphism())
    p = data.draw(_polynomial(phi.source))
    _assert_same(apply_morphism(phi, p), oracle.apply_morphism(phi, p))


_CHERN_GENS = GeneratorSet([("u", 2), ("v", 2), ("a", 1), ("b", 1)])


@st.composite
def _curvature(draw):
    """Square matrix of degree-2 entries in u, v and a*b, zeros included."""
    n = draw(st.integers(1, 5))
    G = _CHERN_GENS
    span = [G.gen("u"), G.gen("v"), G.gen("a") * G.gen("b")]
    entries = [[sum((draw(st.sampled_from([0, 0, 0, 1, -1, 2])) * x
                     for x in span), G.zero())
                for _ in range(n)] for _ in range(n)]
    return CurvatureMatrix(entries)


@settings(max_examples=40, deadline=None)
@given(_curvature(), st.integers(0, 14))
def test_chern_character_matches_trace_of_powers(phi, cutoff):
    assert chern_character(phi, cutoff) == oracle.chern_character(phi, cutoff)


def _fixed_curvature(n):
    """n x n entries cycling through zero, u, v, a*b and their mixtures.

    The diagonal is not all zero, so tr(phi) = p_1 feeds Newton's identities.
    """
    G = _CHERN_GENS
    u, v, ab = G.gen("u"), G.gen("v"), G.gen("a") * G.gen("b")
    cycle = [G.zero(), u, v - 2 * u, ab, u + ab, G.zero(), -v, 3 * ab - v]
    return CurvatureMatrix([[cycle[(2 * i + 5 * j + 1) % len(cycle)]
                             for j in range(n)] for i in range(n)])


def test_chern_character_matches_trace_of_powers_every_cutoff():
    for n in range(1, 6):
        phi = _fixed_curvature(n)
        for cutoff in range(15):
            assert chern_character(phi, cutoff) == \
                oracle.chern_character(phi, cutoff), (n, cutoff)
