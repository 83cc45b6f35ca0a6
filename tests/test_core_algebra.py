import gc
import itertools
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratho.cli import corpus
from ratho.core_algebra import (
    AlgebraMorphism,
    DegreeError,
    GeneratorSet,
    GeneratorSetMismatch,
    Polynomial,
    UnboundedSliceError,
    _embed,
    apply_morphism,
    basis_of_degree,
    compose_morphisms,
    morphism_by_names,
    normalize_product,
)
from ratho.character import line_quotient
from ratho.dgca import DGCA
from ratho.linfty import LInfinityStructure, lie_algebra_brackets
from ratho.simplicial_forms import SimplexAlgebra
from ratho.twisted_derham import TwistedComplex


def _exps(gens, name):
    v = [0] * len(gens)
    v[gens.index[name]] = 1
    return tuple(v)


def test_normalize_product_single_odd_transposition():
    # th2 declared before th1, so th1*th2 normalizes to -(th2*th1)
    gens = GeneratorSet([("th2", 1), ("th1", 1)])
    sign, m = normalize_product(gens, _exps(gens, "th1"), _exps(gens, "th2"))
    assert sign == -1
    assert m == (1, 1)


def test_normalize_product_odd_square_is_zero():
    gens = GeneratorSet([("th", 1)])
    assert normalize_product(gens, (1,), (1,)) is None


def test_normalize_product_even_generators_commute():
    gens = GeneratorSet([("x", 2), ("y", 2)])
    a, b = _exps(gens, "x"), _exps(gens, "y")
    assert normalize_product(gens, a, b) == (1, (1, 1))
    assert normalize_product(gens, b, a) == (1, (1, 1))


def test_normalize_product_rejects_other_generator_set():
    gens = GeneratorSet([("x", 2)])
    with pytest.raises(GeneratorSetMismatch):
        normalize_product(gens, (1,), (1, 0))


def test_poly_mul_collects_koszul_signs():
    gens = GeneratorSet([("th1", 1), ("th2", 1), ("th3", 1)])
    th2, th3 = gens.gen("th2"), gens.gen("th3")
    assert (th2 + th3) * th2 == -(th2 * th3)


def test_poly_mul_unit():
    gens = GeneratorSet([("w4", 4), ("w7", 7)])
    p = gens.gen("w4") * 3 + gens.gen("w7")
    assert gens.one() * p == p
    assert p * gens.one() == p


def test_poly_mul_even_square():
    gens = GeneratorSet([("w4", 4), ("w7", 7)])
    w4 = gens.gen("w4")
    assert w4 * w4 == gens.monomial({"w4": 2})


def test_poly_pow_is_repeated_product():
    gens = GeneratorSet([("a", 2), ("th", 1), ("eta", 1)])
    a, th, eta = gens.gen("a"), gens.gen("th"), gens.gen("eta")
    p = 2 * a + th + Fraction(1, 3) * eta
    assert p ** 0 == gens.one()
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    assert (p ** 3).terms
    assert (th ** 2).is_zero()


def _not_an_integer(what, value):
    return pytest.raises(ValueError, match=re.escape(
        "%s %r is not an integer" % (what, value)))


def test_generator_degree_must_be_an_integer():
    # int() would truncate the degree 2.7 to 2
    with _not_an_integer("degree", 2.7):
        GeneratorSet([("a", 2.7)])


@pytest.mark.parametrize("e", [2.5, "2"])
def test_monomial_exponent_must_be_an_integer(e):
    # int() would read both as 2 and give x^2
    gens = GeneratorSet([("x", 2)])
    with _not_an_integer("exponent", e):
        gens.monomial({"x": e})


# the public constructor takes only canonical terms, as from_exponents
# does, even where the coefficient is zero
@pytest.mark.parametrize("terms, error, message", [
    ({(0, 2): 1}, ValueError, "odd generator squared"),
    ({(5,): 1}, GeneratorSetMismatch, "exponent vector length mismatch"),
    ({(1, 0, 0): 1}, GeneratorSetMismatch, "exponent vector length mismatch"),
    ({(-1, 1): 1}, ValueError, "negative exponent"),
    ({(0, 2): 0}, ValueError, "odd generator squared"),
], ids=["odd_square", "short", "long", "negative", "zero_coefficient"])
def test_polynomial_terms_must_be_canonical(terms, error, message):
    with pytest.raises(error, match=message):
        Polynomial(GeneratorSet([("x", 2), ("y", 3)]), terms)


# a bare int is no exponent sequence, and an unknown name is no generator:
# each error names what it was given
@pytest.mark.parametrize("build, error, message", [
    (lambda g: Polynomial(g, {5: 1}), ValueError,
     "5 is not a monomial"),
    (lambda g: g.from_exponents(5), ValueError,
     "5 is not a monomial"),
    (lambda g: g.monomial({"zz": 1}), KeyError, "unknown generator 'zz'"),
], ids=["constructor", "from_exponents", "unknown_name"])
def test_malformed_monomials_are_named(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(GeneratorSet([("x", 2), ("y", 3)]))


def test_polynomial_terms_hold_nonzero_fractions():
    gens = GeneratorSet([("x", 2), ("y", 3)])
    p = Polynomial(gens, {(2, 1): 3, (1, 0): Fraction(1, 2), (0, 1): 0})
    assert p.terms == {(2, 1): 3, (1, 0): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p == gens.from_exponents((2, 1), 3) + gens.monomial({"x": 1},
                                                                Fraction(1, 2))


def test_exponent_vector_entries_must_be_integers():
    # int() would truncate Fraction(3, 2) to 1 and give x
    gens = GeneratorSet([("x", 2), ("y", 2)])
    with _not_an_integer("exponent", Fraction(3, 2)):
        gens.from_exponents((Fraction(3, 2), 0))


@pytest.mark.parametrize("k", [-1, 2.5, Fraction(3, 2)])
def test_poly_pow_refuses_other_exponents(k):
    # truncating the exponent would silently give x ** 2.5 == x ** 2 and
    # x ** Fraction(3, 2) == x
    x = corpus.algebra("s2").gen("w2")
    message = re.escape("exponent %r is not a nonnegative integer" % (k,))
    with pytest.raises(ValueError, match=message):
        x ** k


_MIXED = GeneratorSet([("a", 1), ("x", 2), ("b", 3), ("y", 2), ("c", 1)])


@st.composite
def _homogeneous(draw, max_degree=6):
    n = draw(st.integers(0, max_degree))
    basis = basis_of_degree(_MIXED, n)
    if not basis:
        return _MIXED.zero(), n
    coeffs = draw(st.lists(st.integers(-3, 3),
                           min_size=len(basis), max_size=len(basis)))
    p = _MIXED.zero()
    for m, c in zip(basis, coeffs):
        if c:
            p = p + _MIXED.from_exponents(m, c)
    return p, n


@settings(max_examples=60, deadline=None)
@given(_homogeneous(), _homogeneous())
def test_graded_commutativity(pa, qb):
    p, dp = pa
    q, dq = qb
    sign = -1 if (dp * dq) % 2 else 1
    assert p * q == (q * p) * sign


@settings(max_examples=30, deadline=None)
@given(_homogeneous(4), _homogeneous(4), _homogeneous(4))
def test_associativity(pa, qb, rc):
    p, q, r = pa[0], qb[0], rc[0]
    assert (p * q) * r == p * (q * r)


def test_basis_of_degree_sphere_slices():
    gens = GeneratorSet([("w4", 4), ("w7", 7)])
    assert basis_of_degree(gens, 8) == [(2, 0)]
    assert basis_of_degree(gens, 11) == [(1, 1)]


def test_basis_of_degree_twistor_cofiber_degree7():
    gens = GeneratorSet([("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    found = {gens.monomial_str(m) for m in basis_of_degree(gens, 7)}
    assert found == {"h3*w4", "f2^2*h3", "w7"}


def _count_by_convolution(degrees, odd, n):
    # independent count: multiply one-variable generating functions
    coeffs = {0: 1}
    for d, is_odd in zip(degrees, odd):
        new = {}
        emax = 1 if is_odd else (n // d if d else 0)
        for base, c in coeffs.items():
            for e in range(emax + 1):
                t = base + e * d
                if t <= n:
                    new[t] = new.get(t, 0) + c
        coeffs = new
    return coeffs.get(n, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.integers(0, 10))
def test_basis_of_degree_is_a_basis(degrees, n):
    gens = GeneratorSet([("g%d" % i, d) for i, d in enumerate(degrees)])
    basis = basis_of_degree(gens, n)
    assert basis == sorted(basis)
    assert len(set(basis)) == len(basis)
    for m in basis:
        assert gens.monomial_degree(m) == n
    assert len(basis) == _count_by_convolution(
        gens.degrees, gens.odd, n)


def _ranges(degrees, n, polybound):
    return [range(polybound + 1) if d == 0 else
            range(2) if d % 2 else range(n // d + 1) for d in degrees]


def _basis_by_product(degrees, n, polybound):
    """Every exponent vector under its range, filtered by degree and by the
    degree-0 budget, sorted: the slice without any pruning.  Without a
    degree-0 generator the budget bounds nothing and may be None."""
    return sorted(
        e for e in itertools.product(*_ranges(degrees, n, polybound))
        if sum(x * d for x, d in zip(e, degrees)) == n
        and (0 not in degrees
             or sum(x for x, d in zip(e, degrees) if d == 0) <= polybound))


# the oracle walks every exponent vector under the ranges: cap their number
PRODUCT_CAP = 20000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=8),
       st.none() | st.integers(-1, 4), st.data())
def test_basis_of_degree_is_the_filtered_product(degrees, polybound, data):
    gens = GeneratorSet([("g%d" % i, d) for i, d in enumerate(degrees)])
    if polybound is None and 0 in degrees:
        with pytest.raises(UnboundedSliceError):
            basis_of_degree(gens, 0, polybound)
        return
    sizes = [math.prod(map(len, _ranges(degrees, n, polybound)))
             for n in range(41)]
    assume(sizes[0] <= PRODUCT_CAP)
    top = max(n for n, size in enumerate(sizes) if size <= PRODUCT_CAP)
    n = data.draw(st.integers(0, top), label="n")
    assert (basis_of_degree(gens, n, polybound)
            == _basis_by_product(degrees, n, polybound))


def _bench_shapes():
    # the slices a perfbench big_complexes pass lists: the torus T^10, nine
    # degree-1 generators (the Heisenberg model), the twistor space through
    # degree 24, and forms on the 3-simplex at polybound 5
    shapes = [("T10", (1,) * 10, 10, None), ("deg1x9", (1,) * 9, 9, None),
              ("twistor", corpus.algebra("twistor").gens.degrees, 24, None),
              ("simplex3", SimplexAlgebra(3).algebra.gens.degrees, 3, 5)]
    return [pytest.param(degrees, n, polybound, id="%s-%d" % (name, n))
            for name, degrees, top, polybound in shapes
            for n in range(top + 1)]


@pytest.mark.parametrize("degrees, n, polybound", _bench_shapes())
def test_basis_of_degree_matches_the_product_on_bench_shapes(
        degrees, n, polybound):
    gens = GeneratorSet([("g%d" % i, d) for i, d in enumerate(degrees)])
    assert (basis_of_degree(gens, n, polybound)
            == _basis_by_product(degrees, n, polybound))


def test_basis_of_degree_keeps_no_dead_suffix():
    # 2^16 suffixes of sixteen degree-1 generators add some degree <= 16,
    # but only (1,) * 16 has degree 16: a table that kept the suffixes no
    # prefix can reach would hold megabytes, the output is one tuple
    gens = GeneratorSet([("g%d" % i, 1) for i in range(16)])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert basis_of_degree(gens, 16) == [(1,) * 16]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("degree, count, n, expected", [
    (1, 40, 40, [(1,) * 40]),
    (2, 30, 59, []),
])
def test_basis_of_degree_reaches_no_dead_leaf(degree, count, n, expected):
    # 2^40 and 30^30 exponent vectors sit under the caps; only those that
    # can still complete degree n are visited
    gens = GeneratorSet([("g%d" % i, degree) for i in range(count)])
    assert basis_of_degree(gens, n) == expected


def test_basis_of_degree_needs_polybound_for_degree0():
    gens = GeneratorSet([("t0", 0), ("dt0", 1)])
    with pytest.raises(UnboundedSliceError):
        basis_of_degree(gens, 1)
    got = basis_of_degree(gens, 1, polybound=2)
    assert got == [(0, 1), (1, 1), (2, 1)]
    # a negative budget admits no exponent of a degree-0 generator
    assert basis_of_degree(gens, 1, polybound=-1) == []


@pytest.mark.parametrize("polybound", [2.5, True, "3"])
def test_basis_of_degree_polybound_must_be_an_integer(polybound):
    # a budget of 2.5 is never spent exactly, so listing would not end;
    # True would read as 1
    gens = GeneratorSet([("t", 0), ("x", 1)])
    with _not_an_integer("polybound", polybound):
        basis_of_degree(gens, 1, polybound=polybound)


@pytest.mark.parametrize("n", [1.0, True, "1"])
def test_basis_of_degree_degree_must_be_an_integer(n):
    gens = GeneratorSet([("x", 1), ("y", 2)])
    with _not_an_integer("degree", n):
        basis_of_degree(gens, n)


def test_basis_of_degree_leaves_no_cyclic_garbage():
    # the result must be freed by reference counting alone, not kept alive
    # until the cyclic collector runs
    gens = GeneratorSet([("t0", 0), ("x1", 1), ("y2", 2), ("z3", 3)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for n in range(8):
            basis_of_degree(gens, n, polybound=2)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_apply_morphism_identity():
    gens = GeneratorSet([("w4", 4), ("w7", 7)])
    ident = morphism_by_names(gens, gens)
    p = gens.gen("w4") * gens.gen("w7") - 2 * gens.monomial({"w4": 2})
    assert apply_morphism(ident, p) == p


def test_apply_morphism_multiplicativity_on_square():
    src = GeneratorSet([("w4", 4)])
    tgt = GeneratorSet([("f2", 2)])
    phi = AlgebraMorphism(src, tgt, {"w4": tgt.monomial({"f2": 2})})
    assert apply_morphism(phi, src.monomial({"w4": 2})) == \
        tgt.monomial({"f2": 4})


def test_apply_morphism_cofiber_substitution_drops_base():
    gens = GeneratorSet([("hp1", 4), ("w4", 4)])
    tgt = GeneratorSet([("w4", 4)])
    proj = AlgebraMorphism(gens, tgt,
                           {"hp1": tgt.zero(), "w4": tgt.gen("w4")})
    p = gens.monomial({"w4": 2}) - gens.monomial({"hp1": 2}, Fraction(1, 4))
    assert apply_morphism(proj, p) == tgt.monomial({"w4": 2})


@settings(max_examples=40, deadline=None)
@given(_homogeneous(4), _homogeneous(4))
def test_apply_morphism_respects_products(pa, qb):
    p, q = pa[0], qb[0]
    tgt = GeneratorSet([("a", 1), ("x", 2), ("b", 3), ("y", 2), ("c", 1)])
    phi = AlgebraMorphism(_MIXED, tgt, {
        "a": tgt.gen("c"),
        "x": tgt.gen("x") + tgt.gen("y"),
        "b": tgt.gen("b") + tgt.gen("a") * tgt.gen("x"),
        "y": 2 * tgt.gen("y"),
        "c": tgt.gen("a") + tgt.gen("c"),
    })
    assert apply_morphism(phi, p * q) == \
        apply_morphism(phi, p) * apply_morphism(phi, q)
    assert apply_morphism(phi, _MIXED.one()) == tgt.one()


def test_morphism_must_preserve_degrees():
    src = GeneratorSet([("w4", 4)])
    tgt = GeneratorSet([("f2", 2)])
    with pytest.raises(DegreeError):
        AlgebraMorphism(src, tgt, {"w4": tgt.gen("f2")})


def test_compose_morphisms():
    a = GeneratorSet([("u", 2)])
    b = GeneratorSet([("v", 2)])
    c = GeneratorSet([("w", 2)])
    f = AlgebraMorphism(a, b, {"u": 2 * b.gen("v")})
    g = AlgebraMorphism(b, c, {"v": 3 * c.gen("w")})
    gf = compose_morphisms(g, f)
    assert gf.assignment["u"] == 6 * c.gen("w")


def test_morphism_by_names_overrides():
    src = GeneratorSet([("t0", 0), ("dt0", 1), ("w3", 3)])
    tgt = GeneratorSet([("w3", 3)])
    ev1 = morphism_by_names(src, tgt, overrides={
        "t0": tgt.one(), "dt0": tgt.zero()})
    p = src.gen("t0") * src.gen("w3")
    assert apply_morphism(ev1, p) == tgt.gen("w3")


def test_morphism_by_names_refuses_an_override_of_no_source_generator():
    # a misspelled override must not leave the identity in its place
    src = GeneratorSet([("a", 2), ("b", 3)])
    with pytest.raises(ValueError, match=r"unknown generators \['B'\]"):
        morphism_by_names(src, src, overrides={"B": src.zero()})


def test_embed_pads_a_block_on_both_sides():
    gens = GeneratorSet([("a", 2), ("x", 1), ("y", 1), ("b", 3)])
    block = GeneratorSet([("x", 1), ("y", 1)])
    p = 3 * block.gen("x") * block.gen("y") - block.one()
    assert _embed(p, gens, 1) == morphism_by_names(block, gens)(p)
    assert _embed(block.zero(), gens, 1) == gens.zero()


def _xyz():
    return GeneratorSet([("x", 1), ("y", 2), ("z", 3)])


def _truncated_complex(truncation):
    A = DGCA([("x", 1), ("b", 2)])
    return TwistedComplex(A, A.gen("x"), truncation=truncation)


# a bool is an int to isinstance, but never a degree, exponent or size
@pytest.mark.parametrize("build", [
    lambda: GeneratorSet([("x", True)]),
    lambda: _xyz().from_exponents((True, 0, 0)),
    lambda: _xyz().monomial({"y": True}),
    lambda: Polynomial(_xyz(), {(0, True, 0): 1}),
    lambda: _xyz().gen("y") ** True,
    lambda: SimplexAlgebra(True),
    lambda: _truncated_complex(True),
    lambda: LInfinityStructure([("a", False)], {}),
], ids=["degree", "exponent", "monomial", "terms", "power", "simplex",
        "truncation", "linfty_degree"])
def test_a_bool_is_not_an_integer(build):
    with pytest.raises(ValueError, match="True|False"):
        build()


# a bool scalar is refused by products as by sums, on either side
@pytest.mark.parametrize("build", [
    lambda y, b: y * b,
    lambda y, b: b * y,
    lambda y, b: y + b,
    lambda y, b: b - y,
], ids=["mul", "rmul", "add", "rsub"])
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_a_scalar(build, value):
    with pytest.raises(ValueError, match=repr(value)):
        build(_xyz().gen("y"), value)


# so == answers False for a bool instead of raising, even where the int
# it stands for would compare equal
@pytest.mark.parametrize("p", [
    lambda g: g.one(), lambda g: g.zero(), lambda g: g.gen("y")],
    ids=["one", "zero", "y"])
@pytest.mark.parametrize("value", [True, False])
def test_a_polynomial_never_equals_a_bool(p, value):
    p = p(_xyz())
    assert not p == value and not value == p
    assert p != value and value != p
    assert (p == int(value)) is (p - int(value)).is_zero()


# coefficients are exact: a float, string or Decimal is refused, never
# read as the binary fraction Fraction(0.1) would make of it
@pytest.mark.parametrize("value", [0.1, 0.5, "1/2", Decimal("0.5"), True],
                         ids=["float", "half", "str", "decimal", "bool"])
@pytest.mark.parametrize("build", [
    lambda v: _xyz().constant(v),
    lambda v: _xyz().monomial({"x": 1}, v),
    lambda v: _xyz().from_exponents((0, 1, 0), coeff=v),
    lambda v: Polynomial(_xyz(), {(0, 1, 0): v}),
    lambda v: _xyz().gen("y") / v,
    lambda v: line_quotient(corpus.algebra("t3"), 0, [v, 0]),
    lambda v: LInfinityStructure([("a", 0), ("b", 0), ("c", 0)],
                                 {("a", "b"): {"c": v}}),
    lambda v: lie_algebra_brackets(["a", "b", "c"], {("a", "b"): {"c": v}}),
], ids=["constant", "monomial", "from_exponents", "terms", "divide",
        "lattice", "bracket", "structure_constant"])
def test_a_coefficient_must_be_an_int_or_a_fraction(build, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        build(value)
