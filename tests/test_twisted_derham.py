import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _dense_oracle
from ratho import twisted_derham
from ratho.cli import corpus
from ratho.core_algebra import basis_of_degree
from ratho.dgca import DGCA, apply_d, cohomology_dims
from ratho.twisted_derham import (
    TwistedClass,
    TwistedComplex,
    op_square_then_twist,
    op_wedge_square,
    op_wedge_twist,
    twisted_cohomology,
    twisted_cohomology_dims,
    twisted_d,
    twisted_is_exact,
)


def _sphere():
    return DGCA([("w3", 3)])


def _torus():
    return DGCA([("x", 1), ("y", 1), ("z", 1)])


def _su2():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    g = A.gens
    return DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
    })


def _sphere_twisted():
    A = _sphere()
    return TwistedComplex(A, A.gen("w3"))


def _torus_twisted():
    A = _torus()
    return TwistedComplex(A, A.gen("x") * A.gen("y") * A.gen("z"))


def test_twisted_d_examples():
    C = _sphere_twisted()
    A = C.base
    assert twisted_d(C, A.one()) == -A.gen("w3")
    C0 = TwistedComplex(A, A.zero(), period=1)
    assert twisted_d(C0, A.gen("w3")) == apply_d(A, A.gen("w3"))


def test_complex_validation():
    A = _su2()
    with pytest.raises(ValueError):
        TwistedComplex(A, A.gen("th1"))  # not closed
    B = _torus()
    with pytest.raises(ValueError):
        TwistedComplex(B, B.gen("x") * B.gen("y"))  # even twist
    with pytest.raises(ValueError):
        TwistedComplex(B, B.zero())  # zero twist, no period
    with pytest.raises(ValueError):
        TwistedComplex(B, B.gen("x") * B.gen("y") * B.gen("z"), period=2)
    mixed = DGCA([("w3", 3), ("c4", 4)])
    with pytest.raises(ValueError):
        TwistedComplex(mixed, mixed.gen("w3"))  # infinite, no truncation
    degree0 = DGCA([("t0", 0), ("dt0", 1)],
                   d={"t0": DGCA([("t0", 0), ("dt0", 1)]).gens.gen("dt0")})
    with pytest.raises(ValueError):
        TwistedComplex(degree0, degree0.zero(), period=1)


def test_truncation_must_be_an_integer():
    # int() would truncate 5.5 to 5
    B = DGCA([("a", 2), ("h", 3), ("e", 1)])
    with pytest.raises(ValueError, match="truncation 5.5 is not an integer"):
        TwistedComplex(B, B.gen("h"), truncation=5.5)


@pytest.mark.parametrize("period", [1.0, True, "1"])
@pytest.mark.parametrize("twisted", [False, True])
def test_period_must_be_an_integer(period, twisted):
    # 2 * 1.0 + 1 == 3 and 2 * True + 1 == 3 would pass the degree check
    T3 = _torus()
    twist = T3.monomial({"x": 1, "y": 1, "z": 1}) if twisted else T3.zero()
    with pytest.raises(ValueError, match=re.escape(
            "period %r is not an integer" % (period,))):
        TwistedComplex(T3, twist, period=period)


def test_sphere_twisted_ranks():
    assert twisted_cohomology_dims(_sphere_twisted()) == (0, 0)
    A = _sphere()
    C0 = TwistedComplex(A, A.zero(), period=1)
    slices = twisted_cohomology(C0)
    assert [s.dim for s in slices] == [1, 1]
    assert slices[0].representatives[0].rep == A.one()
    assert slices[1].representatives[0].rep == A.gen("w3")
    assert not any(s.boundary_affected for s in slices)


def test_torus_twisted_ranks_and_reps():
    C = _torus_twisted()
    slices = twisted_cohomology(C)
    assert [s.dim for s in slices] == [3, 3]
    even = {str(cls.rep) for cls in slices[0].representatives}
    odd = {str(cls.rep) for cls in slices[1].representatives}
    assert even == {"x*y", "x*z", "y*z"}
    assert odd == {"x", "y", "z"}


def _dense_parity_ranks(A, H):
    """Independent brute force over the whole finite slice, split by parity."""
    monos = []
    for n in range(sum(A.gens.degrees) + 1):
        monos.extend(basis_of_degree(A.gens, n))
    pos = {m: i for i, m in enumerate(monos)}

    def mat_for(parity):
        rows = []
        for m in monos:
            if A.gens.monomial_degree(m) % 2 != parity:
                continue
            img = apply_d(A, A.gens.from_exponents(m)) - H * A.gens.from_exponents(m)
            v = [Fraction(0)] * len(monos)
            for mm, c in img.terms.items():
                v[pos[mm]] = c
            rows.append(v)
        return rows

    dims = {}
    for parity in (0, 1):
        rows = mat_for(parity)
        rank = _dense_oracle.rank(rows)
        ker = len(rows) - rank
        dims[parity] = (ker, _dense_oracle.rank(mat_for(1 - parity)))
    even = dims[0][0] - dims[0][1]
    odd = dims[1][0] - dims[1][1]
    return (even, odd)


@pytest.mark.parametrize("build,twist_of", [
    (_sphere, lambda A: A.gen("w3")),
    (_sphere, lambda A: A.zero()),
    (_torus, lambda A: A.gen("x") * A.gen("y") * A.gen("z")),
    (_torus, lambda A: A.zero()),
    (_su2, lambda A: A.gen("th1") * A.gen("th2") * A.gen("th3")),
])
def test_ranks_match_dense_brute_force(build, twist_of):
    A = build()
    H = twist_of(A)
    C = TwistedComplex(A, H, period=1)
    assert twisted_cohomology_dims(C) == _dense_parity_ranks(A, H)


def test_zero_twist_folds_ordinary_cohomology():
    for build in (_torus, _su2):
        A = build()
        C = TwistedComplex(A, A.zero(), period=1)
        dims = cohomology_dims(A, (0, sum(A.gens.degrees)))
        even = sum(v for k, v in dims.items() if k % 2 == 0)
        odd = sum(v for k, v in dims.items() if k % 2 == 1)
        assert twisted_cohomology_dims(C) == (even, odd)


@st.composite
def _torus_elements(draw):
    A = _torus()
    p = A.zero()
    for n in range(4):
        for m in basis_of_degree(A.gens, n):
            c = draw(st.integers(-2, 2))
            if c:
                p = p + A.gens.from_exponents(m, c)
    return p


@settings(max_examples=30, deadline=None)
@given(_torus_elements())
def test_twisted_d_squares_to_zero(p):
    C = _torus_twisted()
    assert twisted_d(C, twisted_d(C, p)).is_zero()
    C0 = TwistedComplex(C.base, C.base.zero(), period=1)
    assert twisted_d(C0, twisted_d(C0, p)).is_zero()


def test_wedge_twist_operation():
    C = _torus_twisted()
    A = C.base
    cls = TwistedClass(C, A.gen("x"))
    out = op_wedge_twist(C, cls)
    assert out.rep.is_zero() and out.residue == 0
    closed_even = TwistedClass(C, A.gen("x") * A.gen("y"))
    out = op_wedge_twist(C, closed_even)
    assert out.rep.is_zero()
    C0 = TwistedComplex(A, A.zero(), period=1)
    z = op_wedge_twist(C0, TwistedClass(C0, A.gen("x")))
    assert z.rep.is_zero()


@settings(max_examples=30, deadline=None)
@given(_torus_elements())
def test_wedge_twist_sends_exact_to_exact(q):
    C = _torus_twisted()
    x = twisted_d(C, q)
    parts = {C.base.gens.monomial_degree(m) % 2 for m in x.terms}
    if len(parts) != 1:
        return
    cls = TwistedClass(C, x, residue=parts.pop())
    out = op_wedge_twist(C, cls)
    assert out.rep == twisted_d(C, q * C.twist)


def test_wedge_square_operation():
    C = _torus_twisted()
    A = C.base
    # with zero twist the unit is twisted-closed and squares to itself
    C0 = TwistedComplex(A, A.zero(), period=1)
    sq = op_wedge_square(C0, TwistedClass(C0, A.one()))
    assert sq.rep == A.one()
    assert sq.complex.twist.is_zero()
    xy = TwistedClass(C, A.gen("x") * A.gen("y"))
    out = op_wedge_square(C, xy)
    assert out.rep.is_zero()
    assert out.complex.twist == 2 * C.twist
    with pytest.raises(ValueError):
        op_wedge_square(C, TwistedClass(C, A.gen("x")))


def test_wedge_square_closure_random():
    C = _torus_twisted()
    for cls in twisted_cohomology(C)[0].representatives:
        sq = op_wedge_square(C, cls)
        assert twisted_d(sq.complex, sq.rep).is_zero()


def test_square_then_twist_composite():
    C = _torus_twisted()
    A = C.base
    xy = TwistedClass(C, A.gen("x") * A.gen("y"))
    out = op_square_then_twist(C, xy)
    assert out.rep.is_zero() and out.residue == 1
    assert out.complex.twist == 2 * C.twist
    squared = op_wedge_square(C, xy)
    via = op_wedge_twist(squared.complex, squared)
    assert out.rep == via.rep and out.residue == via.residue


def test_twisted_witness_search():
    C = _torus_twisted()
    A = C.base
    xyz = A.gen("x") * A.gen("y") * A.gen("z")
    w = twisted_is_exact(C, xyz, residue=1)
    assert w is not None and twisted_d(C, w) == xyz
    assert twisted_is_exact(C, A.gen("x"), residue=1) is None


def _even_truncated():
    """Lambda(a: 2, h: 3, e: 1) twisted by h, truncated at degree 5."""
    B = DGCA([("a", 2), ("h", 3), ("e", 1)])
    return TwistedComplex(B, B.gen("h"), truncation=5)


@pytest.mark.parametrize("rep, residue, message", [
    (lambda B: B.gen("a") + B.gen("h"), None, "mixes residues"),
    (lambda B: B.zero(), None, "zero representative needs an explicit"),
    (lambda B: B.gen("e"), 0, "does not lie in residue 0"),
    (lambda B: B.gen("a"), None, "not twisted-closed"),
])
def test_twisted_class_refusals(rep, residue, message):
    C = _even_truncated()
    with pytest.raises(ValueError, match=message):
        TwistedClass(C, rep(C.base), residue)


def test_twisted_witness_past_the_truncation_is_none():
    # a^3 h is twisted-closed in degree 9, past the truncation: it is not
    # a column of residue 1, so no witness is searched
    C = _even_truncated()
    a, h = C.base.gen("a"), C.base.gen("h")
    assert twisted_is_exact(C, a ** 3 * h) is None


def test_truncated_even_base_flagged():
    A = DGCA([("w3", 3), ("c4", 4)])
    C = TwistedComplex(A, A.gen("w3"), truncation=8)
    slices = twisted_cohomology(C)
    assert all(s.boundary_affected for s in slices)
    assert [s.dim for s in slices] == [0, 0]


def test_degree_one_twist_not_periodic():
    A = DGCA([("x", 1)])
    C = TwistedComplex(A, A.gen("x"))
    assert C.period == 0
    assert twisted_cohomology_dims(C) == (0, 0)
    C0 = TwistedComplex(A, A.zero(), period=0)
    assert twisted_cohomology_dims(C0) == (1, 1)


def _xc():
    return DGCA([("x", 1), ("c", 2)])


@pytest.mark.parametrize("build, dims", [
    (lambda: TwistedComplex(_torus(), _torus().zero(), period=0),
     (1, 3, 3, 1)),
    (lambda: TwistedComplex(_torus(), _torus().gen("x")), (0, 0, 0, 0)),
    (lambda: TwistedComplex(_xc(), _xc().gen("x"), truncation=5), (0,) * 6),
    (lambda: TwistedComplex(_xc(), _xc().zero(), period=0, truncation=5),
     (1,) * 6),
    (lambda: TwistedComplex(DGCA([("w", 301)]), DGCA([("w", 301)]).zero(),
                            period=0),
     (1,) + (0,) * 300 + (1,)),
])
def test_period_zero_builds_one_basis_per_residue(monkeypatch, build, dims):
    # at period 0 each residue is one degree, so its basis is one call, not
    # a scan of every degree up to top
    C = build()
    calls, asked = [], []
    original = twisted_derham.basis_of_degree

    def counted(gens, n, *args, **kwargs):
        calls.append(n)
        return original(gens, n, *args, **kwargs)

    def residue_basis(k, basis=C.residue_basis):
        asked.append(k)
        return basis(k)

    monkeypatch.setattr(twisted_derham, "basis_of_degree", counted)
    C.residue_basis = residue_basis
    assert twisted_cohomology_dims(C) == dims
    assert asked and calls == [k for k in asked if 0 <= k <= C.top]
    # the grades next to the ends are empty, not a wrap-around
    assert C.residue_basis(-1) == C.residue_basis(C.top + 1) == []


# -- rank-only dimensions against the representative path ---------------------

def _corpus_twisted(name, truncation=None):
    mf = corpus.load(name)
    t = mf.twists["H"]
    return TwistedComplex(mf.algebras[t.algebra], t.form,
                          truncation=truncation)


def _truncated_even(truncation):
    A = DGCA([("w3", 3), ("c4", 4)])
    return TwistedComplex(A, A.gen("w3"), truncation=truncation)


@pytest.mark.parametrize("build", [
    lambda: _corpus_twisted("s3"),
    lambda: _corpus_twisted("t3"),
    lambda: _truncated_even(8),
    lambda: _truncated_even(11),
    lambda: TwistedComplex(_torus(), _torus().gen("x")),
    lambda: TwistedComplex(DGCA([("x", 1), ("c", 2)]),
                           DGCA([("x", 1), ("c", 2)]).gen("x"), truncation=5),
    lambda: TwistedComplex(_torus(), _torus().zero(), period=0),
    lambda: TwistedComplex(_su2(), _su2().zero(), period=2),
])
def test_dims_match_representatives(build):
    C = build()
    assert twisted_cohomology_dims(C) == tuple(
        s.dim for s in twisted_cohomology(C))


@st.composite
def _closed_odd_twists(draw):
    """A torus T^4 or T^5 and a random odd-degree twist (closed: d = 0)."""
    n = draw(st.sampled_from([4, 5]))
    A = DGCA([("x%d" % i, 1) for i in range(n)])
    degree = draw(st.sampled_from([1, 3, 5] if n == 5 else [1, 3]))
    H = A.zero()
    for m in basis_of_degree(A.gens, degree):
        c = draw(st.integers(-2, 2))
        if c:
            H = H + A.gens.from_exponents(m, c)
    return TwistedComplex(A, H, period=(degree - 1) // 2)


@settings(max_examples=40, deadline=None)
@given(_closed_odd_twists())
def test_dims_match_representatives_on_random_torus_twists(C):
    assert twisted_cohomology_dims(C) == tuple(
        s.dim for s in twisted_cohomology(C))
