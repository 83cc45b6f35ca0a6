import importlib
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratho import dgca
from ratho.cli import corpus
from ratho.core_algebra import (AlgebraMorphism, GeneratorSet, Polynomial,
                                apply_morphism, basis_of_degree,
                                morphism_by_names)
from ratho.dgca import (
    DGCA,
    ChainMapError,
    apply_d,
    cohomology_dims,
    is_chain_map,
    is_quasi_iso,
    tensor,
)
from ratho.linfty import is_minimal, is_sullivan
from ratho.minimal_model import (
    BudgetExceeded,
    MinimalModelResult,
    RelativeExtension,
    cofiber,
    minimal_model,
    verify_relative,
)

import _model_oracle


def _s4():
    A = DGCA([("w4", 4), ("w7", 7)])
    return DGCA(A.gens, d={"w7": -A.gens.monomial({"w4": 2})})


def _cp3():
    A = DGCA([("x2", 2), ("y7", 7)])
    return DGCA(A.gens, d={"y7": A.gens.monomial({"x2": 4})})


def _twistor_cofiber():
    A = DGCA([("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    g = A.gens
    return DGCA(g, d={
        "h3": g.gen("w4") - g.monomial({"f2": 2}),
        "w7": -g.monomial({"w4": 2}),
    })


def _sp2_inv():
    return DGCA([("hp1", 4), ("ch8", 8)])


def _twistor():
    A = DGCA([("hp1", 4), ("ch8", 8), ("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    g = A.gens
    return DGCA(g, d={
        "h3": g.gen("w4") - Fraction(1, 2) * g.gen("hp1") - g.monomial({"f2": 2}),
        "w7": -g.monomial({"w4": 2}) + Fraction(1, 4) * g.monomial({"hp1": 2})
              - g.gen("ch8"),
    })


def _ku1_h3():
    names = [("h3", 3)] + [("f%d" % k, k) for k in (1, 3, 5, 7, 9)]
    A = DGCA(names)
    g = A.gens
    d = {}
    for k in (3, 5, 7, 9):
        d["f%d" % k] = g.gen("h3") * g.gen("f%d" % (k - 2))
    return DGCA(g, d)


def _check_result(res, A, polybound=None):
    ok, offenders = is_minimal(res.model)
    assert ok, offenders
    assert is_sullivan(res.model).ok
    ok, _ = is_chain_map(res.comparison)
    assert ok
    qok, _ = is_quasi_iso(res.comparison, (0, res.bound), polybound=polybound)
    assert qok


def test_sphere_model_is_fixed_point():
    A = _s4()
    res = minimal_model(A, 8)
    assert res.counts == {4: 1, 7: 1}
    _check_result(res, A)
    # invertible linear comparison on generators: an isomorphic presentation
    assert res.comparison.assignment["v4_0"] == A.gen("w4")
    lin = res.comparison.assignment["v7_0"].coefficient(A.gen("w7"))
    assert lin != 0
    assert apply_d(res.model, res.model.gen("v7_0")) == res.model.monomial({"v4_0": 2})


def test_projective_space_counts():
    res = minimal_model(_cp3(), 8)
    assert res.counts == {2: 1, 7: 1}
    _check_result(res, _cp3())


def test_twistor_cofiber_reconstruction():
    A = _twistor_cofiber()
    assert cohomology_dims(A, (0, 8)) == {
        n: (1 if n in (0, 2, 4, 6) else 0) for n in range(9)}
    res = minimal_model(A, 8)
    assert res.counts == {2: 1, 7: 1}
    dv = apply_d(res.model, res.model.gen("v7_0"))
    c = dv.coefficient(res.model.monomial({"v2_0": 4}))
    assert c != 0 and dv == c * res.model.monomial({"v2_0": 4})
    _check_result(res, A)


def test_cylinder_model_collapses_to_base():
    base = DGCA([("w3", 3)])
    A = tensor(base, DGCA([("t0", 0), ("dt0", 1)],
                          d={"t0": DGCA([("t0", 0), ("dt0", 1)]).gens.gen("dt0")}))
    res = minimal_model(A, 4, polybound=3)
    assert res.counts == {3: 1}
    assert res.model.d["v3_0"].is_zero()
    assert res.comparison.assignment["v3_0"] == A.gen("w3")
    _check_result(res, A, polybound=3)


def test_free_two_generator_cohomology():
    A = tensor(DGCA([("c4", 4)]), DGCA([("c8", 8)]))
    res = minimal_model(A, 8)
    assert res.counts == {4: 1, 8: 1}


def _presentation(res, A):
    """The model's d and the comparison images read back over A's names."""
    back = morphism_by_names(res.comparison.target, A)
    return res.model.d, {n: apply_morphism(back, p)
                         for n, p in res.comparison.assignment.items()}


def test_generator_order_changes_presentation_not_counts():
    A = _twistor()
    order = ("hp1", "ch8", "h3", "w4", "f2", "w7")
    B = DGCA([(n, A.gens.degree_of(n)) for n in order])
    to_b = morphism_by_names(A, B)
    B = DGCA(B.gens, {n: apply_morphism(to_b, A.d[n]) for n in order})
    a, b = minimal_model(A, 8), minimal_model(B, 8)
    assert a.counts == b.counts == {2: 1, 4: 1}
    _check_result(a, A)
    _check_result(b, B)
    # bases follow the generator order, so the chosen classes move
    assert _presentation(a, A) != _presentation(b, A)


# the package re-exports the function under the module's own name
_MODULE = importlib.import_module("ratho.minimal_model")
# the corpus models with H^1 != 0; every other one is cohomologically
# 1-connected
_H1_MODELS = ("heis3", "ku1", "ku1_h3", "t3", "line0")
# the products of minimal corpus models that perfbench's certificates run
_PRODUCTS = (("s2", "s3"), ("s2", "s4"), ("cp2", "s4"), ("s2", "cp2"),
             ("s3", "s4"), ("cp3", "s5"))


def _polybound(A):
    return 3 if 0 in A.gens.degrees else None


def _product(a, b):
    B = corpus.algebra(b)
    return tensor(corpus.algebra(a), B,
                  rename={n: n + "b" for n in B.gens.names})


@pytest.mark.parametrize(
    "name", [n for n in corpus.names() if n not in _H1_MODELS])
def test_corpus_models_pass_the_independent_checks(name):
    A = corpus.algebra(name)
    res = minimal_model(A, 8, polybound=_polybound(A))
    _check_result(res, A, polybound=_polybound(A))


@pytest.mark.parametrize("a,b", _PRODUCTS)
def test_products_pass_the_independent_checks(a, b):
    P = _product(a, b)
    res = minimal_model(P, 10)
    # a product of minimal algebras is its own minimal model
    assert res.counts == {
        deg: P.gens.degrees.count(deg) for deg in set(P.gens.degrees)
        if deg <= 10}
    _check_result(res, P)


@pytest.mark.parametrize("name", _H1_MODELS)
def test_corpus_models_with_h1_are_refused(name):
    A = corpus.algebra(name)
    with pytest.raises(ValueError, match="H\\^1 must vanish"):
        minimal_model(A, 8, polybound=_polybound(A))


@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_one_read_of_h_phi_per_degree(N, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return dgca._induced(*args)

    monkeypatch.setattr(_MODULE, "_induced", counted)
    minimal_model(_twistor_cofiber(), N)
    assert calls == list(range(N + 2))


def _exact(run, A, N, polybound=None):
    """Everything a run presents: generator names and degrees, str of each
    d and comparison image, counts; or the type and text of its error."""
    try:
        res = run(A, N, polybound=polybound)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)
    gens = res.model.gens
    return (gens.names, gens.degrees,
            [str(res.model.d[n]) for n in gens.names],
            [str(res.comparison.assignment[n]) for n in gens.names],
            res.counts)


# at N = 7 the last step, n = N + 1, adjoins (the killers of w4^2 in s4
# and w2^4 in cp3), so the model returned is one built after the loop's
# final read
@pytest.mark.parametrize("N", [4, 7, 8, 12])
@pytest.mark.parametrize("name", corpus.names())
def test_corpus_presentations_match_the_rebuild_every_step_loop(name, N):
    A = corpus.algebra(name)
    pb = _polybound(A)
    assert (_exact(minimal_model, A, N, pb)
            == _exact(_model_oracle.minimal_model, A, N, pb))


@pytest.mark.parametrize("a,b", _PRODUCTS)
def test_product_presentations_match_the_rebuild_every_step_loop(a, b):
    P = _product(a, b)
    assert (_exact(minimal_model, P, 10)
            == _exact(_model_oracle.minimal_model, P, 10))


def test_model_complex_rebuilt_only_after_a_step_adjoins(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return dgca._slices(*args)

    monkeypatch.setattr(_MODULE, "_slices", counted)
    res = minimal_model(_product("s2", "s3"), 10)
    # a closed generator of degree k is adjoined at step k, a killing one
    # at step k + 1: here x2 and the s3 class at steps 2 and 3, and the
    # killer of x2^2 at step 4
    steps = {deg + (not res.model.d[n].is_zero())
             for n, deg in zip(res.model.gens.names, res.model.gens.degrees)}
    assert steps == {2, 3, 4}
    # one complex of A, one of the empty model, one per adjoining step
    assert len(calls) == 2 + len(steps)


def test_degree_zero_refusal_comes_first():
    # H^0 is spanned by 1 and t, and d e = t^2 f leaves the slice in
    # degree 1: degree 0 is read first, so its refusal is the error
    A = DGCA([("t", 0), ("e", 1), ("f", 2)])
    g = A.gens
    A = DGCA(g, {"e": g.monomial({"t": 2, "f": 1})})
    with pytest.raises(ValueError, match="H\\^0 must be one-dimensional"):
        minimal_model(A, 3, polybound=2)


def test_preconditions_rejected():
    circle = DGCA([("x1", 1)])
    with pytest.raises(ValueError):
        minimal_model(circle, 3)
    fat_point = DGCA([("t0", 0), ("dt0", 1)])  # d = 0, so H^0 is big
    with pytest.raises(ValueError):
        minimal_model(fat_point, 2, polybound=2)


@pytest.mark.parametrize("N", [2.5, True, "3"])
def test_degree_bound_must_be_an_integer(N):
    # True would run silently as N = 1
    with pytest.raises(ValueError, match=re.escape(
            "degree bound %r is not an integer" % (N,))):
        minimal_model(_s4(), N)


@pytest.mark.parametrize("budget", [True, 2.5, "3", None])
def test_budget_must_be_an_integer(budget):
    # True would cap silently at 1 and 2.5 at 2; "3" and None reached the
    # comparison with len(pairs) unchecked
    with pytest.raises(ValueError, match=re.escape(
            "generator budget %r is not an integer" % (budget,))):
        minimal_model(corpus.algebra("cp2"), 6, budget=budget)


def test_budget_cap():
    with pytest.raises(BudgetExceeded):
        minimal_model(_twistor_cofiber(), 8, budget=1)


def test_relative_extension_validation():
    ext = RelativeExtension(_sp2_inv(), _twistor())
    assert ext.new_names == ("f2", "h3", "w4", "w7")
    bad_total = DGCA(list(zip(_twistor().gens.names, _twistor().gens.degrees)))
    broken = DGCA(bad_total.gens,
                  d={"hp1": bad_total.gens.gen("h3") * bad_total.gens.gen("f2")})
    with pytest.raises(ChainMapError):
        RelativeExtension(_sp2_inv(), broken)
    with pytest.raises(ValueError):
        RelativeExtension(DGCA([("absent", 4)]), _twistor())


def test_twistor_relative_legs():
    ext = RelativeExtension(_sp2_inv(), _twistor())
    target = AlgebraMorphism(
        ext.total, ext.total,
        {n: ext.total.gen(n) for n in ext.total.gens.names})
    report = verify_relative(ext, target, 8,
                             base_map=morphism_by_names(ext.base, ext.total))
    assert report.sullivan.ok
    assert report.sullivan.order == ("f2", "w4", "h3", "w7")
    assert report.quasi_ok
    # d(h3) contains the bare new generator w4: strictly not minimal
    assert report.minimal_offenders == ["h3"]
    assert not report.passed


def test_twisted_ku_relative_passes():
    base = DGCA([("h3", 3)])
    ext = RelativeExtension(base, _ku1_h3())
    target = AlgebraMorphism(
        ext.total, ext.total,
        {n: ext.total.gen(n) for n in ext.total.gens.names})
    report = verify_relative(ext, target, 6)
    assert report.sullivan.ok and report.minimal and report.quasi_ok
    assert report.passed


def test_relative_linear_term_offender():
    total = DGCA([("x", 3), ("y", 2)])
    total = DGCA(total.gens, d={"y": total.gens.gen("x")})
    ext = RelativeExtension(DGCA([]), total)
    target = AlgebraMorphism(total, total,
                             {n: total.gen(n) for n in total.gens.names})
    report = verify_relative(ext, target, 4)
    assert not report.minimal and report.minimal_offenders == ["y"]


def test_relative_sullivan_cycle_detected():
    total = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    g = total.gens
    total = DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
    })
    ext = RelativeExtension(DGCA([]), total)
    target = AlgebraMorphism(total, total,
                             {n: total.gen(n) for n in g.names})
    report = verify_relative(ext, target, 3)
    assert not report.sullivan.ok
    assert report.sullivan.cycle == ("th1", "th2", "th3")


def test_triangle_precondition():
    ext = RelativeExtension(_sp2_inv(), _twistor())
    target = AlgebraMorphism(
        ext.total, ext.total,
        {n: ext.total.gen(n) for n in ext.total.gens.names})
    skew = morphism_by_names(
        ext.base, ext.total,
        overrides={"hp1": 2 * ext.total.gen("hp1")})
    with pytest.raises(ChainMapError):
        verify_relative(ext, target, 4, base_map=skew)


def test_cofiber_of_twistor():
    ext = RelativeExtension(_sp2_inv(), _twistor())
    C = cofiber(ext)
    assert C == _twistor_cofiber()


def test_cofiber_of_twisted_ku():
    ext = RelativeExtension(DGCA([("h3", 3)]), _ku1_h3())
    C = cofiber(ext)
    assert C.gens.names == ("f1", "f3", "f5", "f7", "f9")
    assert all(C.d[n].is_zero() for n in C.gens.names)


def test_cofiber_trivial_extension():
    A = _s4()
    ext = RelativeExtension(A, A)
    C = cofiber(ext)
    assert len(C.gens) == 0


def test_cofiber_then_minimal_model_matches_fiber_counts():
    ext = RelativeExtension(_sp2_inv(), _twistor())
    res = minimal_model(cofiber(ext), 8)
    assert res.counts == {2: 1, 7: 1}


def _sub_dgca(A, names):
    """The sub-DGCA of A on names, by cutting each exponent vector of their
    d to those positions; RelativeExtension checks that nothing was cut."""
    idx = [i for i, n in enumerate(A.gens.names) if n in names]
    gens = GeneratorSet([A.gens.gens[i] for i in idx])
    return DGCA(gens, {n: Polynomial(gens, {
        tuple(m[i] for i in idx): c for m, c in A.d[n].terms.items()})
        for n in gens.names})


def _closed_subsets(A):
    """Every set of A's generators whose d uses only generators of the set."""
    uses = {n: {A.gens.names[i] for m in A.d[n].terms
                for i, e in enumerate(m) if e} for n in A.gens.names}
    for k in range(len(A.gens) + 1):
        for names in itertools.combinations(A.gens.names, k):
            if all(uses[n] <= set(names) for n in names):
                yield names


_CORPUS_EXTENSIONS = [
    pytest.param(name, names, id="%s/%s" % (name, ",".join(names) or "-"))
    for name in corpus.names()
    for names in _closed_subsets(corpus.algebra(name))]


@pytest.mark.parametrize("name,base_names", _CORPUS_EXTENSIONS)
def test_cofiber_matches_the_term_loop_on_corpus_extensions(name,
                                                            base_names):
    A = corpus.algebra(name)
    ext = RelativeExtension(_sub_dgca(A, base_names), A)
    assert cofiber(ext) == _model_oracle.cofiber(ext)


@st.composite
def _extensions(draw):
    """A relative extension whose base generators, odd and even, are
    interleaved with new ones: each generator's d is a random integral
    combination of monomials in the earlier generators it may use (base
    generators only, for a base generator)."""
    kinds = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 5)),
                          min_size=1, max_size=6))
    pairs = [("g%d" % i, k) for i, (_, k) in enumerate(kinds)]
    total, d, base_d = GeneratorSet(pairs), {}, {}
    base = GeneratorSet([p for p, (b, _) in zip(pairs, kinds) if b])
    for i, (name, k) in enumerate(pairs):
        earlier = GeneratorSet([p for p, (b, _) in zip(pairs[:i], kinds)
                                if b or not kinds[i][0]])
        monomials = basis_of_degree(earlier, k + 1)[:6]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monomials),
                               max_size=len(monomials)))
        p = Polynomial(earlier, dict(zip(monomials, coeffs)))
        d[name] = morphism_by_names(earlier, total)(p)
        if kinds[i][0]:
            base_d[name] = morphism_by_names(earlier, base)(p)
    return RelativeExtension(DGCA(base, base_d), DGCA(total, d))


@settings(max_examples=150, deadline=None)
@given(_extensions())
def test_cofiber_matches_the_term_loop_on_drawn_extensions(ext):
    assert cofiber(ext) == _model_oracle.cofiber(ext)


def test_minimal_model_raises_when_d_leaves_the_slice_one_degree_up():
    # d y = t^2 z leaves polynomial degree 1 in degree 4 only, one degree
    # above the bound, where the cocycles of A are still computed
    A = DGCA([("t", 0), ("y", 3), ("z", 4)])
    g = A.gens
    A = DGCA(g, {"y": g.monomial({"t": 2, "z": 1})})
    with pytest.raises(ValueError, match="element leaves the truncated slice"):
        minimal_model(A, 2, polybound=1)
