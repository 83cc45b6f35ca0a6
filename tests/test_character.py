import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_oracle as oracle
import _quotient_oracle as quotient_oracle
from ratho import character
from ratho.character import (
    ConcordanceDatum,
    FlatFormDatum,
    NotConcordant,
    TwistedFlatFormDatum,
    constant_concordance,
    decide_concordance,
    line_datum,
    line_quotient,
    linear_concordance,
    preset_twistorial,
    reverse_concordance,
    twisted_ku_bundle,
    twisted_ku_quotient,
    verify_concordance,
    verify_flat,
    verify_twisted_flat,
)
from ratho.cli import corpus
from ratho.core_algebra import AlgebraMorphism, basis_of_degree
from ratho.dgca import DGCA, check_d_squared
from ratho.linfty import brackets_from_ce, ce_from_brackets
from ratho.minimal_model import RelativeExtension, cofiber
from ratho.simplicial_forms import (CylinderAlgebra, SimplexAlgebra,
                                   fiber_integrate)
from ratho.twisted_derham import (
    TwistedComplex,
    twisted_cohomology,
    twisted_d,
    twisted_is_exact,
)


def _sphere3():
    return DGCA([("w3", 3)])


def _torus3():
    return DGCA([("x", 1), ("y", 1), ("z", 1)])


def _s4_forms(sign):
    A = DGCA([("G4", 4), ("G7", 7)])
    g = A.gens
    return DGCA(g, d={"G7": sign * g.monomial({"G4": 2})})


def _s4_coeffs():
    A = DGCA([("w4", 4), ("w7", 7)])
    g = A.gens
    return DGCA(g, d={"w7": -g.monomial({"w4": 2})})


def _cofiber_algebra():
    A = DGCA([("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    g = A.gens
    return DGCA(g, d={
        "h3": g.gen("w4") - g.monomial({"f2": 2}),
        "w7": -g.monomial({"w4": 2}),
    })


def _su2_ce():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    g = A.gens
    return DGCA(g, d={
        "th1": -g.gen("th2") * g.gen("th3"),
        "th2": -g.gen("th3") * g.gen("th1"),
        "th3": -g.gen("th1") * g.gen("th2"),
    })


def _ku_target():
    A = DGCA([("H3", 3), ("F1", 1), ("F3", 3), ("F5", 5)])
    g = A.gens
    return DGCA(g, d={
        "F3": g.gen("H3") * g.gen("F1"),
        "F5": g.gen("H3") * g.gen("F3"),
    })


def _ku_datum(target, images):
    bundle = twisted_ku_bundle(2)
    twist = FlatFormDatum(bundle.base, target, {"h3": target.gen("H3")})
    assignment = dict(images)
    assignment["h3"] = target.gen("H3")
    return TwistedFlatFormDatum(bundle, twist, assignment)


def test_preset_and_corpus_ship_the_same_models():
    # each model is written twice: a Python literal and a corpus file
    preset = preset_twistorial()
    assert preset.datum.bundle.total == corpus.algebra("twistor")
    for datum in (preset.datum, preset.pushforward):
        assert datum.bundle.base == corpus.algebra("sp2inv")
    assert twisted_ku_bundle(4).total == corpus.algebra("ku1_h3")


def test_flat_line_closed_form_passes():
    omega = _sphere3()
    F = line_datum(omega, 2, 2 * omega.gen("w3"))
    assert verify_flat(F).passed


def test_flat_line_nonclosed_image_fails():
    A = DGCA([("a1", 1), ("b2", 2)])
    g = A.gens
    omega = DGCA(g, d={"a1": g.gen("b2")})
    F = line_datum(omega, 0, omega.gen("a1"))
    rep = verify_flat(F)
    assert not rep.passed
    assert rep.failures == [("c1", -omega.gen("b2"))]


def test_flat_sphere_valued_passes():
    coeffs = _s4_coeffs()
    omega = _s4_forms(-1)
    F = FlatFormDatum(coeffs, omega, {"w4": omega.gen("G4"),
                                      "w7": omega.gen("G7")})
    assert verify_flat(F).passed


def test_flat_sphere_sign_mismatch_residual():
    coeffs = _s4_coeffs()
    omega = _s4_forms(+1)
    F = FlatFormDatum(coeffs, omega, {"w4": omega.gen("G4"),
                                      "w7": omega.gen("G7")})
    rep = verify_flat(F)
    assert not rep.passed
    assert rep.failures == [("w7", -2 * omega.monomial({"G4": 2}))]


def test_flat_datum_rejects_foreign_morphism():
    omega = _sphere3()
    other = _torus3()
    F = line_datum(omega, 2, omega.gen("w3"))
    with pytest.raises(ValueError):
        FlatFormDatum(line_datum(other, 0, other.gen("x")).coefficients,
                      omega, F.morphism)


def test_prebuilt_morphism_is_checked_against_the_datum_coefficients():
    # phi's source has the generators of s4 but d = 0, so phi is a chain
    # map out of it; the datum still checks s4's d(w7) = -w4^2
    coeffs = _s4_coeffs()
    omega = _s4_forms(+1)
    flat_source = DGCA(coeffs.gens)
    phi = AlgebraMorphism(flat_source, omega, {"w4": omega.gen("G4"),
                                               "w7": omega.gen("G7")})
    F = FlatFormDatum(coeffs, omega, phi)
    assert verify_flat(F).failures == [("w7", -2 * omega.monomial({"G4": 2}))]


def _foreign_morphism_datum(kind):
    """Build a datum of the given kind around a morphism out of q:1."""
    omega = _torus3()
    foreign = DGCA([("q", 1)])
    f0 = line_datum(omega, 0, omega.gen("x"))
    if kind == "flat":
        return FlatFormDatum(f0.coefficients, omega, AlgebraMorphism(
            foreign, omega, {"q": omega.gen("x")}))
    if kind == "twisted":
        bundle = twisted_ku_bundle(1)
        twist = FlatFormDatum(bundle.base, omega, {"h3": omega.zero()})
        return TwistedFlatFormDatum(bundle, twist, AlgebraMorphism(
            foreign, omega, {"q": omega.gen("x")}))
    cyl = constant_concordance(f0).cylinder
    return ConcordanceDatum(cyl, f0, f0, AlgebraMorphism(
        foreign, cyl.algebra, {"q": cyl.inclusion(omega.gen("x"))}))


@pytest.mark.parametrize("kind", ["flat", "twisted", "concordance"])
def test_datum_constructors_reject_foreign_morphism(kind):
    with pytest.raises(ValueError,
                       match="morphism endpoints do not match the datum"):
        _foreign_morphism_datum(kind)


def test_maurer_cartan_agrees_with_bracket_reconstruction():
    # the same assignment verifies identically over the CE presentation
    # and over its structure-constant roundtrip
    A = _su2_ce()
    A2 = ce_from_brackets(brackets_from_ce(A))
    omega = _torus3()
    flat = {"th1": omega.gen("x"), "th2": omega.gen("x"),
            "th3": 2 * omega.gen("x")}
    curved = {"th1": omega.gen("x"), "th2": omega.gen("y"),
              "th3": omega.gen("z")}
    for images in (flat, curved):
        r1 = verify_flat(FlatFormDatum(A, omega, images))
        r2 = verify_flat(FlatFormDatum(A2, omega, images))
        assert r1.passed == r2.passed
        assert r1.failures == r2.failures
    assert verify_flat(FlatFormDatum(A, omega, flat)).passed
    rep = verify_flat(FlatFormDatum(A, omega, curved))
    assert [n for n, _ in rep.failures] == ["th1", "th2", "th3"]


def test_twisted_ku_flat_passes():
    omega = _ku_target()
    T = _ku_datum(omega, {"f1": omega.gen("F1"), "f3": omega.gen("F3"),
                          "f5": omega.gen("F5")})
    rep = verify_twisted_flat(T)
    assert rep.sullivan.ok
    assert rep.chain_failures == []
    assert rep.triangle_failures == []
    assert rep.passed


def test_twisted_triangle_violation_names_h3():
    omega = _ku_target()
    bundle = twisted_ku_bundle(2)
    twist = FlatFormDatum(bundle.base, omega, {"h3": omega.gen("H3")})
    T = TwistedFlatFormDatum(bundle, twist, {
        "h3": omega.gen("F3"),
        "f1": omega.gen("F1"), "f3": omega.gen("F3"),
        "f5": omega.gen("F5")})
    rep = verify_twisted_flat(T)
    assert not rep.passed
    assert [n for n, _ in rep.triangle_failures] == ["h3"]


def test_twisted_sullivan_leg_failure():
    base = DGCA([("h3", 3)])
    total = DGCA([("h3", 3), ("p1", 1), ("q1", 1)])
    g = total.gens
    total = DGCA(g, d={"p1": g.gen("p1") * g.gen("q1")})
    bundle = RelativeExtension(base, total)
    omega = _sphere3()
    twist = FlatFormDatum(base, omega, {"h3": omega.gen("w3")})
    T = TwistedFlatFormDatum(bundle, twist, {
        "h3": omega.gen("w3"), "p1": omega.zero(), "q1": omega.zero()})
    rep = verify_twisted_flat(T)
    assert not rep.passed
    assert not rep.sullivan.ok
    assert "p1" in rep.sullivan.cycle
    assert rep.chain_failures == [] and rep.triangle_failures == []


def test_constant_concordance_passes():
    omega = _sphere3()
    F = line_datum(omega, 2, omega.gen("w3"))
    ccd = constant_concordance(F)
    assert ccd.f0 is F and ccd.f1 is F
    assert verify_concordance(ccd).passed


def test_endpoint_mismatch_names_ev1():
    omega = _sphere3()
    f0 = line_datum(omega, 2, omega.gen("w3"))
    f1 = line_datum(omega, 2, 2 * omega.gen("w3"))
    cyl = constant_concordance(f0).cylinder
    ccd = ConcordanceDatum(cyl, f0, f1,
                           {"c3": cyl.inclusion(omega.gen("w3"))})
    rep = verify_concordance(ccd)
    assert not rep.passed
    assert [(w, n) for w, n, _ in rep.endpoint_failures] == [("ev1", "c3")]
    assert rep.endpoint_failures[0][2] == omega.gen("w3")


def test_linear_concordance_with_zero_witness():
    omega = _sphere3()
    F = line_datum(omega, 2, omega.gen("w3"))
    ccd = linear_concordance(F, F, h=omega.zero())
    assert verify_concordance(ccd).passed


def test_linear_concordance_cofiber_witness_extraction():
    omega = _cofiber_algebra()
    f0 = line_datum(omega, 3, omega.monomial({"f2": 2}))
    f1 = line_datum(omega, 3, omega.gen("w4"))
    ccd = linear_concordance(f0, f1)
    assert verify_concordance(ccd).passed
    back = fiber_integrate(ccd.cylinder, ccd.image("c4"))
    assert back == omega.gen("h3")


def test_linear_concordance_refusals():
    omega = _sphere3()
    f0 = line_datum(omega, 2, omega.gen("w3"))
    f1 = line_datum(omega, 2, 2 * omega.gen("w3"))
    with pytest.raises(ValueError, match="no concordance"):
        linear_concordance(f0, f1)
    cof = _cofiber_algebra()
    g0 = line_datum(cof, 3, cof.monomial({"f2": 2}))
    g1 = line_datum(cof, 3, 2 * cof.monomial({"f2": 2}))
    with pytest.raises(ValueError, match="dh"):
        linear_concordance(g0, g1, h=cof.gen("h3"))


def test_reverse_concordance():
    omega = _cofiber_algebra()
    f0 = line_datum(omega, 3, omega.monomial({"f2": 2}))
    f1 = line_datum(omega, 3, omega.gen("w4"))
    ccd = linear_concordance(f0, f1)
    rev = reverse_concordance(ccd)
    assert rev.f0 is f1 and rev.f1 is f0
    assert verify_concordance(rev).passed
    back = reverse_concordance(rev)
    assert back.morphism == ccd.morphism


def test_line_quotient_sphere():
    omega = _sphere3()
    res = line_quotient(omega, 2, range(-2, 3))
    assert res.class_count == 5
    assert res.h_dim == 1
    assert all(len(m) == 1 for m in res.classes.values())
    assert res.concordances == 0
    assert res.refusals == 10


def test_line_quotient_interval_contractible():
    omega = SimplexAlgebra(1).algebra
    res = line_quotient(omega, 0, (-1, 0, 1), polybound=3)
    assert res.class_count == 1
    assert sum(len(m) for m in res.classes.values()) == 27
    assert res.concordances == 26
    assert res.h_dim == 0
    # degree-2 slice is empty: the single zero datum is its own class
    res1 = line_quotient(omega, 1, (-1, 0, 1), polybound=2)
    assert res1.class_count == 1
    assert res1.concordances == 0


def test_line_quotient_torus_matches_h1():
    omega = _torus3()
    res = line_quotient(omega, 0, (-1, 0, 1))
    assert res.class_count == 27
    assert res.h_dim == 3
    assert all(len(m) == 1 for m in res.classes.values())
    assert res.concordances == 0
    assert res.refusals == 51


def test_twisted_concordance_checks_twist_constancy():
    # the endpoints are equal and flat, and ev0 and ev1 both give the twist,
    # but h3 moves with t on the cylinder: the twist leg must name it
    t3 = corpus.algebra("t3")
    H = t3.monomial({"x": 1, "y": 1, "z": 1})
    bundle = twisted_ku_bundle(1)
    twist = FlatFormDatum(bundle.base, t3, {"h3": H})
    T = TwistedFlatFormDatum(bundle, twist,
                             {"h3": H, "f1": t3.zero(), "f3": t3.zero()})
    cyl = constant_concordance(T).cylinder
    t = cyl.algebra.gen(cyl.t_name)
    dt = cyl.algebra.gen(cyl.dt_name)
    drift = (1 - 2 * t) * dt * cyl.inclusion(t3.monomial({"x": 1, "y": 1}))
    zero = cyl.algebra.zero()
    ccd = ConcordanceDatum(cyl, T, T, {"h3": cyl.inclusion(H) + drift,
                                       "f1": zero, "f3": zero})
    rep = verify_concordance(ccd)
    assert rep.chain_failures == [] and rep.endpoint_failures == []
    assert rep.twist_failures == [("h3", -drift)]
    assert not rep.passed
    assert ccd.bundle is bundle and ccd.twist is twist


def test_twisted_linear_concordance_torus():
    omega = _torus3()
    H = omega.gen("x") * omega.gen("y") * omega.gen("z")
    zero = omega.zero()
    t0d = _torus_ku(omega, H, omega.gen("x"), zero)
    t1d = _torus_ku(omega, H, omega.gen("x"), H)
    ccd = linear_concordance(t0d, t1d)
    assert verify_concordance(ccd).passed
    C = TwistedComplex(omega, H)
    back = omega.zero()
    for name in t0d.bundle.new_names:
        back = back + fiber_integrate(ccd.cylinder, ccd.image(name))
    assert twisted_d(C, back) == H
    bad = _torus_ku(omega, H, omega.gen("y"), zero)
    with pytest.raises(ValueError, match="no concordance"):
        linear_concordance(t0d, bad)


def test_twisted_linear_concordance_given_witness():
    omega = _torus3()
    H = omega.gen("x") * omega.gen("y") * omega.gen("z")
    t0d = _torus_ku(omega, H, omega.gen("x"), omega.zero())
    t1d = _torus_ku(omega, H, omega.gen("x"), H)
    h = twisted_is_exact(TwistedComplex(omega, H), H)
    ccd = linear_concordance(t0d, t1d, h=h)
    assert verify_concordance(ccd).passed
    with pytest.raises(ValueError, match="dh does not equal") as err:
        linear_concordance(t0d, t1d, h=omega.zero())
    assert not isinstance(err.value, NotConcordant)


def test_twisted_linear_concordance_refuses_different_bundles():
    omega = _torus3()
    H = omega.gen("x") * omega.gen("y") * omega.gen("z")
    t0d = _torus_ku(omega, H, omega.gen("x"), omega.zero())
    bundle = twisted_ku_bundle(1)
    twist = FlatFormDatum(bundle.base, omega, {"h3": H})
    t1d = TwistedFlatFormDatum(bundle, twist, {
        "h3": H, "f1": omega.gen("x"), "f3": omega.zero()})
    with pytest.raises(ValueError, match="different bundles") as err:
        linear_concordance(t0d, t1d)
    assert not isinstance(err.value, NotConcordant)


def _torus_ku(omega, H, f1, f3):
    bundle = twisted_ku_bundle(4)
    twist = FlatFormDatum(bundle.base, omega, {"h3": H})
    images = {"h3": H, "f1": f1, "f3": f3}
    for k in (5, 7, 9):
        images["f%d" % k] = omega.zero()
    return TwistedFlatFormDatum(bundle, twist, images)


def test_twisted_ku_quotient_bridges_twisted_cohomology():
    omega = _torus3()
    H = omega.gen("x") * omega.gen("y") * omega.gen("z")
    res = twisted_ku_quotient(omega, H, (0, 1))
    assert res.class_count == 8
    assert all(len(m) == 2 for m in res.classes.values())
    assert res.concordances == 8
    assert res.refusals == 28
    # lattice spans of the odd twisted classes hit each class exactly once
    C = TwistedComplex(omega, H, period=1)
    odd = [s for s in twisted_cohomology(C) if s.residue == 1][0]
    assert odd.dim == 3
    seen = set()
    for lam in ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)):
        combo = omega.zero()
        for l, cls in zip(lam, odd.representatives):
            combo = combo + l * cls.rep
        matches = [i for i, rep in enumerate(res.reps)
                   if twisted_is_exact(C, combo - rep) is not None]
        assert len(matches) == 1
        seen.add(matches[0])
    assert len(seen) == 8


def _t3_xyz():
    t3 = corpus.algebra("t3")
    return t3, t3.monomial({"x": 1, "y": 1, "z": 1})


def _ku1_h3():
    A = corpus.algebra("ku1_h3")
    return A, A.gen("h3")


# h_dim is dim H^(2kmax+1) of the target with u, d u = -H: on t3 the odd
# twisted dimension 3 at any kmax (the zero twist and a target with an even
# generator are asserted with their decision tests)
@pytest.mark.parametrize("target, lattice, kmax, h_dim", [
    (_t3_xyz, (-1, 0, 1), 1, 3), (_t3_xyz, (-1, 0, 1), 4, 3),
    (_ku1_h3, (0, 1), 1, 1)], ids=["t3_kmax1", "t3_kmax4", "ku1_h3"])
def test_twisted_ku_quotient_reports_h_dim(target, lattice, kmax, h_dim):
    omega, H = target()
    res = twisted_ku_quotient(omega, H, lattice, kmax=kmax)
    assert res.h_dim == h_dim
    assert res.class_count == len(lattice) ** h_dim


def test_twisted_ku_quotient_solves_each_level_one_degree_up():
    # d F3 = h3 F1 has degree 4: the particular solution is a primitive
    # of a degree-4 form, here F3 = f3 for F1 = f1
    A = corpus.algebra("ku1_h3")
    res = twisted_ku_quotient(A, A.gen("h3"), (0, 1), kmax=1)
    images = [{n: str(T.image(n)) for n in ("f1", "f3")}
              for m in res.classes.values() for T in m]
    assert images == [{"f1": "0", "f3": "0"}, {"f1": "0", "f3": "h3"},
                      {"f1": "f1", "f3": "f3"}, {"f1": "f1", "f3": "f3 + h3"}]
    assert (res.class_count, res.concordances, res.refusals) == (2, 2, 1)
    # on T^4, h3 x3 is the volume form: F1 = x3 has no extension
    T4 = DGCA([("x%d" % i, 1) for i in range(4)])
    H = T4.monomial({"x0": 1, "x1": 1, "x2": 1})
    with pytest.raises(ValueError, match="no flat extension at level 3"):
        twisted_ku_quotient(T4, H, (0, 1), kmax=1)


def test_twisted_ku_quotient_refuses_a_twist_that_is_not_closed():
    A = DGCA([("x", 1), ("y", 2)])
    A = DGCA(A.gens, {"x": A.gen("y")})
    with pytest.raises(ValueError, match="twist must be closed"):
        twisted_ku_quotient(A, A.gen("x") * A.gen("y"), (0, 1), kmax=1)


def test_twisted_ku_quotient_decides_targets_with_even_generators():
    # TwistedComplex needs a truncation on this target and the decision
    # does not: the keys live in H^3 of T (x) Lambda(u), of dimension 6
    T = DGCA([("x", 1), ("y", 1), ("z", 1), ("b", 2)])
    H = T.monomial({"x": 1, "y": 1, "z": 1})
    res = twisted_ku_quotient(T, H, (0, 1), kmax=1)
    assert (res.class_count, res.concordances, res.refusals) == (64, 64, 125)
    assert res.h_dim == 6
    data = [(key, d) for key, members in res.classes.items() for d in members]
    rng = random.Random(17)
    pairs = [list(members) for members in res.classes.values()]
    pairs += [[d for _, d in rng.sample(data, 2)] for _ in range(40)]
    key_of = {id(d): key for key, d in data}
    for d0, d1 in pairs:
        diff = {k: d1.image("f%d" % k) - d0.image("f%d" % k) for k in (1, 3)}
        assert oracle.twisted_cylinder_solvable(T, H, 1, diff) == \
            (key_of[id(d0)] == key_of[id(d1)])


def _benchmark_quotient(which):
    """line_quotient on T^5 at n = 0 or twisted_ku_quotient on t3, kmax 4."""
    if which == "line_T5":
        T5 = DGCA([("x%d" % i, 1) for i in range(5)])
        return T5, lambda: line_quotient(T5, 0, (-1, 0, 1))
    t3 = corpus.algebra("t3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    return t3, lambda: twisted_ku_quotient(t3, xyz, (-1, 0, 1), kmax=4)


@pytest.mark.parametrize("which", ["line_T5", "twisted_t3"])
def test_reflexive_straight_cylinder_is_the_constant_concordance(which):
    omega, run = _benchmark_quotient(which)
    res = run()
    reps = [members[0] for members in res.classes.values()]
    if which == "line_T5":
        reps = [line_datum(omega, 0, p) for p in reps]
    family, cyl = character._family(reps[0]), CylinderAlgebra(omega)
    for d0 in reps:
        ccd = character._straight_concordance(d0, d0, family, cyl)
        assert ccd.morphism == constant_concordance(d0).morphism
        assert verify_concordance(ccd).passed


@pytest.mark.parametrize("which", ["line_T5", "twisted_t3"])
def test_each_quotient_builds_one_cylinder(monkeypatch, which):
    built = []

    def counting(base):
        built.append(base)
        return CylinderAlgebra(base)

    omega, run = _benchmark_quotient(which)
    monkeypatch.setattr(character, "CylinderAlgebra", counting)
    res = run()
    assert res.class_count == {"line_T5": 243, "twisted_t3": 27}[which]
    assert len(built) == 1 and built[0] is omega


def _outcome(run):
    """run()'s value, or the type and message of the ValueError it raised."""
    try:
        return run()
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("name", corpus.names())
def test_line_quotient_matches_the_quotient_oracle(name):
    A = corpus.algebra(name)
    for n in range(4):
        args = (A, n, (-1, 0, 1), 3)
        assert _outcome(lambda: list(line_quotient(*args).classes.items())) \
            == _outcome(lambda: list(quotient_oracle.line_classes(
                *args).items()))


def _twisted_cases():
    t3 = corpus.algebra("t3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    T = DGCA([("x", 1), ("y", 1), ("z", 1), ("b", 2)])
    ku = corpus.algebra("ku1_h3")
    T4 = DGCA([("x%d" % i, 1) for i in range(4)])
    H4 = T4.monomial({"x0": 1, "x1": 1, "x2": 1})
    return {"t3_kmax1": (t3, xyz, 1), "t3_kmax2": (t3, xyz, 2),
            "t3_kmax4": (t3, xyz, 4), "t3_zero_twist": (t3, t3.zero(), 1),
            "even_generator": (T, T.monomial({"x": 1, "y": 1, "z": 1}), 1),
            "ku1_h3": (ku, ku.gen("h3"), 1), "T4_kmax1": (T4, H4, 1),
            "T4_kmax2": (T4, H4, 2)}


@pytest.mark.parametrize("case", list(_twisted_cases()))
def test_twisted_ku_quotient_matches_the_quotient_oracle(case):
    omega, H, kmax = _twisted_cases()[case]

    def images(classes):
        return [(key, [dict(T.morphism.assignment) for T in members])
                for key, members in classes.items()]

    assert _outcome(lambda: images(twisted_ku_quotient(
        omega, H, (-1, 0, 1), kmax=kmax).classes)) == _outcome(
            lambda: images(quotient_oracle.twisted_classes(
                omega, H, (-1, 0, 1), kmax=kmax)))


@pytest.mark.parametrize("which", ["line_T5", "twisted_t3"])
def test_each_enumerated_datum_is_verified(monkeypatch, which):
    # each class's first member is verified directly, and every later one
    # as an endpoint of a cylinder that verify_concordance checks
    seen = []
    verify = character._verify_datum

    def recording(F):
        seen.append(_terms(F))
        return verify(F)

    monkeypatch.setattr(character, "_verify_datum", recording)
    omega, run = _benchmark_quotient(which)
    res = run()
    if which == "line_T5":
        assert (res.class_count, res.h_dim, res.concordances,
                res.refusals) == (243, 5, 0, 483)
        members = [_terms(line_datum(omega, 0, p))
                   for m in res.classes.values() for p in m]
    else:
        assert (res.class_count, res.concordances,
                res.refusals) == (27, 54, 51)
        members = [_terms(T) for m in res.classes.values() for T in m]
    assert len(members) == {"line_T5": 243, "twisted_t3": 81}[which]
    assert set(members) <= set(seen)


@pytest.mark.parametrize("which", ["line_T5", "twisted_t3"])
def test_lattice_classes_verify_and_lift_each_datum_once(monkeypatch, which):
    # no reflexive cylinder: one check per first member, two endpoint
    # checks per within-class cylinder; one lift per datum when keyed and
    # three per cylinder (its two endpoints and its integrated witness)
    calls = collections.Counter()

    def counting(name):
        f = getattr(character, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(character, name, wrapped)

    for name in ("_lift", "_straight_concordance", "_verify_datum"):
        counting(name)
    omega, run = _benchmark_quotient(which)
    res = run()
    data = sum(len(m) for m in res.classes.values())
    assert res.concordances == {"line_T5": 0, "twisted_t3": 54}[which]
    assert calls["_straight_concordance"] == res.concordances
    assert calls["_verify_datum"] == res.class_count + 2 * res.concordances
    assert calls["_verify_datum"] == {"line_T5": 243, "twisted_t3": 135}[which]
    assert calls["_lift"] == data + 3 * res.concordances == 243


def _terms(F):
    """A datum's images as a hashable value."""
    return tuple((n, tuple(sorted(F.image(n).terms.items())))
                 for n in F.coefficients.gens.names)


def test_decide_concordance_dispatch():
    omega = _sphere3()
    f0 = line_datum(omega, 2, omega.gen("w3"))
    same = line_datum(omega, 2, omega.gen("w3"))
    other = line_datum(omega, 2, 2 * omega.gen("w3"))
    assert verify_concordance(decide_concordance(f0, same)).passed
    assert decide_concordance(f0, other) is None
    su2 = _su2_ce()
    g0 = FlatFormDatum(su2, omega, {n: omega.zero() for n in
                                    su2.gens.names})
    with pytest.raises(NotImplementedError, match="verification only"):
        decide_concordance(g0, g0)
    t3 = _torus3()
    Ht = t3.gen("x") * t3.gen("y") * t3.gen("z")
    with pytest.raises(ValueError):
        decide_concordance(f0, _torus_ku(t3, Ht, t3.zero(), t3.zero()))


def test_decide_concordance_refuses_by_type():
    s3 = corpus.algebra("s3")
    w3 = s3.gen("w3")
    f0 = line_datum(s3, 2, w3)
    f1 = line_datum(s3, 2, 2 * w3)
    with pytest.raises(NotConcordant, match="no concordance exists"):
        linear_concordance(f0, f1)
    assert decide_concordance(f0, f1) is None
    t3 = corpus.algebra("t3")
    H = t3.monomial({"x": 1, "y": 1, "z": 1})
    t0d = _torus_ku(t3, H, t3.gen("x"), t3.zero())
    t1d = _torus_ku(t3, H, t3.gen("y"), t3.zero())
    with pytest.raises(NotConcordant, match="no concordance exists"):
        linear_concordance(t0d, t1d)
    assert decide_concordance(t0d, t1d) is None


def test_decide_concordance_propagates_other_value_errors():
    s3 = corpus.algebra("s3")
    t3 = corpus.algebra("t3")
    f0 = line_datum(s3, 2, s3.gen("w3"))
    f1 = line_datum(t3, 2, t3.monomial({"x": 1, "y": 1, "z": 1}))
    with pytest.raises(ValueError, match="different targets") as err:
        decide_concordance(f0, f1)
    assert not isinstance(err.value, NotConcordant)
    H = t3.monomial({"x": 1, "y": 1, "z": 1})
    t0d = _torus_ku(t3, H, t3.gen("x"), t3.zero())
    t1d = _torus_ku(t3, 2 * H, t3.gen("x"), t3.zero())
    with pytest.raises(ValueError, match="different twists") as err:
        decide_concordance(t0d, t1d)
    assert not isinstance(err.value, NotConcordant)


def test_decide_concordance_twisted_route():
    omega = _torus3()
    H = omega.gen("x") * omega.gen("y") * omega.gen("z")
    zero = omega.zero()
    t0d = _torus_ku(omega, H, omega.gen("x"), zero)
    t1d = _torus_ku(omega, H, omega.gen("x"), 2 * H)
    ccd = decide_concordance(t0d, t1d)
    assert ccd is not None and verify_concordance(ccd).passed
    assert decide_concordance(
        t0d, _torus_ku(omega, H, omega.gen("z"), zero)) is None


def test_decide_concordance_rejects_non_flat_endpoints():
    # checked before any cylinder is built, as a precondition error
    W = DGCA([("u", 2), ("v", 3)])
    W = DGCA(W.gens, d={"u": W.gen("v")})
    f = line_datum(W, 1, W.gen("u"))
    with pytest.raises(ValueError, match=r"endpoint f0 .*\['c2'\]"):
        decide_concordance(f, f)
    V = DGCA([("u", 2), ("a", 2), ("b", 3)])
    V = DGCA(V.gens, d={"a": V.gen("b")})
    f0 = line_datum(V, 1, V.gen("u"))
    f1 = line_datum(V, 1, V.gen("u") + V.gen("a"))
    with pytest.raises(ValueError, match=r"endpoint f1 .*\['c2'\]"):
        decide_concordance(f0, f1)
    T = DGCA([("x", 1), ("y", 1), ("z", 1), ("a", 3), ("b", 4)])
    T = DGCA(T.gens, d={"a": T.gen("b")})
    H = T.monomial({"x": 1, "y": 1, "z": 1})
    t0d = _torus_ku(T, H, T.gen("x"), T.zero())
    t1d = _torus_ku(T, H, T.gen("x"), T.gen("a"))
    with pytest.raises(ValueError, match=r"endpoint f1 .*chain=\['f3'"):
        decide_concordance(t0d, t1d)


def _h3_datum(bundle, target, H, images):
    twist = FlatFormDatum(bundle.base, target, {"h3": H})
    return TwistedFlatFormDatum(bundle, twist, {"h3": H, **images})


def test_decide_concordance_refuses_other_twisted_bundles():
    # a closed x2 or x3 is not the f1 of the periodic family.  The x2 data
    # are concordant by x2 -> t*xy + dt*w, which the h3-twisted complex
    # (where xy is not twisted-exact) would wrongly refute
    base = DGCA([("h3", 3)])
    bundle = RelativeExtension(base, DGCA([("h3", 3), ("x2", 2)]))
    T = DGCA([("x", 1), ("y", 1), ("z", 1), ("w", 1)])
    T = DGCA(T.gens, d={"w": T.gen("x") * T.gen("y")})
    H = T.monomial({"x": 1, "y": 1, "z": 1})
    xy = T.monomial({"x": 1, "y": 1})
    f0 = _h3_datum(bundle, T, H, {"x2": T.zero()})
    f1 = _h3_datum(bundle, T, H, {"x2": xy})
    with pytest.raises(NotImplementedError, match="verification only"):
        decide_concordance(f0, f1)
    cyl = constant_concordance(f0).cylinder
    t = cyl.algebra.gen(cyl.t_name)
    dt = cyl.algebra.gen(cyl.dt_name)
    ccd = ConcordanceDatum(cyl, f0, f1, {
        "h3": cyl.inclusion(H),
        "x2": t * cyl.inclusion(xy) + dt * cyl.inclusion(T.gen("w"))})
    assert verify_concordance(ccd).passed
    t3 = corpus.algebra("t3")
    H = t3.monomial({"x": 1, "y": 1, "z": 1})
    bundle = RelativeExtension(base, DGCA([("h3", 3), ("x3", 3)]))
    g0 = _h3_datum(bundle, t3, H, {"x3": t3.zero()})
    g1 = _h3_datum(bundle, t3, H, {"x3": H})
    with pytest.raises(NotImplementedError, match="verification only"):
        decide_concordance(g0, g1)


@pytest.mark.parametrize("which", ["datum", "pushforward"])
def test_decide_concordance_refuses_the_twistorial_preset(which):
    F = getattr(preset_twistorial(), which)
    with pytest.raises(NotImplementedError, match="verification only"):
        decide_concordance(F, F)


def test_decide_concordance_checks_the_difference_before_searching():
    # both endpoints are flat and the cylinder at kmax = 0 asks only
    # F1 - F0 = d h0 in degree 1; H*x3, the volume form, is no equation of
    # it.  x3 is closed and not exact, so the data are not concordant
    T4 = DGCA([("x%d" % i, 1) for i in range(4)])
    H = T4.monomial({"x0": 1, "x1": 1, "x2": 1})
    bundle = twisted_ku_bundle(0)
    f0 = _h3_datum(bundle, T4, H, {"f1": T4.zero()})
    f1 = _h3_datum(bundle, T4, H, {"f1": T4.gen("x3")})
    assert decide_concordance(f0, f1) is None
    # the precondition stays: a non-flat endpoint is refused before any
    # search, as a ValueError that is not a verdict.  At kmax = 1, F3 = 0
    # breaks d F3 = H F1 for F1 = x3
    bundle = twisted_ku_bundle(1)
    g0 = _h3_datum(bundle, T4, H, {"f1": T4.zero(), "f3": T4.zero()})
    bad = _h3_datum(bundle, T4, H, {"f1": T4.gen("x3"), "f3": T4.zero()})
    with pytest.raises(ValueError, match=r"endpoint f1 .*chain=\['f3'\]") \
            as err:
        linear_concordance(g0, bad)
    assert not isinstance(err.value, NotConcordant)


def test_decide_concordance_needs_the_cylinder_equation_only_to_2kmax_1():
    # the cylinder f3 -> t*xpq + dt*sq asks d(sq) = xpq in degree 3 and
    # nothing in degree 5, where H*sq has no primitive
    T = DGCA([(n, 1) for n in "xyzpqrs"])
    T = DGCA(T.gens, d={"s": T.gen("x") * T.gen("p")})
    H = T.monomial({"x": 1, "y": 1, "z": 1})
    bundle = twisted_ku_bundle(1)
    f0 = _h3_datum(bundle, T, H, {"f1": T.zero(), "f3": T.zero()})
    xpq = T.gen("x") * T.gen("p") * T.gen("q")
    f1 = _h3_datum(bundle, T, H, {"f1": T.zero(), "f3": xpq})
    ccd = decide_concordance(f0, f1)
    assert ccd is not None and verify_concordance(ccd).passed
    h = fiber_integrate(ccd.cylinder, ccd.image("f3"))
    assert h == T.gen("s") * T.gen("q")
    assert decide_concordance(f1, f0) is not None


def test_decide_concordance_h3_family_on_a_target_named_like_u():
    # the degree-2 generator of the family's algebra takes a free name
    T = DGCA([("u0", 1), ("u1", 1), ("u2", 1)])
    H = T.monomial({"u0": 1, "u1": 1, "u2": 1})
    bundle = twisted_ku_bundle(1)
    f0 = _h3_datum(bundle, T, H, {"f1": T.zero(), "f3": T.zero()})
    f1 = _h3_datum(bundle, T, H, {"f1": T.zero(), "f3": 2 * H})
    ccd = decide_concordance(f0, f1)
    assert ccd is not None and verify_concordance(ccd).passed
    assert fiber_integrate(ccd.cylinder, ccd.image("f1")) == -2 * T.one()


def test_decide_concordance_with_zero_twist():
    t3 = corpus.algebra("t3")
    bundle = twisted_ku_bundle(1)
    zero = t3.zero()
    x = t3.gen("x")
    f0 = _h3_datum(bundle, t3, zero, {"f1": zero, "f3": zero})
    f1 = _h3_datum(bundle, t3, zero, {"f1": x, "f3": zero})
    assert decide_concordance(f0, f1) is None
    ccd = decide_concordance(f1, _h3_datum(bundle, t3, zero,
                                           {"f1": x, "f3": zero}))
    assert ccd is not None and verify_concordance(ccd).passed
    res = twisted_ku_quotient(t3, zero, (0, 1), kmax=1)
    assert (res.class_count, res.concordances, res.refusals) == (16, 0, 120)
    assert res.h_dim == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_decide_concordance_cofiber_lattice(a0, b0, a1, b1):
    omega = _cofiber_algebra()
    w4 = omega.gen("w4")
    f2sq = omega.monomial({"f2": 2})
    f0 = line_datum(omega, 3, a0 * w4 + b0 * f2sq)
    f1 = line_datum(omega, 3, a1 * w4 + b1 * f2sq)
    out = decide_concordance(f0, f1)
    # d(h3) = w4 - f2^2 is the only relation in degree 4
    if a1 - a0 == -(b1 - b0):
        assert out is not None
    else:
        assert out is None


def _torus_twist(n, which):
    T = DGCA([("x%d" % i, 1) for i in range(n)])
    g = T.gens.names
    if which == 0:
        return T, T.zero()
    H = T.monomial(dict.fromkeys(g[:3], 1))
    if which == 2:
        H = H + T.monomial(dict.fromkeys(g[-3:], 1))
    return T, H


def _random_form(rng, T, forms):
    return sum((rng.choice((-1, 0, 0, 1)) * p for p in forms), T.zero())


def _monomials(T, k):
    return [T.gens.from_exponents(m) for m in basis_of_degree(T.gens, k)]


def _annihilated(T, H, k):
    """A basis of the degree-k forms w with H*w = 0, dense oracle."""
    basis = _monomials(T, k)
    up = basis_of_degree(T.gens, k + 3)
    if not up:
        return basis
    cols = [[(H * w).terms.get(m, Fraction(0)) for m in up] for w in basis]
    kernel = oracle.nullspace([list(r) for r in zip(*cols)], len(basis))
    return [sum((c * w for c, w in zip(v, basis)), T.zero())
            for v in kernel]


@pytest.mark.parametrize("seed", range(48))
def test_decide_concordance_matches_the_twisted_cylinder_oracle(seed):
    # flat data on T^4..T^6: d = 0, so flatness is H*F_k = 0 below the top
    # level.  F1 moves F0 by a cylinder image -H h_(k-3) and, half of the
    # time, by a random flat difference besides
    rng = random.Random(seed)
    T, H = _torus_twist(rng.choice((4, 5, 6)), rng.choice((0, 1, 2)))
    kmax = rng.choice((0, 1, 2))
    bundle = twisted_ku_bundle(kmax)
    levels = list(range(1, 2 * kmax + 2, 2))
    allowed = {k: _annihilated(T, H, k) if k < levels[-1] else
               _monomials(T, k) for k in levels}
    F0 = {k: _random_form(rng, T, allowed[k]) for k in levels}
    h = {k: _random_form(rng, T, _monomials(T, k - 1)) for k in levels}
    F1 = {k: F0[k] - (H * h[k - 2] if k > 1 else T.zero()) for k in levels}
    if rng.random() < 0.5:
        F1 = {k: F1[k] + _random_form(rng, T, allowed[k]) for k in levels}
    f0, f1 = (_h3_datum(bundle, T, H, {"f%d" % k: F[k] for k in levels})
              for F in (F0, F1))
    expected = oracle.twisted_cylinder_solvable(
        T, H, kmax, {k: F1[k] - F0[k] for k in levels})
    ccd = decide_concordance(f0, f1)
    assert (ccd is not None) == expected
    if ccd is not None:
        assert verify_concordance(ccd).passed


def test_preset_twistorial_full_verification():
    P = preset_twistorial()
    assert check_d_squared(P.omega).passed
    rep = verify_twisted_flat(P.datum)
    assert rep.sullivan.ok
    assert rep.chain_failures == [] and rep.triangle_failures == []
    assert rep.passed
    push = verify_twisted_flat(P.pushforward)
    assert push.passed


def test_preset_twistorial_charge_witness():
    P = preset_twistorial()
    assert P.charge_witness() == P.omega.gen("H3")


def test_preset_twistorial_untwisted_shadow():
    # zeroing q and e8 leaves the untwisted system
    P = preset_twistorial()
    ext = RelativeExtension(DGCA([("q", 4), ("e8", 8)]), P.omega)
    shadow = cofiber(ext)
    g = shadow.gens
    assert shadow.d["H3"] == g.gen("G4") - g.monomial({"F2": 2})
    assert shadow.d["G7"] == -Fraction(1, 2) * g.monomial({"G4": 2})


def test_preset_twistorial_concordances():
    P = preset_twistorial()
    ccd = constant_concordance(P.datum)
    assert verify_concordance(ccd).passed
    rev = reverse_concordance(ccd)
    assert verify_concordance(rev).passed
    assert rev.morphism == ccd.morphism
