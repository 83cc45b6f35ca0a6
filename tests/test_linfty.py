import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ratho.core_algebra import DegreeError
from ratho.dgca import DGCA, check_d_squared
from ratho.linfty import (
    LInfinityStructure,
    SullivanCertificate,
    _linear_offenders,
    _order,
    brackets_from_ce,
    ce_from_brackets,
    check_jacobi,
    is_minimal,
    is_sullivan,
    lie_algebra_brackets,
    whitehead_summary,
)
from ratho.minimal_model import _relative_sullivan

import _graph_oracle as oracle


def _s3():
    return DGCA([("w3", 3)])


def _s4():
    A = DGCA([("w4", 4), ("w7", 7)])
    return DGCA(A.gens, d={"w7": -A.gens.monomial({"w4": 2})})


def _cp3():
    A = DGCA([("x2", 2), ("y7", 7)])
    return DGCA(A.gens, d={"y7": A.gens.monomial({"x2": 4})})


def _su2():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    g = A.gens
    return DGCA(g, d={
        "th1": g.gen("th2") * g.gen("th3"),
        "th2": g.gen("th3") * g.gen("th1"),
        "th3": g.gen("th1") * g.gen("th2"),
    })


def _heis3():
    A = DGCA([("th1", 1), ("th2", 1), ("th3", 1)])
    return DGCA(A.gens, d={"th3": A.gens.gen("th1") * A.gens.gen("th2")})


def _string_su2():
    base = _su2()
    A = DGCA(list(zip(base.gens.names, base.gens.degrees)) + [("b2", 2)])
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


def _twistor():
    A = DGCA([("hp1", 4), ("ch8", 8), ("f2", 2), ("h3", 3), ("w4", 4), ("w7", 7)])
    g = A.gens
    return DGCA(g, d={
        "h3": g.gen("w4") - Fraction(1, 2) * g.gen("hp1") - g.monomial({"f2": 2}),
        "w7": -g.monomial({"w4": 2}) + Fraction(1, 4) * g.monomial({"hp1": 2})
              - g.gen("ch8"),
    })


def test_basis_degree_must_be_an_integer():
    # int() would truncate the degree 0.5 to 0
    with pytest.raises(ValueError, match="degree 0.5 is not an integer"):
        LInfinityStructure([("a", 0.5)], {})


def test_odd_sphere_brackets_vanish():
    L = brackets_from_ce(_s3())
    assert L.basis == (("w3", 2),)
    assert L.brackets == {}


def test_even_sphere_binary_self_bracket():
    L = brackets_from_ce(_s4())
    assert L.basis == (("w4", 3), ("w7", 6))
    assert L.brackets == {("w4", "w4"): {"w7": Fraction(1)}}


def test_su2_dictionary_is_textbook():
    eps = {("e1", "e2"): {"e3": 1},
           ("e2", "e3"): {"e1": 1},
           ("e3", "e1"): {"e2": 1}}
    L = lie_algebra_brackets(["e1", "e2", "e3"], eps)
    assert L.bracket(("e1", "e2")) == {"e3": Fraction(1)}
    assert L.bracket(("e1", "e3")) == {"e2": Fraction(-1)}
    A = ce_from_brackets(L)
    g = A.gens
    assert A.d["e1"] == g.gen("e2") * g.gen("e3")
    assert A.d["e2"] == -(g.gen("e1") * g.gen("e3"))
    assert A.d["e3"] == g.gen("e1") * g.gen("e2")
    assert brackets_from_ce(A) == L


def test_string_ternary_bracket():
    L = brackets_from_ce(_string_su2())
    assert L.bracket(("th1", "th2", "th3")) == {"b2": Fraction(-1)}
    assert check_jacobi(L).passed


def test_zero_brackets_give_line_algebra():
    L = LInfinityStructure([("c", 3)], {})
    A = ce_from_brackets(L)
    assert A.gens.names == ("c",) and A.gens.degrees == (4,)
    assert A.d["c"].is_zero()


def test_roundtrip_on_models():
    for build in (_s3, _s4, _cp3, _su2, _heis3, _string_su2, _interval, _twistor):
        A = build()
        assert ce_from_brackets(brackets_from_ce(A)) == A


def test_bracket_table_validation():
    with pytest.raises(DegreeError):
        LInfinityStructure([("a", 0), ("b", 3)], {("a",): {"b": 1}})
    with pytest.raises(ValueError):
        LInfinityStructure([("a", 0)], {("a", "a"): {}})
    with pytest.raises(ValueError):
        LInfinityStructure([("a", 1)], {("a", "missing"): {"a": 1}})


def test_jacobi_su2_and_rescalings():
    eps = {("e1", "e2"): {"e3": 1},
           ("e2", "e3"): {"e1": 1},
           ("e3", "e1"): {"e2": 1}}
    assert check_jacobi(lie_algebra_brackets("e1 e2 e3".split(), eps)).passed
    # rescaling one cyclic constant keeps Jacobi: every inner bracket
    # lands on the third element, whose self-bracket vanishes
    doubled = dict(eps)
    doubled[("e1", "e2")] = {"e3": 2}
    L = lie_algebra_brackets("e1 e2 e3".split(), doubled)
    assert check_jacobi(L).passed
    assert check_d_squared(ce_from_brackets(L)).passed


def test_jacobi_failure_detected():
    bad = {("e1", "e2"): {"e2": 1},
           ("e2", "e3"): {"e1": 1}}
    L = lie_algebra_brackets("e1 e2 e3".split(), bad)
    report = check_jacobi(L)
    assert not report.passed
    assert "e1" in {name for name, _ in report.failures}


@st.composite
def _random_tables(draw):
    n = draw(st.integers(1, 4))
    names = ["v%d" % i for i in range(n)]
    degrees = [draw(st.integers(0, 3)) for _ in range(n)]
    deg = dict(zip(names, degrees))
    keys = []
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(names, k):
            if all(combo.count(nm) <= 1 or deg[nm] % 2 for nm in set(combo)):
                keys.append(combo)
    table = {}
    entries = draw(st.lists(
        st.tuples(st.integers(0, len(keys) - 1), st.integers(0, n - 1),
                  st.integers(-2, 2)),
        max_size=6))
    for ki, ti, c in entries:
        key, target = keys[ki], names[ti]
        if c and deg[target] == sum(deg[nm] for nm in key) + len(key) - 2:
            table.setdefault(key, {})[target] = c
    return LInfinityStructure(list(zip(names, degrees)), table)


@settings(max_examples=60, deadline=None)
@given(_random_tables())
def test_jacobi_matches_d_squared(L):
    report = check_jacobi(L)
    direct = check_d_squared(ce_from_brackets(L))
    assert report.passed == direct.passed
    assert {n for n, _ in report.failures} == {n for n, _ in direct.failures}
    if report.passed:
        assert brackets_from_ce(ce_from_brackets(L)) == L


def test_sullivan_cycle_for_su2():
    cert = is_sullivan(_su2())
    assert not cert.ok
    assert cert.cycle == ("th1", "th2", "th3")


def test_sullivan_order_for_heisenberg():
    cert = is_sullivan(_heis3())
    assert cert.ok
    assert cert.order == ("th1", "th2", "th3")


def test_sullivan_order_for_twistor_base_first():
    cert = is_sullivan(_twistor())
    assert cert.order == ("hp1", "ch8", "f2", "w4", "h3", "w7")


def test_sullivan_self_loop():
    A = DGCA([("t0", 0), ("dt0", 1)])
    A = DGCA(A.gens, d={"t0": A.gens.gen("t0") * A.gens.gen("dt0")})
    cert = is_sullivan(A)
    assert cert.cycle == ("t0",)


def _brute_force_order(A):
    deps = {}
    for name in A.gens.names:
        used = set()
        for m in A.d[name].terms:
            used.update(A.gens.names[i] for i, e in enumerate(m) if e)
        deps[name] = used
    for perm in itertools.permutations(A.gens.names):
        placed = set()
        good = True
        for g in perm:
            if not deps[g] <= placed:
                good = False
                break
            placed.add(g)
        if good:
            return perm
    return None


def test_sullivan_agrees_with_brute_force():
    for build in (_s3, _s4, _cp3, _su2, _heis3, _string_su2, _interval, _twistor):
        A = build()
        assert is_sullivan(A).ok == (_brute_force_order(A) is not None)


def test_minimality_of_sphere_model():
    ok, offenders = is_minimal(_s4())
    assert ok and offenders == []


def test_linear_term_breaks_minimality():
    A = DGCA([("x", 3), ("y", 2)])
    A = DGCA(A.gens, d={"y": A.gens.gen("x")})
    ok, offenders = is_minimal(A)
    assert not ok and offenders == ["y"]


def test_interval_not_minimal():
    ok, offenders = is_minimal(_interval())
    assert not ok and offenders == ["t0"]


def test_degree_one_cycle_not_minimal():
    ok, offenders = is_minimal(_su2())
    assert not ok and set(offenders) == {"th1", "th2", "th3"}


def test_heisenberg_is_minimal():
    ok, offenders = is_minimal(_heis3())
    assert ok and offenders == []


def test_whitehead_summary():
    assert whitehead_summary(_s4()) == {4: 1, 7: 1}
    assert whitehead_summary(_s3()) == {3: 1}
    assert whitehead_summary(_cp3()) == {2: 1, 7: 1}


def test_whitehead_summary_preconditions():
    with pytest.raises(ValueError):
        whitehead_summary(_interval())
    with pytest.raises(ValueError):
        whitehead_summary(_heis3())


# -- the dependency graph against the Tarjan-based oracle ---------------------

@st.composite
def _random_graphs(draw, max_size=9):
    n = draw(st.integers(1, max_size))
    names = draw(st.permutations("abcdefghi"))[:n]
    deps = {g: set(draw(st.lists(st.sampled_from(names), max_size=3)))
            for g in names}
    return names, deps


@settings(max_examples=300, deadline=None)
@given(_random_graphs())
def test_order_matches_tarjan_oracle(graph):
    names, deps = graph
    got, want = _order(names, deps), oracle._order(names, deps)
    assert (got.order, got.cycle) == (want.order, want.cycle)


def _path(deps, g, h):
    # brute force: a walk of one or more steps g -> m_1 -> ... -> m_k -> h
    # through distinct m_i other than g and h
    others = [x for x in deps if x not in (g, h)]
    for k in range(len(others) + 1):
        for mid in itertools.permutations(others, k):
            walk = (g,) + mid + (h,)
            if all(b in deps[a] for a, b in zip(walk, walk[1:])):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(_random_graphs(max_size=6))
def test_cycle_witness_is_a_cycle_of_the_first_cyclic_generator(graph):
    names, deps = graph
    cert = _order(names, deps)
    cyclic = [g for g in names if _path(deps, g, g)]
    if cert.ok:
        assert not cyclic
        return
    cycle = cert.cycle
    assert len(set(cycle)) == len(cycle)
    assert all(cycle[(i + 1) % len(cycle)] in deps[g]
               for i, g in enumerate(cycle))
    # the loop lies among the generators that the first generator on a
    # cycle reaches and is reached by, and starts there if it meets it
    first = cyclic[0]
    assert all(_path(deps, first, g) and _path(deps, g, first)
               for g in cycle)
    assert first not in cycle or cycle[0] == first
    if first in deps[first]:
        assert cycle == (first,)


def test_cycle_witness_need_not_pass_through_the_first_cyclic_generator():
    deps = {"s": {"a"}, "a": {"s", "b"}, "b": {"a"}}
    assert _order(["s", "a", "b"], deps).cycle == ("a", "b")


@st.composite
def _random_algebras(draw):
    degrees = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    names = draw(st.permutations("pqrstu"))[:len(degrees)]
    g = DGCA(list(zip(names, degrees))).gens
    d = {}
    for name, deg in zip(names, degrees):
        words = [w for k in (1, 2, 3)
                 for w in itertools.combinations_with_replacement(names, k)
                 if sum(g.degree_of(x) for x in w) == deg + 1
                 and all(w.count(x) == 1 or g.degree_of(x) % 2 == 0
                         for x in w)]
        terms = draw(st.lists(st.sampled_from(words), max_size=3)) \
            if words else []
        p = g.zero()
        for w in terms:
            c = draw(st.integers(-2, 2).filter(bool))
            p = p + g.monomial({x: w.count(x) for x in w}, c)
        d[name] = p
    A = DGCA(g, d)
    base = [x for x in names if draw(st.booleans())]
    ext = SimpleNamespace(
        total=A, base=SimpleNamespace(gens=SimpleNamespace(names=base)),
        new_names=tuple(x for x in names if x not in base))
    return A, ext


@settings(max_examples=300, deadline=None)
@given(_random_algebras())
def test_minimality_and_relative_legs_match_tarjan_oracle(case):
    A, ext = case
    assert is_minimal(A) == oracle.is_minimal(A)
    assert _linear_offenders(A, ext.new_names) \
        == oracle._minimality_offenders(ext)
    got, want = _relative_sullivan(ext), oracle._relative_sullivan(ext)
    assert (got.order, got.cycle) == (want.order, want.cycle)
