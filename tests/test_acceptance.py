"""Acceptance gate: one test per criterion, timed where a bound is stated.

Each test ends by printing a single verdict line; a failed assertion is
the corresponding fail line.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import jsonschema
from importlib import resources

import test_cli

from ratho.character import (decide_concordance, line_datum, line_quotient,
                             preset_twistorial, twisted_ku_quotient,
                             verify_concordance, verify_twisted_flat)
from ratho.chern_weil import (CurvatureMatrix, block_sum, chern_character,
                              chern_forms, determinant, i8, pfaffian,
                              pontrjagin_forms)
from ratho.cli import corpus
from ratho.cli.main import main
from ratho.cli.parser import parse, print_model
from ratho.core_algebra import GeneratorSet, basis_of_degree
from ratho.dgca import (DGCA, apply_d, check_d_squared, cohomology_dims,
                        is_quasi_iso)
from ratho.linfty import (LInfinityStructure, brackets_from_ce,
                          ce_from_brackets, check_jacobi, is_sullivan)
from ratho.minimal_model import RelativeExtension, cofiber, minimal_model
from ratho.simplicial_forms import (CylinderAlgebra, check_projection,
                                    check_stokes, fiber_integrate)
from ratho.twisted_derham import (TwistedComplex, twisted_cohomology,
                                  twisted_cohomology_dims, twisted_d,
                                  twisted_is_exact)


def _verdict(n, label, t0=None, bound=None):
    if t0 is not None:
        elapsed = time.monotonic() - t0
        assert elapsed < bound, \
            "criterion %d exceeded %.0fs (%.2fs)" % (n, bound, elapsed)
        print("criterion %02d PASS: %s (%.2fs < %.0fs)"
              % (n, label, elapsed, bound))
    else:
        print("criterion %02d PASS: %s" % (n, label))


def test_criterion_01_corpus_soundness():
    t0 = time.monotonic()
    for name in corpus.names():
        assert check_d_squared(corpus.algebra(name)).passed, name
    _verdict(1, "all %d corpus models satisfy d^2 = 0"
             % len(corpus.names()), t0, 1.0)


def test_criterion_02_sphere_projective_cohomology():
    t0 = time.monotonic()
    want_s3 = {k: (1 if k in (0, 3) else 0) for k in range(10)}
    assert cohomology_dims(corpus.algebra("s3"), (0, 9)) == want_s3
    want_s4 = {k: (1 if k in (0, 4) else 0) for k in range(13)}
    assert cohomology_dims(corpus.algebra("s4"), (0, 12)) == want_s4
    want_cp3 = {k: (1 if k in (0, 2, 4, 6) else 0) for k in range(9)}
    assert cohomology_dims(corpus.algebra("cp3"), (0, 8)) == want_cp3
    _verdict(2, "sphere and projective cohomology tables exact", t0, 2.0)


def test_criterion_03_minimal_model_reconstruction():
    t0 = time.monotonic()
    base = DGCA([("hp1", 4), ("ch8", 8)])
    cof = cofiber(RelativeExtension(base, corpus.algebra("twistor")))
    res = minimal_model(cof, 8)
    assert res.counts == {2: 1, 7: 1}
    M = res.model
    g2 = next(g for g in M.gens.names if M.gens.degree_of(g) == 2)
    g7 = next(g for g in M.gens.names if M.gens.degree_of(g) == 7)
    quartic = M.gens.monomial({g2: 4})
    expo = next(iter(quartic.terms))
    d7 = M.d[g7]
    assert set(d7.terms) == {expo}
    assert d7.terms[expo] != 0
    ok, _ = is_quasi_iso(res.comparison, (0, 8))
    assert ok
    _verdict(3, "twistor cofiber model is (v2, v7) with d v7 = c*v2^4",
             t0, 10.0)


def _brute_force_sullivan(A):
    names = A.gens.names
    for perm in itertools.permutations(names):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[names[j]] < pos[g]
               for g in names
               for m in A.d[g].terms
               for j, e in enumerate(m) if e):
            return True
    return False


def test_criterion_04_sullivan_nilpotency():
    cert = is_sullivan(corpus.algebra("su2"))
    assert not cert.ok
    assert len(cert.cycle) == 3
    assert set(cert.cycle) == {"th1", "th2", "th3"}
    cert = is_sullivan(corpus.algebra("heis3"))
    assert cert.ok
    assert cert.order == ("th1", "th2", "th3")
    for name in corpus.names():
        A = corpus.algebra(name)
        if len(A.gens) <= 7:
            assert is_sullivan(A).ok == _brute_force_sullivan(A), name
    _verdict(4, "is_sullivan matches permutation brute force on the corpus")


def _random_linfty(rng):
    size = rng.randint(2, 4)
    basis = [("v%d" % i, rng.randint(0, 3)) for i in range(size)]
    degrees = dict(basis)
    names = [n for n, _ in basis]
    index = {n: i for i, n in enumerate(names)}
    brackets = {}
    for _ in range(rng.randint(1, 6)):
        arity = rng.randint(1, 3)
        key = tuple(sorted((rng.choice(names) for _ in range(arity)),
                           key=index.__getitem__))
        if any(key.count(n) > 1 and degrees[n] % 2 == 0 for n in set(key)):
            continue
        want = sum(degrees[n] for n in key) + len(key) - 2
        targets = [n for n in names if degrees[n] == want]
        if not targets:
            continue
        t = rng.choice(targets)
        brackets.setdefault(key, {})[t] = Fraction(rng.choice([-2, -1, 1, 2]))
    return LInfinityStructure(basis, brackets)


def test_criterion_05_linfty_roundtrip_and_jacobi():
    for name in corpus.names():
        A = corpus.algebra(name)
        B = ce_from_brackets(brackets_from_ce(A))
        assert B.gens == A.gens, name
        assert B.d == A.d, name
    rng = random.Random(5150)
    outcomes = {True: 0, False: 0}
    for _ in range(50):
        L = _random_linfty(rng)
        jacobi = check_jacobi(L)
        direct = check_d_squared(ce_from_brackets(L))
        assert jacobi.passed == direct.passed
        outcomes[jacobi.passed] += 1
    assert outcomes[True] and outcomes[False]
    _verdict(5, "CE/bracket roundtrip identity; Jacobi agrees with d^2 "
                "on 50 random tables (%d hold, %d fail)"
             % (outcomes[True], outcomes[False]))


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = max((len(r) for r in rows), default=0)
    while rows and col < width:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        inv = 1 / head[col]
        rows[rank] = head = [x * inv for x in head]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                c = r[col]
                rows[i] = [x - c * y for x, y in zip(r, head)]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def _brute_twisted_dims(A, H):
    """Dense rank computation over the full exterior slice of A."""
    mons = []
    for n in range(sum(A.gens.degrees) + 1):
        mons.extend((n, m) for m in basis_of_degree(A.gens, n))
    sides = {0: [(n, m) for n, m in mons if n % 2 == 0],
             1: [(n, m) for n, m in mons if n % 2 == 1]}

    def differential(par):
        src, tgt = sides[par], sides[1 - par]
        pos = {m: i for i, (_, m) in enumerate(tgt)}
        rows = []
        for _, m in src:
            x = A.gens.from_exponents(m, 1)
            y = apply_d(A, x) - H * x
            row = [Fraction(0)] * len(tgt)
            for mm, c in y.terms.items():
                row[pos[mm]] = c
            rows.append(row)
        return rows

    r_eo = _rank(differential(0))
    r_oe = _rank(differential(1))
    return (len(sides[0]) - r_eo - r_oe, len(sides[1]) - r_oe - r_eo)


def _random_mixed_element(rng, gens, budget=4):
    out = gens.zero()
    mons = []
    for n in range(sum(gens.degrees) + 1):
        mons.extend(basis_of_degree(gens, n))
    for _ in range(rng.randint(1, budget)):
        expo = rng.choice(mons)
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        out = out + gens.from_exponents(expo, c)
    return out


def test_criterion_06_twisted_cohomology_oracle():
    t0 = time.monotonic()
    rng = random.Random(606)
    s3 = corpus.algebra("s3")
    t3 = corpus.algebra("t3")
    w3 = s3.gen("w3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    cases = [(s3, w3, None, (0, 0)),
             (s3, s3.zero(), 1, (1, 1)),
             (t3, xyz, None, (3, 3))]
    for A, H, period, want in cases:
        C = TwistedComplex(A, H, period=period)
        assert twisted_cohomology_dims(C) == want
        assert _brute_twisted_dims(A, H) == want
        for _ in range(30):
            x = _random_mixed_element(rng, A.gens)
            assert twisted_d(C, twisted_d(C, x)).is_zero()
    _verdict(6, "twisted dimensions match dense brute force; D^2 = 0 "
                "on 90 random elements", t0, 1.0)


def _matmul(a, b):
    n = len(a)
    zero = a[0][0].gens.zero()
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero)
             for j in range(n)] for i in range(n)]


def _trace(m):
    zero = m[0][0].gens.zero()
    return sum((m[i][i] for i in range(len(m))), zero)


def _random_square(rng, gens, size):
    choices = [gens.gen(n) for n in gens.names]
    return [[Fraction(rng.randint(-2, 2)) * rng.choice(choices)
             for _ in range(size)] for _ in range(size)]


def _random_antisymmetric(rng, gens, size):
    rows = [[gens.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            p = Fraction(rng.randint(-2, 2)) * rng.choice(
                [gens.gen(n) for n in gens.names])
            rows[i][j] = p
            rows[j][i] = -p
    return rows


def test_criterion_07_chern_weil_identities():
    t0 = time.monotonic()
    # Pf^2 = det, fully symbolic
    g2 = GeneratorSet([("a", 2)])
    two = CurvatureMatrix([[g2.zero(), g2.gen("a")],
                           [-g2.gen("a"), g2.zero()]], antisymmetric=True)
    assert pfaffian(two) * pfaffian(two) == determinant(two)
    g6 = GeneratorSet([("a%d%d" % (i, j), 2)
                       for i in range(4) for j in range(i + 1, 4)])
    rows = [[g6.zero()] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j] = g6.gen("a%d%d" % (i, j))
            rows[j][i] = -rows[i][j]
    four = CurvatureMatrix(rows, antisymmetric=True)
    assert pfaffian(four) * pfaffian(four) == determinant(four)
    # Newton identities p_k = e1 p_{k-1} - e2 p_{k-2} + ... -(-1)^k k e_k
    rng = random.Random(707)
    uv = GeneratorSet([("u", 2), ("v", 2)])
    for _ in range(5):
        m = _random_square(rng, uv, 3)
        phi = CurvatureMatrix(m)
        e = [uv.one()] + chern_forms(phi, 4)
        power = m
        p = [None]
        for _ in range(4):
            p.append(_trace(power))
            power = _matmul(power, m)
        for k in range(1, 5):
            acc = uv.zero()
            for i in range(1, k):
                acc = acc + (-1) ** (i - 1) * e[i] * p[k - i]
            acc = acc + (-1) ** (k - 1) * k * e[k]
            assert p[k] == acc, "Newton identity k=%d" % k
    # additivity of the character under block sum
    a = CurvatureMatrix(_random_square(rng, uv, 2))
    b = CurvatureMatrix(_random_square(rng, uv, 2))
    assert chern_character(block_sum(a, b), 8) == \
        chern_character(a, 8) + chern_character(b, 8)
    # Whitney product for p through degree 8
    pa = CurvatureMatrix(_random_antisymmetric(rng, uv, 4),
                         antisymmetric=True)
    pb = CurvatureMatrix(_random_antisymmetric(rng, uv, 4),
                         antisymmetric=True)
    p_a = pontrjagin_forms(pa, 2)
    p_b = pontrjagin_forms(pb, 2)
    p_c = pontrjagin_forms(block_sum(pa, pb), 2)
    assert p_c[0] == p_a[0] + p_b[0]
    assert p_c[1] == p_a[1] + p_a[0] * p_b[0] + p_b[1]
    # 48*I8 + p1^2/4 = p2 identically
    sym = GeneratorSet([("p1", 4), ("p2", 8)])
    p1, p2 = sym.gen("p1"), sym.gen("p2")
    assert 48 * i8(p1, p2) + Fraction(1, 4) * p1 * p1 == p2
    _verdict(7, "Pfaffian, Newton, character additivity, Whitney, I8 "
                "identities exact", t0, 2.0)


def _random_cylinder_monomial(rng, gens):
    names = list(gens.names)
    rng.shuffle(names)
    expo = {}
    for name in names[:rng.randint(1, min(3, len(names)))]:
        expo[name] = 1 if gens.degree_of(name) % 2 else rng.randint(1, 2)
    return gens.monomial(expo)


def _random_cylinder_element(rng, gens):
    out = gens.zero()
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        out = out + c * _random_cylinder_monomial(rng, gens)
    return out


def test_criterion_08_stokes_and_projection():
    rng = random.Random(808)
    for name in corpus.names():
        A = corpus.algebra(name)
        C = CylinderAlgebra(A)
        for _ in range(30):
            w = _random_cylinder_element(rng, C.algebra.gens)
            assert check_stokes(C, w), name
            beta = Fraction(rng.choice([-2, -1, 1, 2]), 2) \
                * _random_cylinder_monomial(rng, A.gens)
            alpha = _random_cylinder_element(rng, C.algebra.gens)
            assert check_projection(C, beta, alpha), name
    _verdict(8, "Stokes and projection formulas hold on 30 random "
                "cylinder elements per corpus base")


def test_criterion_09_line_subsumption():
    t0 = time.monotonic()
    lattice = range(-2, 3)
    s3 = corpus.algebra("s3")
    res3 = line_quotient(s3, 2, lattice)
    assert res3.h_dim == 1
    assert res3.class_count == 5
    t3 = corpus.algebra("t3")
    res1 = line_quotient(t3, 0, lattice)
    assert res1.h_dim == 3
    assert res1.class_count == 125
    # decision procedure agrees across and within classes
    d0 = line_datum(s3, 2, res3.reps[0])
    same = decide_concordance(d0, line_datum(s3, 2, res3.reps[0]))
    assert same is not None
    h = fiber_integrate(same.cylinder, same.image("c3"))
    assert apply_d(s3, h).is_zero()
    assert decide_concordance(d0, line_datum(s3, 2, res3.reps[1])) is None
    _verdict(9, "line-coefficient concordance classes realize the "
                "cohomology lattice on both models", t0, 5.0)


def test_criterion_10_twisted_subsumption_bridge():
    t0 = time.monotonic()
    t3 = corpus.algebra("t3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    res = twisted_ku_quotient(t3, xyz, (0, 1))
    assert res.class_count == 8
    C = TwistedComplex(t3, xyz, period=1)
    odd = next(s for s in twisted_cohomology(C) if s.residue == 1)
    assert odd.dim == 3
    seen = set()
    for lam in itertools.product((0, 1), repeat=3):
        combo = t3.zero()
        for coeff, cls in zip(lam, odd.representatives):
            combo = combo + coeff * cls.rep
        matches = [i for i, rep in enumerate(res.reps)
                   if twisted_is_exact(C, combo - rep) is not None]
        assert len(matches) == 1
        seen.add(matches[0])
    assert len(seen) == 8
    _verdict(10, "twisted family concordance classes biject with "
                 "odd twisted classes", t0, 10.0)


def test_criterion_11_twistorial_preset():
    t0 = time.monotonic()
    P = preset_twistorial()
    assert check_d_squared(P.omega).passed
    assert verify_twisted_flat(P.datum).passed
    assert verify_twisted_flat(P.pushforward).passed
    w = P.charge_witness()
    assert w == P.omega.gen("H3")
    assert apply_d(P.omega, w) == P.charge_form
    _verdict(11, "preset passes both twisted-flat legs; charge form is "
                 "exact with the degree-3 witness", t0, 1.0)


def test_criterion_12_cli_contract(capsys, tmp_path):
    for name in corpus.names():
        mf = corpus.load(name)
        assert parse(print_model(mf)) == mf, name
    rng = random.Random(121212)
    for k in range(100):
        mf = parse(test_cli._fuzz_text(rng, "a%d" % k))
        assert parse(print_model(mf)) == mf
    schema = json.loads(
        (resources.files("ratho.cli") / "schema.json").read_text())
    assert main(["check", "corpus:s4"]) == 0
    assert main(["is-sullivan", "corpus:su2"]) == 1
    assert main(["corpus", "no_such_model"]) == 2
    bad = tmp_path / "bad.dgca"
    bad.write_text("algebra A { gen a:2 }")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    assert main(["cohomology", "--max-degree", "12", "--json",
                 "corpus:s4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["result"]["dims"]["4"] == 1
    assert main(["is-sullivan", "--json", "corpus:su2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    _verdict(12, "round-trips, exit codes, and JSON schema hold")
