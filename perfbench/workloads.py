"""Seeded job lists for the three benchmark workloads.

A job is a zero-argument call into ratho's public functions plus an oracle
that checks the value it returned.  The seed changes bases, orders,
coefficients and sampled elements, never the kind or number of jobs, so
each closed-form answer holds for every seed and runs with different seeds
do about the same work.

Library modules are called through their module objects (``dgca.is_exact``
rather than an imported name) so that the tracer's patches are seen.
"""

import contextlib
import importlib
import io
import json
import math
import random
from fractions import Fraction

from ratho import (character, chern_weil, core_algebra, dgca,
                   simplicial_forms, twisted_derham)
from ratho.cli import corpus
from ratho.cli import main as cli_main
from ratho.linfty import brackets_from_ce, is_sullivan

# the package re-exports the function under the module's own name
minimal_model = importlib.import_module("ratho.minimal_model")


class Job:
    """One timed call and the check run on what it returned."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _nonzero_fraction(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _once(check):
    """Run an expensive oracle once; later values must equal the first."""
    verified = []

    def checked(value):
        if verified:
            return value == verified[0]
        if check(value):
            verified.append(value)
            return True
        return False

    return checked


# -- big_complexes -----------------------------------------------------------

def _torus(n):
    return dgca.DGCA([("x%d" % i, 1) for i in range(n)])


def _twisted_torus(rng, n):
    """T^n twisted by x0*x1*x2 after one elementary substitution.

    x_a -> x_a + c*x_b with a in {0, 1, 2}, b outside it and c = +-1 is
    unimodular, so the twisted ranks stay 3 * 2^(n-3) per residue, and the
    twist always has two terms with unit coefficients, which keeps the work
    the same for every seed.
    """
    A = _torus(n)
    x = [A.gen(name) for name in A.gens.names]
    a = rng.randrange(3)
    b = rng.randrange(3, n)
    factors = x[:3]
    factors[a] = factors[a] + rng.choice((-1, 1)) * x[b]
    twist = factors[0] * factors[1] * factors[2]
    return twisted_derham.TwistedComplex(A, twist)


def _heisenberg(rng, k):
    """CE algebra of the Heisenberg Lie algebra of dimension 2k+1.

    d c = sum lambda_i a_i b_i with nonzero lambda_i; rescaling a_i turns
    it into the standard one, so Betti numbers do not depend on them.  The
    seed permutes the magnitudes 1, 2, 1, 2, ... and picks the signs, so
    the arithmetic costs the same for every seed.
    """
    pairs = ([("a%d" % i, 1) for i in range(1, k + 1)]
             + [("b%d" % i, 1) for i in range(1, k + 1)] + [("c", 1)])
    g = dgca.DGCA(pairs).gens
    magnitudes = [1 + i % 2 for i in range(k)]
    rng.shuffle(magnitudes)
    dc = g.zero()
    for i, lam in enumerate(magnitudes, start=1):
        lam *= rng.choice((-1, 1))
        dc = dc + lam * g.gen("a%d" % i) * g.gen("b%d" % i)
    return dgca.DGCA(g, {"c": dc})


def _heisenberg_betti(k, j):
    if j > k:
        return _heisenberg_betti(k, 2 * k + 1 - j)
    below = math.comb(2 * k, j - 2) if j >= 2 else 0
    return math.comb(2 * k, j) - below


def _dims_job(name, A, degree, expected, polybound=None):
    return Job(name,
               lambda: dgca.cohomology_dims(A, (degree, degree), polybound),
               lambda dims: dims == {degree: expected})


def big_complexes(seed):
    rng = random.Random(seed)
    jobs = []
    for n in (9, 10):
        C = _twisted_torus(rng, n)
        expected = (3 * 2 ** (n - 3),) * 2
        jobs.append(Job("twisted_T%d" % n,
                        lambda C=C: twisted_derham.twisted_cohomology_dims(C),
                        lambda dims, e=expected: dims == e))
    torus = _torus(10)
    for j in range(11):
        jobs.append(_dims_job("T10_H%d" % j, torus, j, math.comb(10, j)))
    heis = _heisenberg(rng, 4)
    for j in range(10):
        jobs.append(_dims_job("heis9_H%d" % j, heis, j,
                              _heisenberg_betti(4, j)))
    simplex = simplicial_forms.SimplexAlgebra(3).algebra
    for j in range(4):
        jobs.append(_dims_job("simplex3_D5_H%d" % j, simplex, j,
                              1 if j == 0 else 0, polybound=5))
    twistor = corpus.algebra("twistor")
    for j in range(25):
        jobs.append(_dims_job("twistor_H%d" % j, twistor, j,
                              0 if j % 2 else j // 4 + 1))
    return jobs


# -- certificates ------------------------------------------------------------

def _random_element(rng, gens, degree, terms, polybound=None):
    basis = core_algebra.basis_of_degree(gens, degree, polybound)
    out = gens.zero()
    for m in rng.sample(basis, min(terms, len(basis))):
        out = out + gens.from_exponents(m, _nonzero_fraction(rng))
    return out


def _exact_jobs(rng, label, A, degrees, count, polybound=None):
    """is_exact on d(q) for seeded q; the witness must map onto the target."""
    jobs = []
    for attempt in range(100 * count):
        if len(jobs) == count:
            return jobs
        degree = degrees[attempt % len(degrees)]
        target = dgca.apply_d(A, _random_element(rng, A.gens, degree, 3,
                                                 polybound))
        if target.is_zero():
            continue

        def check(w, target=target):
            return w is not None and dgca.apply_d(A, w) == target

        jobs.append(Job("is_exact_%s_%d" % (label, len(jobs)),
                        lambda t=target: dgca.is_exact(A, t, polybound),
                        check))
    raise RuntimeError("too few non-closed elements for %s" % label)


def _concordance_jobs(rng, label, omega, n, count):
    """decide_concordance on line data over a model with no exact forms.

    In degree n+1 of s3 and t3 every form is closed and only 0 is exact,
    so two data are concordant exactly when their forms are equal.
    """
    basis = [omega.gens.from_exponents(m)
             for m in core_algebra.basis_of_degree(omega.gens, n + 1)]
    jobs = []
    for i in range(count):
        p0 = omega.zero()
        for b in basis:
            p0 = p0 + _nonzero_fraction(rng) * b
        same = i % 2 == 0
        p1 = p0 if same else p0 + rng.choice(basis)
        f0 = character.line_datum(omega, n, p0)
        f1 = character.line_datum(omega, n, p1)

        def check(ccd, same=same):
            if not same:
                return ccd is None
            return (ccd is not None
                    and character.verify_concordance(ccd).passed)

        jobs.append(Job("decide_%s_%d" % (label, i),
                        lambda f0=f0, f1=f1: character.decide_concordance(
                            f0, f1), check))
    return jobs


_MM_FACTORS = (("s2", "s3"), ("s2", "s4"), ("cp2", "s4"), ("s2", "cp2"),
               ("s3", "s4"), ("cp3", "s5"))


def _minimal_model_jobs(rng, bound):
    """minimal_model of products of minimal corpus models.

    A tensor product of minimal algebras is its own minimal model, so the
    generator counts through the bound are the inputs' own.
    """
    pairs = list(_MM_FACTORS)
    rng.shuffle(pairs)
    jobs = []
    for a, b in pairs:
        A, B = corpus.algebra(a), corpus.algebra(b)
        P = dgca.tensor(A, B, rename={n: n + "b" for n in B.gens.names})
        expected = {}
        for deg in sorted(P.gens.degrees):
            if deg <= bound:
                expected[deg] = expected.get(deg, 0) + 1
        jobs.append(Job("minimal_model_%s_%s" % (a, b),
                        lambda P=P: minimal_model.minimal_model(P, bound),
                        lambda res, e=expected: res.counts == e))
    return jobs


def _curvature(rng, size):
    """size x size matrix with a distinct degree-2 generator in each entry."""
    g = dgca.DGCA([("g%d" % i, 2) for i in range(size * size)]).gens
    entries = [[_nonzero_fraction(rng) * g.gen("g%d" % (i * size + j))
                for j in range(size)] for i in range(size)]
    return chern_weil.CurvatureMatrix(entries)


def _newton_holds(phi, value):
    """k c_k = sum_i (-1)^(i-1) c_(k-i) p_i with p_i = i! * ch_(2i)."""
    forms, ch = value
    gens, n = phi.gens, phi.size
    parts = ch.homogeneous_parts()
    if parts.get(0) != gens.constant(n):
        return False
    c = [gens.one()] + list(forms)
    p = [None] + [math.factorial(i) * parts.get(2 * i, gens.zero())
                  for i in range(1, n + 1)]
    for k in range(1, n + 1):
        rhs = gens.zero()
        for i in range(1, k + 1):
            term = c[k - i] * p[i]
            rhs = rhs + (term if i % 2 else -term)
        if k * c[k] != rhs:
            return False
    return True


def _stokes_jobs(rng, count):
    jobs = []
    for name in ("s4", "t3"):
        C = simplicial_forms.CylinderAlgebra(corpus.algebra(name))
        gens = C.algebra.gens
        for i in range(count):
            w = gens.zero()
            for degree in (2, 3, 4):
                w = w + _random_element(rng, gens, degree, 3, polybound=3)
            beta = _random_element(rng, C.base.gens, 3 + i % 2, 1)
            jobs.append(Job(
                "stokes_%s_%d" % (name, i),
                lambda C=C, w=w, beta=beta: (
                    simplicial_forms.check_stokes(C, w),
                    simplicial_forms.check_projection(C, beta, w)),
                lambda ok: ok == (True, True)))
    return jobs


def certificates(seed):
    rng = random.Random(seed)
    jobs = []
    torus5 = _torus(5)
    jobs.append(Job(
        "line_quotient_T5",
        lambda: character.line_quotient(torus5, 0, (-1, 0, 1)),
        lambda r: (r.class_count, r.h_dim, r.concordances, r.refusals)
        == (243, 5, 0, 483)))
    t3 = corpus.algebra("t3")
    xyz = t3.monomial({"x": 1, "y": 1, "z": 1})
    jobs.append(Job(
        "twisted_ku_quotient_t3",
        lambda: character.twisted_ku_quotient(t3, xyz, (-1, 0, 1)),
        lambda r: (r.class_count, r.concordances, r.refusals)
        == (27, 54, 51)))
    jobs += _exact_jobs(rng, "simplex3",
                        simplicial_forms.SimplexAlgebra(3).algebra,
                        (0, 1, 2), 12, polybound=3)
    jobs += _exact_jobs(rng, "twistor", corpus.algebra("twistor"),
                        (7, 9, 10, 11, 13), 12)
    jobs += _concordance_jobs(rng, "s3", corpus.algebra("s3"), 2, 10)
    jobs += _concordance_jobs(rng, "t3", t3, 0, 10)
    jobs += _minimal_model_jobs(rng, 10)
    phi = _curvature(rng, 5)
    jobs.append(Job(
        "chern_5x5",
        lambda: (chern_weil.chern_forms(phi, 5),
                 chern_weil.chern_character(phi, 10)),
        _once(lambda value: _newton_holds(phi, value))))
    jobs += _stokes_jobs(rng, 8)
    return jobs


# -- cli_sweep ---------------------------------------------------------------

_README_COMMANDS = (
    ["corpus", "--list"],
    ["check", "corpus:s4"],
    ["cohomology", "--max-degree", "12", "corpus:s4"],
    ["is-sullivan", "corpus:su2"],
    ["brackets", "corpus:su2"],
    ["minimal-model", "--max-degree", "6", "corpus:cp2"],
    ["twisted-cohomology", "--twist", "H", "corpus:t3"],
    ["line-quotient", "--max-degree", "2", "corpus:s3"],
    ["stokes-check", "corpus:s4"],
)

# --polybound only matters for corpus:interval, whose slices are infinite
# without one; every other model ignores it.
_PER_MODEL_COMMANDS = (
    ["check"],
    ["cohomology", "--max-degree", "8", "--polybound", "3"],
    ["is-sullivan"],
    ["brackets"],
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main.main(argv)
    return code, out.getvalue()


def _option(argv, flag, default=None):
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _library_answer(argv):
    """(exit code, result facts, text lines) the library gives for argv.

    The facts are a subset of the --json result; the lines must appear in
    the text output.
    """
    command = argv[0]
    if command == "corpus":
        names = corpus.names()
        return (0, {"entries": names},
                ["%-12s %s" % (n, corpus.entry(n)["description"])
                 for n in names])
    mf = corpus.load(argv[-1][len("corpus:"):])
    name, A = mf.first_algebra()
    if command == "check":
        algebras = [n for k, n in mf.order if k == "algebra"]
        passed = {n: dgca.check_d_squared(mf.algebras[n]).passed
                  for n in algebras}
        ok = all(passed.values())
        return (0 if ok else 1, {"passed": ok, "algebras": passed},
                ["%s: d^2 = 0" % n for n in algebras if passed[n]])
    if command == "cohomology":
        top = _option(argv, "--max-degree")
        dims = dgca.cohomology_dims(A, (0, top), _option(argv, "--polybound"))
        return (0, {"algebra": name, "dims": {str(k): v
                                              for k, v in dims.items()}},
                ["H^%d = %d" % kv for kv in dims.items()])
    if command == "is-sullivan":
        cert = is_sullivan(A)
        if cert.ok:
            return (0, {"sullivan": True, "order": list(cert.order)},
                    ["order: %s" % " < ".join(cert.order)])
        cycle = list(cert.cycle)
        return (1, {"sullivan": False, "cycle": cycle},
                ["cycle: %s" % " -> ".join(cycle + cycle[:1])])
    if command == "brackets":
        L = brackets_from_ce(A)
        return (0, {"basis": [list(b) for b in L.basis],
                    "brackets": len(L.brackets)}, [])
    if command == "minimal-model":
        res = minimal_model.minimal_model(A, _option(argv, "--max-degree"))
        return (0, {"counts": {str(k): v for k, v in res.counts.items()}},
                ["  gen %s:%d" % g for g in zip(res.model.gens.names,
                                                 res.model.gens.degrees)])
    if command == "twisted-cohomology":
        twist = mf.twists[argv[argv.index("--twist") + 1]]
        C = twisted_derham.TwistedComplex(A, twist.form)
        dims = {s.residue: s.dim for s in twisted_derham.twisted_cohomology(C)}
        return (0, {"dims": {str(k): v for k, v in dims.items()}},
                ["residue %d: dim %d" % kv for kv in dims.items()])
    if command == "line-quotient":
        res = character.line_quotient(A, _option(argv, "--max-degree"),
                                      range(-2, 3))
        return (0, {"classes": res.class_count, "h_dim": res.h_dim,
                    "concordances": res.concordances,
                    "refusals": res.refusals},
                ["concordance classes: %d" % res.class_count])
    if command == "stokes-check":
        return (0, {"stokes": 30, "projection": 30, "trials": 30},
                ["stokes: 30/30", "projection: 30/30"])
    raise ValueError("no library answer for %r" % argv)


def _cli_check(argv, answers):
    key = tuple(a for a in argv if a != "--json")

    def check(value):
        code, text = value
        if key not in answers:
            answers[key] = _library_answer(list(key))
        want_code, facts, lines = answers[key]
        if code != want_code:
            return False
        if "--json" not in argv:
            got = text.splitlines()
            if key[0] == "brackets":
                return len(got) == 1 + facts["brackets"]
            return all(line in got for line in lines)
        result = json.loads(text)["result"]
        if key[0] == "corpus":
            return [e["name"] for e in result["entries"]] == facts["entries"]
        if key[0] == "brackets":
            return (result["basis"] == facts["basis"]
                    and len(result["brackets"]) == facts["brackets"])
        return all(result.get(k) == v for k, v in facts.items())

    return check


def cli_sweep(seed):
    rng = random.Random(seed)
    commands = [list(c) for c in _README_COMMANDS]
    for name in corpus.names():
        commands += [c + ["corpus:" + name] for c in _PER_MODEL_COMMANDS]
    argvs = [c[:1] + flag + c[1:]
             for c in commands for flag in ([], ["--json"])]
    rng.shuffle(argvs)
    answers = {}
    return [Job(" ".join(argv), lambda argv=argv: _run_cli(argv),
                _cli_check(argv, answers))
            for argv in argvs]


WORKLOADS = {
    "big_complexes": big_complexes,
    "certificates": certificates,
    "cli_sweep": cli_sweep,
}
