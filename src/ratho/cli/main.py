"""Command-line driver.

Each command is one row of _COMMANDS: a handler, the reader that turns
the loaded model file into the handler's inputs, the arguments they read,
and a help line.  A command takes only its row's arguments, then --json
(emit {command, inputs, result, witnesses} against the shipped schema)
and --out (write the rendered output to a file), and last the model file,
a path or corpus:NAME, if it has a reader.  Any other flag is exit 2.

main() alone loads the file, runs the reader and the handler, and maps
errors to exit codes.  0: the check or computation passes.  1: a
mathematical check fails (d^2 != 0, not Sullivan, not concordant, ...),
or a certificate ratho checks itself fails: any other RuntimeError, with
result {"error": message}.  2: ParseError, ValueError (UsageError is
one), NotImplementedError and BudgetExceeded.  The closed readers
(_closed_algebra, _twisted_complex, _twisted_rep) and _flat_datum check
d^2 = 0 on the algebras they hand over and raise CheckFailed with check's
outcome, so every command that needs a closed algebra passes the same gate.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from ..chern_weil import (CurvatureMatrix, chern_forms, euler_form, i8,
                          pontrjagin_forms)
from ..character import (ConcordanceDatum, FlatFormDatum,
                         TwistedFlatFormDatum, decide_concordance,
                         line_quotient, verify_concordance, verify_flat,
                         verify_twisted_flat)
from ..dgca import check_d_squared, cohomology
from ..linfty import brackets_from_ce, is_minimal, is_sullivan
from ..minimal_model import BudgetExceeded, RelativeExtension, minimal_model
from ..simplicial_forms import CylinderAlgebra, check_projection, check_stokes
from ..twisted_derham import (TwistedClass, TwistedComplex,
                              op_square_then_twist, op_wedge_square,
                              op_wedge_twist, twisted_cohomology)
from . import corpus
from .parser import ParseError, parse


class UsageError(ValueError):
    pass


class CheckFailed(Exception):
    """A failed check ends the command; args are its outcome."""


def _load_model(path):
    if path.startswith("corpus:"):
        return corpus.load(path[len("corpus:"):])
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror))
    except UnicodeDecodeError as e:
        raise UsageError("cannot read %s: not valid UTF-8 at byte %d"
                         % (path, e.start))
    return parse(text)


def _morphisms(mf):
    return [mf.morphisms[n] for k, n in mf.order if k == "morphism"]


def _twist(mf, name):
    if name not in mf.twists:
        raise UsageError("no twist named %r in the file" % name)
    return mf.twists[name]


def _comb_str(targets, order):
    """Linear combination {name: coeff} rendered in a fixed basis order."""
    parts = []
    for name in order:
        c = targets.get(name)
        if not c:
            continue
        if c == 1:
            term = name
        elif c == -1:
            term = "-" + name
        else:
            term = "%s*%s" % (c, name)
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def _d_squared(mf, names):
    """The outcome of checking d^2 = 0 on the named algebras of mf."""
    lines = []
    outcomes = {}
    witnesses = []
    for name in names:
        rep = check_d_squared(mf.algebras[name])
        outcomes[name] = rep.passed
        if rep.passed:
            lines.append("%s: d^2 = 0" % name)
        else:
            lines.append("%s: d^2 != 0 (%s)" % (name, rep))
            for gen, res in rep.failures:
                witnesses.append({"algebra": name, "generator": gen,
                                  "residual": str(res)})
    ok = all(outcomes.values())
    return (0 if ok else 1,
            {"passed": ok, "algebras": outcomes}, witnesses, lines)


def _closed(mf, *names):
    """Gate the named algebras: CheckFailed with check's outcome if d^2 != 0."""
    outcome = _d_squared(mf, list(dict.fromkeys(names)))
    if outcome[0]:
        raise CheckFailed(*outcome)


# -- readers: the loaded model file -> a handler's inputs ---------------------


def _model(args, mf):
    return (mf,)


def _algebra(args, mf):
    name, A = mf.first_algebra()
    if A is None:
        raise UsageError("the file declares no algebra")
    return name, A


def _closed_algebra(args, mf):
    name, A = _algebra(args, mf)
    _closed(mf, name)
    return name, A


def _twisted_complex(args, mf):
    """The complex over the --twist block's algebra, else the first one."""
    if args.twist is None:
        name, A = _algebra(args, mf)
        form = A.zero()
    else:
        t = _twist(mf, args.twist)
        name, form = t.algebra, t.form
    _closed(mf, name)
    return (TwistedComplex(mf.algebras[name], form, period=args.period,
                           truncation=args.max_degree),)


def _twisted_rep(args, mf):
    C, = _twisted_complex(args, mf)
    rep = _twist(mf, args.rep)
    if mf.algebras[rep.algebra] is not C.base:
        raise UsageError("representative %r lives over a different algebra"
                         % args.rep)
    return C, TwistedClass(C, rep.form)


def _matrix(args, mf, antisymmetric=False):
    for kind, name in mf.order:
        if kind == "matrix":
            rows = mf.matrices[name].rows
            try:
                return name, CurvatureMatrix(rows, antisymmetric=antisymmetric)
            except (ValueError, TypeError) as e:
                raise UsageError("matrix %s: %s" % (name, e))
    raise UsageError("the file declares no matrix")


def _antisymmetric_matrix(args, mf):
    return _matrix(args, mf, antisymmetric=True)


# -- commands: handler(args, *inputs) -> (code, result, witnesses, lines) -----


def _cmd_check(args, mf):
    _algebra(args, mf)  # a file without algebras is a usage error
    return _d_squared(mf, [n for k, n in mf.order if k == "algebra"])


def _cmd_cohomology(args, name, A):
    top = args.max_degree if args.max_degree is not None else 8
    slices = cohomology(A, (0, top), polybound=args.polybound)
    lines = ["cohomology of %s in degrees 0..%d" % (name, top)]
    dims = {}
    witnesses = []
    for sl in slices:
        dims[sl.degree] = sl.dim
        lines.append("H^%d = %d" % (sl.degree, sl.dim))
        for p in sl.representatives:
            witnesses.append({"degree": sl.degree, "representative": str(p)})
    return 0, {"algebra": name, "dims": dims}, witnesses, lines


def _cmd_minimal_model(args, name, A):
    top = args.max_degree if args.max_degree is not None else 8
    res = minimal_model(A, top, polybound=args.polybound)
    M = res.model
    lines = ["minimal model of %s through degree %d" % (name, res.bound)]
    for g, d in zip(M.gens.names, M.gens.degrees):
        lines.append("  gen %s:%d" % (g, d))
    for g in M.gens.names:
        if not M.d[g].is_zero():
            lines.append("  d %s = %s" % (g, M.d[g]))
    result = {"algebra": name, "bound": res.bound,
              "counts": dict(res.counts),
              "generators": [[g, d] for g, d in
                             zip(M.gens.names, M.gens.degrees)],
              "differentials": {g: str(M.d[g]) for g in M.gens.names
                                if not M.d[g].is_zero()}}
    witnesses = [{"generator": g, "image": str(res.comparison.assignment[g])}
                 for g in M.gens.names]
    return 0, result, witnesses, lines


def _cmd_brackets(args, name, A):
    L = brackets_from_ce(A)
    order = [n for n, _ in L.basis]
    lines = ["brackets of %s (basis %s)" % (name, ", ".join(order))]
    table = []
    for key in sorted(L.brackets, key=lambda k: (len(k),
                                                 [L.index[n] for n in k])):
        value = L.brackets[key]
        lines.append("  l%d(%s) = %s"
                     % (len(key), ", ".join(key), _comb_str(value, order)))
        table.append({"arity": len(key), "args": list(key),
                      "value": {t: value[t] for t in order if t in value}})
    result = {"algebra": name, "basis": [[n, d] for n, d in L.basis],
              "brackets": table}
    return 0, result, [], lines


def _cmd_is_sullivan(args, name, A):
    cert = is_sullivan(A)
    if cert.ok:
        lines = ["%s: sullivan" % name,
                 "order: %s" % " < ".join(cert.order)]
        return 0, {"algebra": name, "sullivan": True,
                   "order": list(cert.order)}, [], lines
    cycle = list(cert.cycle)
    arrow = " -> ".join(cycle + [cycle[0]])
    lines = ["%s: not sullivan" % name, "cycle: %s" % arrow]
    return 1, {"algebra": name, "sullivan": False, "cycle": cycle}, \
        [{"cycle": cycle}], lines


def _cmd_is_minimal(args, name, A):
    flag, offenders = is_minimal(A)
    if flag:
        return 0, {"algebra": name, "minimal": True}, [], \
            ["%s: minimal" % name]
    lines = ["%s: not minimal" % name,
             "offending generators: %s" % ", ".join(offenders)]
    return 1, {"algebra": name, "minimal": False,
               "offenders": list(offenders)}, \
        [{"offenders": list(offenders)}], lines


def _cmd_twisted_cohomology(args, C):
    slices = twisted_cohomology(C)
    lines = ["twisted cohomology (period %d)" % C.period]
    dims = {}
    witnesses = []
    for sl in slices:
        dims[sl.residue] = sl.dim
        note = " (boundary window truncated)" if sl.boundary_affected else ""
        lines.append("residue %d: dim %d%s" % (sl.residue, sl.dim, note))
        for cls in sl.representatives:
            witnesses.append({"residue": sl.residue,
                              "representative": str(cls.rep)})
    return 0, {"period": C.period, "dims": dims}, witnesses, lines


_TWISTED_OPS = {"wedge-twist": op_wedge_twist,
                "wedge-square": op_wedge_square,
                "square-then-twist": op_square_then_twist}


def _cmd_twisted_op(args, C, cls):
    out = _TWISTED_OPS[args.op](C, cls)
    lines = ["%s: %s  ->  %s (residue %d)"
             % (args.op, cls.rep, out.rep, out.residue)]
    result = {"op": args.op, "input": str(cls.rep),
              "input_residue": cls.residue,
              "output": str(out.rep), "output_residue": out.residue}
    return 0, result, [], lines


def _characteristic_forms(kind, forms_of, step):
    """Handler listing kind's forms of a matrix, one per degree step.

    The k-th form is kind[0]_k, of degree step * k; without --max-degree
    the list stops at the matrix size times 2 / step, at least 1.
    """
    def handler(args, name, phi):
        kmax = (args.max_degree // step if args.max_degree is not None
                else max(phi.size * 2 // step, 1))
        lines = ["%s forms of %s" % (kind, name)]
        result = {"matrix": name, "forms": {}}
        for k, form in enumerate(forms_of(phi, kmax), start=1):
            lines.append("%s_%d = %s" % (kind[0], k, form))
            result["forms"]["%s%d" % (kind[0], k)] = str(form)
        return 0, result, [], lines
    return handler


def _cmd_euler(args, name, phi):
    e = euler_form(phi)
    return 0, {"matrix": name, "euler": str(e)}, [], ["e = %s" % e]


def _cmd_i8(args, name, phi):
    p1, p2 = pontrjagin_forms(phi, 2)
    val = i8(p1, p2)
    lines = ["p_1 = %s" % p1, "p_2 = %s" % p2, "I_8 = %s" % val]
    return 0, {"matrix": name, "p1": str(p1), "p2": str(p2),
               "i8": str(val)}, [], lines


def _flat_datum(mf, decl):
    """decl as a flat form datum, once both its algebras pass the d^2 gate."""
    _closed(mf, decl.source, decl.target)
    return FlatFormDatum(mf.algebras[decl.source], mf.algebras[decl.target],
                         decl.morphism)


def _cmd_verify_flat(args, mf):
    morphs = _morphisms(mf)
    if not morphs:
        raise UsageError("the file declares no morphism")
    return _flat_outcome(morphs[0], _flat_datum(mf, morphs[0]))


def _flat_outcome(decl, F):
    """verify-flat's outcome for the datum F read from decl."""
    rep = verify_flat(F)
    if rep.passed:
        return 0, {"datum": decl.name, "flat": True}, [], \
            ["%s: flat" % decl.name]
    lines = ["%s: not flat" % decl.name]
    witnesses = []
    for gen, res in rep.failures:
        lines.append("  d mismatch at %s: %s" % (gen, res))
        witnesses.append({"generator": gen, "residual": str(res)})
    return 1, {"datum": decl.name, "flat": False}, witnesses, lines


def _cmd_verify_twisted(args, mf):
    morphs = _morphisms(mf)
    if len(morphs) < 2:
        raise UsageError("verify-twisted needs two morphisms: the datum on "
                         "the total algebra, then the twist on the base")
    M, tau = morphs[0], morphs[1]
    if M.target != tau.target:
        raise UsageError("datum and twist land in different algebras")
    twist = _flat_datum(mf, tau)
    _closed(mf, M.source)
    bundle = RelativeExtension(mf.algebras[tau.source],
                               mf.algebras[M.source])
    rep = verify_twisted_flat(TwistedFlatFormDatum(bundle, twist, M.morphism))
    lines = []
    witnesses = []
    if rep.sullivan.ok:
        lines.append("bundle order: ok")
    else:
        cycle = list(rep.sullivan.cycle)
        lines.append("bundle order: cycle %s" % " -> ".join(cycle + cycle[:1]))
        witnesses.append({"leg": "sullivan", "cycle": cycle})
    for leg, failures in (("chain", rep.chain_failures),
                          ("triangle", rep.triangle_failures)):
        if failures:
            for gen, res in failures:
                lines.append("%s failure at %s: %s" % (leg, gen, res))
                witnesses.append({"leg": leg, "generator": gen,
                                  "residual": str(res)})
        else:
            lines.append("%s: ok" % leg)
    ok = rep.passed
    lines.append("twisted-flat: %s" % ("yes" if ok else "no"))
    return (0 if ok else 1), {"datum": M.name, "twist": tau.name,
                              "passed": ok}, witnesses, lines


def _cmd_verify_concordance(args, mf):
    morphs = _morphisms(mf)
    if len(morphs) < 2:
        raise UsageError("verify-concordance needs at least two morphisms")
    f0 = _flat_datum(mf, morphs[0])
    f1 = _flat_datum(mf, morphs[1])
    if len(morphs) == 2:
        for decl, f in zip(morphs, (f0, f1)):
            code, result, witnesses, lines = _flat_outcome(decl, f)
            if code:
                return code, {"concordant": False, **result}, witnesses, lines
        ccd = decide_concordance(f0, f1, polybound=args.polybound)
        if ccd is None:
            return 1, {"concordant": False}, [], ["concordant: no"]
        witnesses = [{"generator": g, "image": str(p)}
                     for g, p in sorted(ccd.morphism.assignment.items())]
        return 0, {"concordant": True}, witnesses, ["concordant: yes"]
    third = morphs[2]
    cyl = CylinderAlgebra(f0.target)
    declared = mf.algebras[third.target]
    if declared.gens != cyl.algebra.gens or declared.d != cyl.algebra.d:
        raise UsageError(
            "the third morphism must land in the cylinder algebra: base "
            "generators, then %s:0 and %s:1 with d %s = %s"
            % (cyl.t_name, cyl.dt_name, cyl.t_name, cyl.dt_name))
    rep = verify_concordance(
        ConcordanceDatum(cyl, f0, f1, third.morphism.assignment))
    lines = []
    witnesses = []
    for gen, res in rep.chain_failures:
        lines.append("chain failure at %s: %s" % (gen, res))
        witnesses.append({"leg": "chain", "generator": gen,
                          "residual": str(res)})
    for end, gen, res in rep.endpoint_failures:
        lines.append("%s mismatch at %s: %s" % (end, gen, res))
        witnesses.append({"leg": end, "generator": gen,
                          "residual": str(res)})
    ok = rep.passed
    lines.append("concordance: %s" % ("valid" if ok else "invalid"))
    return (0 if ok else 1), {"concordant": ok}, witnesses, lines


def _cmd_line_quotient(args, name, A):
    if args.max_degree is None:
        raise UsageError("line-quotient needs --max-degree (the line degree n)")
    res = line_quotient(A, args.max_degree, range(-2, 3),
                        polybound=args.polybound)
    lines = ["line coefficients of degree %d over %s"
             % (args.max_degree + 1, name),
             "concordance classes: %d" % res.class_count,
             "cohomology dimension: %d" % res.h_dim,
             "concordances built: %d, refusals: %d"
             % (res.concordances, res.refusals)]
    result = {"algebra": name, "degree": args.max_degree,
              "classes": res.class_count, "h_dim": res.h_dim,
              "concordances": res.concordances, "refusals": res.refusals}
    witnesses = [{"class": i, "representative": str(p)}
                 for i, p in enumerate(res.reps)]
    return 0, result, witnesses, lines


def _random_monomial(rng, gens):
    names = list(gens.names)
    rng.shuffle(names)
    expo = {}
    for name in names[:rng.randint(min(1, len(names)),
                                   min(3, len(names)))]:
        if gens.degree_of(name) % 2 == 1:
            expo[name] = 1
        else:
            expo[name] = rng.randint(1, 2)
    return gens.monomial(expo)


def _random_element(rng, gens):
    out = gens.zero()
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        out = out + gens.constant(c) * _random_monomial(rng, gens)
    return out


def _cmd_stokes_check(args, name, A):
    C = CylinderAlgebra(A)
    rng = random.Random(20260816)
    stokes = projection = 0
    trials = 30
    for _ in range(trials):
        w = _random_element(rng, C.algebra.gens)
        if check_stokes(C, w):
            stokes += 1
        beta = A.constant(Fraction(rng.choice([-2, -1, 1, 2]), 2)) \
            * _random_monomial(rng, A.gens)
        alpha = _random_element(rng, C.algebra.gens)
        if check_projection(C, beta, alpha):
            projection += 1
    ok = stokes == trials and projection == trials
    lines = ["stokes: %d/%d" % (stokes, trials),
             "projection: %d/%d" % (projection, trials)]
    return (0 if ok else 1), {"algebra": name, "stokes": stokes,
                              "projection": projection,
                              "trials": trials}, [], lines


def _cmd_corpus(args):
    if args.list:
        lines = []
        entries = []
        for n in corpus.names():
            e = corpus.entry(n)
            lines.append("%-12s %s" % (n, e["description"]))
            lines.append("             [%s]" % e["citation"])
            entries.append({"name": n, "description": e["description"],
                            "citation": e["citation"]})
        return 0, {"entries": entries}, [], lines
    if args.name is None:
        raise UsageError("corpus needs a name or --list")
    text = corpus.text(args.name)
    return 0, {"name": args.name, "text": text}, [], [text.rstrip("\n")]


# argument -> add_argument keywords
_ARGUMENTS = {
    "--max-degree": {"type": int, "metavar": "N"},
    "--polybound": {"type": int, "metavar": "D"},
    "--twist": {"metavar": "NAME"},
    "--period": {"type": int, "metavar": "R"},
    "--json": {"action": "store_true"},
    "--out": {"metavar": "FILE"},
    "--list": {"action": "store_true"},
    "name": {"nargs": "?"},
    "op": {"choices": sorted(_TWISTED_OPS)},
    "rep": {"help": "twist block naming the representative"},
    "file": {},
}
_BOUNDED = ("--max-degree", "--polybound")
_TWISTED = ("--max-degree", "--twist", "--period")

# command -> (handler, reader, arguments, help); corpus reads no model file.
_COMMANDS = {
    "check": (_cmd_check, _model, (),
              "verify d^2 = 0 for every algebra in the file"),
    "cohomology": (_cmd_cohomology, _closed_algebra, _BOUNDED,
                   "cohomology table of the first algebra"),
    "minimal-model": (_cmd_minimal_model, _closed_algebra, _BOUNDED,
                      "minimal model of the first algebra"),
    "brackets": (_cmd_brackets, _closed_algebra, (),
                 "bracket table read off the first algebra"),
    "is-sullivan": (_cmd_is_sullivan, _algebra, (),
                    "well-founded generator order, or a cycle"),
    "is-minimal": (_cmd_is_minimal, _algebra, (),
                   "minimality of the first algebra"),
    "twisted-cohomology": (_cmd_twisted_cohomology, _twisted_complex,
                           _TWISTED,
                           "periodic twisted cohomology over a twist block"),
    "twisted-op": (_cmd_twisted_op, _twisted_rep, _TWISTED + ("op", "rep"),
                   "apply a periodic operation to a representative"),
    "chern": (_characteristic_forms("chern", chern_forms, 2), _matrix,
              ("--max-degree",), "chern forms of the first matrix"),
    "pontrjagin": (_characteristic_forms("pontrjagin", pontrjagin_forms, 4),
                   _antisymmetric_matrix, ("--max-degree",),
                   "pontrjagin forms of the first (antisymmetric) matrix"),
    "euler": (_cmd_euler, _antisymmetric_matrix, (),
              "euler form of the first (antisymmetric) matrix"),
    "i8": (_cmd_i8, _antisymmetric_matrix, (),
           "the degree-8 polynomial (p2 - p1^2/4)/48"),
    "verify-flat": (_cmd_verify_flat, _model, (),
                    "check the first morphism as a flat form datum"),
    "verify-twisted": (_cmd_verify_twisted, _model, (),
                       "check a twisted datum: morphisms M then tau"),
    "verify-concordance": (_cmd_verify_concordance, _model, ("--polybound",),
                           "decide (2 morphisms) or verify (3) a concordance"),
    "line-quotient": (_cmd_line_quotient, _closed_algebra, _BOUNDED,
                      "concordance classes of line-coefficient lattice data"),
    "stokes-check": (_cmd_stokes_check, _algebra, (),
                     "fiberwise Stokes and projection on random elements"),
    "corpus": (_cmd_corpus, None, ("--list", "name"),
               "list or print built-in models"),
}


def _build_parser():
    # no prefixes: adding an option cannot change what a shorter one meant
    top = argparse.ArgumentParser(
        prog="ratho", allow_abbrev=False,
        description="exact rational homotopy calculations on model files")
    # an option the command does not take reads as None
    top.set_defaults(max_degree=None, polybound=None, twist=None, period=None)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, reader, arguments, help_) in _COMMANDS.items():
        # on a group, add_argument skips the help formatter a parser builds
        group = sub.add_parser(name, help=help_,
                               allow_abbrev=False).add_argument_group(name)
        file_ = ("file",) if reader else ()
        for arg in arguments + ("--json", "--out") + file_:
            group.add_argument(arg, **_ARGUMENTS[arg])
    return top


def _inputs(args):
    # by identity: 0 == False, and a zero-valued option is still an input
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("command", "json", "out")
            and value is not None and value is not False}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    handler, reader, _, _ = _COMMANDS[args.command]
    try:
        if args.max_degree is not None and args.max_degree < 0:
            raise UsageError("--max-degree must be >= 0, got %d"
                             % args.max_degree)
        inputs = reader(args, _load_model(args.file)) if reader else ()
        code, result, witnesses, lines = handler(args, *inputs)
    except (ValueError, NotImplementedError, BudgetExceeded) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except CheckFailed as e:
        code, result, witnesses, lines = e.args
    except RuntimeError as e:  # a certificate ratho checks itself failed
        code, result, witnesses, lines = 1, {"error": str(e)}, [], [str(e)]
    if args.json:
        text = json.dumps({"command": args.command, "inputs": _inputs(args),
                           "result": result, "witnesses": witnesses},
                          indent=2, default=str)
    else:
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print("error: cannot write %s: %s" % (args.out, e.strerror),
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return code


def console_entry():
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
