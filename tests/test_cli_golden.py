"""The CLI transcript: exit code and stdout of fixed argvs, byte for byte.

tests/data/cli_golden.json holds, for every argv below, what `ratho`
printed when the transcript was recorded.  The argvs are the README's
command-line block (read from README.md, so the two cannot drift), the
per-model commands of the benchmark's CLI sweep on every corpus model, every
other command on the small inline files of _FILES, and the usage errors of
test_cli.py.  Stderr is compared only where it is one of ratho's own
messages (`error:` or `parse error:`); argparse's usage text differs between
Python versions.

After an intended output change, regenerate the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from ratho.cli import corpus
from ratho.cli.main import main

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = _ROOT / "tests" / "data" / "cli_golden.json"

_D2 = ("algebra A { gen a:2; gen b:3; gen c:4; "
       "d b = a^2; d c = a*b; }\n")
_TWO = "algebra s { gen w4:4; gen w7:7; d w7 = -w4^2; }\n" \
       "algebra om { gen g4:4; gen g7:7; d g7 = -g4^2; }\n"
_KU = ("algebra base { gen h3:3; }\n"
       "algebra tot { gen h3:3; gen f1:1; gen f3:3; gen f5:5; "
       "d f3 = h3*f1; d f5 = h3*f3; }\n"
       "algebra om { gen H3:3; gen F1:1; gen F3:3; gen F5:5; "
       "d F3 = H3*F1; d F5 = H3*F3; }\n")
_SADDLE = ("algebra om { gen x:1; gen y:1; gen z:1; }\n"
           "algebra line { gen c1:1; }\n")

# Files the argvs read, written to the working directory of each run.
_FILES = {
    "d2.dgca": _D2,
    "cp2.dgca": "algebra CP2 { gen x:2; gen y:5; d y = x^3; }\n",
    "nonmin.dgca": ("algebra N { gen x:2; gen u:3; gen v:4; gen y:3; "
                    "d u = v; d y = x^2; }\n"),
    "torus.dgca": ("algebra T { gen x:1; gen y:1; gen z:1; }\n"
                   "twist H = x*y*z;\n"
                   "twist R = x;\n"
                   "twist Q = x*y;\n"),
    "mixed.dgca": ("algebra B { gen a:2; gen h:3; gen e:1; }\n"
                   "twist H = h;\n"
                   "twist P = a*h;\n"),
    "mat.dgca": ("algebra P { gen a:2; gen b:2; }\n"
                 "matrix R {\n"
                 "  [0, a, 0, 0];\n"
                 "  [-a, 0, 0, 0];\n"
                 "  [0, 0, 0, b];\n"
                 "  [0, 0, -b, 0];\n"
                 "}\n"),
    "diag.dgca": "algebra P { gen a:2; gen c:2; }\nmatrix F { [a, c]; "
                 "[c, 2*a]; }\n",
    "flat.dgca": _TWO + "morphism F : s -> om { w4 = g4; w7 = g7; }\n",
    "curved.dgca": _TWO + "morphism F : s -> om { w4 = g4; w7 = 2*g7; }\n",
    "ku.dgca": (_KU + "morphism M : tot -> om "
                "{ h3 = H3; f1 = F1; f3 = F3; f5 = F5; }\n"
                "morphism tau : base -> om { h3 = H3; }\n"),
    "ku_bad.dgca": (_KU + "morphism M : tot -> om "
                    "{ h3 = 2*H3; f1 = F1; f3 = 2*F3; f5 = F5; }\n"
                    "morphism tau : base -> om { h3 = H3; }\n"),
    "apart.dgca": (_SADDLE + "morphism F0 : line -> om { c1 = x; }\n"
                   "morphism F1 : line -> om { c1 = y; }\n"),
    "same.dgca": (_SADDLE + "morphism F0 : line -> om { c1 = x; }\n"
                  "morphism F1 : line -> om { c1 = x; }\n"),
    "cyl.dgca": ("algebra om { gen w3:3; }\n"
                 "algebra line { gen c3:3; }\n"
                 "algebra cyl { gen w3:3; gen t0:0; gen dt0:1; "
                 "d t0 = dt0; }\n"
                 "morphism F0 : line -> om { c3 = w3; }\n"
                 "morphism F1 : line -> om { c3 = w3; }\n"
                 "morphism M : line -> cyl { c3 = w3; }\n"),
    "torus2.dgca": "algebra T2 { gen x:1; gen y:1; }\n",
    "syntax.dgca": "algebra A { gen a:2 }",
    "deep.dgca": ("algebra A {\n  gen x:2;\n  gen y:5;\n  d y = "
                  + "(" * 3000 + "x*x*x" + ")" * 3000 + ";\n}\n"),
    "latin1.dgca": "# modèle\nalgebra A { gen x:2; }\n".encode("latin-1"),
}

# Per-model commands of the benchmark's CLI sweep.
_PER_MODEL = (
    ["check"],
    ["cohomology", "--max-degree", "8", "--polybound", "3"],
    ["is-sullivan"],
    ["brackets"],
)

# Every other command on the inline files, each in text and --json.
_FIXTURE_COMMANDS = (
    ["check", "d2.dgca"],
    ["check", "ku.dgca"],
    ["cohomology", "d2.dgca"],
    ["brackets", "d2.dgca"],
    ["minimal-model", "d2.dgca"],
    ["is-sullivan", "d2.dgca"],
    ["is-minimal", "d2.dgca"],
    ["cohomology", "--max-degree", "12", "cp2.dgca"],
    ["minimal-model", "--max-degree", "8", "cp2.dgca"],
    ["is-minimal", "cp2.dgca"],
    ["minimal-model", "--max-degree", "6", "nonmin.dgca"],
    ["is-minimal", "nonmin.dgca"],
    ["is-sullivan", "nonmin.dgca"],
    ["brackets", "torus.dgca"],
    ["twisted-cohomology", "--twist", "H", "torus.dgca"],
    ["twisted-cohomology", "--twist", "R", "torus.dgca"],
    ["twisted-cohomology", "--period", "2", "torus.dgca"],
    ["twisted-cohomology", "--twist", "H", "--max-degree", "7",
     "mixed.dgca"],
    ["twisted-op", "wedge-twist", "R", "--twist", "H", "torus.dgca"],
    ["twisted-op", "wedge-twist", "Q", "--twist", "R", "torus.dgca"],
    ["twisted-op", "wedge-square", "Q", "--twist", "H", "torus.dgca"],
    ["twisted-op", "square-then-twist", "Q", "--twist", "H",
     "torus.dgca"],
    ["twisted-op", "wedge-twist", "P", "--twist", "H", "--max-degree", "9",
     "mixed.dgca"],
    ["chern", "mat.dgca"],
    ["chern", "--max-degree", "4", "diag.dgca"],
    ["pontrjagin", "mat.dgca"],
    ["euler", "mat.dgca"],
    ["i8", "mat.dgca"],
    ["verify-flat", "flat.dgca"],
    ["verify-flat", "curved.dgca"],
    ["verify-twisted", "ku.dgca"],
    ["verify-twisted", "ku_bad.dgca"],
    ["verify-concordance", "apart.dgca"],
    ["verify-concordance", "same.dgca"],
    ["verify-concordance", "cyl.dgca"],
    ["line-quotient", "--max-degree", "1", "torus2.dgca"],
    ["stokes-check", "cp2.dgca"],
    ["stokes-check", "torus.dgca"],
    ["corpus", "s4"],
    ["corpus", "--list"],
)

# Usage and parse errors, as in test_cli.py, plus a few more of the kind.
_ERRORS = [
    ["cohomology", "corpus:interval"],
    ["line-quotient", "corpus:s3"],
    ["twisted-cohomology", "corpus:s3"],
    ["verify-flat", "corpus:s3"],
    ["cohomology", "--max-degree", "-3", "corpus:s4"],
    ["frobnicate", "x"],
    ["corpus", "nope"],
    ["corpus"],
    ["check", "corpus:nope"],
    ["check", "no/such/file.dgca"],
    ["check", "syntax.dgca"],
    ["check", "deep.dgca"],
    ["check", "latin1.dgca"],
    ["cohomology", "corpus:s2", "--out", "missing/x.txt"],
    ["cohomology", "--max-degree", "4", "--json", "--out", "out.json",
     "corpus:s3"],
    ["pontrjagin", "diag.dgca"],
    ["euler", "diag.dgca"],
    ["chern", "torus2.dgca"],
    ["verify-twisted", "flat.dgca"],
    ["verify-concordance", "flat.dgca"],
    ["twisted-cohomology", "--twist", "NOPE", "torus.dgca"],
    ["twisted-cohomology", "--twist", "R", "--period", "2", "torus.dgca"],
    ["twisted-op", "wedge-twist", "NOPE", "--twist", "H", "torus.dgca"],
    ["twisted-op", "wedge-twist", "Q", "--twist", "H", "torus.dgca"],
    ["twisted-op", "wedge-square", "R", "--twist", "H", "torus.dgca"],
    ["twisted-cohomology", "--twist", "H", "mixed.dgca"],
    ["is-sullivan", "mat.dgca", "--polybound"],
]


def _readme_argvs():
    """The argvs of the README's command-line block, in order."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "ratho", line
        argvs.append(words[1:])
    return argvs


def _argvs():
    """Every argv of the transcript, once each, in a fixed order."""
    out = _readme_argvs()
    for name in corpus.names():
        out += [c + ["corpus:" + name] for c in _PER_MODEL]
        out += [c[:1] + ["--json"] + c[1:] + ["corpus:" + name]
                for c in _PER_MODEL]
    for c in _FIXTURE_COMMANDS:
        out += [c, c[:1] + ["--json"] + c[1:]]
    out += _ERRORS
    return [a for i, a in enumerate(out) if a not in out[:i]]


def _write_files(directory):
    for name, content in _FILES.items():
        path = Path(directory) / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")


def _record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _differs(want, got):
    if (want["code"], want["stdout"]) != (got["code"], got["stdout"]):
        return True
    return (want["stderr"].startswith(("error:", "parse error:"))
            and want["stderr"] != got["stderr"])


def test_cli_matches_golden_transcript(tmp_path, monkeypatch):
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))["runs"]
    assert [run["argv"] for run in golden] == _argvs(), \
        "the argv list changed; regenerate the transcript"
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    report = []
    for want in golden:
        got = _record(want["argv"])
        if _differs(want, got):
            report.append(
                "ratho %s\n  exit %d, recorded %d\n  stderr: %r\n"
                "  stdout:\n%s" % (shlex.join(want["argv"]), got["code"],
                                   want["code"], got["stderr"],
                                   got["stdout"]))
    assert not report, "%d argvs differ from the transcript:\n%s" % (
        len(report), "\n".join(report[:5]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        _write_files(work)
        here = os.getcwd()
        os.chdir(work)
        try:
            runs = [_record(argv) for argv in _argvs()]
        finally:
            os.chdir(here)
    _GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(run, ensure_ascii=False) for run in runs]
    _GOLDEN.write_text('{"runs": [\n%s\n]}\n' % ",\n".join(lines),
                       encoding="utf-8")
    print("%d runs written to %s" % (len(runs), _GOLDEN), file=sys.stderr)
