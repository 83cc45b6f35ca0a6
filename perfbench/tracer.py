"""Spans and counts around ratho's layer boundaries, installed from outside.

The tracer wraps the public functions listed in LAYERS and rebinds every
module attribute that refers to one of them, so a name imported elsewhere
(``apply_d`` in twisted_derham, ``parse`` in cli.main) is traced as well.
Uninstalling restores the originals, so untraced passes pay nothing.

``normalize_product`` and ``Fraction`` arithmetic are deliberately left
unwrapped: they run millions of times and a wrapper would swamp them.
Their work shows up as self time of the layer that calls them, and the
``Polynomial.mul`` wrapper counts the term pairs it multiplies.
"""

import importlib
import json
import sys
import time


def _rref(counts, args, kwargs, result):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    counts["cells"] += cells
    counts["nnz"] += sum(1 for row in rows for x in row if x)


def _echelon_add(counts, args, kwargs, result):
    counts["useful"] += any(result)


def _poly_mul(counts, args, kwargs, result):
    left, right = args
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    counts["term_pairs"] += len(left.terms) * right_terms
    counts["out_terms"] += len(result.terms)


def _basis(counts, args, kwargs, result):
    counts["monomials"] += len(result)


def _apply_d(counts, args, kwargs, result):
    counts["in_terms"] += len(args[1].terms)


def _minimal_model(counts, args, kwargs, result):
    counts["generators"] += len(result.model.gens)


def _quotient(counts, args, kwargs, result):
    counts["concordances"] += result.concordances
    counts["refusals"] += result.refusals


def _decide(counts, args, kwargs, result):
    counts["concordances"] += result is not None
    counts["refusals"] += result is None


# (metric prefix, module, attribute path, extra counter names, counter hook)
LAYERS = (
    ("linalg.rref", "ratho._linalg", "rref", ("cells", "nnz"), _rref),
    ("linalg.nullspace", "ratho._linalg", "nullspace", (), None),
    ("linalg.solve", "ratho._linalg", "solve", (), None),
    ("linalg.Echelon.add", "ratho._linalg", "Echelon.add", ("useful",),
     _echelon_add),
    ("linalg.Echelon.reduce", "ratho._linalg", "Echelon.reduce", (), None),
    ("linalg.intersect_with_coordinate_subspace", "ratho._linalg",
     "intersect_with_coordinate_subspace", (), None),
    ("core_algebra.Polynomial.mul", "ratho.core_algebra",
     "Polynomial.__mul__", ("term_pairs", "out_terms"), _poly_mul),
    ("core_algebra.Polynomial.add", "ratho.core_algebra",
     "Polynomial.__add__", (), None),
    ("core_algebra.apply_morphism", "ratho.core_algebra", "apply_morphism",
     (), None),
    ("core_algebra.basis_of_degree", "ratho.core_algebra", "basis_of_degree",
     ("monomials",), _basis),
    ("dgca.apply_d", "ratho.dgca", "apply_d", ("in_terms",), _apply_d),
    ("dgca.cohomology", "ratho.dgca", "cohomology", (), None),
    ("dgca.is_exact", "ratho.dgca", "is_exact", (), None),
    ("dgca.is_quasi_iso", "ratho.dgca", "is_quasi_iso", (), None),
    ("twisted_derham.twisted_cohomology", "ratho.twisted_derham",
     "twisted_cohomology", (), None),
    ("twisted_derham.twisted_is_exact", "ratho.twisted_derham",
     "twisted_is_exact", (), None),
    ("twisted_derham.twisted_d", "ratho.twisted_derham", "twisted_d", (),
     None),
    ("minimal_model.minimal_model", "ratho.minimal_model", "minimal_model",
     ("generators",), _minimal_model),
    ("chern_weil.chern_character", "ratho.chern_weil", "chern_character", (),
     None),
    ("chern_weil.chern_forms", "ratho.chern_weil", "chern_forms", (), None),
    ("simplicial_forms.fiber_integrate", "ratho.simplicial_forms",
     "fiber_integrate", (), None),
    ("simplicial_forms.check_stokes", "ratho.simplicial_forms",
     "check_stokes", (), None),
    ("character.line_quotient", "ratho.character", "line_quotient",
     ("concordances", "refusals"), _quotient),
    ("character.twisted_ku_quotient", "ratho.character",
     "twisted_ku_quotient", ("concordances", "refusals"), _quotient),
    ("character.verify_concordance", "ratho.character", "verify_concordance",
     (), None),
    ("character.decide_concordance", "ratho.character", "decide_concordance",
     ("concordances", "refusals"), _decide),
    ("cli.main", "ratho.cli.main", "main", (), None),
    ("cli.corpus.load", "ratho.cli.corpus", "load", (), None),
    ("cli.parser.parse", "ratho.cli.parser", "parse", (), None),
)

# Spans beyond this many are counted but not kept, to bound memory.
MAX_SPANS = 200_000


class Tracer:
    """Per-layer calls, self time and counters, plus a bounded span log.

    Self time is a span's duration minus the durations of the wrapped
    spans directly inside it.  Calls run on one thread, so the stack of
    open spans is the causal chain.
    """

    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0,
                             **{c: 0 for c in extra}}
                      for name, _, _, extra, _ in LAYERS}
        self.spans = []
        self.dropped_spans = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - frame[0]
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, name, start, end, parent))
                else:
                    self.dropped_spans += 1
            if hook is not None:
                hook(stats, args, kwargs, result)
                if stack:
                    # counting is tracer work: charge it to no layer
                    stack[-1][0] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer and rebind each module name that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == "ratho" or n.startswith("ratho."))]
        for name, module_name, path, _, hook in LAYERS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hook)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner_path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, passes):
        """Per-pass layer metrics as {name: {"value", "unit"}}."""
        out = {}
        for name, _, _, extra, _ in LAYERS:
            s = self.stats[name]
            out[name + ".calls"] = {"value": s["calls"] / passes,
                                    "unit": "count"}
            out[name + ".self_s"] = {"value": s["self_s"] / passes,
                                     "unit": "s"}
            if name == "linalg.rref":
                out[name + ".cells"] = {"value": s["cells"] / passes,
                                        "unit": "count"}
                out[name + ".nnz_frac"] = {
                    "value": s["nnz"] / s["cells"] if s["cells"] else 0.0,
                    "unit": "ratio"}
            elif name == "linalg.Echelon.add":
                out[name + ".useful_frac"] = {
                    "value": s["useful"] / s["calls"] if s["calls"] else 0.0,
                    "unit": "ratio"}
            else:
                for c in extra:
                    out["%s.%s" % (name, c)] = {"value": s[c] / passes,
                                                "unit": "count"}
        return out

    def write(self, path, header):
        """Header line, one line per kept span, then the per-layer totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped_spans=self.dropped_spans)) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"stats": self.stats}) + "\n")
