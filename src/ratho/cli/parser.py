"""Model-description language: parser, semantic checks, canonical printer.

A model file is a sequence of declarations:

    algebra NAME { gen NAME:INT; d NAME = expr; ... }
    morphism NAME : SOURCE -> TARGET { NAME = expr; ... }
    matrix NAME : ALGEBRA { [expr, expr, ...]; ... }
    twist NAME : ALGEBRA = expr;

Expressions are rational-linear combinations of generator products, with
`*` for the product, `^` for integer powers of even generators, and
parentheses.  Rationals are written p/q; no decimals.  `#` starts a
comment running to the end of the line.  The `: ALGEBRA` qualifier on
matrix and twist declarations may be omitted when the file declares
exactly one algebra.

Semantic rules enforced at parse time: generator names resolve inside
their block's algebra, differentials and morphism images must be
degree-homogeneous of the right degree, a generator named `d` is
reserved, and a literal square of an odd generator (`x*x` or `x^2`) is
rejected rather than silently normalized to zero.  Parentheses nest at
most MAX_NESTING deep, so hostile input cannot exhaust the recursion of
the descent parser.  Errors carry line:column positions.

parse -> print -> parse is the identity on the abstract form.
"""

from fractions import Fraction

from ..core_algebra import AlgebraMorphism, GeneratorSet
from ..dgca import DGCA

# each level costs three frames of parse_expr/_term/_factor recursion
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "name", "int", "sym", "eof"
        self.value = value
        self.line = line
        self.col = col


def _lex(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and text.startswith("->", i):
            tokens.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer too long", line, col) from None
            tokens.append(_Token("int", value, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch in "{};:=*^+-()[],/":
            tokens.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class MorphismDecl:
    def __init__(self, name, source, target, morphism):
        self.name = name
        self.source = source
        self.target = target
        self.morphism = morphism

    def __eq__(self, other):
        return (isinstance(other, MorphismDecl) and self.name == other.name
                and self.source == other.source and self.target == other.target
                and self.morphism.assignment == other.morphism.assignment)


class MatrixDecl:
    def __init__(self, name, algebra, rows):
        self.name = name
        self.algebra = algebra
        self.rows = rows

    def __eq__(self, other):
        return (isinstance(other, MatrixDecl) and self.name == other.name
                and self.algebra == other.algebra and self.rows == other.rows)


class TwistDecl:
    def __init__(self, name, algebra, form):
        self.name = name
        self.algebra = algebra
        self.form = form

    def __eq__(self, other):
        return (isinstance(other, TwistDecl) and self.name == other.name
                and self.algebra == other.algebra and self.form == other.form)


class ModelFile:
    """Parsed declarations, keyed by name, in declaration order."""

    def __init__(self):
        self.algebras = {}
        self.morphisms = {}
        self.matrices = {}
        self.twists = {}
        self.order = []

    def first_algebra(self):
        for kind, name in self.order:
            if kind == "algebra":
                return name, self.algebras[name]
        return None, None

    def __eq__(self, other):
        if not isinstance(other, ModelFile):
            return NotImplemented
        return (self.order == other.order
                and self.algebras == other.algebras
                and self.morphisms == other.morphisms
                and self.matrices == other.matrices
                and self.twists == other.twists)


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym):
        t = self.peek()
        if t.kind != "sym" or t.value != sym:
            self.error("expected %r" % sym)
        return self.next()

    def expect_name(self, what="name"):
        t = self.peek()
        if t.kind != "name":
            self.error("expected %s" % what)
        return self.next()

    def expect_int(self):
        t = self.peek()
        if t.kind != "int":
            self.error("expected an integer")
        return self.next()

    def at_sym(self, sym):
        t = self.peek()
        return t.kind == "sym" and t.value == sym

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, gens):
        value, _ = self._term(gens)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().value
            rhs, _ = self._term(gens)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, gens):
        negate = False
        while self.at_sym("+") or self.at_sym("-"):
            if self.next().value == "-":
                negate = not negate
        value, odd = self._factor(gens)
        while self.at_sym("*"):
            self.next()
            tok = self.peek()
            rhs, rodd = self._factor(gens)
            clash = odd & rodd
            if clash:
                self.error("odd generator %r squared" % sorted(clash)[0], tok)
            odd |= rodd
            value = value * rhs
        return (-value if negate else value), odd

    def _factor(self, gens):
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = t.value
            if self.at_sym("/"):
                self.next()
                den = self.expect_int().value
                if den == 0:
                    self.error("zero denominator", t)
                return gens.constant(Fraction(num, den)), set()
            return gens.constant(num), set()
        if t.kind == "name":
            self.next()
            if t.value not in gens.index:
                self.error("unknown generator %r" % t.value, t)
            odd = gens.degree_of(t.value) % 2 == 1
            if self.at_sym("^"):
                caret = self.next()
                e = self.expect_int().value
                if odd:
                    self.error("power on odd generator %r" % t.value, caret)
                return gens.monomial({t.value: e}), set()
            return gens.gen(t.value), ({t.value} if odd else set())
        if self.at_sym("("):
            if self.depth == MAX_NESTING:
                self.error("parentheses nested deeper than %d" % MAX_NESTING)
            self.depth += 1
            self.next()
            value = self.parse_expr(gens)
            self.expect_sym(")")
            self.depth -= 1
            if self.at_sym("^"):
                self.error("power applies to generators only")
            return value, set()
        self.error("expected a generator, number, or parenthesized expression")

    # -- declarations --------------------------------------------------------

    def parse_file(self):
        mf = ModelFile()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name":
                self.error("expected a declaration")
            if t.value == "algebra":
                self._algebra(mf)
            elif t.value == "morphism":
                self._morphism(mf)
            elif t.value == "matrix":
                self._matrix(mf)
            elif t.value == "twist":
                self._twist(mf)
            else:
                self.error("unknown declaration %r" % t.value)
        return mf

    def _declare(self, mf, kind, name, tok):
        if name in mf.algebras or name in mf.morphisms \
                or name in mf.matrices or name in mf.twists:
            self.error("name %r already declared" % name, tok)
        mf.order.append((kind, name))

    def _algebra(self, mf):
        self.next()
        name_tok = self.expect_name("algebra name")
        self._declare(mf, "algebra", name_tok.value, name_tok)
        self.expect_sym("{")
        pairs = []
        deqs = []
        while not self.at_sym("}"):
            t = self.peek()
            if t.kind != "name":
                self.error("expected 'gen' or 'd'")
            if t.value == "gen":
                self.next()
                g = self.expect_name("generator name")
                if g.value == "d":
                    self.error("generator name 'd' is reserved", g)
                if any(g.value == n for n, _ in pairs):
                    self.error("generator %r already declared" % g.value, g)
                self.expect_sym(":")
                deg = self.expect_int()
                if deg.value < 0:
                    self.error("negative degree", deg)
                pairs.append((g.value, deg.value))
                self.expect_sym(";")
            elif t.value == "d":
                self.next()
                g = self.expect_name("generator name")
                self.expect_sym("=")
                deqs.append((g, self.pos))
                # skip the expression for now; evaluated once gens are known
                depth = 0
                while not (depth == 0 and self.at_sym(";")):
                    tok = self.peek()
                    if tok.kind == "eof":
                        self.error("unterminated differential equation", tok)
                    if tok.kind == "sym" and tok.value == "(":
                        depth += 1
                    if tok.kind == "sym" and tok.value == ")":
                        depth -= 1
                    self.next()
                self.expect_sym(";")
            else:
                self.error("expected 'gen' or 'd'")
        self.expect_sym("}")
        gens = GeneratorSet(pairs)
        d = {}
        end = self.pos
        for g, expr_pos in deqs:
            if g.value not in gens.index:
                self.error("unknown generator %r" % g.value, g)
            if g.value in d:
                self.error("differential of %r already given" % g.value, g)
            self.pos = expr_pos
            value = self.parse_expr(gens)
            if not self.at_sym(";"):
                self.error("expected ';'")
            if not value.is_zero():
                want = gens.degree_of(g.value) + 1
                if not value.is_homogeneous() or value.degree() != want:
                    self.error("d %s must be homogeneous of degree %d"
                               % (g.value, want), g)
                d[g.value] = value
        self.pos = end
        try:
            mf.algebras[name_tok.value] = DGCA(gens, d)
        except ValueError as e:
            self.error(str(e), name_tok)

    def _morphism(self, mf):
        self.next()
        name_tok = self.expect_name("morphism name")
        self._declare(mf, "morphism", name_tok.value, name_tok)
        self.expect_sym(":")
        src_tok = self.expect_name("source algebra")
        self.expect_sym("->")
        tgt_tok = self.expect_name("target algebra")
        if src_tok.value not in mf.algebras:
            self.error("unknown algebra %r" % src_tok.value, src_tok)
        if tgt_tok.value not in mf.algebras:
            self.error("unknown algebra %r" % tgt_tok.value, tgt_tok)
        source = mf.algebras[src_tok.value]
        target = mf.algebras[tgt_tok.value]
        self.expect_sym("{")
        assignment = {}
        while not self.at_sym("}"):
            g = self.expect_name("source generator")
            if g.value not in source.gens.index:
                self.error("unknown generator %r" % g.value, g)
            if g.value in assignment:
                self.error("image of %r already given" % g.value, g)
            self.expect_sym("=")
            assignment[g.value] = self.parse_expr(target.gens)
            self.expect_sym(";")
        close = self.expect_sym("}")
        missing = [n for n in source.gens.names if n not in assignment]
        if missing:
            self.error("missing image for generator %r" % missing[0], close)
        try:
            morphism = AlgebraMorphism(source, target, assignment)
        except ValueError as e:
            self.error(str(e), name_tok)
        mf.morphisms[name_tok.value] = MorphismDecl(
            name_tok.value, src_tok.value, tgt_tok.value, morphism)

    def _qualifier(self, mf, what):
        """': ALGEBRA', defaulting to the unique algebra when omitted."""
        if self.at_sym(":"):
            self.next()
            t = self.expect_name("algebra name")
            if t.value not in mf.algebras:
                self.error("unknown algebra %r" % t.value, t)
            return t.value
        if len(mf.algebras) == 1:
            return next(iter(mf.algebras))
        self.error("%s needs ': ALGEBRA' when several algebras are declared"
                   % what)

    def _matrix(self, mf):
        self.next()
        name_tok = self.expect_name("matrix name")
        self._declare(mf, "matrix", name_tok.value, name_tok)
        algebra = self._qualifier(mf, "matrix")
        gens = mf.algebras[algebra].gens
        self.expect_sym("{")
        rows = []
        while not self.at_sym("}"):
            open_tok = self.expect_sym("[")
            row = [self.parse_expr(gens)]
            while self.at_sym(","):
                self.next()
                row.append(self.parse_expr(gens))
            self.expect_sym("]")
            self.expect_sym(";")
            if rows and len(row) != len(rows[0]):
                self.error("ragged matrix row", open_tok)
            rows.append(row)
        self.expect_sym("}")
        if not rows:
            self.error("empty matrix", name_tok)
        mf.matrices[name_tok.value] = MatrixDecl(name_tok.value, algebra, rows)

    def _twist(self, mf):
        self.next()
        name_tok = self.expect_name("twist name")
        self._declare(mf, "twist", name_tok.value, name_tok)
        algebra = self._qualifier(mf, "twist")
        self.expect_sym("=")
        form = self.parse_expr(mf.algebras[algebra].gens)
        self.expect_sym(";")
        mf.twists[name_tok.value] = TwistDecl(name_tok.value, algebra, form)


def parse(text):
    """Parse model text; ParseError carries line:col on any failure."""
    return _Parser(text).parse_file()


def print_model(mf):
    """Canonical text form; parse(print_model(mf)) == mf."""
    out = []
    for kind, name in mf.order:
        if kind == "algebra":
            A = mf.algebras[name]
            out.append("algebra %s {" % name)
            for n, deg in zip(A.gens.names, A.gens.degrees):
                out.append("  gen %s:%d;" % (n, deg))
            for n in A.gens.names:
                if not A.d[n].is_zero():
                    out.append("  d %s = %s;" % (n, A.d[n]))
            out.append("}")
        elif kind == "morphism":
            m = mf.morphisms[name]
            out.append("morphism %s : %s -> %s {" % (name, m.source, m.target))
            src = mf.algebras[m.source]
            for n in src.gens.names:
                out.append("  %s = %s;" % (n, m.morphism.assignment[n]))
            out.append("}")
        elif kind == "matrix":
            m = mf.matrices[name]
            out.append("matrix %s : %s {" % (name, m.algebra))
            for row in m.rows:
                out.append("  [%s];" % ", ".join(str(e) for e in row))
            out.append("}")
        else:
            t = mf.twists[name]
            out.append("twist %s : %s = %s;" % (name, t.algebra, t.form))
    return "\n".join(out) + "\n"
