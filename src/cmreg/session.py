"""Input language for the command-line surface: a small statement DSL for
declaring rings, ideals, sequences, modules, and complexes.

Statements end with `;` and `#` starts a comment running to end of line.
Bindings are immutable: declaring a name twice is a parse error.  Parsing
is eager, so every diagnostic carries the line and column of the token
that caused it.

Grammar (EBNF):

    session       = { statement } ;
    statement     = ring-decl | ideal-decl | sequence-decl
                  | module-decl | complex-decl ;
    ring-decl     = "ring" NAME "=" ( "GF" "(" INT ")" "[" names "]"
                                    | NAME "/" NAME ) ";" ;
    ideal-decl    = "ideal" NAME "=" poly { "," poly } ";" ;
    sequence-decl = "sequence" NAME "=" poly { "," poly } ";" ;
    module-decl   = "module" NAME "=" module-expr ";" ;
    module-expr   = "cyclic" "(" NAME [ "," NAME ] ")"
                  | "ideal_module" "(" NAME "," NAME ")"
                  | "coker" "(" NAME "," twists "," matrix ")" ;
    complex-decl  = "complex" NAME "=" complex-expr ";" ;
    complex-expr  = "koszul" "(" NAME "," NAME ")"
                  | "chain" "(" NAME "," twists { "," matrix "," twists } ")" ;
    twists        = "[" [ signed-int { "," signed-int } ] "]" ;
    matrix        = "[" row { "," row } "]" ;
    row           = "[" poly { "," poly } "]" ;

Polynomials use infix `+`, `-`, `*`, `^` with integer literals and the
variables of the governing ring.  Ideal and sequence generators are read
over the most recently declared ring; matrix entries are read over the
ring named in their own expression.  Twist lists hold generator degrees,
so a free rank-one term generated in degree d is written [d].  In
`coker(R, t, m)` the rows of m index the generators (with degrees t) and
the columns are the relations.  In `chain(R, t0, m1, t1, ...)` the twist
lists give the generator degrees of the free terms at spots 0, 1, ...
and matrix i is the differential from spot i to i - 1; the composition
of consecutive differentials must vanish.
"""

from .complexes import free_complex_from_data, koszul_complex
from .freemod import FreeModule, columns_from_rows
from .modules import PresentedModule, module_from_ideal
from .poly import Polynomial
from .rings import polynomial_ring


# Each level of parentheses or unary minus costs the recursive-descent
# parser up to four Python frames; past this depth an expression is
# refused with a position instead of exhausting the interpreter's stack.
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message, line, col):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class UnknownBinding(Exception):
    """A command referenced a session name that does not exist."""


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"<{self.kind} {self.text!r} @{self.line}:{self.col}>"


_PUNCT = set("=,;()[]/+-*^")


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "end of input", line, col))
    return tokens


class Session:
    """Ordered immutable bindings plus canonical source per statement."""

    def __init__(self):
        self.bindings = {}
        self.order = []
        self.statements = []
        self.last_ring = None

    def bind(self, name, kind, value, tok):
        if name in self.bindings:
            raise ParseError(f"name {name!r} is already bound", tok.line,
                             tok.col)
        self.bindings[name] = (kind, value)
        self.order.append(name)

    def get(self, name, kinds=None):
        if name not in self.bindings:
            raise UnknownBinding(f"unknown binding {name!r}")
        kind, value = self.bindings[name]
        if kinds is not None and kind not in kinds:
            raise UnknownBinding(
                f"{name!r} is bound to a {kind}, expected "
                + " or ".join(kinds))
        return value

    def kind_of(self, name):
        if name not in self.bindings:
            raise UnknownBinding(f"unknown binding {name!r}")
        return self.bindings[name][0]

    def render(self):
        return "\n".join(self.statements) + ("\n" if self.statements else "")


class _Parser:
    def __init__(self, tokens, field_override=None):
        self.toks = tokens
        self.pos = 0
        self.session = Session()
        self.field_override = field_override
        self.depth = 0

    # -- token plumbing --------------------------------------------------
    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text):
        tok = self.peek()
        return tok.kind in ("punct", "ident") and tok.text == text

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind=None, text=None, what=None):
        tok = self.peek()
        if (kind and tok.kind != kind) or (text and tok.text != text):
            want = what or (f"'{text}'" if text else kind)
            self.fail(f"expected {want}, found {tok.text!r}")
        return self.advance()

    def name(self):
        return self.expect(kind="ident", what="a name").text

    # -- statements ------------------------------------------------------
    def parse(self):
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in (
                    "ring", "ideal", "sequence", "module", "complex"):
                self.fail("expected a declaration keyword (ring, ideal, "
                          "sequence, module, complex)")
            getattr(self, "decl_" + tok.text)()
        return self.session

    def decl_ring(self):
        self.advance()
        name_tok = self.peek()
        name = self.name()
        self.expect(text="=")
        if self.at("GF"):
            self.advance()
            self.expect(text="(")
            p = int(self.expect(kind="int", what="a prime").text)
            if self.field_override is not None:
                p = self.field_override
            self.expect(text=")")
            self.expect(text="[")
            names = [self.name()]
            while self.at(","):
                self.advance()
                names.append(self.name())
            self.expect(text="]")
            try:
                ring = polynomial_ring(names, p=p)
            except ValueError as e:
                self.fail(str(e), name_tok)
            canon = f"ring {name} = GF({p})[{','.join(names)}];"
            if self.at("/"):
                # one-statement quotient: the ideal must already be bound
                # over a ring with these variables
                self.advance()
                ideal_tok = self.peek()
                iname = self.name()
                gens = self._lookup(iname, "ideal", ideal_tok)
                if gens and gens[0].ring.names != ring.names:
                    self.fail(f"ideal {iname!r} was not declared over a ring "
                              f"with the variables [{','.join(names)}]",
                              ideal_tok)
                ring = self._quotient(ring, gens, ideal_tok)
                canon = (f"ring {name} = GF({p})[{','.join(names)}] "
                         f"/ {iname};")
        else:
            base_tok = self.peek()
            base = self.name()
            self.expect(text="/")
            ideal_tok = self.peek()
            iname = self.name()
            ring0 = self._lookup(base, "ring", base_tok)
            gens = self._lookup(iname, "ideal", ideal_tok)
            if gens and gens[0].ring.names != ring0.names:
                self.fail(f"ideal {iname!r} was not declared over a ring "
                          f"with the variables of {base!r}", ideal_tok)
            ring = self._quotient(ring0, gens, ideal_tok)
            canon = f"ring {name} = {base} / {iname};"
        self.expect(text=";")
        self.session.bind(name, "ring", ring, name_tok)
        self.session.last_ring = ring
        self.session.statements.append(canon)

    def _polylist(self, ring, what):
        polys, canon = [], []
        while True:
            start = self.peek()
            f = self.poly(ring)
            if f.is_zero():
                self.fail(f"zero {what}", start)
            if not f.is_homogeneous():
                self.fail(f"inhomogeneous {what}", start)
            polys.append(f)
            canon.append(str(f))
            if not self.at(","):
                break
            self.advance()
        return polys, canon

    def decl_ideal(self):
        self._decl_polys("ideal", "generator")

    def decl_sequence(self):
        self._decl_polys("sequence", "sequence entry")

    def _decl_polys(self, kw, what):
        self.advance()
        name_tok = self.peek()
        name = self.name()
        self.expect(text="=")
        ring = self.session.last_ring
        if ring is None:
            self.fail("no ring declared yet", name_tok)
        polys, canon = self._polylist(ring, what)
        self.expect(text=";")
        self.session.bind(name, kw, polys, name_tok)
        self.session.statements.append(
            f"{kw} {name} = {', '.join(canon)};")

    def decl_module(self):
        self.advance()
        name_tok = self.peek()
        name = self.name()
        self.expect(text="=")
        head = self.expect(kind="ident",
                           what="cyclic, ideal_module, or coker")
        if head.text == "cyclic":
            self.expect(text="(")
            rtok = self.peek()
            ring = self._lookup(self.name(), "ring", rtok)
            gens, iname = [], None
            if self.at(","):
                self.advance()
                itok = self.peek()
                iname = self.name()
                gens = self._lookup(iname, "ideal", itok)
                gens = self._transfer(gens, ring, itok)
            self.expect(text=")")
            module = PresentedModule.cyclic(ring, gens)
            inner = rtok.text if iname is None else f"{rtok.text}, {iname}"
            canon = f"module {name} = cyclic({inner});"
        elif head.text == "ideal_module":
            self.expect(text="(")
            rtok = self.peek()
            rname = self.name()
            ring = self._lookup(rname, "ring", rtok)
            self.expect(text=",")
            itok = self.peek()
            iname = self.name()
            gens = self._transfer(self._lookup(iname, "ideal", itok),
                                  ring, itok)
            self.expect(text=")")
            module = module_from_ideal(ring, gens)
            canon = f"module {name} = ideal_module({rname}, {iname});"
        elif head.text == "coker":
            self.expect(text="(")
            rtok = self.peek()
            rname = self.name()
            ring = self._lookup(rname, "ring", rtok)
            self.expect(text=",")
            twists = self.twist_list()
            self.expect(text=",")
            mat_tok = self.peek()
            rows = self.matrix(ring)
            self.expect(text=")")
            if len(rows) != len(twists):
                self.fail(f"wrong arity: matrix has {len(rows)} rows but "
                          f"{len(twists)} twists", mat_tok)
            cols = self._columns(rows, mat_tok)
            try:
                module = PresentedModule(ring, FreeModule(ring, twists),
                                         cols)
            except ValueError as e:
                self.fail(str(e), mat_tok)
            canon = (f"module {name} = coker({rname}, "
                     f"{self._render_twists(twists)}, "
                     f"{self._render_matrix(rows)});")
        else:
            self.fail("expected cyclic, ideal_module, or coker", head)
        self.expect(text=";")
        self.session.bind(name, "module", module, name_tok)
        self.session.statements.append(canon)

    def decl_complex(self):
        self.advance()
        name_tok = self.peek()
        name = self.name()
        self.expect(text="=")
        head = self.expect(kind="ident", what="koszul or chain")
        if head.text == "koszul":
            self.expect(text="(")
            stok = self.peek()
            sname = self.name()
            forms = self._lookup(sname, "sequence", stok)
            self.expect(text=",")
            mtok = self.peek()
            mname = self.name()
            module = self._lookup(mname, "module", mtok)
            self.expect(text=")")
            forms = self._transfer(forms, module.ring, stok)
            try:
                cx = koszul_complex(forms, module)
            except ValueError as e:
                self.fail(str(e), stok)
            canon = f"complex {name} = koszul({sname}, {mname});"
        elif head.text == "chain":
            self.expect(text="(")
            rtok = self.peek()
            rname = self.name()
            ring = self._lookup(rname, "ring", rtok)
            self.expect(text=",")
            twists = {0: tuple(self.twist_list())}
            cols = {}
            mats = []
            level = 0
            while self.at(","):
                self.advance()
                level += 1
                mat_tok = self.peek()
                rows = self.matrix(ring)
                self.expect(text=",")
                twists[level] = tuple(self.twist_list())
                if len(rows) != len(twists[level - 1]):
                    self.fail(f"wrong arity: differential {level} has "
                              f"{len(rows)} rows but the spot below has "
                              f"{len(twists[level - 1])} generators",
                              mat_tok)
                cols[level] = self._columns(rows, mat_tok)
                if len(cols[level]) != len(twists[level]):
                    self.fail(f"wrong arity: differential {level} "
                              f"needs {len(twists[level])} columns",
                              mat_tok)
                self._check_graded(twists[level], twists[level - 1], rows,
                                   mat_tok)
                mats.append(rows)
            self.expect(text=")")
            cx = free_complex_from_data(ring, twists, cols)
            if not cx.verify():
                self.fail("differentials do not compose to zero", head)
            parts = [rname, self._render_twists(list(twists[0]))]
            for lv, rows in enumerate(mats, start=1):
                parts.append(self._render_matrix(rows))
                parts.append(self._render_twists(list(twists[lv])))
            canon = f"complex {name} = chain({', '.join(parts)});"
        else:
            self.fail("expected koszul or chain", head)
        self.expect(text=";")
        self.session.bind(name, "complex", cx, name_tok)
        self.session.statements.append(canon)

    # -- shared pieces ---------------------------------------------------
    def _lookup(self, name, kind, tok):
        try:
            return self.session.get(name, (kind,))
        except UnknownBinding as e:
            self.fail(str(e), tok)

    def _quotient(self, ring, gens, tok):
        """ring / (gens), the generators taken as written: reducing them
        modulo ring's own defining ideal would change the quotient's
        defining generators."""
        try:
            _same_field(gens, ring)
            return ring.quotient(
                [Polynomial(ring, dict(g.terms)) for g in gens])
        except ValueError as e:
            self.fail(str(e), tok)

    def _transfer(self, polys, ring, tok):
        try:
            return transfer_polys(polys, ring)
        except ValueError as e:
            self.fail(str(e), tok)

    def _columns(self, rows, tok):
        try:
            return columns_from_rows(rows, len(rows[0]))
        except ValueError:
            self.fail("ragged matrix", tok)

    def _check_graded(self, src_twists, tgt_twists, rows, tok):
        for c in range(len(src_twists)):
            for r, row in enumerate(rows):
                f = row[c]
                if f.is_zero():
                    continue
                if not f.is_homogeneous():
                    self.fail("inhomogeneous matrix entry", tok)
                if f.homogeneous_degree() + tgt_twists[r] != src_twists[c]:
                    self.fail(f"entry at row {r}, column {c} does not "
                              "respect the declared twists", tok)

    def twist_list(self):
        self.expect(text="[")
        out = []
        if not self.at("]"):
            out.append(self.signed_int())
            while self.at(","):
                self.advance()
                out.append(self.signed_int())
        self.expect(text="]")
        return out

    def signed_int(self):
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        return sign * int(self.expect(kind="int", what="an integer").text)

    def matrix(self, ring):
        self.expect(text="[")
        rows = [self.matrix_row(ring)]
        while self.at(","):
            self.advance()
            rows.append(self.matrix_row(ring))
        self.expect(text="]")
        return rows

    def matrix_row(self, ring):
        self.expect(text="[")
        row = [self.poly(ring)]
        while self.at(","):
            self.advance()
            row.append(self.poly(ring))
        self.expect(text="]")
        return row

    @staticmethod
    def _render_twists(twists):
        return "[" + ", ".join(str(t) for t in twists) + "]"

    @staticmethod
    def _render_matrix(rows):
        inner = ", ".join(
            "[" + ", ".join(str(f) for f in row) + "]" for row in rows)
        return "[" + inner + "]"

    # -- polynomial expressions ------------------------------------------
    def poly(self, ring):
        node = self.term(ring)
        while self.at("+") or self.at("-"):
            op = self.advance().text
            rhs = self.term(ring)
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self, ring):
        node = self.power(ring)
        while self.at("*"):
            self.advance()
            node = node * self.power(ring)
        return node

    def power(self, ring):
        base = self.atom(ring)
        if self.at("^"):
            self.advance()
            e = int(self.expect(kind="int", what="an exponent").text)
            base = base ** e
        return base

    def atom(self, ring):
        tok = self.peek()
        if self.at("-") or self.at("("):
            return self.nested(ring)
        if tok.kind == "int":
            self.advance()
            return ring.constant(int(tok.text))
        if tok.kind == "ident":
            if tok.text in ring.names:
                self.advance()
                i = ring.names.index(tok.text)
                return ring.monomial(
                    tuple(1 if j == i else 0 for j in range(ring.nvars)))
            self.fail(f"unknown identifier {tok.text!r} (not a variable "
                      f"of {ring})")
        self.fail(f"expected a polynomial, found {tok.text!r}")

    def nested(self, ring):
        """A negation or a parenthesized expression, at most MAX_NESTING
        deep."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        if self.advance().text == "-":
            node = -self.power(ring)
        else:
            node = self.poly(ring)
            self.expect(text=")")
        self.depth -= 1
        return node


def _same_field(polys, ring):
    """Polynomials move between rings over one field only: coefficients
    taken from GF(7) into GF(5) would stay unreduced there."""
    for f in polys:
        if f.ring.field != ring.field:
            raise ValueError(f"polynomials declared over {f.ring.field} "
                             f"cannot be read over {ring.field}")


def transfer_polys(polys, ring):
    """Re-read polynomials over the ring that will consume them."""
    _same_field(polys, ring)
    out = []
    for f in polys:
        if f.ring is ring:
            out.append(f)
        elif f.ring.names == ring.names:
            out.append(ring.reduce(Polynomial(ring, dict(f.terms))))
        else:
            raise ValueError("polynomials were declared over a ring with "
                             "different variables")
    return out


def parse_session(text, field_override=None):
    return _Parser(tokenize(text), field_override).parse()


def parse_polynomial(text, ring):
    """One polynomial expression, for command-line flags like --form."""
    parser = _Parser(tokenize(text))
    f = parser.poly(ring)
    if parser.peek().kind != "eof":
        parser.fail("trailing input after the polynomial")
    return ring.reduce(f)
