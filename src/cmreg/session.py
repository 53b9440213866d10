"""Input language for the command-line surface: a small statement DSL for
declaring rings, ideals, sequences, modules, and complexes.

Statements end with `;` and `#` starts a comment running to end of line.
Bindings are immutable: declaring a name twice is a parse error.  Parsing
is eager, so every diagnostic carries the line and column of the token
that caused it.  A Session keeps the bound values, not their source.

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

Polynomials use infix `+`, `-`, `*`, `^` with integer literals (ASCII
digits) and the variables of the governing ring; a product or power with
an exponent past 65535 is refused at its `*` or `^`.  Ideal and sequence
generators are read over the most recently declared ring; matrix entries
are read over the ring named in their own expression.  Twist lists hold
generator degrees, so a free rank-one term generated in degree d is
written [d].  In `coker(R, t, m)` the rows of m index the generators
(with degrees t) and the columns are the relations.  In
`chain(R, t0, m1, t1, ...)` the twist lists give the generator degrees of
the free terms at spots 0, 1, ... and matrix i is the differential from
spot i to i - 1; the composition of consecutive differentials must vanish.
"""

import sys
from operator import mul

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
# str.isdigit also holds for digits that int() refuses, such as '²'
_DIGITS = frozenset("0123456789")


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
    """Ordered immutable bindings: name -> (kind, value)."""

    def __init__(self):
        self.bindings = {}
        self.order = []

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


_KINDS = ("ring", "ideal", "sequence", "module", "complex")


class _Parser:
    def __init__(self, tokens, field_override=None):
        self.toks = tokens
        self.pos = 0
        self.session = Session()
        self.field_override = field_override
        self.ring = None  # the last declared ring, for ideals and sequences
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
        return self.expect(kind="ident", what="a name")

    def items(self, item, open=None, close=None):
        """item { "," item }, between open and close when they are given."""
        if open:
            self.expect(text=open)
        out = [item()]
        while self.at(","):
            self.advance()
            out.append(item())
        if close:
            self.expect(text=close)
        return out

    # -- statements ------------------------------------------------------
    def parse(self):
        """Each statement is KIND NAME "=" value ";", the value read by
        decl_KIND; the name is bound once the whole statement is read."""
        while self.peek().kind != "eof":
            kw = self.peek()
            if kw.kind != "ident" or kw.text not in _KINDS:
                self.fail("expected a declaration keyword (ring, ideal, "
                          "sequence, module, complex)")
            self.advance()
            name_tok = self.name()
            self.expect(text="=")
            value = getattr(self, "decl_" + kw.text)(name_tok)
            self.expect(text=";")
            self.session.bind(name_tok.text, kw.text, value, name_tok)
            if kw.text == "ring":
                self.ring = value
        return self.session

    def decl_ring(self, name_tok):
        if self.at("GF"):
            self.advance()
            self.expect(text="(")
            p = self.integer("a prime")
            if self.field_override is not None:
                p = self.field_override
            self.expect(text=")")
            names = [t.text for t in self.items(self.name, "[", "]")]
            ring = self._at(name_tok, polynomial_ring, names, p)
            if not self.at("/"):
                return ring
            over = f"the variables [{','.join(names)}]"
        else:
            base_tok = self.name()
            ring, over = None, f"the variables of {base_tok.text!r}"
        self.expect(text="/")
        ideal_tok = self.name()
        if ring is None:  # a named base is looked up after the ideal name
            ring = self._lookup(base_tok, "ring")
        gens = self._lookup(ideal_tok, "ideal")
        if gens and gens[0].ring.names != ring.names:
            self.fail(f"ideal {ideal_tok.text!r} was not declared over a "
                      f"ring with {over}", ideal_tok)
        return self._at(ideal_tok, _quotient, ring, gens)

    def decl_ideal(self, name_tok):
        return self._forms(name_tok, "generator")

    def decl_sequence(self, name_tok):
        return self._forms(name_tok, "sequence entry")

    def _forms(self, name_tok, what):
        """Nonzero homogeneous polynomials over the last declared ring."""
        ring = self.ring
        if ring is None:
            self.fail("no ring declared yet", name_tok)

        def form():
            start = self.peek()
            f = self.poly(ring)
            if f.is_zero():
                self.fail(f"zero {what}", start)
            if not f.is_homogeneous():
                self.fail(f"inhomogeneous {what}", start)
            return f
        return self.items(form)

    def decl_module(self, name_tok):
        head = self.expect(kind="ident",
                           what="cyclic, ideal_module, or coker")
        if head.text not in ("cyclic", "ideal_module", "coker"):
            self.fail("expected cyclic, ideal_module, or coker", head)
        self.expect(text="(")
        ring, _ = self.ref("ring")
        if head.text == "coker":
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
            return self._at(mat_tok, PresentedModule, ring,
                            FreeModule(ring, twists), cols)
        gens = []  # the ideal is optional in cyclic, required in ideal_module
        if head.text == "ideal_module" or self.at(","):
            self.expect(text=",")
            gens, itok = self.ref("ideal")
            gens = self._at(itok, transfer_polys, gens, ring)
        self.expect(text=")")
        if head.text == "cyclic":
            return PresentedModule.cyclic(ring, gens)
        return module_from_ideal(ring, gens)

    def decl_complex(self, name_tok):
        head = self.expect(kind="ident", what="koszul or chain")
        if head.text not in ("koszul", "chain"):
            self.fail("expected koszul or chain", head)
        self.expect(text="(")
        if head.text == "koszul":
            forms, stok = self.ref("sequence")
            self.expect(text=",")
            module, _ = self.ref("module")
            self.expect(text=")")
            forms = self._at(stok, transfer_polys, forms, module.ring)
            return self._at(stok, koszul_complex, forms, module)
        ring, _ = self.ref("ring")
        self.expect(text=",")
        twists = {0: tuple(self.twist_list())}
        cols = {}
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
                          f"{len(twists[level - 1])} generators", mat_tok)
            cols[level] = self._columns(rows, mat_tok)
            if len(cols[level]) != len(twists[level]):
                self.fail(f"wrong arity: differential {level} "
                          f"needs {len(twists[level])} columns", mat_tok)
            self._check_graded(twists[level], twists[level - 1], rows,
                               mat_tok)
        self.expect(text=")")
        cx = free_complex_from_data(ring, twists, cols)
        if not self._at(head, cx.verify):
            self.fail("differentials do not compose to zero", head)
        return cx

    # -- shared pieces ---------------------------------------------------
    def _at(self, tok, build, *args):
        """build(*args), with a refusal from the layers below (a modulus
        that is not prime, a missing binding, an exponent past
        poly.EXPONENT_CAP, ...) reported at tok."""
        try:
            return build(*args)
        except (ValueError, OverflowError, UnknownBinding) as e:
            self.fail(str(e), tok)

    def _lookup(self, tok, kind):
        return self._at(tok, self.session.get, tok.text, (kind,))

    def ref(self, kind):
        """The value of a name bound to a `kind`, and the naming token."""
        tok = self.name()
        return self._lookup(tok, kind), tok

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
        """Generator degrees; only a twist list may be empty."""
        self.expect(text="[")
        if self.at("]"):
            self.advance()
            return []
        return self.items(self.signed_int, close="]")

    def signed_int(self):
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        return sign * self.integer("an integer")

    def integer(self, what):
        """The next token, an int, as an int.  Python refuses to convert
        a literal past its digit limit (sys.get_int_max_str_digits), and
        that refusal is reported at the literal."""
        tok = self.expect(kind="int", what=what)
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"integer literal of {len(tok.text)} digits is too long "
                      f"(at most {sys.get_int_max_str_digits()})", tok)

    def matrix(self, ring):
        def row():
            return self.items(lambda: self.poly(ring), "[", "]")
        return self.items(row, "[", "]")

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
            op = self.advance()
            node = self._at(op, mul, node, self.power(ring))
        return node

    def power(self, ring):
        base = self.atom(ring)
        if self.at("^"):
            op = self.advance()
            e = self.integer("an exponent")
            base = self._at(op, pow, base, e)
        return base

    def atom(self, ring):
        tok = self.peek()
        if self.at("-") or self.at("("):
            return self.nested(ring)
        if tok.kind == "int":
            return ring.constant(self.integer("an integer"))
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


def _quotient(ring, gens):
    """ring / (gens), the generators taken as written: reducing them
    modulo ring's own defining ideal would change the quotient's defining
    generators."""
    _same_field(gens, ring)
    return ring.quotient([Polynomial(ring, dict(g.terms)) for g in gens])


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
