import sys

import pytest

from cmreg import (ParseError, Session, UnknownBinding, parse_polynomial,
                   parse_session, polynomial_ring)
from cmreg.poly import EXPONENT_CAP
from cmreg.session import MAX_NESTING, tokenize, transfer_polys

GOOD = """
# two rings and some objects
ring S = GF(32003)[x, y, z, t];
ideal I = x^2, x*z, x*t - y*z;
ring R = S / I;
module M = cyclic(R);
sequence zz = z;
complex K = koszul(zz, M);
"""


S7 = "ring S = GF(7)[x, y];\n"
CROSS = S7 + "ideal I = x^2 + 5*y^2;\n"
ALIEN = S7 + "ideal I = x;\nring C = GF(7)[u, v];\n"


def test_parse_binds_in_order():
    s = parse_session(GOOD)
    assert [(n, s.kind_of(n)) for n in s.order] == [
        ("S", "ring"), ("I", "ideal"), ("R", "ring"),
        ("M", "module"), ("zz", "sequence"), ("K", "complex")]


def test_comments_and_blank_lines_ignored():
    s = parse_session("# nothing\n\nring A = GF(7)[u];\n# trailing\n")
    assert s.kind_of("A") == "ring"


def test_rebinding_rejected():
    with pytest.raises(ParseError) as ei:
        parse_session("ring A = GF(7)[x];\nring A = GF(7)[y];")
    assert "A" in str(ei.value)


def test_unknown_binding_raises():
    s = parse_session("ring A = GF(7)[x];")
    with pytest.raises(UnknownBinding):
        s.get("missing", ("module",))


def test_wrong_kind_rejected():
    s = parse_session("ring A = GF(7)[x];")
    with pytest.raises(UnknownBinding):
        s.get("A", ("module",))


@pytest.mark.parametrize("text,fragment,line", [
    ("ring A = GF(7)[x y];", "expected", 1),
    ("module M = cyclic(R);", "unknown", 1),
    ("ring A = GF(7)[x];\nideal I = x + x^2;", "inhomogeneous", 2),
    ("ring A = GF(7)[x];\nideal I = x - x;", "zero", 2),
    ("ring A = GF(7)[x];\nideal I = y;", "unknown identifier", 2),
    ("ideal I = x;", "no ring", 1),
    ("ring A = GF(4)[x];", "prime", 1),
    ("ring A = GF(7)[x];\nmodule M = coker(A, [0], [[x], [x]]);", "row", 2),
])
def test_diagnostics_carry_position(text, fragment, line):
    with pytest.raises(ParseError) as ei:
        parse_session(text)
    assert fragment in str(ei.value)
    assert ei.value.line == line


def test_field_override_changes_prime():
    s = parse_session("ring A = GF(32003)[x, y];", field_override=101)
    ring = s.get("A", ("ring",))
    assert ring.field.p == 101


def test_coker_module_construction():
    s = parse_session("""
ring S = GF(32003)[x, y, z];
module M = coker(S, [0, 1], [[x, y^2], [1, z]]);
""")
    M = s.get("M", ("module",))
    assert M.rank == 2


def test_chain_complex_construction_and_verify():
    s = parse_session("""
ring S = GF(32003)[x, y];
complex C = chain(S, [0], [[x]], [1]);
""")
    C = s.get("C", ("complex",))
    assert C.verify()


def test_chain_rejects_nonzero_composition():
    with pytest.raises(ParseError) as ei:
        parse_session("""
ring S = GF(32003)[x, y];
complex C = chain(S, [0], [[x]], [1], [[x]], [2]);
""")
    assert "compose" in str(ei.value)


@pytest.mark.parametrize("decl, col", [
    ("module M = coker(S, [0, 0], [[x, y], [z]]);", 29),
    ("complex C = chain(S, [0, 0], [[x, y], [y]], [1, 1]);", 30),
])
def test_ragged_matrix_is_refused_at_the_matrix(decl, col):
    with pytest.raises(ParseError) as ei:
        parse_session("ring S = GF(32003)[x, y, z];\n" + decl)
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        "ragged matrix", 2, col)


def test_chain_rejects_degree_mismatch():
    with pytest.raises(ParseError):
        parse_session("""
ring S = GF(32003)[x, y];
complex C = chain(S, [0], [[x]], [5]);
""")


def test_one_statement_quotient_declaration():
    s = parse_session("""
ring A = GF(32003)[x, y];
ideal I = x^2;
ring R = GF(32003)[x, y] / I;
ring Q = A / I;
""")
    R = s.get("R", ("ring",))
    assert not R.is_polynomial
    assert R == s.get("Q", ("ring",))


def test_sequence_transfers_to_quotient():
    s = parse_session(GOOD)
    forms = s.get("zz", ("sequence",))
    M = s.get("M", ("module",))
    moved = transfer_polys(forms, M.ring)
    assert all(f.ring is M.ring for f in moved)


def test_transfer_rejects_alien_variables():
    a = parse_session("ring A = GF(7)[x];")
    b = parse_session("ring B = GF(7)[u];")
    fx = parse_polynomial("x", a.get("A", ("ring",)))
    with pytest.raises(ValueError):
        transfer_polys([fx], b.get("B", ("ring",)))


CROSS_FIELD = "ring A = GF(7)[x, y];\nideal I = x^2 + 5*y^2;\n"


@pytest.mark.parametrize("tail, col", [
    ("ring B = GF(5)[x, y] / I;", 24),
    ("ring C = GF(5)[x, y];\nring B = C / I;", 14),
    ("ring C = GF(5)[x, y];\nmodule M = cyclic(C, I);", 22),
    ("ring C = GF(5)[x, y];\nmodule M = ideal_module(C, I);", 28),
])
def test_polynomials_do_not_move_between_fields(tail, col):
    # read over GF(5), 5*y^2 kept its coefficient unreduced: the quotient
    # printed as GF(5)[x,y] / (x^2 + 5*y^2), betti reported pd 0 and reg
    # died with an inverse of zero
    with pytest.raises(ParseError) as e:
        parse_session(CROSS_FIELD + tail)
    assert "GF(7)" in e.value.message and "GF(5)" in e.value.message
    assert (e.value.line, e.value.col) == (tail.count("\n") + 3, col)


def test_transfer_rejects_another_field():
    f = parse_polynomial("x + 5*y", polynomial_ring(["x", "y"], p=7))
    with pytest.raises(ValueError, match="GF"):
        transfer_polys([f], polynomial_ring(["x", "y"], p=5))


def test_parse_polynomial_rejects_trailing_input(S3):
    with pytest.raises(ParseError):
        parse_polynomial("x + y; ideal", S3)


def test_parse_polynomial_arithmetic(S3):
    x, y, z = S3.gens()
    f = parse_polynomial("(x + y)^2 - 2*x*y", S3)
    assert f == x * x + y * y


def test_unary_minus(S3):
    x, y, z = S3.gens()
    assert parse_polynomial("-x*y + z^2", S3) == z * z - x * y


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""),
                                           ("-(", ")")])
def test_deep_nesting_is_a_parse_error(opener, closer):
    # 3000 levels used to exhaust the interpreter's stack
    text = ("ring S = GF(7)[x, y];\nideal I = "
            + opener * 3000 + "x" + closer * 3000 + ";")
    with pytest.raises(ParseError) as ei:
        parse_session(text)
    assert ei.value.line == 2
    assert "nested" in ei.value.message
    # the refused token opens level MAX_NESTING + 1
    assert ei.value.col == len("ideal I = ") + 1 + MAX_NESTING


def test_nesting_up_to_the_cap_parses(S3):
    x, y, z = S3.gens()
    deep = "(" * MAX_NESTING + "x + y" + ")" * MAX_NESTING
    assert parse_polynomial(deep, S3) == x + y
    assert parse_polynomial("-" * MAX_NESTING + "z", S3) == z
    with pytest.raises(ParseError):
        parse_polynomial("(" + deep + ")", S3)


@pytest.mark.parametrize("literal", ["\u00b2", "\u0663"])
def test_integers_are_ascii_digits(literal):
    # str.isdigit holds for both: int() refused '²' without a position
    # and read the Arabic-Indic '٣' as 3
    with pytest.raises(ParseError) as ei:
        parse_session(S7 + "ideal I = x^" + literal + ";")
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        f"unexpected character {literal!r}", 2, 13)


@pytest.mark.parametrize("expr, col", [
    ("x^70000", 12), ("x^40000*x^40000", 18), ("(x^40000)^2", 20),
    ("x^99999999999999999999999", 12)])
def test_exponent_past_the_cap_is_refused_at_its_operator(expr, col):
    with pytest.raises(ParseError) as ei:
        parse_session(S7 + "ideal I = " + expr + ";")
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        f"monomial exponent exceeds {EXPONENT_CAP}", 2, col)


def test_exponent_at_the_cap_parses():
    s = parse_session(S7 + f"ideal I = x^{EXPONENT_CAP}*y;")
    [f] = s.get("I", ("ideal",))
    assert f.homogeneous_degree() == EXPONENT_CAP + 1


def test_chain_composing_past_the_cap_is_refused_at_its_head():
    # composing the differentials multiplies x^40000 by x^40000; that
    # escaped the parser with no position (exit 2 from the CLI)
    text = (S7 + "complex C = chain(S, [0], [[x^40000]], [40000], "
            "[[x^40000]], [80000]);")
    with pytest.raises(ParseError) as ei:
        parse_session(text)
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        f"monomial exponent exceeds {EXPONENT_CAP}", 2, 13)


LONG = "1" * 5000


@pytest.mark.parametrize("text, line, col", [
    pytest.param("ring A = GF(" + LONG + ")[x];", 1, 13, id="prime"),
    pytest.param(S7 + "module M = coker(S, [" + LONG + "], [[x]]);", 2, 22,
                 id="twist"),
    pytest.param(S7 + "module M = coker(S, [-" + LONG + "], [[x]]);", 2, 23,
                 id="negative-twist"),
    pytest.param(S7 + "ideal I = x^" + LONG + ";", 2, 13, id="exponent"),
    pytest.param(S7 + "ideal I = " + LONG + "*x;", 2, 11, id="constant"),
])
def test_integer_past_the_digit_limit_is_refused_at_its_token(text, line,
                                                             col):
    # Python refuses to convert a literal past its digit limit; that
    # refusal escaped the parser with no position (exit 2 from the CLI)
    with pytest.raises(ParseError) as ei:
        parse_session(text)
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        f"integer literal of {len(LONG)} digits is too long (at most "
        f"{sys.get_int_max_str_digits()})", line, col)


def test_tokenizer_rejects_garbage():
    with pytest.raises(ParseError):
        tokenize("ring $ = GF(7)[x];")


def _over_s7(text):
    return parse_polynomial(text, polynomial_ring(["x", "y"], p=7))


def _row(id, text, message, line, col, parse=parse_session):
    return pytest.param(parse, text, message, line, col, id=id)


# one row per place in session.py that raises a ParseError, plus the
# second way into the sites that two constructs share
DIAGNOSTICS = [
    _row("tokenizer", "ring $ = GF(7)[x];",
         "unexpected character '$'", 1, 6),
    _row("rebinding", "ring A = GF(7)[x];\nring A = GF(7)[y];",
         "name 'A' is already bound", 2, 6),
    _row("semicolon-before-rebinding", "ring A = GF(7)[x];\nring A = GF(7)[y]",
         "expected ';', found 'end of input'", 2, 18),
    _row("keyword", "foo A = GF(7)[x];",
         "expected a declaration keyword (ring, ideal, sequence, module, "
         "complex)", 1, 1),
    _row("name", "ideal = x;", "expected a name, found '='", 1, 7),
    _row("prime-token", "ring A = GF(x)[y];",
         "expected a prime, found 'x'", 1, 13),
    _row("variable-list-close", "ring A = GF(7)[x y];",
         "expected ']', found 'y'", 1, 18),
    _row("empty-variable-list", "ring A = GF(7)[];",
         "expected a name, found ']'", 1, 16),
    _row("not-prime", "ring A = GF(4)[x];", "modulus 4 is not prime", 1, 6),
    _row("duplicate-variables", "ring A = GF(7)[x, x];",
         "duplicate variable names", 1, 6),
    _row("gf-quotient-variables", ALIEN + "ring B = GF(7)[u, v] / I;",
         "ideal 'I' was not declared over a ring with the variables [u,v]",
         4, 24),
    _row("ring-quotient-variables", ALIEN + "ring B = C / I;",
         "ideal 'I' was not declared over a ring with the variables of 'C'",
         4, 14),
    _row("gf-quotient-field", CROSS + "ring B = GF(5)[x, y] / I;",
         "polynomials declared over GF(7) cannot be read over GF(5)", 3, 24),
    _row("ring-quotient-field",
         CROSS + "ring C = GF(5)[x, y];\nring B = C / I;",
         "polynomials declared over GF(7) cannot be read over GF(5)", 4, 14),
    _row("gf-quotient-unknown-ideal", S7 + "ring B = GF(7)[x, y] / J;",
         "unknown binding 'J'", 2, 24),
    _row("ring-quotient-unknown-base", S7 + "ring B = T / J;",
         "unknown binding 'T'", 2, 10),
    _row("ring-quotient-slash", S7 + "ring B = S;",
         "expected '/', found ';'", 2, 11),
    _row("ring-quotient-ideal-name", S7 + "ring B = T / ;",
         "expected a name, found ';'", 2, 14),
    _row("zero-generator", S7 + "ideal I = x - x;", "zero generator", 2, 11),
    _row("inhomogeneous-generator", S7 + "ideal I = x + y^2;",
         "inhomogeneous generator", 2, 11),
    _row("zero-sequence-entry", S7 + "sequence s = x, y - y;",
         "zero sequence entry", 2, 17),
    _row("inhomogeneous-sequence-entry", S7 + "sequence s = x^2 + y;",
         "inhomogeneous sequence entry", 2, 14),
    _row("no-ring", "ideal I = x;", "no ring declared yet", 1, 7),
    _row("no-polynomial", S7 + "ideal I = ;",
         "expected a polynomial, found ';'", 2, 11),
    _row("unknown-identifier", S7 + "ideal I = z;",
         "unknown identifier 'z' (not a variable of GF(7)[x,y])", 2, 11),
    _row("exponent-token", S7 + "ideal I = x^y;",
         "expected an exponent, found 'y'", 2, 13),
    _row("nesting", S7 + "ideal I = " + "(" * 101 + "x" + ")" * 101 + ";",
         "expression nested more than 100 levels deep", 2, 111),
    _row("coker-arity", S7 + "module M = coker(S, [0], [[x], [y]]);",
         "wrong arity: matrix has 2 rows but 1 twists", 2, 26),
    _row("coker-relations", S7 + "module M = coker(S, [0, 0], [[x], [y^2]]);",
         "relation column is not homogeneous", 2, 29),
    _row("twist-token", S7 + "module M = coker(S, [x], [[x]]);",
         "expected an integer, found 'x'", 2, 22),
    _row("empty-matrix", S7 + "module M = coker(S, [0], []);",
         "expected '[', found ']'", 2, 27),
    _row("ragged", S7 + "module M = coker(S, [0, 0], [[x, y], [x]]);",
         "ragged matrix", 2, 29),
    _row("module-head-token", S7 + "module M = (S);",
         "expected cyclic, ideal_module, or coker, found '('", 2, 12),
    _row("module-head-name", S7 + "module M = free(S);",
         "expected cyclic, ideal_module, or coker", 2, 12),
    _row("unknown-binding", S7 + "module M = cyclic(R);",
         "unknown binding 'R'", 2, 19),
    _row("wrong-kind", S7 + "module M = cyclic(S, S);",
         "'S' is bound to a ring, expected ideal", 2, 22),
    _row("transfer-field",
         S7 + "ideal I = x;\nring C = GF(5)[x, y];\nmodule M = cyclic(C, I);",
         "polynomials declared over GF(7) cannot be read over GF(5)", 4, 22),
    _row("transfer-variables", ALIEN + "module M = ideal_module(C, I);",
         "polynomials were declared over a ring with different variables",
         4, 28),
    _row("koszul-transfer",
         S7 + "sequence s = x;\nring C = GF(7)[u, v];\nmodule M = cyclic(C);\n"
         "complex K = koszul(s, M);",
         "polynomials were declared over a ring with different variables",
         5, 20),
    _row("koszul-forms",
         S7 + "ideal I = x;\nsequence s = x;\nring R = S / I;\n"
         "module M = cyclic(R);\ncomplex K = koszul(s, M);",
         "Koszul forms must be nonzero and homogeneous", 6, 20),
    _row("koszul-wrong-kind",
         S7 + "module M = cyclic(S);\ncomplex C = koszul(M, M);",
         "'M' is bound to a module, expected sequence", 3, 20),
    _row("chain-rows", S7 + "complex C = chain(S, [0], [[x], [y]], [1]);",
         "wrong arity: differential 1 has 2 rows but the spot below has 1 "
         "generators", 2, 27),
    _row("chain-columns", S7 + "complex C = chain(S, [0], [[x, y]], [1]);",
         "wrong arity: differential 1 needs 1 columns", 2, 27),
    _row("chain-compose",
         S7 + "complex C = chain(S, [0], [[x]], [1], [[x]], [2]);",
         "differentials do not compose to zero", 2, 13),
    _row("chain-inhomogeneous",
         S7 + "complex C = chain(S, [0], [[x + y^2]], [1]);",
         "inhomogeneous matrix entry", 2, 27),
    _row("chain-twists", S7 + "complex C = chain(S, [0], [[x]], [5]);",
         "entry at row 0, column 0 does not respect the declared twists",
         2, 27),
    _row("complex-head-token", S7 + "complex C = [S];",
         "expected koszul or chain, found '['", 2, 13),
    _row("complex-head-name", S7 + "complex C = tate(S);",
         "expected koszul or chain", 2, 13),
    _row("trailing-input", "x + y; ideal",
         "trailing input after the polynomial", 1, 6, parse=_over_s7),
    _row("unclosed-parenthesis", "(x", "expected ')', found 'end of input'",
         1, 3, parse=_over_s7),
]


@pytest.mark.parametrize("parse, text, message, line, col", DIAGNOSTICS)
def test_every_diagnostic_names_its_token(parse, text, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.message, ei.value.line, ei.value.col) == (
        message, line, col)
