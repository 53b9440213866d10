import pytest

from cmreg import (ParseError, Session, UnknownBinding, parse_polynomial,
                   parse_session, polynomial_ring)
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


def test_parse_binds_in_order():
    s = parse_session(GOOD)
    assert [(n, s.kind_of(n)) for n in s.order] == [
        ("S", "ring"), ("I", "ideal"), ("R", "ring"),
        ("M", "module"), ("zz", "sequence"), ("K", "complex")]


def test_render_round_trips():
    s = parse_session(GOOD)
    once = s.render()
    again = parse_session(once).render()
    assert once == again


def test_canonical_render_normalizes_coefficients():
    s = parse_session(GOOD)
    assert "32002*y*z + x*t" in s.render()


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
    assert "GF(101)" in s.render()


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
""")
    R = s.get("R", ("ring",))
    assert not R.is_polynomial
    assert "GF(32003)[x,y] / I;" in s.render()


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


def test_tokenizer_rejects_garbage():
    with pytest.raises(ParseError):
        tokenize("ring $ = GF(7)[x];")


def test_statements_survive_in_session_text():
    s = parse_session(GOOD)
    assert len(s.statements) == 6
    assert s.statements[0].startswith("ring S")
