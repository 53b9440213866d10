"""Randomized invariants, kept small enough for the full-suite budget."""

import contextlib
import io
import json
import sys
from math import inf

from hypothesis import given, settings, strategies as st

import cmreg.cli as cli
from cmreg import (PresentedModule, betti_table, parse_session, polynomial_ring,
                   reg_via_betti, reg_via_duality)
from cmreg.oracle import DenseOracle
from test_resolution import K6_SESSION
from test_sessions import load

S = polynomial_ring(["x", "y", "z"])
X, Y, Z = S.gens()
GENS = [X, Y, Z]


def poly_from_parts(parts):
    # parts: list of (coeff, (a, b, c))
    f = S.zero_poly()
    for c, e in parts:
        f = f + c * S.monomial(tuple(e))
    return f


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
terms = st.tuples(st.integers(-20, 20).filter(bool), exponents)
polys = st.lists(terms, min_size=0, max_size=4).map(poly_from_parts)


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + (g + h) == (f + g) + h
    assert f * (g * h) == (f * g) * h
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f + S.zero_poly() == f
    assert f * S.constant(1) == f


@settings(max_examples=40, deadline=None)
@given(polys)
def test_additive_inverse(f):
    assert (f - f).is_zero()
    assert -(-f) == f


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2),
                          st.integers(0, 2)),
                min_size=1, max_size=3))
def test_monomial_ideal_hilbert_matches_oracle(expts):
    gens = [S.monomial((a, b, c)) for (a, b, c) in expts]
    M = PresentedModule.cyclic(S, gens)
    oc = DenseOracle(M)
    for j in range(6):
        assert M.hilbert_function(j) == oc.hilbert_function(j)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2)).filter(lambda e: sum(e) > 0),
                min_size=1, max_size=3))
def test_reg_routes_agree_on_monomial_ideals(expts):
    gens = [S.monomial(e) for e in expts]
    M = PresentedModule.cyclic(S, gens)
    assert reg_via_betti(M)[0] == reg_via_duality(M)[0]


homog = st.tuples(st.integers(1, 20), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(st.lists(homog, min_size=1, max_size=3), st.integers(1, 3))
def test_degree_adds_on_homogeneous_products(parts, d):
    # pad every exponent to a common total degree, then multiply
    top = max(a + b + c for (_, a, b, c) in parts)
    f = S.zero_poly()
    for coeff, a, b, c in parts:
        f = f + coeff * S.monomial((a + top - (a + b + c), b, c))
    g = (X + Y) ** d
    if f.is_zero():
        return
    assert f.is_homogeneous() and f.homogeneous_degree() == top
    assert (f * g).homogeneous_degree() == top + d


# -- truncated resolutions ----------------------------------------------------

HYPERSURFACE_RESIDUE_FIELD = """ring S = GF(32003)[x, y];
ideal Q = x^2 + y^2;
ring R = S / Q;
ideal m = x, y;
module k = cyclic(R, m);
"""

# (session text, module binding, projective dimension): the residue
# fields of two quotient rings never terminate; the rest end, over
# quotient and polynomial rings, below, at or above the tested max_len
TRUNCATION_CASES = [
    (load("two-quadrics.cmreg"), "k", inf),
    (HYPERSURFACE_RESIDUE_FIELD, "k", inf),
    (load("two-quadrics.cmreg"), "RC", 0),
    (load("determinantal.cmreg"), "M", 0),
    (load("hypersurface-pair.cmreg"), "M", 1),
    (load("hypersurface-pair.cmreg"), "N", 1),
    (load("free-socle.cmreg"), "F", 0),
    (load("free-socle.cmreg"), "k", 3),
    (load("scroll-2.cmreg"), "M", 3),
    (K6_SESSION, "k", 6),
]
_MODULES = {}


def session_module(text, binding):
    """One module object per case, so its resolutions stay cached."""
    key = (text, binding)
    if key not in _MODULES:
        _MODULES[key] = parse_session(text).get(binding)
    return _MODULES[key]


def cli_result(text, *argv):
    """(exit code, JSON result) of the CLI reading the session on stdin."""
    buf = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--session", "-", *argv])
    finally:
        sys.stdin = stdin
    return code, json.loads(buf.getvalue())["result"]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(TRUNCATION_CASES), st.integers(1, 6))
def test_truncation_agrees_with_one_more_level(case, max_len):
    text, binding, proj_dim = case
    M = session_module(text, binding)
    short = betti_table(M, max_len=max_len)
    longer = betti_table(M, max_len=max_len + 1)
    assert all(i <= max_len for i, _ in short.entries)
    assert short.entries == {k: v for k, v in longer.entries.items()
                             if k[0] <= max_len}
    # complete exactly when the resolution ends at or below max_len:
    # completeness at the cut is read off Hilbert series, exactly (over a
    # polynomial ring pd is at most the number of variables)
    assert short.complete == (proj_dim <= max_len)
    full = betti_table(M)
    assert full.projective_dimension() == proj_dim
    assert full.complete == (proj_dim < inf)
    code, out = cli_result(text, "betti", binding, "--max-len", str(max_len))
    assert code == 0
    assert out["truncated"] is not short.complete
    assert out["table"]["complete"] is short.complete
    if proj_dim == inf:
        code, out = cli_result(text, "reg", binding, "--max-len", str(max_len))
        assert code == 0
        assert out["relative"]["certified"] is False
        assert out["relative"]["levels"] == max_len
