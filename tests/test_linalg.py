"""`linalg.rref`, `nullspace` and `solve` against sympy over QQ on random
integer and rational matrices: tall, wide, all-zero, rank-deficient and
with zero rows; `rational_reconstruction` up to and past its bounds."""

import random
from fractions import Fraction as Q
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopideal import linalg

sympy = pytest.importorskip("sympy")

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.integers(-(2**70), 2**70),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Q, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
)


@st.composite
def matrices(draw):
    """A matrix of ints and Fractions, some of whose rows are zero or rational
    combinations of earlier rows."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append([draw(st.sampled_from([0, Q(0)])) for _ in range(ncols)])
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
            rows.append(
                [sum(c * Q(r[j]) for c, r in zip(coeffs, rows)) for j in range(ncols)]
            )
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    return rows


def _to_sympy(rows) -> "sympy.Matrix":
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def _from_sympy(matrix) -> list[list[Q]]:
    return [[Q(int(c.p), int(c.q)) for c in matrix.row(i)] for i in range(matrix.rows)]


@PROPERTY
@given(matrices())
def test_rref_matches_sympy(rows):
    red, pivots = linalg.rref(rows)
    want, want_pivots = _to_sympy(rows).rref()
    assert red == _from_sympy(want) and pivots == list(want_pivots)
    assert len(red) == len(rows)
    assert all(type(v) is Q for r in red for v in r)


@PROPERTY
@given(matrices())
def test_nullspace_matches_sympy(rows):
    ncols = len(rows[0])
    kernel = linalg.nullspace(rows)
    want = [_from_sympy(v.T)[0] for v in _to_sympy(rows).nullspace()]
    assert kernel == want
    pivots = linalg.rref(rows)[1]
    free = [c for c in range(ncols) if c not in pivots]
    for fc, v in zip(free, kernel):
        assert [v[c] for c in free] == [Q(c == fc) for c in free]
        assert all(sum(Q(a) * b for a, b in zip(r, v)) == 0 for r in rows)


@PROPERTY
@given(matrices(), st.data())
def test_solve_matches_sympy(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans(), label="consistent"):
        x0 = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols), label="x0")
        rhs = [sum(Q(a) * b for a, b in zip(r, x0)) for r in rows]
    else:
        rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)), label="rhs")
    got = linalg.solve(rows, rhs)
    try:
        sol, params = _to_sympy(rows).gauss_jordan_solve(_to_sympy([[b] for b in rhs]))
    except ValueError:
        assert got is None
        return
    # sympy's parametric solution with every free parameter at zero
    want = _from_sympy(sol.subs({p: 0 for p in params}).T)[0]
    assert got == want


def test_empty_inputs():
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([]) == []
    assert linalg.rref([[]]) == ([[]], [])
    assert linalg.rref([[0, 0], [0, 0]]) == ([[Q(0), Q(0)], [Q(0), Q(0)]], [])


def test_rational_reconstruction_round_trips_up_to_the_bound():
    # every r/t with |r|, t <= isqrt(m // 2) = 70 comes back from r/t mod m
    m = 10007
    for t in range(1, 71):
        for r in range(-70, 71):
            if gcd(r, t) == 1:
                assert linalg.rational_reconstruction(r * pow(t, -1, m), m) == Q(r, t)
    m, bound = 2**61 - 1, isqrt((2**61 - 1) // 2)
    rng = random.Random(1982)
    for r, t in [(bound, bound - 1), (-bound, 1), (1, bound)] + [
        (rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(500)
    ]:
        assert linalg.rational_reconstruction(r * pow(t, -1, m), m) == Q(r, t)
    assert linalg.rational_reconstruction(0, m) == 0
    assert linalg.rational_reconstruction(m - 1, m) == -1


def test_rational_reconstruction_is_none_past_the_bound():
    for m in (7, 10007, 2**61 - 1):
        bound = isqrt(m // 2)
        for r, t in ((bound + 1, 1), (-bound - 1, 1), (1, bound + 1), (-1, bound + 1), (bound + 1, bound + 2)):
            assert linalg.rational_reconstruction(r * pow(t, -1, m), m) is None, (m, r, t)
    # at 7 only 0 and +-1 reconstruct
    assert [linalg.rational_reconstruction(a, 7) for a in range(7)] == [0, 1] + [None] * 4 + [-1]


@pytest.mark.parametrize("bounds", [(11, 400), (400, 11)])
def test_rational_reconstruction_with_unequal_bounds(bounds):
    # 2*N*D = 8,800 < m; also (2*N + 1)*D and N*(2*D + 1) are below m, so
    # nothing reconstructs from a fraction just past either bound
    m, (top, bottom) = 10007, bounds
    inside = [(r, t) for t in range(1, bottom + 1) for r in range(-top, top + 1) if gcd(r, t) == 1]
    assert {(top, bottom), (-top, bottom), (top, 1), (1, bottom)} <= set(inside)
    for r, t in inside:
        assert linalg.rational_reconstruction(r * pow(t, -1, m), m, bounds) == Q(r, t)
    past = [(r, t) for t in range(1, bottom + 1) for r in (top + 1, -top - 1) if gcd(r, t) == 1]
    past += [(r, bottom + 1) for r in range(-top, top + 1) if gcd(r, bottom + 1) == 1]
    for r, t in past:
        assert linalg.rational_reconstruction(r * pow(t, -1, m), m, bounds) is None, (r, t)


def test_rational_reconstruction_defaults_to_equal_bounds():
    for m in (7, 10007):
        bound = isqrt(m // 2)
        for a in range(m):
            assert linalg.rational_reconstruction(a, m) == linalg.rational_reconstruction(a, m, (bound, bound))
