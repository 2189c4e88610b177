import random
import sys
import threading
from collections import Counter
from fractions import Fraction as Q
from itertools import islice, permutations
from math import gcd

import pytest

from loopideal import cfinite, linalg
from loopideal import (
    ExpPoly,
    IrrationalEigenvalue,
    MomentSystem,
    NoRecurrenceFound,
    Polynomial,
    ToolkitError,
    UniPoly,
    VarRing,
    degree_targets,
    format_loop,
    minimal_recurrence,
    moment_closure,
    parse_loop,
    poly_parse,
    rational_roots,
    solve_closed_form,
)
from test_acceptance import _fuzz_affine_loop


def _upoly(*coeffs):
    return UniPoly([Q(c) for c in coeffs])


def test_minimal_recurrence_arithmetic_sequence():
    terms = [Q(n, 2) for n in range(10)]
    ann = minimal_recurrence(terms, 4)
    assert ann == _upoly(1, -2, 1)  # (L - 1)^2


def test_minimal_recurrence_constant():
    ann = minimal_recurrence([Q(1)] * 8, 3)
    assert ann == _upoly(-1, 1)  # L - 1


def test_minimal_recurrence_quadratic_sequence():
    terms = [Q(n * n + 9 * n, 4) for n in range(12)]
    ann = minimal_recurrence(terms, 5)
    assert ann == _upoly(-1, 3, -3, 1)  # (L - 1)^3


def test_minimal_recurrence_zero_sequence():
    assert minimal_recurrence([Q(0)] * 8, 3) == _upoly(1)


def test_minimal_recurrence_needs_enough_terms():
    with pytest.raises(ValueError):
        minimal_recurrence([Q(1), Q(2)], 3)


def test_minimal_recurrence_no_fit():
    # factorials satisfy no fixed-coefficient linear recurrence of order <= 2
    import math

    terms = [Q(math.factorial(n)) for n in range(8)]
    with pytest.raises(NoRecurrenceFound):
        minimal_recurrence(terms, 2)


def test_minimal_recurrence_is_minimal():
    # geometric 2^n admits order 1; make sure order 2 annihilators lose
    terms = [Q(2) ** n for n in range(10)]
    assert minimal_recurrence(terms, 4) == _upoly(-2, 1)


def _reference_minimal_recurrence(terms, max_order):
    """The per-order search: one linear system over all windows per order."""
    if len(terms) < 2 * max_order + 2:
        raise ValueError("need at least 2*max_order + 2 terms")
    terms = [Q(t) for t in terms]
    if all(t == 0 for t in terms):
        return UniPoly([1])
    for d in range(1, max_order + 1):
        rows = [terms[n : n + d] for n in range(len(terms) - d)]
        rhs = [terms[n + d] for n in range(len(terms) - d)]
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            return UniPoly([-c for c in sol] + [Q(1)])
    raise NoRecurrenceFound("no fit")


def _assert_recurrence_matches_reference(terms, max_order):
    try:
        want = _reference_minimal_recurrence(terms, max_order)
    except (ValueError, NoRecurrenceFound) as exc:
        with pytest.raises(type(exc)):
            minimal_recurrence(terms, max_order)
        return type(exc)
    assert minimal_recurrence(terms, max_order) == want, (terms, max_order)
    return want


def _unroll(ann, init, count):
    """`count` terms of the sequence with monic annihilator `ann`."""
    terms = list(init)
    d = ann.degree
    while len(terms) < count:
        terms.append(-sum(c * t for c, t in zip(ann.coeffs[:d], terms[-d:])))
    return terms[:count]


_ROOTS = [Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(1, 2), Q(-1, 3), Q(2, 3), Q(5, 4), Q(0)]


def _random_annihilator(rng, degree):
    ann = _upoly(1)
    while ann.degree < degree:
        r = rng.choice(_ROOTS)
        for _ in range(min(rng.choice([1, 1, 2, 3]), degree - ann.degree)):
            ann = ann * _upoly(-r, 1)
    return ann


def test_minimal_recurrence_matches_reference_search():
    rng = random.Random(1969)
    values = [Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(7, 3)]
    seen = set()
    for _ in range(150):
        degree = rng.randint(1, 6)
        ann = _random_annihilator(rng, degree)
        init = [rng.choice(values) for _ in range(degree)]
        max_order = rng.choice([degree, degree, degree + 1, degree + 3, max(degree - 1, 0)])
        count = 2 * max_order + 2 + rng.choice([0, 0, 1, 3])
        seen.add(_assert_recurrence_matches_reference(_unroll(ann, init, count), max_order))

    # transients: root 0 with multiplicity, so a prefix sits before the tail
    for k in range(1, 4):
        ann = _upoly(1)
        for _ in range(k):
            ann = ann * _upoly(0, 1)
        ann = ann * _upoly(-2, 1) * _upoly(Q(-1, 2), 1)
        init = [Q(5), Q(-1), Q(3, 2), Q(0), Q(4)][: ann.degree]
        terms = _unroll(ann, init, 2 * ann.degree + 2)
        assert _assert_recurrence_matches_reference(terms, ann.degree) == ann
    # repeated fractional root: (L - 2/3)^3
    cube = _upoly(Q(-2, 3), 1) * _upoly(Q(-2, 3), 1) * _upoly(Q(-2, 3), 1)
    terms = _unroll(cube, [Q(1), Q(0), Q(0)], 12)
    assert _assert_recurrence_matches_reference(terms, 5) == cube
    # all zero, and a zero prefix before a geometric tail
    assert _assert_recurrence_matches_reference([Q(0)] * 10, 4) == _upoly(1)
    prefix = [Q(0)] * 4 + [Q(3) ** n for n in range(8)]
    assert _assert_recurrence_matches_reference(prefix, 5) == _upoly(0, 0, 0, 0, -3, 1)
    assert _assert_recurrence_matches_reference(prefix, 4) is NoRecurrenceFound
    # a single nonzero term last: linear complexity equal to the length
    lone = [Q(0)] * 9 + [Q(1)]
    assert _assert_recurrence_matches_reference(lone, 4) is NoRecurrenceFound
    # linear complexity exactly max_order, with the fewest terms allowed
    quartic = _upoly(-1, 0, 0, 0, 1) * _upoly(Q(-1, 2), 1)
    terms = _unroll(quartic, [Q(1), Q(2), Q(0), Q(-1), Q(3)], 12)
    assert _assert_recurrence_matches_reference(terms, 5) == quartic
    assert _assert_recurrence_matches_reference(terms[:11], 5) is ValueError
    # random terms fit no recurrence up to max_order
    noise = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)]
    assert _assert_recurrence_matches_reference(noise, 6) is NoRecurrenceFound
    assert NoRecurrenceFound in seen and len(seen) > 50


def _product(*factors):
    p = _upoly(1)
    for f in factors:
        p = p * f
    return p


def _check_cofactor(p, roots, cofactor):
    """p is the cofactor times each (L - root)^multiplicity."""
    assert _product(cofactor, *(_upoly(-r, 1) for r, m in roots for _ in range(m))) == p


def test_rational_roots_composed():
    p = _upoly(1, -2, 1) * _upoly(-3, 1)  # (L-1)^2 (L-3)
    roots, cofactor = rational_roots(p)
    assert roots == [(Q(1), 2), (Q(3), 1)]
    assert cofactor.degree == 0


def test_rational_roots_irrational_cofactor():
    roots, cofactor = rational_roots(_upoly(-2, 0, 1))  # L^2 - 2
    assert roots == []
    assert cofactor == _upoly(-2, 0, 1)
    # no real root, and the same after a root 0 of multiplicity 2
    assert rational_roots(_upoly(2, 0, 1)) == ([], _upoly(2, 0, 1))
    assert rational_roots(_upoly(0, 0, 2, 0, 1)) == ([(Q(0), 2)], _upoly(2, 0, 1))


def test_rational_roots_zero_root():
    roots, cofactor = rational_roots(_upoly(0, 1, 1))  # L^2 + L
    assert set(roots) == {(Q(0), 1), (Q(-1), 1)}
    assert cofactor.degree == 0


def test_rational_roots_fractional():
    p = _upoly(-1, 2) * _upoly(-3, 2)  # (2L-1)(2L-3)
    roots, cofactor = rational_roots(p)
    assert set(r for r, _ in roots) == {Q(1, 2), Q(3, 2)}
    assert cofactor.degree == 0
    # a repeated fractional root: (3/5 - 7/4 L)^3 (L - 5/9)
    p = _product(*(_upoly(Q(3, 5), Q(-7, 4)) for _ in range(3)), _upoly(Q(-5, 9), 1))
    roots, cofactor = rational_roots(p)
    assert roots == [(Q(12, 35), 3), (Q(5, 9), 1)]
    _check_cofactor(p, roots, cofactor)


def _reference_rational_roots(p):
    """Rational root theorem with every candidate evaluated as a Fraction."""
    roots = []
    mult0 = 0
    while p.degree >= 1 and p.coeffs[0] == 0:
        p = UniPoly(p.coeffs[1:])
        mult0 += 1
    if mult0:
        roots.append((Q(0), mult0))
    if p.degree >= 1:
        lcm = 1
        for c in p.coeffs:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        ip = [int(c * lcm) for c in p.coeffs]
        divisors = [
            [d for d in range(1, abs(c) + 1) if c % d == 0] for c in (ip[0], ip[-1])
        ]
        candidates = {Q(s * a, b) for a in divisors[0] for b in divisors[1] for s in (1, -1)}
        for r in sorted(candidates):
            mult = 0
            while p.degree >= 1 and p(r) == 0:
                # synthetic division by (L - r)
                acc, quotient = Q(0), []
                for c in reversed(p.coeffs):
                    acc = acc * r + c
                    quotient.append(acc)
                p = UniPoly(reversed(quotient[:-1]))
                mult += 1
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, p


def test_rational_roots_match_fraction_reference():
    rng = random.Random(1983)
    quadratics = [
        _upoly(1, 0, 1),  # L^2 + 1
        _upoly(-2, 0, 1),  # L^2 - 2
        _upoly(5, 3, 2),  # 2L^2 + 3L + 5
        _upoly(Q(-3, 2), 0, 4),  # 4L^2 - 3/2
        _upoly(1, 1, 1),  # L^2 + L + 1
    ]
    roots_pool = [Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3), Q(3, 4), Q(5, 2), Q(-6)]
    for _ in range(80):
        p = _upoly(rng.choice([1, -2, Q(3, 5), Q(-7, 4)]))
        want_roots = {}
        for _ in range(rng.randint(0, 4)):
            r = rng.choice(roots_pool)
            m = rng.choice([1, 1, 2, 3])
            want_roots[r] = want_roots.get(r, 0) + m
            for _ in range(m):
                p = p * _upoly(-r, 1)
        quad = rng.choice(quadratics + [None])
        if quad is not None:
            p = p * quad
        if p.degree < 1:
            continue
        got = rational_roots(p)
        assert got == _reference_rational_roots(p), p
        roots, cofactor = got
        assert roots == sorted(want_roots.items())
        assert cofactor.degree == (2 if quad is not None else 0)


def test_rational_roots_of_large_magnitude():
    # (L - q)(L - q^2)(L - 1)(qL - 1): a trial division of the constant term
    # q^3 would take about q^1.5 steps
    for q in (10**6 + 3, 10**9 + 7, 2**61 - 1, 10**20 + 39):
        p = _product(_upoly(-q, 1), _upoly(-q * q, 1), _upoly(-1, 1), _upoly(-1, q))
        roots, cofactor = rational_roots(p)
        assert roots == [(Q(1, q), 1), (Q(1), 1), (Q(q), 1), (Q(q * q), 1)]
        assert cofactor == _upoly(q)


def test_rational_roots_past_the_bad_primes():
    # prod (L - i) for i = 1..12: modulo every prime up to 11 two roots meet,
    # so the first prime with simple roots is 13
    p = _product(*(_upoly(-i, 1) for i in range(1, 13)))
    roots, cofactor = rational_roots(p)
    assert roots == [(Q(i), 1) for i in range(1, 13)]
    assert cofactor == _upoly(1)
    # the lead 2100 = 2^2*3*5^2*7 rules out every prime below 11
    p = _product(_upoly(-1, 210), _upoly(3, 10), _upoly(1, 1, 1))
    roots, cofactor = rational_roots(p)
    assert roots == [(Q(-3, 10), 1), (Q(1, 210), 1)]
    assert cofactor == _upoly(2100, 2100, 2100)




def test_rational_roots_match_sympy():
    """Random products of linear factors den*L - num, some of large height
    and with multiplicity, and of random integer polynomials."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1983)
    for case in range(100):
        p = _upoly(rng.choice([1, -3, 210, Q(5, 7)]))
        for _ in range(rng.randint(0, 4)):
            num = rng.choice([rng.randint(-30, 30), rng.randint(-10**12, 10**12)])
            den = rng.choice([1, 1, 2, 6, rng.randint(1, 10**6)])
            for _ in range(rng.choice([1, 1, 2, 3])):
                p = p * _upoly(-num, den)
        for _ in range(rng.randint(0, 2)):
            noise = [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))]
            p = p * _upoly(*noise, rng.randint(1, 5))
        if p.degree < 1:
            continue
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs))
        want = sympy.roots(sympy.Poly(expr, x), filter="Q")
        roots, cofactor = rational_roots(p)
        assert roots == sorted((Q(int(r.p), int(r.q)), m) for r, m in want.items()), case
        _check_cofactor(p, roots, cofactor)


def test_solve_closed_forms_two_walks(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 2))
    ix = system.index((1, 0))
    fx = solve_closed_form(system, ix)
    assert fx.transient == ()
    assert fx.tail == ((Q(1), _upoly(0, Q(1, 2))),)

    ixy = system.index((1, 1))
    fxy = solve_closed_form(system, ixy)
    assert fxy.tail == ((Q(1), _upoly(0, 0, Q(-1, 4))),)

    unit = solve_closed_form(system, 0)
    assert unit.tail == ((Q(1), _upoly(1)),)


def test_closed_form_matches_sequence_everywhere(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 2))
    for j in range(system.size):
        form = solve_closed_form(system, j)
        for n in range(2 * system.size + 4):
            assert form.eval(n) == system.vector_at(n)[j]


def test_transient_from_constant_reset():
    # x is overwritten by a constant: eigenvalue 0, explicit transient
    loop = parse_loop("vars: x\ninit: x = 5\nbody:\n  x = 3\n")
    system = moment_closure(loop, degree_targets(loop.variables, 1))
    form = solve_closed_form(system, system.index((1,)))
    assert form.transient == (Q(5),)
    assert form.eval(0) == 5 and form.eval(1) == 3 and form.eval(7) == 3


def test_transient_length_matches_zero_multiplicity():
    # x copies y, y is reset: the x-moment needs two transient steps
    loop = parse_loop("vars: x, y\ninit: x = 7; y = 11\nbody:\n  (x, y) = (y, 4)\n")
    system = moment_closure(loop, degree_targets(loop.variables, 1))
    form = solve_closed_form(system, system.index((1, 0)))
    assert form.transient == (Q(7), Q(11))
    assert [form.eval(n) for n in range(5)] == [Q(7), Q(11), Q(4), Q(4), Q(4)]


def test_irrational_eigenvalue_rejected():
    # swap with doubling: E[x], E[y] follow u(n+2) = 2u(n), eigenvalues +-sqrt(2)
    loop = parse_loop("vars: x, y\ninit: x = 1; y = 1\nbody:\n  (x, y) = (2*y, x)\n")
    system = moment_closure(loop, degree_targets(loop.variables, 1))
    with pytest.raises(IrrationalEigenvalue):
        solve_closed_form(system, system.index((1, 0)))


@pytest.mark.parametrize(
    "degree, symbol, cofactor",
    [(1, (1, 0), "L^2 - 1/2"), (3, (3, 0), "L^2 - 1/8")],
)
def test_irrational_eigenvalue_message_names_the_sequences_own_cofactor(degree, symbol, cofactor):
    # the transition's denominators scale the integer annihilator's roots;
    # the message names the cofactor of the moment sequence itself
    loop = parse_loop("vars: x, y\ninit: x = 1; y = 1/3\nbody:\n  (x, y) = (1/2*y, x)\n")
    system = moment_closure(loop, degree_targets(loop.variables, degree))
    with pytest.raises(IrrationalEigenvalue) as caught:
        solve_closed_form(system, system.index(symbol))
    assert str(caught.value) == (
        f"minimal annihilator has a nonconstant rootless cofactor ({cofactor}); "
        "closed forms over the rationals cannot represent this sequence"
    )


# distinct denominators in the initial values, coefficients and probabilities;
# a reset (root 0, so transients), a tuple swap and negative bases
_PAST_WINDOW_LOOPS = [
    "vars: x, y, z\ninit: x = -1/2; y = 2/7; z = 5/3\nbody:\n"
    "  x = -1/3*x + y [2/9] 3/4*x - 1/5\n"
    "  (y, z) = (1/6, -2/5*z + y)\n",
    "vars: u, v\ninit: u = 3/11; v = -1/13\nbody:\n"
    "  (u, v) = (v + 1/4, u) [2/3] (-1/2*u, -1/2*v + 1/3)\n",
]


@pytest.mark.parametrize("text", _PAST_WINDOW_LOOPS, ids=["reset", "swap"])
def test_closed_forms_hold_past_the_check_window(text):
    loop = parse_loop(text)
    system = moment_closure(loop, degree_targets(loop.variables, 2))
    horizon = 2 * system.size + 12
    forms = [solve_closed_form(system, j) for j in range(system.size)]
    assert any(b < 0 for form in forms for b, _ in form.tail)
    assert any(form.transient for form in forms) == ("y = 2/7" in text)
    dense = [[Q(0)] * system.size for _ in range(system.size)]
    for i, row in enumerate(system.transition):
        for j, a in row:
            dense[i][j] = a
    vec = list(system.initial)
    for n in range(horizon + 1):
        assert system.vector_at(n) == vec, n
        assert [form.eval(n) for form in forms] == vec, n
        vec = [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in dense]


def test_expoly_eval_examples():
    half_n = ExpPoly((), ((Q(1), _upoly(0, Q(1, 2))),))
    assert half_n.eval(4) == 2
    two_pow = ExpPoly((), ((Q(1), _upoly(-1)), (Q(2), _upoly(1))))
    assert two_pow.eval(3) == 7
    nilpotent = ExpPoly((Q(5),), ())
    assert nilpotent.eval(0) == 5
    assert nilpotent.eval(1) == 0 and nilpotent.eval(9) == 0


def test_expoly_validation():
    with pytest.raises(ValueError):
        ExpPoly((), ((Q(1), _upoly(1)), (Q(1), _upoly(2))))
    with pytest.raises(ValueError):
        ExpPoly((), ((Q(0), _upoly(1)),))
    with pytest.raises(ValueError):
        ExpPoly((), ((Q(2), UniPoly()),))


def test_expoly_format_and_json():
    form = ExpPoly((Q(5),), ((Q(1), _upoly(0, Q(1, 2))), (Q(3), _upoly(1))))
    assert form.format() == "transient=[5]; (1/2*n)*1^n + (1)*3^n"
    # a base that is not a positive integer is parenthesized: -2^n would
    # read as -(2^n), and 3/2^n as 3/(2^n)
    signed = ExpPoly((), tuple((b, _upoly(1)) for b in (Q(-2), Q(3, 2), Q(-1, 2))))
    assert signed.format() == "(1)*(-2)^n + (1)*(3/2)^n + (1)*(-1/2)^n"
    assert form.to_json() == {
        "transient": ["5"],
        "tail": [
            {"base": "1", "coeffs": ["0", "1/2"]},
            {"base": "3", "coeffs": ["1"]},
        ],
    }


def test_upoly_evaluates_at_numbers_and_polynomials():
    ring = VarRing(["n", "t"])
    p = UniPoly([1, 2, 3])
    assert p(Polynomial.var(ring, "n")) == poly_parse("3*n^2 + 2*n + 1", ring)
    assert p(2) == 17 and p(Q(1, 3)) == 2
    assert UniPoly([5])(Polynomial.var(ring, "t")) == poly_parse("5", ring)


def _pivot_solve(rows, rhs):
    """`linalg.solve` read off `rref`'s pivots directly."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = linalg.rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return x


def _random_system(rng):
    def entry():
        return Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    m, n = rng.randint(1, 5), rng.randint(0, 5)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if n and rng.random() < 0.3:  # a zero column
        c = rng.randrange(n)
        for r in rows:
            r[c] = Q(0)
    if rng.random() < 0.3:  # a repeated row
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.5:  # consistent by construction
        x0 = [entry() for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(r, x0)), Q(0)) for r in rows]
    else:
        rhs = [entry() for _ in rows]
    return rows, rhs


def test_solve_matches_pivot_reading():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2500):
        rows, rhs = _random_system(rng)
        want = _pivot_solve(rows, rhs)
        assert linalg.solve(rows, rhs) == want, (rows, rhs)
        m, n = len(rows), len(rows[0])
        seen.add((want is None, (m > n) - (m < n)))
    # consistent and inconsistent, each under-, square and over-determined
    assert seen == {(a, b) for a in (False, True) for b in (-1, 0, 1)}
    assert linalg.solve([], []) == [] == _pivot_solve([], [])
    assert linalg.solve([[]], [Q(0)]) == [] and linalg.solve([[]], [Q(1)]) is None


def test_closed_form_check_catches_a_dropped_base(monkeypatch):
    # z = 2^n + 3^n; with the root 3 dropped, the shared fit over the roots 1
    # and 2 (of E[1] and E[x]) solves z's values 2 and 5 at n = 0 and 1 as
    # -1 + 3*2^n, which the check over every row catches at n = 2 (z = 13)
    text = "vars: x, y, z\ninit: x = 1; y = 1; z = 2\nbody:\n  (x, y, z) = (2*x, 3*y, 2*x + 3*y)\n"
    system = moment_closure(parse_loop(text), [(0, 0, 1)])
    assert str(solve_closed_form(system, system.index((0, 0, 1)))) == "(1)*2^n + (1)*3^n"
    found = rational_roots

    def drop_three(p):
        roots, cofactor = found(p)
        return [(r, m) for r, m in roots if r != 3], cofactor

    monkeypatch.setattr(cfinite, "rational_roots", drop_three)
    # the first solve fills the system's cache, so the check needs a fresh one
    system = moment_closure(parse_loop(text), [(0, 0, 1)])
    with pytest.raises(NoRecurrenceFound, match="disagrees with the sequence at n=2$"):
        solve_closed_form(system, system.index((0, 0, 1)))


_FIBONACCI = "vars: x, y, z\ninit: x = 0; y = 1; z = 1\nbody:\n  (x, y, z) = (y, x + y, 2*z)\n"
_IRRATIONAL = (
    "minimal annihilator has a nonconstant rootless cofactor (L^2 - L - 1); "
    "closed forms over the rationals cannot represent this sequence"
)


@pytest.mark.parametrize("order", list(permutations([(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
def test_irrational_coordinates_leave_the_others_solvable(order):
    # E[x] and E[y] are Fibonacci sequences, E[z] = 2^n: each is refused or
    # solved on its own, whichever is asked for first
    loop = parse_loop(_FIBONACCI)
    system = moment_closure(loop, degree_targets(loop.variables, 1))
    for sym in order * 2:
        if sym == (0, 0, 1):
            assert str(solve_closed_form(system, system.index(sym))) == "(1)*2^n"
        else:
            with pytest.raises(IrrationalEigenvalue) as caught:
                solve_closed_form(system, system.index(sym))
            assert str(caught.value) == _IRRATIONAL


@pytest.mark.parametrize("first", [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)])
def test_irrational_message_names_only_the_leftover_cofactor(first):
    # E[w] is annihilated by (L - 2)(L - 3)(L^2 - L - 1): the root 2 is E[z]'s,
    # the root 3 its own, and the message names the quadratic alone
    loop = parse_loop(
        "vars: x, y, z, w\ninit: x = 0; y = 1; z = 1; w = 1\n"
        "body:\n  (x, y, z, w) = (y, x + y, 2*z, x + 2*z + 3*w)\n"
    )
    system = moment_closure(loop, degree_targets(loop.variables, 1))
    for sym in (first, (0, 0, 0, 1)):
        if sym == (0, 0, 1, 0):
            assert str(solve_closed_form(system, system.index(sym))) == "(1)*2^n"
        else:
            with pytest.raises(IrrationalEigenvalue) as caught:
                solve_closed_form(system, system.index(sym))
            assert str(caught.value) == _IRRATIONAL


def _reference_closed_form(system, symbol_index):
    """One coordinate solved on its own: its annihilator, `rational_roots`
    on all of it, and `linalg.solve` on its own ansatz, in Fractions."""
    order = system.size
    terms = [system.vector_at(n)[symbol_index] for n in range(2 * order + 4)]
    roots, cofactor = rational_roots(minimal_recurrence(terms, order))
    if cofactor.degree >= 1:
        raise IrrationalEigenvalue(
            "minimal annihilator has a nonconstant rootless cofactor "
            f"({cofactor.format('L')}); closed forms over the rationals "
            "cannot represent this sequence"
        )
    mult0 = next((m for r, m in roots if r == 0), 0)
    cols = [(r, j) for r, m in roots if r != 0 for j in range(m)]
    table = [[Q(n) ** j * r**n for r, j in cols] for n in range(len(terms))]
    sol = linalg.solve(table[mult0 : mult0 + len(cols)], terms[mult0 : mult0 + len(cols)])
    for n in range(mult0, len(terms)):
        if sum((a * c for a, c in zip(table[n], sol)), Q(0)) != terms[n]:
            raise NoRecurrenceFound(f"closed form disagrees with the sequence at n={n}")
    coeffs = iter(sol)
    tail = [(r, UniPoly(islice(coeffs, m))) for r, m in roots if r != 0]
    return ExpPoly(tuple(terms[:mult0]), tuple((r, c) for r, c in tail if not c.is_zero()))


def _outcome(solve, system, j):
    try:
        return solve(system, j).to_json()
    except (IrrationalEigenvalue, NoRecurrenceFound) as exc:
        return exc.name, str(exc)


def _fuzz_shared_roots_loop(rng):
    """Three variables under one simultaneous affine assignment, upper
    triangular unless z also reads x: resets and copies (root 0, so
    transients of several lengths), negative bases, equal diagonal entries
    (repeated roots), and sometimes a second branch or irrational roots."""
    names = ["x", "y", "z"]

    def image():
        out = []
        for i, nm in enumerate(names):
            terms = [f"{rng.choice([0, 0, 0, 1, -1, 2, -2, 3, Q(1, 2), Q(-1, 3)])}*{nm}"]
            terms += [f"{rng.choice([0, 0, 1, -1, 2])}*{names[j]}" for j in range(i + 1, 3)]
            if nm == "z" and rng.random() < 0.25:
                terms.append(f"{rng.choice([1, -1, 2])}*x")
            terms.append(str(rng.choice([0, 1, -1, Q(1, 3), 5])))
            out.append(" + ".join(terms))
        return "(" + ", ".join(out) + ")"

    body = image()
    if rng.random() < 0.3:
        body += f" [{rng.choice([Q(1, 2), Q(1, 3), Q(3, 4)])}] {image()}"
    init = "; ".join(f"{nm} = {rng.choice([0, 1, -2, Q(1, 2), 3])}" for nm in names)
    return parse_loop(f"vars: x, y, z\ninit: {init}\nbody:\n  (x, y, z) = {body}\n")


def test_shared_solve_matches_the_per_symbol_reference():
    rng = random.Random(25)
    seen = set()
    for case in range(40):
        loop = _fuzz_shared_roots_loop(rng)
        targets = degree_targets(loop.variables, rng.choice([1, 2]))
        system = moment_closure(loop, targets)
        reference = moment_closure(loop, targets)
        order = list(range(system.size))
        rng.shuffle(order)
        forms = []
        for j in order:
            got = _outcome(solve_closed_form, system, j)
            assert got == _outcome(_reference_closed_form, reference, j), (case, format_loop(loop), j)
            if isinstance(got, dict):
                forms.append(got)
        if len({len(f["transient"]) for f in forms} - {0}) > 1:
            seen.add("transients of two lengths")
        if any(t["base"].startswith("-") for f in forms for t in f["tail"]):
            seen.add("negative base")
        if any(len(t["coeffs"]) > 1 for f in forms for t in f["tail"]):
            seen.add("repeated root")
        if len(forms) < system.size:
            seen.add("irrational")
    assert seen == {"transients of two lengths", "negative base", "repeated root", "irrational"}


def _uncovered(system):
    """The coordinates, walked from the highest symbol down, that a running
    lcm of the minimal annihilators met so far does not annihilate."""
    vectors = [system.vector_at(n) for n in range(2 * system.size + 4)]
    running, passes = Counter(), []
    for j in reversed(range(system.size)):
        roots, cofactor = rational_roots(minimal_recurrence([v[j] for v in vectors], system.size))
        mults = Counter(dict(roots))
        if cofactor.degree >= 1 or mults - running:
            passes.append(j)
            if cofactor.degree < 1:
                running |= mults
    return passes


def _counted(monkeypatch, *names):
    calls = Counter()
    for module, name in names:
        inner = getattr(module, name)

        def wrapper(*args, inner=inner, name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "text, passes, size", zip(_PAST_WINDOW_LOOPS, [3, 1], [10, 6]), ids=["reset", "swap"]
)
def test_one_system_takes_one_rref_and_an_annihilator_only_where_the_running_lcm_falls_short(
    monkeypatch, text, passes, size
):
    loop = parse_loop(text)
    system = moment_closure(loop, degree_targets(loop.variables, 2))
    assert (len(_uncovered(system)), system.size) == (passes, size)
    calls = _counted(monkeypatch, (cfinite, "minimal_recurrence"), (linalg, "rref"), (linalg, "solve"))
    # the second round reads the forms the first one kept
    for _ in range(2):
        for j in range(system.size):
            solve_closed_form(system, j)
        assert calls == {"minimal_recurrence": passes, "rref": 1}


def _solve_each_coordinate(system):
    """The closed forms as solved with one minimal annihilator per
    coordinate: each goes through `minimal_recurrence` and `_split`, and is
    checked on its own columns of the one shared `rref`."""
    order = system.size
    count = 2 * order + 4
    dens, vectors = zip(*islice(system._integer_powers(), count))
    e, scale = dens[0], dens[1] // dens[0]
    seqs = list(zip(*vectors))
    known, out = [], []
    for terms in seqs:
        try:
            out.append(cfinite._split(minimal_recurrence(list(terms), order), known, scale))
        except (IrrationalEigenvalue, NoRecurrenceFound) as exc:
            out.append(exc)
    solved = [i for i, f in enumerate(out) if isinstance(f, tuple)]
    top = {r: max((out[i][1].get(r, 0) for i in solved), default=0) for r in known}
    cols = [(r, j) for r in sorted(known) for j in range(top[r])]
    table = [[r**n * n**j for r, j in cols] for n in range(count)]
    start = max((out[i][0] for i in solved), default=0)
    red, _ = linalg.rref([table[n] + [seqs[i][n] for i in solved] for n in range(start, start + len(cols))])
    for k, i in enumerate(solved):
        (mult0, roots), terms = out[i], seqs[i]
        own = [c for c, (r, j) in enumerate(cols) if j < roots.get(r, 0)]
        sol = [red[c][len(cols) + k] for c in own]
        bad = [n for n in range(mult0, count) if sum(table[n][c] * x for c, x in zip(own, sol)) != terms[n]]
        if bad:
            out[i] = NoRecurrenceFound(f"closed form disagrees with the sequence at n={bad[0]}")
            continue
        coeffs = (c / e for c in sol)
        tail = [(Q(r, scale), UniPoly(islice(coeffs, m))) for r, m in sorted(roots.items())]
        transient = (Q(terms[n], dens[n]) for n in range(mult0))
        out[i] = ExpPoly(tuple(transient), tuple((r, c) for r, c in tail if not c.is_zero()))
    return [f.to_json() if isinstance(f, ExpPoly) else (f.name, str(f)) for f in out]


def _shift_reset_loop(rng):
    """Three or four variables under a body that mixes shifts, constant
    resets and affine updates, some with a second branch: transients of
    several lengths per coordinate, zero tails, repeated and negative roots,
    and coordinates that are zero throughout."""
    names = ["x", "y", "z", "w"][: rng.choice([3, 4])]

    def affine(target):
        terms = [f"{rng.choice([0, 1, -1, 2, -2, 3, Q(1, 2)])}*{target}"]
        terms += [f"{rng.choice([1, -1, 2])}*{v}" for v in names if v != target and rng.random() < 0.3]
        return " + ".join(terms + [str(rng.choice([0, 0, 1, -1, Q(1, 3)]))])

    body = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["shift", "reset", "affine"])
        if kind == "shift":
            chain = rng.sample(names, rng.randint(2, len(names)))
            head = rng.choice([0, 1, -2, Q(1, 2)])
            body.append(f"({', '.join(chain)}) = ({head}, {', '.join(chain[:-1])})")
        elif kind == "reset":
            body.append(f"{rng.choice(names)} = {rng.choice([0, 0, 1, -1, Q(1, 3)])}")
        else:
            target = rng.choice(names)
            expr = affine(target)
            if rng.random() < 0.3:
                expr += f" [{rng.choice([Q(1, 2), Q(1, 3)])}] {affine(target)}"
            body.append(f"{target} = {expr}")
    init = "; ".join(f"{v} = {rng.choice([0, 0, 1, -1, 2, Q(1, 2)])}" for v in names)
    return parse_loop(f"vars: {', '.join(names)}\ninit: {init}\nbody:\n" + "".join(f"  {s}\n" for s in body))


def _fibonacci_rotations():
    # _FIBONACCI with E[z] = 2^n first, in the middle and last
    images = {"x": "y", "y": "x + y", "z": "2*z"}
    for k in range(3):
        names = ["z", "x", "y"][k:] + ["z", "x", "y"][:k]
        body = f"({', '.join(names)}) = ({', '.join(images[v] for v in names)})"
        yield f"vars: {', '.join(names)}\ninit: x = 0; y = 1; z = 1\nbody:\n  {body}\n"


def test_running_annihilator_matches_one_annihilator_per_coordinate(monkeypatch):
    rng = random.Random(42)
    cases = [(_fuzz_affine_loop(rng), d) for _ in range(50) for d in (1, 2, 3)]
    cases += [(parse_loop(text), d) for text in _PAST_WINDOW_LOOPS for d in (1, 2)]
    cases += [(parse_loop(text), d) for text in _fibonacci_rotations() for d in (1, 2)]
    rng = random.Random(34)
    cases += [(_shift_reset_loop(rng), rng.choice([1, 2])) for _ in range(60)]
    calls = _counted(monkeypatch, (cfinite, "minimal_recurrence"))
    seen = set()
    for case, (loop, degree) in enumerate(cases):
        targets = degree_targets(loop.variables, degree)
        want = _solve_each_coordinate(moment_closure(loop, targets))
        system = moment_closure(loop, targets)
        passes = _uncovered(system)
        calls.clear()
        got = [None] * system.size
        for j in sorted(range(system.size), key=lambda j: (j * 7 + case) % system.size):
            got[j] = _outcome(solve_closed_form, system, j)
        assert got == want, (case, format_loop(loop), degree)
        assert calls["minimal_recurrence"] == len(passes), (case, format_loop(loop), degree)
        forms = [f for f in got if isinstance(f, dict)]
        if len({len(f["transient"]) for f in forms} - {0}) > 1:
            seen.add("transients of two lengths")
        longest = max((len(f["transient"]) for f in forms), default=0)
        if any(isinstance(got[j], dict) and len(got[j]["transient"]) < longest for j in passes):
            seen.add("own annihilator, shorter transient")
        if any(f["transient"] and not f["tail"] for f in forms):
            seen.add("zero tail")
        if any(not f["transient"] and not f["tail"] for f in forms):
            seen.add("zero throughout")
        if any(t["base"].startswith("-") for f in forms for t in f["tail"]):
            seen.add("negative base")
        if any(len(t["coeffs"]) > 1 for f in forms for t in f["tail"]):
            seen.add("repeated root")
        if len(forms) < system.size:
            seen.add("refused")
        if len(passes) < system.size:
            seen.add("covered")
    assert seen == {
        "transients of two lengths", "zero tail", "zero throughout", "negative base",
        "repeated root", "refused", "covered", "own annihilator, shorter transient",
    }


def test_threads_solving_one_system_get_the_single_threaded_forms():
    # a fresh system per round, solved by four threads at once: a system
    # keeps only its solved forms, so every thread gets what one thread gets
    loop = parse_loop(
        "vars: x, y\ninit: x = 1; y = 2\nbody:\n  x = 2*x + 1 [1/3] x - 1\n  y = 3*y + x\n"
    )
    base = moment_closure(loop, degree_targets(loop.variables, 2))
    expected = [solve_closed_form(base, i) for i in range(base.size)]
    threads = 4
    results = [None] * threads

    def solve(k, system, started):
        # wait running, not blocked, so that the threads start solving together
        started.append(k)
        while len(started) < threads:
            pass
        try:
            results[k] = [solve_closed_form(system, i) for i in range(system.size)]
        except ToolkitError as exc:
            results[k] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(300):
            system = MomentSystem(base.symbols, base.transition, base.initial)
            started, results[:] = [], [None] * threads
            workers = [threading.Thread(target=solve, args=(k, system, started)) for k in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
            assert results == [expected] * threads, round_
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: rational_roots(UniPoly()), "zero polynomial"),
        (lambda: ExpPoly((Q(1),)).eval(-1), "n >= 0"),
    ],
    ids=["roots-of-zero", "negative-index"],
)
def test_misuse_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
