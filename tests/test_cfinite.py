import random
from fractions import Fraction as Q
from math import gcd

import pytest

from loopideal import cfinite, linalg
from loopideal import (
    ExpPoly,
    IrrationalEigenvalue,
    NoRecurrenceFound,
    Polynomial,
    UniPoly,
    VarRing,
    degree_targets,
    minimal_recurrence,
    moment_closure,
    parse_loop,
    poly_parse,
    rational_roots,
    solve_closed_form,
)


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


def test_rational_roots_composed():
    p = _upoly(1, -2, 1) * _upoly(-3, 1)  # (L-1)^2 (L-3)
    roots, cofactor = rational_roots(p)
    assert roots == [(Q(1), 2), (Q(3), 1)]
    assert cofactor.degree == 0


def test_rational_roots_irrational_cofactor():
    roots, cofactor = rational_roots(_upoly(-2, 0, 1))  # L^2 - 2
    assert roots == []
    assert cofactor == _upoly(-2, 0, 1)


def test_rational_roots_zero_root():
    roots, cofactor = rational_roots(_upoly(0, 1, 1))  # L^2 + L
    assert set(roots) == {(Q(0), 1), (Q(-1), 1)}
    assert cofactor.degree == 0


def test_rational_roots_fractional():
    p = _upoly(-1, 2) * _upoly(-3, 2)  # (2L-1)(2L-3)
    roots, cofactor = rational_roots(p)
    assert set(r for r, _ in roots) == {Q(1, 2), Q(3, 2)}
    assert cofactor.degree == 0


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
    # z = 2^n + 3^n; with the root 3 dropped, the ansatz 2^n fits n = 0 only
    loop = parse_loop(
        "vars: x, y, z\ninit: x = 1; y = 1; z = 2\n"
        "body:\n  (x, y, z) = (2*x, 3*y, 2*x + 3*y)\n"
    )
    system = moment_closure(loop, [(0, 0, 1)])
    assert str(solve_closed_form(system, system.index((0, 0, 1)))) == "(1)*2^n + (1)*3^n"
    found = rational_roots

    def drop_three(p):
        roots, cofactor = found(p)
        return [(r, m) for r, m in roots if r != 3], cofactor

    monkeypatch.setattr(cfinite, "rational_roots", drop_three)
    with pytest.raises(NoRecurrenceFound, match="disagrees with the sequence at n=1"):
        solve_closed_form(system, system.index((0, 0, 1)))
