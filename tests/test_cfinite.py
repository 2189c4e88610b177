from fractions import Fraction as Q

import pytest

from loopideal import (
    ExpPoly,
    IrrationalEigenvalue,
    NoRecurrenceFound,
    UniPoly,
    degree_targets,
    minimal_recurrence,
    moment_closure,
    parse_loop,
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
    again = ExpPoly.from_json(form.to_json())
    assert again == form


def test_unipoly_compose_affine():
    p = _upoly(1, 2, 3)  # 1 + 2n + 3n^2
    q = p.compose_affine(2, 5)  # n -> 2n + 5
    for n in range(6):
        assert q(n) == p(2 * n + 5)
