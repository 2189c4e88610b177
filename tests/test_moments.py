import random
from fractions import Fraction as Q

import pytest

from loopideal import (
    ClosureBudgetExceeded,
    P2PInstance,
    degree_targets,
    enumerate_distribution,
    lift_polynomial_expectation,
    moment_closure,
    moment_ring,
    p2p_to_spinv,
    parse_loop,
    poly_parse,
    simulate,
)
from loopideal.algebra import mono_str
from test_acceptance import _fuzz_affine_loop


def test_lift_examples(two_walks):
    ring = two_walks.variables
    assert lift_polynomial_expectation(two_walks, poly_parse("x^2", ring)) == poly_parse(
        "x^2 + x + 5/2", ring
    )
    assert lift_polynomial_expectation(two_walks, poly_parse("x*y", ring)) == poly_parse(
        "x*y + 1/2*y - 1/2*x - 1/4", ring
    )


def test_lift_deterministic_shift():
    loop = parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x + 2\n")
    assert lift_polynomial_expectation(loop, poly_parse("x", loop.variables)) == poly_parse(
        "x + 2", loop.variables
    )


def test_closure_degree_one(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 1))
    names = [mono_str(e, two_walks.variables) for e in system.symbols]
    assert names == ["1", "x", "y"]
    # unit row for E[1], then E[x]' = E[x] + 1/2, E[y]' = E[y] - 1/2
    assert system.transition[0] == [Q(1), Q(0), Q(0)]
    assert system.transition[1] == [Q(1, 2), Q(1), Q(0)]
    assert system.transition[2] == [Q(-1, 2), Q(0), Q(1)]
    assert system.initial == [Q(1), Q(0), Q(0)]


def test_closure_degree_two_is_stable(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 2))
    names = [mono_str(e, two_walks.variables) for e in system.symbols]
    assert names == ["1", "x", "y", "x^2", "x*y", "y^2"]


def test_closure_budget_exceeded_on_flag_loop(xy_system):
    loop = p2p_to_spinv(P2PInstance(xy_system, (Q(4), Q(6))))
    f_index = loop.variables.index("f")
    target = tuple(1 if i == f_index else 0 for i in range(loop.variables.arity))
    with pytest.raises(ClosureBudgetExceeded):
        moment_closure(loop, [target], budget=100)


def test_unit_moment_is_conserved(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 2))
    for n in range(8):
        assert system.vector_at(n)[0] == 1


def _oracle_moment(loop, dist, sym):
    total = Q(0)
    for st, pr in dist.items():
        v = pr
        for x, k in zip(st, sym):
            if k:
                v *= x**k
        total += v
    return total


def test_matrix_powers_match_oracle(two_walks):
    system = moment_closure(two_walks, degree_targets(two_walks.variables, 2))
    for n in range(9):
        dist = enumerate_distribution(two_walks, n)
        vec = system.vector_at(n)
        for j, sym in enumerate(system.symbols):
            assert vec[j] == _oracle_moment(two_walks, dist, sym)


def test_matrix_powers_match_oracle_fuzzed():
    rng = random.Random(99)
    for _ in range(10):
        c1, c2 = rng.choice([0, 1, 2]), rng.choice([0, 1, -1])
        pr = rng.choice([Q(1, 2), Q(1, 3), Q(2, 3), Q(1, 4)])
        text = (
            "vars: x, y\ninit: x = 1; y = 0\nbody:\n"
            f"  x = {c1}*x + 1 [{pr}] x - 1\n"
            f"  y = y + {c2}*x\n"
        )
        loop = parse_loop(text)
        system = moment_closure(loop, degree_targets(loop.variables, 2))
        for n in range(6):
            dist = enumerate_distribution(loop, n)
            vec = system.vector_at(n)
            for j, sym in enumerate(system.symbols):
                assert vec[j] == _oracle_moment(loop, dist, sym)


def test_vector_at_matches_dense_iteration():
    # the 50 criterion-6 systems, against a dense product over every entry
    rng = random.Random(42)
    for trial in range(50):
        loop = _fuzz_affine_loop(rng)
        system = moment_closure(loop, list(moment_ring(loop.variables, 2).symbols))
        vec = list(system.initial)
        for n in range(13):
            assert system.vector_at(n) == vec, (trial, n)
            vec = [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in system.transition]


def test_deterministic_degeneration(xy_system):
    system = moment_closure(xy_system, degree_targets(xy_system.variables, 2))
    states = simulate(xy_system, 10)
    for n in range(11):
        vec = system.vector_at(n)
        for j, sym in enumerate(system.symbols):
            expected = Q(1)
            for x, k in zip(states[n], sym):
                if k:
                    expected *= x**k
            assert vec[j] == expected


def test_degree_targets_order():
    from loopideal import VarRing

    ring = VarRing(["x", "y"])
    assert degree_targets(ring, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

