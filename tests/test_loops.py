import random
from fractions import Fraction as Q
from itertools import islice

import pytest

from loopideal import (
    GuardUnsupported,
    LRSInstance,
    NotDeterministic,
    ParseError,
    ProbabilitySumError,
    SupportBudgetExceeded,
    distributions,
    enumerate_distribution,
    expected_moment,
    format_loop,
    lift_polynomial_expectation,
    lrs_eval,
    parse_loop,
    poly_parse,
    simulate,
    skolem_to_p2p,
)
from loopideal.loops import lrs_terms


def test_parse_two_walk_loop(two_walks):
    assert two_walks.variables.names == ("x", "y")
    assert len(two_walks.body) == 2
    for stmt in two_walks.body:
        assert [pr for pr, _ in stmt.branches] == [Q(1, 2), Q(1, 2)]
    assert not two_walks.deterministic


def test_parse_deterministic_flag_loop():
    text = """\
vars: x, y, f, g
init: x = 0; y = 0; f = 1; g = 0
body:
  (x, y) = (x + 2, y + 3)
  f = f*((x - 4)^2 + (y - 6)^2)
  g = g + 1
"""
    loop = parse_loop(text)
    assert loop.deterministic
    assert loop.variables.arity == 4
    assert all(len(s.branches) == 1 for s in loop.body)


def test_guard_rejection():
    bad = "vars: x\ninit: x = 0\nbody:\n  if x = 0\n"
    with pytest.raises(GuardUnsupported):
        parse_loop(bad)
    with pytest.raises(GuardUnsupported):
        parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x < 1\n")


def test_probability_sum_error():
    with pytest.raises(ProbabilitySumError):
        parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x [1/2] x + 1 [1/2] x - 1\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_loop("vars: x\nbody:\n  x = x\n")  # missing init
    with pytest.raises(ParseError):
        parse_loop("vars: x\ninit: x = 0\nbody:\n  x\n")


def test_three_branch_probabilities():
    loop = parse_loop(
        "vars: x\ninit: x = 0\nbody:\n  x = x + 1 [1/2] x [1/3] x - 1\n"
    )
    assert [pr for pr, _ in loop.body[0].branches] == [Q(1, 2), Q(1, 3), Q(1, 6)]


def test_format_parse_round_trip(two_walks, xy_system):
    for loop in (two_walks, xy_system):
        assert parse_loop(format_loop(loop)) == loop


def test_comments_and_blank_lines():
    text = """\
vars: x   # one walker
init: x = 0
body:
  # move
  x = x + 1 [1/2] x - 1
"""
    loop = parse_loop(text)
    assert len(loop.body) == 1


def test_simulate_flag_loop_hits_zero():
    loop = parse_loop(
        "vars: x, y, f, g\ninit: x = 0; y = 0; f = 1; g = 0\nbody:\n"
        "  (x, y) = (x + 2, y + 3)\n"
        "  f = f*((x - 4)^2 + (y - 6)^2)\n"
        "  g = g + 1\n"
    )
    states = simulate(loop, 2)
    assert states[0] == (Q(0), Q(0), Q(1), Q(0))
    assert states[1] == (Q(2), Q(3), Q(13), Q(1))
    assert states[2] == (Q(4), Q(6), Q(0), Q(2))


def test_simulate_empty_body():
    loop = parse_loop("vars: x\ninit: x = 7\nbody:\n")
    assert simulate(loop, 5) == [(Q(7),)] * 6


def test_simulate_skolem_system(lrs_order3):
    loop = skolem_to_p2p(lrs_order3).system
    states = simulate(loop, 1)
    assert states[0] == (Q(2), Q(-6), Q(-36))
    # shifted coordinates move left; the last entry follows the product rule
    assert states[1][:2] == (Q(-6), Q(-36))
    assert states[1][2] == Q(-5184)


def test_simulate_requires_deterministic(two_walks):
    with pytest.raises(NotDeterministic):
        simulate(two_walks, 3)


def test_distribution_symmetric_walk(symmetric_walk):
    dist = enumerate_distribution(symmetric_walk, 2)
    assert dist == {(Q(-2),): Q(1, 4), (Q(0),): Q(1, 2), (Q(2),): Q(1, 4)}


def test_distribution_initial_point_mass(two_walks):
    assert enumerate_distribution(two_walks, 0) == {(Q(0), Q(0)): Q(1)}


def test_distribution_two_walks_one_step(two_walks):
    dist = enumerate_distribution(two_walks, 1)
    assert len(dist) == 4
    assert set(dist.values()) == {Q(1, 4)}


def test_distribution_mass_is_one(two_walks):
    for n in range(6):
        assert sum(enumerate_distribution(two_walks, n).values()) == 1


def test_distribution_point_mass_for_deterministic(xy_system):
    for n in range(5):
        dist = enumerate_distribution(xy_system, n)
        assert dist == {simulate(xy_system, n)[n]: Q(1)}


def test_support_budget():
    loop = parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x + 1 [1/2] 2*x - 1\n")
    with pytest.raises(SupportBudgetExceeded):
        enumerate_distribution(loop, 10, support_cap=10)
    steps = distributions(loop, support_cap=10)
    for n in range(4):
        assert next(steps) == enumerate_distribution(loop, n, support_cap=10)
    with pytest.raises(SupportBudgetExceeded):
        for _ in range(10):
            next(steps)


def test_distributions_step_by_step(two_walks):
    steps = distributions(two_walks)
    for n in range(6):
        assert next(steps) == enumerate_distribution(two_walks, n)
    assert enumerate_distribution(two_walks, -1) == {(Q(0), Q(0)): Q(1)}


def test_sequential_semantics_matches_composed_map():
    # later statements read earlier updates; composing the two updates into
    # a single map by substitution must agree with simulation
    loop = parse_loop(
        "vars: u, v\ninit: u = 1; v = 2\nbody:\n  u = u + v\n  v = u*v\n"
    )
    ring = loop.variables
    u_new = poly_parse("u + v", ring)
    v_new = poly_parse("u*v", ring).substitute({"u": u_new})
    rng = random.Random(5)
    for _ in range(20):
        state = (Q(rng.randint(-4, 4)), Q(rng.randint(-4, 4)))
        stepped = simulate(
            type(loop)(loop.variables, state, loop.body), 1
        )[1]
        assert stepped == (u_new.eval(state), v_new.eval(state))


def test_tuple_assignment_is_simultaneous():
    loop = parse_loop("vars: u, v\ninit: u = 3; v = 5\nbody:\n  (u, v) = (u + v, u - v)\n")
    assert simulate(loop, 1)[1] == (Q(8), Q(-2))


def test_probabilistic_tuple_assignment():
    loop = parse_loop(
        "vars: u, v\ninit: u = 0; v = 0\nbody:\n"
        "  (u, v) = (u + 1, v) [1/3] (u, v + 1)\n"
    )
    assert parse_loop(format_loop(loop)) == loop
    dist = enumerate_distribution(loop, 1)
    assert dist == {(Q(1), Q(0)): Q(1, 3), (Q(0), Q(1)): Q(2, 3)}
    # the two targets share one coin: u + v increases by exactly 1
    for st in enumerate_distribution(loop, 4):
        assert st[0] + st[1] == 4


def test_expected_moment_symmetric_walk(symmetric_walk):
    for n in range(6):
        assert expected_moment(symmetric_walk, (1,), n) == 0


def test_expected_moment_two_walks(two_walks):
    assert expected_moment(two_walks, (1, 0), 4) == 2
    # independence of the two walks, exactly
    for n in range(11):
        exy = expected_moment(two_walks, (1, 1), n)
        ex = expected_moment(two_walks, (1, 0), n)
        ey = expected_moment(two_walks, (0, 1), n)
        assert exy == ex * ey


def test_expected_moment_deterministic_equals_state_monomial(xy_system):
    for n in range(5):
        st = simulate(xy_system, n)[n]
        assert expected_moment(xy_system, (2, 1), n) == st[0] ** 2 * st[1]


def test_lift_matches_oracle_one_step(two_walks):
    p = poly_parse("x^2*y - x", two_walks.variables)
    lifted = lift_polynomial_expectation(two_walks, p)
    # E[p after one step | init] equals the lift evaluated at init
    dist = enumerate_distribution(two_walks, 1)
    oracle = sum((pr * p.eval(st) for st, pr in dist.items()), Q(0))
    assert lifted.eval(two_walks.init) == oracle


def test_lrs_eval_examples(lrs_order3):
    assert lrs_eval(lrs_order3, 3) == -12
    assert lrs_eval(lrs_order3, 5) == 0
    for n in range(3):
        assert lrs_eval(lrs_order3, n) == lrs_order3.init[n]


def test_lrs_terms_match_lrs_eval(lrs_order3):
    fib = LRSInstance.from_json({"coeffs": ["1", "1"], "init": ["0", "1"]})
    halving = LRSInstance((Q(1, 2),), (Q(3),))
    for lrs in (lrs_order3, fib, halving):
        # u(n + k) = a_0 u(n) + ... + a_{k-1} u(n + k - 1), unrolled here
        expected = list(lrs.init)
        while len(expected) < 40:
            window = expected[len(expected) - lrs.order:]
            expected.append(sum(a * u for a, u in zip(lrs.coeffs, window)))
        assert list(islice(lrs_terms(lrs), 40)) == expected
        assert [lrs_eval(lrs, n) for n in range(40)] == expected


def test_lrs_eval_rejects_negative_index(lrs_order3):
    with pytest.raises(ValueError, match="n >= 0"):
        lrs_eval(lrs_order3, -1)


def test_lrs_json_round_trip(lrs_order3):
    again = LRSInstance.from_json(lrs_order3.to_json())
    assert again == lrs_order3
    assert lrs_order3.coeffs == (Q(-12), Q(-2), Q(2))


def test_lrs_validation():
    with pytest.raises(ValueError):
        LRSInstance((Q(0), Q(1)), (Q(1), Q(1)))
    with pytest.raises(ValueError):
        LRSInstance((), ())
