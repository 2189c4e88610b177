import copy
import pickle
import random
from fractions import Fraction as Q
from itertools import islice, product
from math import gcd
from pathlib import Path

import pytest

from loopideal import (
    ArityMismatch,
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
from loopideal import loops
from loopideal.algebra import Polynomial, VarRing
from loopideal.loops import Assignment, LoopProgram, lrs_terms


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


BRANCHES = Path(__file__).parent / "golden" / "branches.loop"


def test_format_parse_round_trip(two_walks, xy_system, symmetric_walk):
    branches = parse_loop(BRANCHES.read_text())
    for loop in (two_walks, xy_system, symmetric_walk, branches):
        assert parse_loop(format_loop(loop)) == loop


def test_branch_positions_index_the_right_hand_side():
    rhs = " (x, y) [1/2] (y, x [1/2]"
    with pytest.raises(ParseError) as err:
        parse_loop(f"vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, y) ={rhs}\n")
    assert err.value.position == rhs.rindex("[")


@pytest.mark.parametrize(
    "body, error",
    [
        ("x = (x + 1", ParseError),
        ("x = x + 1)", ParseError),
        ("x = x + 1 [1/2]", ParseError),
        ("x = [1/2] x", ParseError),
        ("x = x [0] y", ProbabilitySumError),
        ("x = x [1/2] y [2/3] x", ProbabilitySumError),
        ("x = x [1/0] y", ParseError),
        ("x = x [-1/2] y", ParseError),
        ("x = x [0.5] y", ParseError),
        ("x = x^-1", ParseError),
        ("x = (x, y)", ParseError),
        ("(x, y) = x, y", ParseError),
        ("(x, y) = (x, y", ParseError),
        ("(x, y) = (x + 1), y", ParseError),
        ("(x, y) = (x, y) [1/2] (y)", ArityMismatch),
        ("(x, y) = (x, y, x)", ArityMismatch),
    ],
)
def test_malformed_branches_keep_their_error_types(body, error):
    with pytest.raises(error):
        parse_loop(f"vars: x, y\ninit: x = 0; y = 0\nbody:\n  {body}\n")


@pytest.mark.parametrize("value", ["1e5", "2.5", "1_000", "--1", "1/2/3", "x", ""])
def test_init_value_is_a_signed_integer_or_fraction(value):
    with pytest.raises(ParseError):
        parse_loop(f"vars: x\ninit: x = {value}\nbody:\n")


def test_loop_variables_are_identifiers():
    with pytest.raises(ParseError):
        parse_loop("vars: E[x], y\ninit: y = 0\nbody:\n")


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


def _reference_distributions(loop, support_cap):
    """The plain `Fraction` stepper: every branch evaluated by `Polynomial.eval`."""
    ring = loop.variables
    dist = {loop.init: Q(1)}
    while True:
        yield dist
        for stmt in loop.body:
            new = {}
            for state, mass in dist.items():
                for pr, exprs in stmt.branches:
                    out = list(state)
                    for nm, p in zip(stmt.targets, exprs):
                        out[ring.index(nm)] = p.eval(state)
                    nxt = tuple(out)
                    new[nxt] = new.get(nxt, Q(0)) + mass * pr
            if len(new) > support_cap:
                raise SupportBudgetExceeded("reference support cap")
            dist = new


def _random_loop(rng):
    """1-4 variables, 1-4 statements with tuple targets in random order, 1-3
    branches with probabilities over 12, some of them constant.  The
    expressions read a random subset of the variables, possibly none, and
    their coefficients have denominators 1, 2, 3 and 7 (some are zero).  Each
    statement has degree <= 3 and the degrees multiply to at most 9, so the
    values stay small over the compared steps."""
    arity = rng.randint(1, 4)
    ring = VarRing("wxyz"[:arity])
    read = rng.sample(range(arity), rng.randint(0, arity))
    budget = 9

    def rational():
        return Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))

    body = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, min(3, budget))
        budget //= degree
        monos = [
            e for e in product(range(degree + 1), repeat=arity)
            if sum(e) <= degree and all(e[i] == 0 for i in range(arity) if i not in read)
        ]
        targets = rng.sample(ring.names, rng.randint(1, arity))
        cuts = sorted(rng.sample(range(1, 12), rng.randint(1, 3) - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, 12])]
        branches = []
        for w in weights:
            pool = monos if rng.random() < 0.8 else [(0,) * arity]
            exprs = tuple(
                Polynomial(ring, {rng.choice(pool): rational() for _ in range(rng.randint(1, 3))})
                for _ in targets
            )
            branches.append((Q(w, 12), exprs))
        body.append(Assignment(tuple(targets), tuple(branches)))
    return LoopProgram(ring, tuple(rational() for _ in range(arity)), tuple(body))


def _with_new_constants(loop, rng):
    """The loop with the same targets, branch count and monomials, but fresh
    nonzero coefficients, probabilities and initial values."""

    def nonzero():
        return Q(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2, 3, 7)))

    body = []
    for stmt in loop.body:
        cuts = sorted(rng.sample(range(1, 12), len(stmt.branches) - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, 12])]
        branches = tuple(
            (Q(w, 12), tuple(Polynomial(p.ring, {e: nonzero() for e in p.terms}) for p in exprs))
            for w, (_, exprs) in zip(weights, stmt.branches)
        )
        body.append(Assignment(stmt.targets, branches))
    return LoopProgram(loop.variables, tuple(nonzero() for _ in loop.init), tuple(body))


def _first_steps(steps, count):
    """The first `count` distributions as item lists, up to a budget error."""
    out = []
    try:
        for dist in islice(steps, count):
            out.append(list(dist.items()))
    except SupportBudgetExceeded:
        out.append("over budget")
    return out


def _assert_all_fractions(steps):
    # `==` would let an int 3 stand in for Fraction(3)
    for items in steps:
        if items != "over budget":
            for state, mass in items:
                assert all(type(v) is Q for v in (*state, mass)), (state, mass)


def _assert_matches_the_fraction_stepper(loop):
    for cap in (3, 400):
        want = _first_steps(_reference_distributions(loop, cap), 4)
        got = _first_steps(distributions(loop, cap), 4)
        assert got == want, format_loop(loop)
        _assert_all_fractions(got)


def test_distributions_match_the_fraction_stepper():
    # same dicts in the same insertion order, which `simulate` relies on; each
    # loop's twin with other constants runs the code generated for the loop
    rng = random.Random(18)
    seen = set()
    for _ in range(300):
        loop = _random_loop(rng)
        _assert_matches_the_fraction_stepper(loop)
        compiles = loops._factory.cache_info().misses
        _assert_matches_the_fraction_stepper(_with_new_constants(loop, rng))
        assert loops._factory.cache_info().misses == compiles
        read = set()
        for stmt in loop.body:
            for _, exprs in stmt.branches:
                if not any(any(e) for p in exprs for e in p.terms):
                    seen.add("constant branch")
                read.update(i for p in exprs for e in p.terms for i, k in enumerate(e) if k)
        seen.add(f"arity {loop.variables.arity}")
        seen.add(f"{len(loop.body)} statements")
        if len(read) < loop.variables.arity:
            seen.add("unread variable")
    assert seen >= {
        *(f"arity {k}" for k in range(1, 5)),
        *(f"{k} statements" for k in range(1, 5)),
        "constant branch",
        "unread variable",
    }


def test_large_support_matches_the_fraction_stepper():
    # 4,096 states at horizon 6, whose values have mixed denominators
    loop = parse_loop((Path(__file__).parent / "golden" / "mixed.loop").read_text())
    want = _first_steps(_reference_distributions(loop, loops.DEFAULT_SUPPORT_CAP), 7)
    got = _first_steps(distributions(loop), 7)
    assert [len(items) for items in got] == [4**n for n in range(7)]
    assert got == want
    _assert_all_fractions(got)


def _first_branches(loop):
    """The deterministic loop that keeps each statement's first branch."""
    body = tuple(Assignment(stmt.targets, ((Q(1), stmt.branches[0][1]),)) for stmt in loop.body)
    return LoopProgram(loop.variables, loop.init, body)


def _assert_simulate_matches(loop, n):
    states = simulate(loop, n)
    assert states == [next(iter(d)) for d in islice(distributions(loop), n + 1)]
    assert states == [next(iter(d)) for d in islice(_reference_distributions(loop, 1), n + 1)]
    assert all(type(v) is Q for state in states for v in state)
    return states


def test_simulate_matches_the_distributions_and_the_fraction_stepper():
    rng = random.Random(40)
    zeros = 0
    for _ in range(150):
        loop = _first_branches(_random_loop(rng))
        states = _assert_simulate_matches(loop, 4)
        zeros += any(v == 0 for state in states[1:] for v in state)
        assert simulate(loop, -1) == [loop.init]
    assert zeros  # some value reaches 0 and is set as 0/1


def test_simulate_through_a_cancelling_denominator_and_zero():
    loop = parse_loop("vars: x, y\ninit: x = 3/4; y = 2\nbody:\n  x = 4/3*x*y\n  y = y - 1\n")
    states = _assert_simulate_matches(loop, 4)
    assert states == [
        (Q(3, 4), Q(2)),
        (Q(2), Q(1)),  # 4/3 * 3/4 * 2 cancels to 2/1
        (Q(8, 3), Q(0)),
        (Q(0), Q(-1)),
        (Q(0), Q(-2)),
    ]
    assert [(v.numerator, v.denominator) for v in states[3]] == [(0, 1), (-1, 1)]
    assert simulate(loop, -1) == [(Q(3, 4), Q(2))]


def _coprime_pairs():
    """0/1, +-1, integers and fractions past 2**64, and seeded pairs of up to
    130 bits, about half of them with d = 1, each divided by its gcd."""
    rng = random.Random(40)
    pairs = [(0, 1), (1, 1), (-1, 1), (7, 1), (-7, 1), (2**64 + 1, 1), (-(2**64) - 1, 1)]
    pairs += [(-1, 2**64 + 1), (3**50, 2**70), (-(2**65) - 3, 3**41)]
    while len(pairs) < 60:
        n = rng.randint(-(2 ** rng.randint(1, 130)), 2 ** rng.randint(1, 130))
        pairs.append((n, rng.choice((1, rng.randint(1, 2 ** rng.randint(1, 130))))))
    return [(n // gcd(n, d), d // gcd(n, d)) for n, d in pairs]


@pytest.mark.parametrize("n, d", _coprime_pairs())
def test_lowest_is_the_normalized_fraction(n, d):
    q, want = loops._lowest(n, d), Q(n, d)
    assert type(q) is Q
    assert (q.numerator, q.denominator) == (n, d)
    assert q == want
    assert (hash(q), str(q), repr(q)) == (hash(want), str(want), repr(want))
    for other in (Q(0), Q(1), Q(-5, 3), Q(2**70 + 1, 3), 2, -3):
        assert q + other == want + other and other - q == other - want
        assert q * other == want * other
        assert (q < other, q >= other) == (want < other, want >= other)
        if other:
            assert q / other == want / other
        if q:
            assert other / q == other / want
    assert q**2 == want**2 and -q == -want and abs(q) == abs(want)
    assert {q: 1}[want] == 1
    for twin in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert type(twin) is Q
        assert twin == want and hash(twin) == hash(want)


def test_statements_of_one_shape_share_one_compile():
    def loop(body):
        return parse_loop(f"vars: x, y\ninit: x = 1/2; y = 3\nbody:\n  {body}\n")

    loops._factory.cache_clear()
    for body in (
        "(x, y) = (3*x*y + 1/2, y - 1) [1/3] (x, 5*y^2)",
        "(x, y) = (-2/7*x*y + 4, 3*y + 2) [3/4] (-1/2*x, -y^2)",  # other constants
    ):
        _assert_matches_the_fraction_stepper(loop(body))
        assert loops._factory.cache_info().misses == 1
    assert enumerate_distribution(loop(body), 1) == {
        (Q(25, 7), Q(11)): Q(3, 4),
        (Q(-1, 4), Q(-9)): Q(1, 4),
    }
    for compiles, body in enumerate(
        [
            "(y, x) = (3*x*y + 1/2, y - 1) [1/3] (x, 5*y^2)",  # other targets
            "(x, y) = (3*x + 1/2, y - 1) [1/3] (x, 5*y^2)",  # other used variables
        ],
        start=2,
    ):
        _assert_matches_the_fraction_stepper(loop(body))
        assert loops._factory.cache_info().misses == compiles


def test_no_loop_text_reaches_the_generated_code():
    # variables named like the generated code's own locals and helpers
    loop = parse_loop(
        "vars: s, mass, gcd, key, n0, d0, k0, a1, b1, t0, m, g, get, new, dist, make\n"
        "init: s = 1/2; mass = 1; gcd = 2; key = -1; n0 = 3; d0 = 1/3; k0 = 0; a1 = 1;"
        " b1 = 2; t0 = 3; m = 1; g = 2; get = 0; new = 1; dist = 2; make = 1/5\n"
        "body:\n"
        "  (s, key, m) = (s*mass + gcd, key^2, n0*d0) [1/3] (n0*d0, k0 + 1, get - 1)\n"
        "  gcd = gcd*s + 1/2*a1*b1*t0*m*g*new*dist*make\n"
    )
    _assert_matches_the_fraction_stepper(loop)


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


X = VarRing(["x"])
XV = Polynomial.var(X, "x")
FOREIGN_XV = Polynomial.var(VarRing(["x", "y"]), "x")


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Assignment((), ((Q(1), ()),)), ValueError, "nonempty tuple of distinct"),
        (lambda: Assignment(("x", "x"), ((Q(1), (XV, XV)),)), ValueError, "nonempty tuple of distinct"),
        (lambda: Assignment(("x",), ()), ValueError, "at least one branch"),
        (lambda: Assignment(("x",), ((Q(1), (XV, XV)),)), ArityMismatch, "branch arity"),
        (lambda: Assignment(("x",), ((Q(1, 2), (XV,)),)), ProbabilitySumError, "sum to 1/2"),
        (lambda: LoopProgram(X, (Q(0), Q(1)), ()), ArityMismatch, "one initial value"),
        (
            lambda: LoopProgram(X, (Q(0),), (Assignment(("x",), ((Q(1), (FOREIGN_XV,)),)),)),
            ArityMismatch,
            "foreign ring",
        ),
        (
            lambda: expected_moment(LoopProgram(X, (Q(0),), ()), (1, 0), 2),
            ArityMismatch,
            "monomial arity",
        ),
    ],
    ids=["no-targets", "repeated-target", "no-branches", "branch-arity", "probability-sum",
         "init-count", "foreign-ring", "moment-arity"],
)
def test_misuse_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
