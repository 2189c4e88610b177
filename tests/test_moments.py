import random
import signal
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest

from loopideal import (
    Assignment,
    ClosureBudgetExceeded,
    LoopProgram,
    P2PInstance,
    Polynomial,
    VarRing,
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
from test_algebra import _term_by_term


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
    rows = [dict(row) for row in system.transition]
    assert rows == [{0: Q(1)}, {0: Q(1, 2), 1: Q(1)}, {0: Q(-1, 2), 2: Q(1)}]
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


def test_closure_budget_exceeded_on_repeated_squaring():
    # E[x^(2^k)] lifts to E[x^(2^(k+1))]: the degree doubles with each symbol,
    # so a monomial's image is built by halving its degree, not one x at a time
    loop = parse_loop("vars: x\ninit: x = 2\nbody:\n  x = x^2\n")
    with pytest.raises(ClosureBudgetExceeded):
        moment_closure(loop, [(1,)])


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
        dense = [[Q(0)] * system.size for _ in range(system.size)]
        for i, row in enumerate(system.transition):
            for j, a in row:
                dense[i][j] = a
        vec = list(system.initial)
        for n in range(13):
            assert system.vector_at(n) == vec, (trial, n)
            vec = [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in dense]


def test_transition_rows_are_the_lifted_terms():
    # row i holds lift(symbol i) with each monomial mapped to its index
    rng = random.Random(42)
    for trial in range(50):
        loop = _fuzz_affine_loop(rng)
        system = moment_closure(loop, list(moment_ring(loop.variables, 2).symbols))
        for sym, row in zip(system.symbols, system.transition):
            lifted = lift_polynomial_expectation(loop, Polynomial.monomial(loop.variables, sym))
            assert all(a for _, a in row), (trial, sym)
            assert len(dict(row)) == len(row)
            assert dict(row) == {system.index(e): c for e, c in lifted.terms.items()}, (trial, sym)


def _reference_lift(loop, p):
    """The expectation transformer as a fold: per statement, from the last,
    the probability-weighted sum of p at each branch's images, expanded term
    by term (`_term_by_term`, which shares no code with the lift)."""
    ring = loop.variables
    for stmt in reversed(loop.body):
        acc = Polynomial.zero(ring)
        for pr, exprs in stmt.branches:
            image = dict(zip(stmt.targets, exprs))
            point = [image.get(nm, Polynomial.var(ring, nm)) for nm in ring.names]
            acc = acc + _term_by_term(p, point, ring) * pr
        p = acc
    return p


_SPLITS = ([Q(1)], [Q(1, 2)] * 2, [Q(1, 3), Q(2, 3)], [Q(1, 3)] * 3, [Q(1, 4), Q(1, 4), Q(1, 2)])


def _fuzz_tuple_loop(rng, splits=tuple(s for s in _SPLITS if len(s) <= 3), coeff=None, statements=(1, 3)):
    """1-3 statements of 1-3 branches over x, y, z, with simultaneous images:
    x and y go to affine forms in x, y (a swap among them), z to a multiple
    of z plus a quadratic in x, y, so every moment closure is finite.
    `splits`, `coeff` and `statements` override the branch probabilities,
    the coefficients and the range of the statement count."""
    ring = VarRing(["x", "y", "z"])
    x, y, z = (Polynomial.var(ring, nm) for nm in ring.names)

    coeff = coeff or (lambda: Q(rng.choice([-1, 0, 1, 2, Q(1, 2), Q(-1, 3)])))

    def affine():
        return x * coeff() + y * coeff() + coeff()

    def quadratic():
        return x * y * coeff() + x * x * coeff() + affine()

    shapes = [
        (("x", "y"), lambda: rng.choice([(y, x), (affine(), affine()), (y, affine())])),
        (("z", "x"), lambda: (z * coeff() + quadratic(), affine())),
        (("z",), lambda: (z * coeff() + quadratic(),)),
        (("y",), lambda: (affine(),)),
    ]
    body = []
    for _ in range(rng.randint(*statements)):
        targets, images = rng.choice(shapes)
        split = rng.choice(splits)
        body.append(Assignment(targets, tuple((pr, images()) for pr in split)))
    init = tuple(Q(rng.choice([0, 1, -1, Q(1, 2)])) for _ in range(3))
    return LoopProgram(ring, init, tuple(body))


def test_lift_and_closure_rows_match_the_substitution_fold():
    rng = random.Random(2024)
    simultaneous = 0
    for trial in range(40):
        loop = _fuzz_tuple_loop(rng)
        simultaneous += any(len(stmt.targets) > 1 for stmt in loop.body)
        ring = loop.variables
        system = moment_closure(loop, degree_targets(ring, rng.randint(1, 3)))
        for sym, row in zip(system.symbols, system.transition):
            want = _reference_lift(loop, Polynomial.monomial(ring, sym))
            assert dict(row) == {system.index(e): c for e, c in want.terms.items()}, (trial, sym)
        p = sum(
            (Polynomial.monomial(ring, sym, Q(rng.randint(-3, 3), rng.randint(1, 4)))
             for sym in rng.sample(degree_targets(ring, 3), 4)),
            Polynomial.zero(ring),
        )
        assert lift_polynomial_expectation(loop, p) == _reference_lift(loop, p), trial
    assert simultaneous >= 20


def _in_lowest_terms(c):
    return type(c) is Q and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def test_lift_carries_the_running_denominator_across_coprime_weights():
    # branch weights over 7 and 11 and coefficients over 5, 9 and 49 give the
    # statements denominators of different primes, so a dropped, doubled or
    # misplaced factor of the running denominator changes a value
    rng = random.Random(29)
    splits = ([Q(2, 7), Q(5, 7)], [Q(3, 11), Q(8, 11)], [Q(2, 7), Q(3, 11), Q(34, 77)])

    def coeff():
        return Q(rng.choice([-4, -1, 1, 2, 3]), rng.choice([5, 9, 49]))

    for trial in range(12):
        loop = _fuzz_tuple_loop(rng, splits, coeff, statements=(2, 3))
        ring = loop.variables
        system = moment_closure(loop, degree_targets(ring, rng.randint(1, 2)))
        for sym, row in zip(system.symbols, system.transition):
            assert all(_in_lowest_terms(a) for _, a in row), (trial, sym)
            want = _reference_lift(loop, Polynomial.monomial(ring, sym))
            assert dict(row) == {system.index(e): c for e, c in want.terms.items()}, (trial, sym)
        p = sum(
            (Polynomial.monomial(ring, sym, coeff()) for sym in rng.sample(degree_targets(ring, 2), 4)),
            Polynomial.zero(ring),
        )
        lifted = lift_polynomial_expectation(loop, p)
        assert all(map(_in_lowest_terms, lifted.terms.values())), trial
        assert lifted == _reference_lift(loop, p), trial


def test_closure_of_the_flag_loop_reaches_its_budget_in_seconds():
    # f's lift multiplies it by a quadratic in x and y, so the degree-1
    # targets have no closure; 1,600 symbols of integer lifts take seconds
    def past_guard(*_):
        raise AssertionError("moment_closure ran past its 15 s guard")

    loop = parse_loop((Path(__file__).parent / "golden" / "flag.loop").read_text())
    previous = signal.signal(signal.SIGALRM, past_guard)
    signal.alarm(15)
    try:
        with pytest.raises(ClosureBudgetExceeded):
            moment_closure(loop, degree_targets(loop.variables, 1), budget=1600)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: moment_closure(parse_loop("vars: x\ninit: x = 0\nbody:\n"), []), "at least one target"),
        (lambda: degree_targets(VarRing(["x"]), 0), "degree must be at least 1"),
        (lambda: moment_closure(parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x + 1\n"), [(1,)]).vector_at(-1),
         "defined for n >= 0"),
    ],
    ids=["no-targets", "degree-0", "negative-step"],
)
def test_misuse_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
