"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3's reachable-target ideal equality is a documented
expected failure: the quoted three-generator basis is not the complete
vanishing ideal of that orbit (see the strict xfail below and the companion
test that pins down the exact discrepancy).
"""

import random
import time
from fractions import Fraction as Q

import pytest

from loopideal import (
    Assignment,
    ClosureBudgetExceeded,
    LoopProgram,
    LRSInstance,
    MonomialOrder,
    P2PInstance,
    Polynomial,
    VarRing,
    buchberger,
    detect_eventual_zero,
    empirical_relations,
    enumerate_distribution,
    expected_moment,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    lrs_eval,
    moment_closure,
    moment_invariant_ideal,
    moment_ring,
    multivariate_divide,
    p2p_to_spinv,
    parse_loop,
    poly_parse,
    simulate,
    variety_is_finite,
    verify_witness_identities,
)

TWO_WALKS = (
    "vars: x, y\ninit: x = 0; y = 0\nbody:\n"
    "  x = x + 2 [1/2] x - 1\n"
    "  y = y + 1 [1/2] y - 2\n"
)

QUOTED_ORDER2_BASIS = (
    "E[x^2] - E[y^2]",
    "9*E[x] - 2*E[x*y] - 2*E[y^2]",
    "E[x*y]^2 + 2*E[x*y]*E[y^2] + 81/4*E[x*y] + E[y^2]^2",
    "2*E[x*y] + 9*E[y] + 2*E[y^2]",
)

XY_SYSTEM = "vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, y) = (x + 2, y + 3)\n"


def _quoted_basis(names, texts):
    return buchberger(
        [poly_parse(t, names) for t in texts], MonomialOrder("degrevlex", names)
    )


def _flag_loop(target):
    system = parse_loop(XY_SYSTEM)
    return p2p_to_spinv(P2PInstance(system, (Q(target[0]), Q(target[1]))))


def _empirical_flag_ideal(target, degree=3, horizon=25):
    loop = _flag_loop(target)
    states = simulate(loop, horizon)
    table = [[st[j] for st in states] for j in range(loop.variables.arity)]
    return loop, empirical_relations(table, loop.variables, degree)


def _moments_from_distribution(dist, symbols):
    values = []
    for sym in symbols:
        total = Q(0)
        for st, pr in dist.items():
            v = pr
            for x, k in zip(st, sym):
                if k:
                    v *= x**k
            total += v
        values.append(total)
    return values


def test_criterion_1_order2_ideal_reproduction():
    loop = parse_loop(TWO_WALKS)
    start = time.time()
    basis = moment_invariant_ideal(loop, 2)
    elapsed = time.time() - start
    names = moment_ring(loop.variables, 2).ring
    ok = ideal_equal(basis, _quoted_basis(names, QUOTED_ORDER2_BASIS))
    print(
        f"CRITERION 1: {'PASS' if ok and elapsed <= 60 else 'FAIL'} "
        f"(order-2 moment ideal matches the quoted basis, {elapsed:.2f}s)"
    )
    assert ok
    assert elapsed <= 60


def test_criterion_2_order3_restriction():
    loop = parse_loop(TWO_WALKS)
    start = time.time()
    basis3 = moment_invariant_ideal(loop, 3)
    elapsed = time.time() - start
    from loopideal import restrict_to_order_one

    restricted = restrict_to_order_one(basis3)
    direct = moment_invariant_ideal(loop, 1)
    names1 = restricted.ring
    expected = buchberger(
        [poly_parse("E[x] + E[y]", names1)], MonomialOrder("degrevlex", names1)
    )
    ok = (
        elapsed <= 120
        and ideal_equal(restricted, direct)
        and ideal_equal(restricted, expected)
    )
    print(
        f"CRITERION 2: {'PASS' if ok else 'FAIL'} "
        f"(order-3 ideal in {elapsed:.2f}s, restriction equals direct order-1 ideal)"
    )
    assert elapsed <= 120
    assert ideal_equal(restricted, direct)
    assert ideal_equal(restricted, expected)


def test_criterion_3_unreachable_target_ideal():
    loop, emp = _empirical_flag_ideal((5, 7))
    names = loop.variables
    ok = ideal_equal(emp, _quoted_basis(names, ("x - 2*g", "y - 3*g")))
    print(
        f"CRITERION 3a: {'PASS' if ok else 'FAIL'} "
        "(unreachable target: empirical ideal is exactly <x-2g, y-3g>)"
    )
    assert ok


def test_criterion_3_detection():
    loop46, emp46 = _empirical_flag_ideal((4, 6))
    loop57, emp57 = _empirical_flag_ideal((5, 7))
    det = []
    for loop, emp in ((loop46, emp46), (loop57, emp57)):
        rest = [nm for nm in loop.variables.names if nm not in ("f", "g")]
        lex = MonomialOrder("lex", loop.variables, rest + ["f", "g"])
        det.append(detect_eventual_zero(buchberger(list(emp.generators), lex)))
    ok = det == [2, None]
    print(
        f"CRITERION 3b: {'PASS' if ok else 'FAIL'} "
        f"(eventual-zero detection: reachable -> {det[0]}, unreachable -> {det[1]})"
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the quoted 3-generator basis is not the full vanishing ideal of the "
        "reachable-target orbit: f^2 - 12*f*g - f vanishes on every reachable "
        "state (f takes only the values 1, 13, 0 at g = 0, 1, >=2) but is not "
        "generated by <x-2g, y-3g, g(g-1)f>, so the exact degree-3 kernel is "
        "strictly larger and ideal equality cannot hold"
    ),
)
def test_criterion_3_reachable_target_ideal():
    loop, emp = _empirical_flag_ideal((4, 6))
    names = loop.variables
    quoted = _quoted_basis(names, ("x - 2*g", "y - 3*g", "g*(g-1)*f"))
    print(
        "CRITERION 3c: FAIL (expected) "
        "(reachable target: exact empirical kernel strictly exceeds the quoted basis; "
        "see test_criterion_3_reachable_target_actual_ideal)"
    )
    assert ideal_equal(emp, quoted)


def test_criterion_3_reachable_target_actual_ideal():
    # companion to the expected failure above: the empirical kernel equals
    # the quoted basis plus the quadratic flag relation, exactly
    loop, emp = _empirical_flag_ideal((4, 6))
    names = loop.variables
    actual = _quoted_basis(
        names, ("x - 2*g", "y - 3*g", "g*(g-1)*f", "f^2 - 12*f*g - f")
    )
    ok = ideal_equal(emp, actual)
    extra = poly_parse("f^2 - 12*f*g - f", names)
    for st in simulate(loop, 25):
        assert extra.eval(st) == 0
    assert not ideal_member(
        extra, _quoted_basis(names, ("x - 2*g", "y - 3*g", "g*(g-1)*f"))
    )
    print(
        f"CRITERION 3c': {'PASS' if ok else 'FAIL'} "
        "(reachable target: kernel = quoted basis + f^2-12fg-f, exactly)"
    )
    assert ok


def test_criterion_4_witness_identities():
    lrs = LRSInstance.from_json({"coeffs": ["2", "-2", "-12"], "init": ["2", "-3", "3"]})
    report = verify_witness_identities(lrs, 15)
    assert report.violations == ()
    assert report.first_zero == 5 and lrs_eval(lrs, 5) == 0

    from loopideal import augment_witness, skolem_to_p2p

    states = simulate(augment_witness(skolem_to_p2p(lrs)).loop, 15)
    for n in range(5, 16):
        assert states[n][0] == 0
    for n in range(5):
        assert states[n][0] != 0

    rng = random.Random(20250810)
    for _ in range(100):
        k = rng.choice([1, 2, 3, 4])
        coeffs = [Q(rng.choice([-2, -1, 1, 2]))]
        coeffs += [Q(rng.choice([-2, -1, 0, 1, 2])) for _ in range(k - 1)]
        init = [Q(rng.choice([-1, 0, 1])) for _ in range(k)]
        fuzz = LRSInstance(tuple(coeffs), tuple(init))
        rep = verify_witness_identities(fuzz, 20)
        assert rep.violations == (), (coeffs, init)
    print(
        "CRITERION 4: PASS (witness identities: order-3 instance at horizon 15 "
        "plus 100 fuzzed integer instances at horizon 20, zero violations)"
    )


def test_criterion_5_uncorrelatedness_membership():
    loop = parse_loop(TWO_WALKS)
    basis = moment_invariant_ideal(loop, 2)
    names = moment_ring(loop.variables, 2).ring
    ok = ideal_member(poly_parse("E[x*y] - E[x]*E[y]", names), basis)
    print(
        f"CRITERION 5: {'PASS' if ok else 'FAIL'} "
        "(E[xy] - E[x]E[y] is in the order-2 moment ideal)"
    )
    assert ok


def _fuzz_affine_loop(rng):
    """Triangular affine probabilistic loop: moment eigenvalues stay rational."""
    nv = rng.choice([1, 2, 3])
    names = ["x", "y", "z"][:nv]
    ring = VarRing(names)
    init = tuple(Q(rng.choice([0, 1, -1, Q(1, 2)])) for _ in range(nv))
    prob_at = rng.randrange(nv)
    body = []
    for i in range(nv):

        def expr():
            p = Polynomial.var(ring, names[i]) * Q(rng.choice([0, 1, 2, -1, Q(1, 2)]))
            for j in range(i):
                d = Q(rng.choice([0, 0, 1, -1]))
                if d:
                    p = p + Polynomial.var(ring, names[j]) * d
            return p + Polynomial.const(ring, Q(rng.choice([-1, 0, 1, 2])))

        if i == prob_at:
            pr = Q(rng.choice([Q(1, 2), Q(1, 3), Q(1, 4), Q(2, 3)]))
            branches = ((pr, (expr(),)), (1 - pr, (expr(),)))
        else:
            branches = ((Q(1), (expr(),)),)
        body.append(Assignment((names[i],), branches))
    return LoopProgram(ring, init, tuple(body))


def test_criterion_6_oracle_equivalence():
    rng = random.Random(42)
    start = time.time()
    for trial in range(50):
        loop = _fuzz_affine_loop(rng)
        mring = moment_ring(loop.variables, 2)
        system = moment_closure(loop, list(mring.symbols))
        dists = [enumerate_distribution(loop, n) for n in range(11)]

        # matrix-power predictions against the exact enumeration oracle
        for n in range(9):
            oracle = _moments_from_distribution(dists[n], system.symbols)
            assert system.vector_at(n) == oracle, (trial, n)
        # the standalone oracle entry point agrees too
        probe = mring.symbols[0]
        assert expected_moment(loop, probe, 8) == system.vector_at(8)[
            system.index(probe)
        ]

        # every generator of the order-2 ideal vanishes at oracle moments
        basis = moment_invariant_ideal(loop, 2)
        for n in range(11):
            values = _moments_from_distribution(dists[n], mring.symbols)
            for g in basis.generators:
                assert g.eval(values) == 0, (trial, n)
    elapsed = time.time() - start
    ok = elapsed <= 600
    print(
        f"CRITERION 6: {'PASS' if ok else 'FAIL'} "
        f"(50 fuzzed loops: matrix powers == oracle, ideals vanish; {elapsed:.0f}s)"
    )
    assert ok


def test_criterion_7_groebner_unit_suite():
    ring = VarRing(["x", "y"])
    lex = MonomialOrder("lex", ring, ["x", "y"])
    p = poly_parse("x^2*y + x*y^2 + y^2", ring)
    _, rem = multivariate_divide(
        p, [poly_parse("x*y - 1", ring), poly_parse("y^2 - 1", ring)], lex
    )
    assert rem == poly_parse("x + y + 1", ring)

    bx = buchberger([poly_parse("x", ring)], lex)
    by = buchberger([poly_parse("y", ring)], lex)
    assert ideal_equal(ideal_intersect(bx, by), buchberger([poly_parse("x*y", ring)], lex))

    order = MonomialOrder("degrevlex", ring)
    assert variety_is_finite(
        buchberger([poly_parse("x^2", ring), poly_parse("y - 1", ring)], order)
    )
    gx = VarRing(["g", "x"])
    assert not variety_is_finite(
        buchberger([poly_parse("x - 2*g", gx)], MonomialOrder("degrevlex", gx))
    )
    assert variety_is_finite(buchberger([poly_parse("1", gx)], MonomialOrder("degrevlex", gx)))
    print(
        "CRITERION 7: PASS (division remainder x+y+1, <x> cap <y> = <xy>, "
        "finite-variety cases)"
    )


def test_criterion_8_closure_budget_frontier():
    loop = _flag_loop((4, 6))
    f_index = loop.variables.index("f")
    target = tuple(1 if i == f_index else 0 for i in range(loop.variables.arity))
    with pytest.raises(ClosureBudgetExceeded):
        moment_closure(loop, [target], budget=100)
    print(
        "CRITERION 8: PASS (flag-moment closure exceeds a 100-symbol budget: "
        "the loop sits past the computable frontier)"
    )
