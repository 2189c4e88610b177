import random
import signal
from dataclasses import replace
from fractions import Fraction as Q
from itertools import islice

import pytest

from loopideal import reductions
from loopideal.loops import lrs_terms
from loopideal import (
    IdealBasis,
    LRSInstance,
    MonomialOrder,
    NotASkolemReduction,
    NotIntegerInstance,
    OrderMismatch,
    P2PInstance,
    VarRing,
    augment_witness,
    buchberger,
    detect_eventual_zero,
    empirical_relations,
    p2p_to_spinv,
    parse_loop,
    poly_parse,
    simulate,
    skolem_to_p2p,
    skolem_to_spinv_direct,
    variety_is_finite,
    verify_witness_identities,
)


def test_skolem_to_p2p_order3(lrs_order3):
    p2p = skolem_to_p2p(lrs_order3)
    loop = p2p.system
    assert loop.variables.names == ("x0", "x1", "x2")
    assert loop.init == (Q(2), Q(-6), Q(-36))
    exprs = loop.body[0].branches[0][1]
    assert exprs[0] == poly_parse("x1", loop.variables)
    assert exprs[1] == poly_parse("x2", loop.variables)
    assert exprs[2] == poly_parse(
        "2*x2^2 - 2*x1^2*x2 - 12*x0^2*x1*x2", loop.variables
    )
    assert p2p.target == (Q(0), Q(0), Q(0))


def test_skolem_to_p2p_order1():
    lrs = LRSInstance((Q(3),), (Q(2),))
    loop = skolem_to_p2p(lrs).system
    assert loop.variables.names == ("x0",)
    assert loop.body[0].branches[0][1][0] == poly_parse("3*x0^2", loop.variables)


def test_augment_witness_initials(lrs_order3):
    wit = augment_witness(skolem_to_p2p(lrs_order3))
    assert wit.variables.names == ("x0", "x1", "x2", "s0", "s1", "s2")
    assert wit.init[3:] == (Q(1), Q(2), Q(-12))


def test_augment_witness_order1():
    lrs = LRSInstance((Q(3),), (Q(2),))
    wit = augment_witness(skolem_to_p2p(lrs))
    assert wit.init == (Q(2), Q(1))
    update = wit.body[0].branches[0][1][1]
    assert update == poly_parse("s0*x0", wit.variables)


def test_augment_witness_arity(lrs_order3):
    wit = augment_witness(skolem_to_p2p(lrs_order3))
    assert wit.variables.arity == 2 * lrs_order3.order


def test_augment_witness_rejects_foreign_system(xy_system):
    with pytest.raises(NotASkolemReduction, match="variables are not"):
        augment_witness(P2PInstance(xy_system, (Q(0), Q(0))))
    for body, target, message in [
        ("x0 = x1\n  x1 = x0", (0, 0), "single simultaneous update"),
        ("(x1, x0) = (x0, x1)", (0, 0), "all variables in order"),
        ("(x0, x1) = (x0, x0)", (0, 0), "x0 update is not the shift x1"),
        ("(x0, x1) = (x1, x0)", (0, 1), "target is not the zero vector"),
    ]:
        system = parse_loop(f"vars: x0, x1\ninit: x0 = 1; x1 = 2\nbody:\n  {body}\n")
        with pytest.raises(NotASkolemReduction, match=message):
            augment_witness(P2PInstance(system, tuple(map(Q, target))))


def test_witness_identities_report_a_wrong_witness(monkeypatch, lrs_order3, witness_reference):
    # the witness update s{k-1} * x{k-1} * 2 in place of s{k-1} * x{k-1}
    # breaks both identities
    monkeypatch.setattr(reductions, "augment_witness", lambda p2p: reductions._witness(p2p, 2))
    lrs = LRSInstance((Q(2),), (Q(1),))  # u(n) = 2^n
    report = verify_witness_identities(lrs, 3)
    assert report.violations[:2] == (
        {"n": 1, "i": 0, "identity": "value", "lhs": "2", "rhs": "4"},
        {"n": 1, "i": 0, "identity": "product", "lhs": "2", "rhs": "1"},
    )
    assert report.first_zero is None
    # orders 2 and 3, against s_i(n) = prod_{l<n} x0(l) * prod_{l<i} x_l(n)
    # recomputed from the states of the wrong witness
    fibonacci = LRSInstance((Q(1), Q(1)), (Q(1), Q(2)))
    for lrs, horizon in ((fibonacci, 5), (lrs_order3, 4)):
        k = lrs.order
        expected = witness_reference(reductions._witness(skolem_to_p2p(lrs), 2), lrs, horizon)
        assert any(v["i"] == k - 1 > 0 and v["identity"] == "product" for v in expected)
        report = verify_witness_identities(lrs, horizon)
        assert report.violations == tuple(expected)


def _doubled_witness(monkeypatch):
    monkeypatch.setattr(reductions, "augment_witness", lambda p2p: reductions._witness(p2p, 2))


def _wrong_initial_product(monkeypatch):
    def doubled_last_product(p2p):
        loop = augment_witness(p2p)
        return replace(loop, init=loop.init[:-1] + (2 * loop.init[-1],))

    monkeypatch.setattr(reductions, "augment_witness", doubled_last_product)


def _shifted_coefficient(monkeypatch):
    def shifted(lrs):
        return skolem_to_p2p(LRSInstance(lrs.coeffs[:-1] + (lrs.coeffs[-1] + 1,), lrs.init))

    monkeypatch.setattr(reductions, "skolem_to_p2p", shifted)


@pytest.mark.parametrize(
    "mutate", [_doubled_witness, _wrong_initial_product, _shifted_coefficient]
)
def test_a_broken_construction_fails_the_proof(monkeypatch, mutate, lrs_order3, witness_reference):
    # the proof reads the construction at call time, so it checks the broken
    # one; it fails, and the simulation lists every violation up to the horizon
    mutate(monkeypatch)
    simulated = []
    monkeypatch.setattr(
        reductions, "simulate", lambda loop, n: simulated.append(n) or simulate(loop, n)
    )
    two_to_the_n = LRSInstance((Q(2),), (Q(1),))
    fibonacci = LRSInstance((Q(1), Q(1)), (Q(1), Q(2)))
    for lrs, horizon in ((two_to_the_n, 3), (fibonacci, 5), (lrs_order3, 4)):
        loop = reductions.augment_witness(reductions.skolem_to_p2p(lrs))
        assert not reductions._inductive(lrs, loop)
        expected = witness_reference(loop, lrs, horizon)
        assert expected
        assert verify_witness_identities(lrs, horizon).violations == expected
    assert simulated == [3, 5, 4]


def test_witness_identities_order3(lrs_order3):
    report = verify_witness_identities(lrs_order3, 15)
    assert report.violations == ()
    assert report.first_zero == 5
    # x0 vanishes from the first recurrence zero onward
    states = simulate(augment_witness(skolem_to_p2p(lrs_order3)), 15)
    for n in range(16):
        if n >= 5:
            assert states[n][0] == 0
        else:
            assert states[n][0] != 0


def test_witness_identities_no_zero_instance():
    lrs = LRSInstance((Q(2),), (Q(1),))  # u(n) = 2^n, never zero
    report = verify_witness_identities(lrs, 20)
    assert report.violations == () and report.first_zero is None
    states = simulate(augment_witness(skolem_to_p2p(lrs)), 20)
    for st in states:
        assert all(v != 0 for v in st[:1])


def test_witness_identities_zero_at_start():
    lrs = LRSInstance((Q(3),), (Q(0),))
    report = verify_witness_identities(lrs, 5)
    assert report.first_zero == 0
    states = simulate(augment_witness(skolem_to_p2p(lrs)), 5)
    assert states[0][0] == 0


# the horizon to which tests simulate the witness loop: its states have
# about 2^n bits at step n
REFERENCE_HORIZON = 12


def _no_simulation(loop, n):
    raise AssertionError("the proof failed and fell back to simulation")


def test_witness_identities_fuzzed(monkeypatch, witness_reference):
    # proved at horizon 20 with no simulation; the reference checks the same
    # identities and the zero correspondence by simulation to REFERENCE_HORIZON
    monkeypatch.setattr(reductions, "simulate", _no_simulation)
    rng = random.Random(314)
    for _ in range(30):
        k = rng.choice([1, 2, 3, 4, 5])
        coeffs = [Q(rng.choice([-2, -1, 1, 2]))]
        coeffs += [Q(rng.choice([-2, -1, 0, 1, 2])) for _ in range(k - 1)]
        init = [Q(rng.choice([-1, 0, 1])) for _ in range(k)]
        lrs = LRSInstance(tuple(coeffs), tuple(init))
        report = verify_witness_identities(lrs, 20)
        assert report.violations == ()
        loop = augment_witness(skolem_to_p2p(lrs))
        assert witness_reference(loop, lrs, REFERENCE_HORIZON) == ()
        # x0(n) vanishes exactly from the first zero of u on, and then every x
        states = simulate(loop, REFERENCE_HORIZON)
        zero = REFERENCE_HORIZON + 1
        if report.first_zero is not None:
            zero = min(zero, report.first_zero)
        assert [n for n, st in enumerate(states) if st[0] == 0] == list(range(zero, len(states)))
        assert all(v == 0 for st in states[zero + 1:] for v in st[:k])


def test_witness_identities_beyond_simulation():
    # the states at n = 1000 have about 2^1000 bits; the proof covers them
    def past_guard(*_):
        raise AssertionError("verify_witness_identities ran past its 5 s guard")

    fibonacci = LRSInstance((Q(1), Q(1)), (Q(1), Q(2)))
    previous = signal.signal(signal.SIGALRM, past_guard)
    signal.alarm(5)
    try:
        report = verify_witness_identities(fibonacci, 1000)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report == reductions.WitnessReport(1000, (), None)


def test_p2p_to_spinv_flag_loop(reach_46):
    loop = p2p_to_spinv(reach_46)
    assert loop.variables.names == ("x", "y", "f", "g")
    assert loop.init == (Q(0), Q(0), Q(1), Q(0))
    f_update = loop.body[1].branches[0][1][0]
    assert f_update == poly_parse(
        "f*((x - 4)^2 + (y - 6)^2)", loop.variables
    )
    states = simulate(loop, 3)
    assert states[2] == (Q(4), Q(6), Q(0), Q(2))
    assert states[3][2] == 0


def test_p2p_to_spinv_unreachable_flag_never_zero(reach_57):
    loop = p2p_to_spinv(reach_57)
    for st in simulate(loop, 12):
        assert st[2] != 0


def test_reduction_simulation_commutes(reach_46):
    loop = p2p_to_spinv(reach_46)
    inner = simulate(reach_46.system, 8)
    outer = simulate(loop, 8)
    for a, b in zip(inner, outer):
        assert a == b[:2]


def test_p2p_to_spinv_name_collision():
    sysloop = parse_loop("vars: f, g\ninit: f = 0; g = 0\nbody:\n  (f, g) = (f + 1, g + 1)\n")
    loop = p2p_to_spinv(P2PInstance(sysloop, (Q(1), Q(1))))
    assert loop.variables.names == ("f", "g", "f_", "g_")


def test_p2p_to_spinv_keeps_every_statement():
    # y reads the x just updated, so (4, 6) is reached at iteration 2
    sysloop = parse_loop("vars: x, y\ninit: x = 0; y = 0\nbody:\n  x = x + 2\n  y = y + x\n")
    loop = p2p_to_spinv(P2PInstance(sysloop, (Q(4), Q(6))))
    assert loop.variables.names == ("x", "y", "f", "g")
    assert len(loop.body) == 4
    states = simulate(loop, 10)
    assert [st[:2] for st in states] == simulate(sysloop, 10)
    assert [n for n, st in enumerate(states) if st[2] == 0] == list(range(2, 11))
    table = [[st[j] for st in states] for j in range(loop.variables.arity)]
    emp = empirical_relations(table, loop.variables, 3)
    basis = buchberger(list(emp.generators), _lex_flag_order(loop.variables))
    assert detect_eventual_zero(basis) == 2


def test_direct_reduction_updates(lrs_order3):
    loop = skolem_to_spinv_direct(lrs_order3)
    assert loop.variables.names == ("x0", "x1", "x2", "s0", "s1", "s2")
    exprs = loop.body[0].branches[0][1]
    # the x-system is skolem_to_p2p's; only the last witness is doubled
    assert exprs[2] == poly_parse(
        "2*x2^2 - 2*x1^2*x2 - 12*x0^2*x1*x2", loop.variables
    )
    assert exprs[5] == poly_parse("2*x2*s2", loop.variables)


def test_direct_reduction_requires_integers():
    with pytest.raises(NotIntegerInstance):
        skolem_to_spinv_direct(LRSInstance((Q(1, 2),), (Q(1),)))


def test_direct_reduction_variety_contract():
    # positive instance (zero immediately): finitely many states
    pos = skolem_to_spinv_direct(LRSInstance((Q(2),), (Q(0),)))
    states = simulate(pos, 10)
    assert len(set(states)) <= 2
    table = [[st[j] for st in states] for j in range(2)]
    emp = empirical_relations(table, pos.variables, 3)
    assert variety_is_finite(emp)

    # negative instance (u = 2^n, no zero): states keep growing
    neg = skolem_to_spinv_direct(LRSInstance((Q(2),), (Q(1),)))
    states = simulate(neg, 14)
    assert len(set(states)) == 15
    table = [[st[j] for st in states] for j in range(2)]
    emp = empirical_relations(table, neg.variables, 3)
    assert not variety_is_finite(emp)


def test_direct_reduction_follows_the_recurrence():
    # u(n) = n - 3 is zero at n = 3: from step 4 on the state is all zero
    lrs = LRSInstance.from_json({"coeffs": ["2", "-1"], "init": ["-3", "-2"]})
    states = simulate(skolem_to_spinv_direct(lrs), 5)
    assert [st[0] for st in states[:4]] == [-3, 6, 18, 0]
    assert states[3] != (0, 0, 0, 0) and states[4] == states[5] == (0, 0, 0, 0)


DIRECT_STEPS = 8


def _direct_contract_case(rng, order):
    coeffs = [rng.randint(-3, 3) for _ in range(order - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
    init = [rng.randint(-3, 3) for _ in range(order)]
    return LRSInstance(tuple(map(Q, reversed(coeffs))), tuple(map(Q, init)))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("seed", range(40))
def test_direct_reduction_orbit_is_finite_exactly_on_a_zero(order, seed):
    # With a first zero at z the state is all zero from step z + 1 on and
    # first repeats at step z + 2; with none, every x is a nonzero integer,
    # so |s_{k-1}| at least doubles each step.  So a state repeats within
    # DIRECT_STEPS steps exactly when u(0..DIRECT_STEPS - 2) has a zero.
    def past_guard(*_):
        raise AssertionError("the direct orbit ran past its 10 s guard")

    lrs = _direct_contract_case(random.Random(1000 * order + seed), order)
    previous = signal.signal(signal.SIGALRM, past_guard)
    signal.alarm(10)
    try:
        states = simulate(skolem_to_spinv_direct(lrs), DIRECT_STEPS)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    terms = list(islice(lrs_terms(lrs), DIRECT_STEPS - 1))
    has_zero = 0 in terms
    assert (len(set(states)) < len(states)) == has_zero, (lrs, terms)
    if has_zero:
        assert states[terms.index(0) + 1] == (0,) * (2 * order)
    else:
        s_last = [abs(st[-1]) for st in states]
        assert all(2 * a <= b for a, b in zip(s_last, s_last[1:])), (lrs, terms)


def _lex_flag_order(ring):
    rest = [nm for nm in ring.names if nm not in ("f", "g")]
    return MonomialOrder("lex", ring, rest + ["f", "g"])


def test_detect_eventual_zero_examples():
    ring = VarRing(["g", "f", "y", "x"])
    order = _lex_flag_order(ring)
    hit = buchberger(
        [poly_parse(t, ring) for t in ("x - 2*g", "y - 3*g", "g*(g-1)*f")], order
    )
    assert detect_eventual_zero(hit) == 2
    miss = buchberger([poly_parse(t, ring) for t in ("x - 2*g", "y - 3*g")], order)
    assert detect_eventual_zero(miss) is None


def test_detect_eventual_zero_flag_alone():
    ring = VarRing(["f", "g"])
    basis = buchberger([poly_parse("f", ring)], MonomialOrder("lex", ring, ["f", "g"]))
    assert detect_eventual_zero(basis) == 0


def test_detect_eventual_zero_rejects_wrong_order():
    ring = VarRing(["f", "g"])
    basis = buchberger([poly_parse("f", ring)], MonomialOrder("degrevlex", ring))
    with pytest.raises(OrderMismatch):
        detect_eventual_zero(basis)
    basis2 = buchberger([poly_parse("f", ring)], MonomialOrder("lex", ring, ["g", "f"]))
    with pytest.raises(OrderMismatch):
        detect_eventual_zero(basis2)
    unreduced = IdealBasis(ring, MonomialOrder("lex", ring, ["f", "g"]), (poly_parse("f", ring),))
    with pytest.raises(OrderMismatch, match="requires a reduced basis"):
        detect_eventual_zero(unreduced)


def test_detect_eventual_zero_renamed_flag():
    # the system already uses f, so the flag is f_ while the counter stays g
    sysloop = parse_loop("vars: f, y\ninit: f = 0; y = 0\nbody:\n  (f, y) = (f + 1, y + 2)\n")
    loop = p2p_to_spinv(P2PInstance(sysloop, (Q(2), Q(4))))
    assert loop.variables.names == ("f", "y", "f_", "g")
    states = simulate(loop, 12)
    table = [[st[j] for st in states] for j in range(loop.variables.arity)]
    emp = empirical_relations(table, loop.variables, 3)
    order = MonomialOrder("lex", loop.variables, ["f", "y", "f_", "g"])
    assert detect_eventual_zero(buchberger(list(emp.generators), order)) == 2
    swapped = MonomialOrder("lex", loop.variables, ["f", "y", "g", "f_"])
    with pytest.raises(OrderMismatch):
        detect_eventual_zero(buchberger(list(emp.generators), swapped))
    # the system's own f second lowest is not the flag
    own_f = MonomialOrder("lex", loop.variables, ["y", "f_", "f", "g"])
    with pytest.raises(OrderMismatch):
        detect_eventual_zero(buchberger(list(emp.generators), own_f))


def test_flag_name_past_a_gap():
    # f and f__ are taken; the flag is one underscore past the longest
    sysloop = parse_loop(
        "vars: f, f__\ninit: f = 0; f__ = 5\nbody:\n  (f, f__) = (f + 1, f__ - 1)\n"
    )
    loop = p2p_to_spinv(P2PInstance(sysloop, (Q(3), Q(2))))
    assert loop.variables.names == ("f", "f__", "f___", "g")
    states = simulate(loop, 12)
    table = [[st[j] for st in states] for j in range(loop.variables.arity)]
    emp = empirical_relations(table, loop.variables, 3)
    order = MonomialOrder("lex", loop.variables, ["f", "f__", "f___", "g"])
    assert detect_eventual_zero(buchberger(list(emp.generators), order)) == 3


def test_detect_ignores_non_factorial_shapes():
    ring = VarRing(["f", "g"])
    order = MonomialOrder("lex", ring, ["f", "g"])
    basis = buchberger([poly_parse("f*(g - 5)", ring)], order)
    assert detect_eventual_zero(basis) is None


def test_detect_agrees_with_simulation_fuzzed():
    rng = random.Random(2718)
    for _ in range(8):
        step = Q(rng.choice([1, 2, 3]))
        start = Q(rng.choice([0, 1]))
        sysloop = parse_loop(
            f"vars: u\ninit: u = {start}\nbody:\n  u = u + {step}\n"
        )
        if rng.random() < 0.5:
            hit_at = rng.choice([1, 2])
            target = (start + step * hit_at,)
        else:
            target = (start + step * 3 + Q(1, 7),)  # off-lattice, unreachable
        loop = p2p_to_spinv(P2PInstance(sysloop, target))
        states = simulate(loop, 25)
        fi = loop.variables.index("f")
        first_zero = next((n for n, st in enumerate(states) if st[fi] == 0), None)
        table = [[st[j] for st in states] for j in range(loop.variables.arity)]
        emp = empirical_relations(table, loop.variables, 3)
        basis = buchberger(list(emp.generators), _lex_flag_order(loop.variables))
        got = detect_eventual_zero(basis)
        assert got == first_zero, (target, got, first_zero)
