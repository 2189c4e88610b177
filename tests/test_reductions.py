import random
from fractions import Fraction as Q

import pytest

from loopideal import (
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
    with pytest.raises(NotASkolemReduction):
        augment_witness(P2PInstance(xy_system, (Q(0), Q(0))))


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


def test_witness_identities_fuzzed():
    rng = random.Random(314)
    for _ in range(30):
        k = rng.choice([1, 2, 3, 4])
        coeffs = [Q(rng.choice([-2, -1, 1, 2]))]
        coeffs += [Q(rng.choice([-2, -1, 0, 1, 2])) for _ in range(k - 1)]
        init = [Q(rng.choice([-1, 0, 1])) for _ in range(k)]
        lrs = LRSInstance(tuple(coeffs), tuple(init))
        report = verify_witness_identities(lrs, 20)
        assert report.violations == ()
        # zero correspondence at the tested horizon
        states = simulate(augment_witness(skolem_to_p2p(lrs)), 20)
        if report.first_zero is not None:
            for n in range(report.first_zero + 1, 21):
                assert all(v == 0 for v in states[n][: k])
        else:
            for n in range(21):
                assert states[n][0] != 0


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
    assert exprs[2] == poly_parse(
        "4*x2^2 - 8*x1^2*x2 - 96*x0^2*x1*x2", loop.variables
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
