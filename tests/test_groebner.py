import json
import random

import pytest

from loopideal import groebner, relations
from loopideal import (
    ArityMismatch,
    BudgetExceeded,
    IdealBasis,
    MonomialOrder,
    Polynomial,
    VarRing,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    moment_invariant_ideal,
    multivariate_divide,
    parse_loop,
    poly_parse,
    restrict_to_order_one,
    variety_is_finite,
)


def _basis(texts, ring, order):
    return buchberger([poly_parse(t, ring) for t in texts], order)


@pytest.fixture
def signatures_reduced(monkeypatch):
    """Fails the test when one `buchberger` call reduces a signature twice;
    yields the signatures reduced per call, keyed by the call's reducers.

    `pick` is `groebner._reducer` bound to the signature (its packed key
    and index in one int) and the call's reducer list."""
    reduced = {}
    reduce = groebner._reduce

    def spy(work, guards, pick):
        signature, reducers = pick.args[:2]
        _, seen = reduced.setdefault(id(reducers), (reducers, set()))
        assert signature not in seen, f"signature {signature} reduced twice"
        seen.add(signature)
        return reduce(work, guards, pick)

    monkeypatch.setattr(groebner, "_reduce", spy)
    yield reduced
    assert reduced


def test_buchberger_two_linear_forms():
    ring = VarRing(["x", "y"])
    lex = MonomialOrder("lex", ring, ["x", "y"])
    b = _basis(["x + y", "x - y"], ring, lex)
    assert [g.format(lex) for g in b.generators] == ["x", "y"]


def test_buchberger_already_groebner():
    ring = VarRing(["g", "f", "y", "x"])
    lex = MonomialOrder("lex", ring, ["x", "y", "f", "g"])
    b = _basis(["x - 2*g", "y - 3*g"], ring, lex)
    assert sorted(g.format(lex) for g in b.generators) == ["x - 2*g", "y - 3*g"]


def test_buchberger_principal_ideal_monic():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["4*x^2*y - 2*y"], ring, order)
    assert [g.format(order) for g in b.generators] == ["x^2*y - 1/2*y"]


def test_buchberger_idempotent_and_input_order_independent(signatures_reduced):
    ring = VarRing(["x", "y", "z"])
    order = MonomialOrder("degrevlex", ring)
    gens = ["x*y - z", "y*z - x", "x*z - y", "x^2 - y^2"]
    rng = random.Random(7)
    reference = None
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        b = _basis(shuffled, ring, order)
        rendered = [g.format(order) for g in b.generators]
        if reference is None:
            reference = rendered
        assert rendered == reference
    again = buchberger(list(b.generators), order)
    assert [g.format(order) for g in again.generators] == reference


def test_buchberger_zero_ideal():
    ring = VarRing(["x"])
    b = buchberger([Polynomial.zero(ring)], MonomialOrder("lex", ring))
    assert b.is_zero_ideal() and b.reduced


def test_membership_generator_and_nonmember():
    ring = VarRing(["g", "f", "y", "x"])
    lex = MonomialOrder("lex", ring, ["x", "y", "f", "g"])
    b = _basis(["x - 2*g", "y - 3*g", "g*(g - 1)*f"], ring, lex)
    assert ideal_member(poly_parse("g*(g - 1)*f", ring), b)
    small = _basis(["x - 2*g", "y - 3*g"], ring, lex)
    assert not ideal_member(poly_parse("f", ring), small)


def test_membership_certificate_reconstruction():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["x^2 + y", "x*y - 1"], ring, order)
    p = poly_parse("(x^2 + y)*(x - 2) + (x*y - 1)*y^2", ring)
    assert ideal_member(p, b)
    quots, rem = multivariate_divide(p, list(b.generators), order)
    assert rem.is_zero()
    total = Polynomial.zero(ring)
    for q, g in zip(quots, b.generators):
        total = total + q * g
    assert total == p


def test_eliminate_moment_style_example():
    ring = VarRing(["n", "E[x]", "E[y]"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["2*E[x] - n", "E[y] + 1/2*n"], ring, order)
    e = eliminate(b, {"n"})
    sub = VarRing(["E[x]", "E[y]"])
    assert ideal_equal(e, _basis(["E[x] + E[y]"], sub, MonomialOrder("degrevlex", sub)))


def test_eliminate_circle_line():
    ring = VarRing(["x", "y"])
    b = _basis(["x^2 + y^2 - 1", "x - y"], ring, MonomialOrder("lex", ring))
    e = eliminate(b, {"x"})
    assert e.ring.names == ("y",)
    sub = VarRing(["y"])
    assert ideal_equal(e, _basis(["2*y^2 - 1"], sub, MonomialOrder("lex", sub)))
    for g in e.generators:
        assert g.ring == e.ring


def test_eliminate_nothing_is_identity():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["x^2 - y"], ring, order)
    e = eliminate(b, set())
    assert e.ring == ring and ideal_equal(e, b)


def test_intersect_principal_ideals():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("lex", ring)
    bx = _basis(["x"], ring, order)
    by = _basis(["y"], ring, order)
    inter = ideal_intersect(bx, by)
    assert ideal_equal(inter, _basis(["x*y"], ring, order))
    for g in inter.generators:
        assert ideal_member(g, bx) and ideal_member(g, by)


def test_intersect_self_and_zero():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["x^2 - y", "y^2"], ring, order)
    assert ideal_equal(ideal_intersect(b, b), b)
    zero = buchberger([], order)
    assert ideal_intersect(b, zero).is_zero_ideal()


def test_intersect_members_fuzzed(signatures_reduced):
    rng = random.Random(55)
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    pool = ["x^2 - y", "x*y - 1", "x + y", "y^2 - 2*y", "x - 3"]
    for _ in range(12):
        a = _basis(rng.sample(pool, 2), ring, order)
        b = _basis(rng.sample(pool, 2), ring, order)
        if 1 in a.generators + b.generators:
            continue
        inter = ideal_intersect(a, b)
        for g in inter.generators:
            assert ideal_member(g, a) and ideal_member(g, b)
        for g in a.generators:
            for h in b.generators:
                assert ideal_member(g * h, inter)


def test_ideal_equal_examples():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("lex", ring)
    assert ideal_equal(_basis(["x", "y"], ring, order), _basis(["x + y", "x - y"], ring, order))
    assert not ideal_equal(_basis(["x"], ring, order), _basis(["x^2"], ring, order))


def test_ideal_equal_reduces_unreduced_bases():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("lex", ring)

    def gens(*texts):
        return IdealBasis(ring, order, tuple(poly_parse(t, ring) for t in texts))

    assert ideal_equal(gens("x + y", "x - y"), gens("2*x", "3*y"))
    assert ideal_equal(gens("x*y - 1", "y^2 - 1"), _basis(["x - y", "y^2 - 1"], ring, order))
    assert not ideal_equal(_basis(["x", "y"], ring, order), gens("x^2", "y"))


def test_variety_is_finite_cases():
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    assert variety_is_finite(_basis(["x^2", "y - 1"], ring, order))
    gx = VarRing(["g", "x"])
    gorder = MonomialOrder("degrevlex", gx)
    assert not variety_is_finite(_basis(["x - 2*g"], gx, gorder))
    assert variety_is_finite(_basis(["1"], gx, gorder))
    assert not variety_is_finite(buchberger([], gorder))


def test_budget_exceeded_is_typed():
    ring = VarRing(["x", "y"])
    lex = MonomialOrder("lex", ring, ["x", "y"])
    gens = [poly_parse("x^4*y + y^3 - 1", ring), poly_parse("x^2*y^2 - x - 1", ring)]
    with pytest.raises(BudgetExceeded) as info:
        buchberger(gens, lex, budget=1)
    # how far it got: the inputs go ascending by lead, x^2*y^2 before
    # x^4*y, so the first signature is the unit of x^2*y^2 - x - 1, which
    # nothing reduces and which becomes the one basis element; the second
    # input's unit signature is then due, the only signature queued
    message = str(info.value)
    assert "1 signatures reduced" in message
    assert "basis of 1 elements" in message
    assert "1 signatures queued" in message


def test_json_round_trip():
    ring = VarRing(["g", "f", "y", "x"])
    lex = MonomialOrder("lex", ring, ["x", "y", "f", "g"])
    b = _basis(["x - 2*g", "y - 3*g", "g*(g-1)*f"], ring, lex)
    blob = json.dumps(b.to_json())
    back = IdealBasis.from_json(json.loads(blob))
    assert back.ring == b.ring
    assert back.order == b.order
    assert buchberger(list(back.generators), back.order).generators == b.generators


def test_reduced_basis_invariants():
    # reduced means monic and no monomial divisible by another leading term
    ring = VarRing(["x", "y", "z"])
    order = MonomialOrder("degrevlex", ring)
    b = _basis(["x^2 - y", "x*y - z", "y^2 - x*z", "x*z - y^2"], ring, order)
    leads = [g.leading_term(order) for g in b.generators]
    for _, lc in leads:
        assert lc == 1
    for i, g in enumerate(b.generators):
        for e in g.terms:
            for j, (le, _) in enumerate(leads):
                if i != j:
                    assert not all(a <= bb for a, bb in zip(le, e))


def test_intersect_keeps_non_default_priority():
    # lex with y > x: the result must be the reduced basis in that order
    ring = VarRing(["x", "y"])
    order = MonomialOrder("lex", ring, ["y", "x"])
    a = _basis(["x - y^2"], ring, order)
    b = _basis(["x - 2", "y"], ring, order)
    inter = ideal_intersect(a, b)
    assert inter.order == order
    assert [g.format(order) for g in inter.generators] == [
        "y^3 - x*y",
        "x*y^2 - 2*y^2 - x^2 + 2*x",
    ]
    assert ideal_member(poly_parse("x*y^2 - 2*y^2 - x^2 + 2*x", ring), inter)


def test_eliminate_result_is_reduced_in_target_order_fuzzed(signatures_reduced):
    rng = random.Random(66)
    ring = VarRing(["a", "b", "x", "y"])
    pool = ["x - a^2", "y - a*b", "a*b - 1", "x*y - b", "b^2 - y", "a + b - x", "x^2 - 2*y"]
    orders = [
        MonomialOrder("degrevlex", ring),
        MonomialOrder("degrevlex", ring, ["y", "b", "x", "a"]),
        MonomialOrder("lex", ring),
    ]
    for _ in range(12):
        gens = rng.sample(pool, 3)
        drop = set(rng.sample(["a", "b", "x"], rng.randint(1, 2)))
        for order in orders:
            out = eliminate(_basis(gens, ring, order), drop)
            assert out.reduced
            assert out.ring.names == tuple(nm for nm in ring.names if nm not in drop)
            assert out.order == order.restricted(out.ring)
            again = buchberger(list(out.generators), out.order)
            assert out.generators == again.generators


def _kept_of_full_basis(basis, drop):
    """The elements of the full reduced basis in the block order that are
    free of `drop`, projected to the subring."""
    full = buchberger(list(basis.generators), basis.order.eliminating(drop))
    subring = VarRing([nm for nm in basis.ring.names if nm not in drop])
    dropped = [basis.ring.index(nm) for nm in drop]
    return tuple(
        g.project(subring) for g in full.generators if not any(e[i] for e in g.terms for i in dropped)
    )


def test_eliminate_keeps_the_full_basis_elements_free_of_the_dropped(monkeypatch, two_walks):
    # eliminate stops its reduced pass at the first lead with a dropped
    # variable; record every input that ideal_intersect and
    # restrict_to_order_one pass it, and seeded ones, and check each
    calls = []

    def recording(basis, drop, budget=groebner.DEFAULT_BUDGET):
        calls.append((basis, set(drop)))
        return eliminate(basis, drop, budget)

    monkeypatch.setattr(groebner, "eliminate", recording)
    monkeypatch.setattr(relations, "eliminate", recording)
    rng = random.Random(31)
    ring = VarRing(["a", "b", "x", "y"])
    pool = ["x - a^2", "y - a*b", "a*b - 1", "x*y - b", "b^2 - y", "a + b - x", "x^2 - 2*y", "a*x - y^2"]
    for _ in range(12):
        order = MonomialOrder(rng.choice(["degrevlex", "lex"]), ring, rng.sample(ring.names, 4))
        drop = set(rng.sample(ring.names, rng.randint(1, 3)))
        recording(IdealBasis(ring, order, tuple(poly_parse(t, ring) for t in rng.sample(pool, 3))), drop)
    xy = VarRing(["x", "y"])
    xy_pool = ["x^2 - y", "x*y - 1", "x + y", "y^2 - 2*y", "x - 3", "x*y^2 - x"]
    for kind in ("degrevlex", "lex", "degrevlex"):
        order = MonomialOrder(kind, xy)
        a, b = (_basis(rng.sample(xy_pool, 2), xy, order) for _ in range(2))
        ideal_intersect(a, b)
    geometric = parse_loop("vars: x, y\ninit: x = 1; y = 1\nbody:\n  x = 2*x\n  y = 3*y\n")
    for loop in (two_walks, geometric):
        restrict_to_order_one(moment_invariant_ideal(loop, 2))
    # the seeded calls, the intersections, and a tail ideal and a restriction per loop
    assert len(calls) == 12 + 3 + 2 * 2
    for basis, drop in calls:
        assert eliminate(basis, drop).generators == _kept_of_full_basis(basis, drop), (basis, drop)


XY = VarRing(["x", "y"])
LEX = MonomialOrder("lex", XY)
UNREDUCED = IdealBasis(XY, LEX, (poly_parse("x^2 - y", XY), poly_parse("x*y", XY)))
X_BASIS = buchberger([poly_parse("x", XY)], LEX)
YZ = VarRing(["y", "z"])
Y_BASIS = buchberger([poly_parse("y", YZ)], MonomialOrder("lex", YZ))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ideal_member(poly_parse("x", XY), UNREDUCED), "requires a reduced basis"),
        (lambda: variety_is_finite(UNREDUCED), "requires a reduced basis"),
        (lambda: eliminate(X_BASIS, {"x", "y"}), "every ring variable"),
        (lambda: ideal_intersect(X_BASIS, Y_BASIS), "common ring"),
        (lambda: ideal_equal(X_BASIS, Y_BASIS), "common ring"),
    ],
    ids=["member-unreduced", "finite-unreduced", "eliminate-all", "intersect-rings", "equal-rings"],
)
def test_misuse_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_basis_order_over_another_ring_is_refused():
    x = VarRing(["x"])
    with pytest.raises(ArityMismatch, match="another ring"):
        IdealBasis(XY, MonomialOrder("degrevlex", x), (poly_parse("y", XY),), reduced=True)
    # a basis whose order is over its own ring still answers
    b = IdealBasis(XY, MonomialOrder("degrevlex", XY), (poly_parse("y", XY),), reduced=True)
    assert not ideal_member(poly_parse("x", XY), b)
    assert ideal_member(poly_parse("x*y + y", XY), b)
