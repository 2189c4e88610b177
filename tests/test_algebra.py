import random
from fractions import Fraction as Q

import pytest

from loopideal import (
    ArityMismatch,
    MonomialOrder,
    ParseError,
    Polynomial,
    UnknownVariable,
    VarRing,
    multivariate_divide,
    poly_parse,
)
from loopideal.algebra import MAX_POWER_COST, parse_rational


def test_parse_paper_generator():
    ring = VarRing(["g", "f", "y", "x"])
    p = poly_parse("x - 2*g", ring)
    assert p.terms == {(0, 0, 0, 1): Q(1), (1, 0, 0, 0): Q(-2)}


def test_parse_zero():
    p = poly_parse("0", VarRing(["x"]))
    assert p.is_zero() and p.terms == {}


def test_parse_expansion_collapses_to_constant():
    p = poly_parse("(x+1)^2 - x^2 - 2*x", VarRing(["x"]))
    assert p == Polynomial.const(VarRing(["x"]), 1)


def test_parse_fraction_coefficients():
    ring = VarRing(["x"])
    assert poly_parse("1/2*x + 3/4", ring).eval([Q(1)]) == Q(5, 4)


def test_parse_moment_variable_names():
    ring = VarRing(["E[x]", "E[x^2*y]"])
    p = poly_parse("E[x^2*y] - E[x]^2", ring)
    assert p.eval([Q(3), Q(9)]) == 0


def test_parse_format_idempotent():
    # monomial factors print in ring declaration order, terms in the
    # selected display order
    ring = VarRing(["g", "f", "y", "x"])
    order = MonomialOrder("lex", ring, ["x", "y", "f", "g"])
    for text in ["x - 2*g", "g^2*f - g*f", "3/2*g*y - 7", "-x + 1/2"]:
        p = poly_parse(text, ring)
        assert p.format(order) == text
        assert poly_parse(p.format(order), ring) == p


def test_parse_errors_report_position():
    ring = VarRing(["x"])
    with pytest.raises(ParseError) as err:
        poly_parse("x + @", ring)
    assert err.value.position == 4
    with pytest.raises(UnknownVariable):
        poly_parse("x + q", ring)
    with pytest.raises(ParseError):
        poly_parse("x ^ y", ring)
    with pytest.raises(ParseError):
        poly_parse("x /", ring)


def test_over_long_literal_is_parse_error():
    digits = "7" * 5000
    with pytest.raises(ParseError) as err:
        poly_parse(f"{digits}*x", VarRing(["x"]))
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_rational(f"1/{digits}")


def test_power_expansion_is_bounded():
    ring = VarRing(["x", "y"])
    # (x+1)^k has a term bound of k+1, weighed by k
    assert 224 * 223 <= MAX_POWER_COST < 225 * 224
    assert len(poly_parse("(x+1)^223", ring).terms) == 224
    with pytest.raises(ParseError) as err:
        poly_parse("(x+1)^224", ring)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        poly_parse("(x+y)^" + "9" * 40, ring)
    # a monomial, a constant or zero base is never refused
    big = Polynomial.monomial(ring, (100000, 100000), 2**100000)
    assert poly_parse("(2*x*y)^100000", ring) == big
    assert poly_parse("3^1000 + 0^1000", ring) == 3**1000
    assert poly_parse("(x+y)^0", ring) == 1


def test_product_and_coefficient_size_are_bounded():
    ring = VarRing(["x", "y", "f", "g"])
    # k copies of a 4-term factor are charged about what its k-th power is
    assert len(poly_parse("*".join(["(x+y+f+g)"] * 21), ring).terms) == 2024
    with pytest.raises(ParseError) as err:
        poly_parse("*".join(["(x+y+f+g)"] * 22), ring)
    assert err.value.position == 209
    assert poly_parse("(x+y+f+g)^20*(x+y+f+g)", ring) == poly_parse("(x+y+f+g)^21", ring)
    # a 4,000-digit coefficient takes 208 words, so k(k+1)*208 bounds (x+N)^k
    n = "7" * 4000
    assert len(poly_parse(f"(x+{n})^15", ring).terms) == 16
    with pytest.raises(ParseError):
        poly_parse(f"(x+{n})^16", ring)
    with pytest.raises(ParseError):
        poly_parse("*".join([f"(x+{n})"] * 8), ring)
    # a zero factor costs nothing
    assert poly_parse("(x+y)*0*(x+y)", ring) == 0
    # the charge is per parse, so a sum of powers that pass alone is bounded too
    with pytest.raises(ParseError) as err:
        poly_parse("(x+y+f+g)^20 + (x+y+f+g)^20", ring)
    assert err.value.position == 25


@pytest.mark.parametrize(
    "text, value", [("3", Q(3)), (" -1/2 ", Q(-1, 2)), ("+4/6", Q(2, 3)), ("0/5", Q(0))]
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e5", "2.5", "1_000", "1/0", "--1", "1/2/3", "(1)", "x", ""])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_brackets_are_name_tokens_only_in_moment_rings():
    with pytest.raises(ParseError):
        poly_parse("x[1]", VarRing(["x"]))
    with pytest.raises(UnknownVariable):
        poly_parse("x[1]", VarRing(["E[x]", "x"]))


def test_eval_examples():
    ring = VarRing(["g", "x"])
    p = poly_parse("x - 2*g", ring)
    assert p.eval([Q(1), Q(2)]) == 0

    n_ring = VarRing(["n"])
    q = poly_parse("13*(n - 2)^2", n_ring)
    assert q.eval([Q(2)]) == 0

    xy = VarRing(["x", "y"])
    assert poly_parse("x^2*y", xy).eval([Q(2), Q(3)]) == 12


def test_eval_arity_mismatch():
    with pytest.raises(ArityMismatch):
        poly_parse("x", VarRing(["x"])).eval([Q(1), Q(2)])


def test_substitute_examples():
    ring = VarRing(["x"])
    x2 = poly_parse("x^2", ring)
    assert x2.substitute({"x": poly_parse("x + 2", ring)}) == poly_parse(
        "x^2 + 4*x + 4", ring
    )
    assert x2.substitute({"x": poly_parse("x", ring)}) == x2

    fxy = VarRing(["x", "y", "f"])
    f = poly_parse("f", fxy)
    update = poly_parse("f*((x - 4)^2 + (y - 6)^2)", fxy)
    got = f.substitute({"f": update})
    assert got == poly_parse("f*(x^2 - 8*x + y^2 - 12*y + 52)", fxy)


def test_substitute_into_super_ring():
    small = VarRing(["x"])
    big = VarRing(["x", "t"])
    p = poly_parse("x^2 + 1", small)
    q = p.substitute({"x": poly_parse("x*t", big)})
    assert q == poly_parse("x^2*t^2 + 1", big)


def test_substitute_is_eval_at_polynomial_points():
    ring = VarRing(["x", "y"])
    p = poly_parse("x^2*y - 3*x + 1/2", ring)
    images = [poly_parse("y + 1", ring), poly_parse("2*x", ring)]
    assert p.substitute(dict(zip(ring.names, images))) == p.eval(images)
    const = poly_parse("5", ring).substitute({"x": images[1]})
    assert isinstance(const, Polynomial) and const == 5


def test_substitute_unknown_variable():
    ring = VarRing(["x"])
    with pytest.raises(UnknownVariable):
        poly_parse("x", ring).substitute({"y": poly_parse("x", ring)})


def test_division_textbook_example():
    ring = VarRing(["x", "y"])
    lex = MonomialOrder("lex", ring, ["x", "y"])
    p = poly_parse("x^2*y + x*y^2 + y^2", ring)
    divisors = [poly_parse("x*y - 1", ring), poly_parse("y^2 - 1", ring)]
    quots, rem = multivariate_divide(p, divisors, lex)
    assert rem == poly_parse("x + y + 1", ring)
    assert quots[0] * divisors[0] + quots[1] * divisors[1] + rem == p


def test_division_self_and_irreducible():
    ring = VarRing(["x", "y"])
    lex = MonomialOrder("lex", ring, ["x", "y"])
    p = poly_parse("x^3 - 2*x*y + 1", ring)
    _, rem = multivariate_divide(p, [p], lex)
    assert rem.is_zero()
    _, rem = multivariate_divide(poly_parse("x", ring), [poly_parse("y", ring)], lex)
    assert rem == poly_parse("x", ring)


def _random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        terms[e] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(ring, terms)


def test_ring_laws_fuzzed():
    rng = random.Random(101)
    ring = VarRing(["x", "y", "z"])
    for _ in range(200):
        p, q, r = (_random_poly(rng, ring) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + Polynomial.zero(ring) == p


def test_evaluation_homomorphism_fuzzed():
    rng = random.Random(202)
    ring = VarRing(["x", "y"])
    for _ in range(100):
        p, q = _random_poly(rng, ring), _random_poly(rng, ring)
        point = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_division_contract_fuzzed():
    rng = random.Random(303)
    ring = VarRing(["x", "y"])
    order = MonomialOrder("degrevlex", ring)
    for _ in range(60):
        p = _random_poly(rng, ring, max_terms=6)
        divisors = [
            d
            for d in (_random_poly(rng, ring, max_terms=3) for _ in range(2))
            if not d.is_zero()
        ]
        if not divisors:
            continue
        quots, rem = multivariate_divide(p, divisors, order)
        total = rem
        for qt, d in zip(quots, divisors):
            total = total + qt * d
        assert total == p


def _reference_divide(p, divisors, order):
    """Plain division: scan for the largest remaining term at every step."""
    lead = [d.leading_term(order) for d in divisors]
    quots = [{} for _ in divisors]
    rem = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for i, (le, lc) in enumerate(lead):
            if all(a <= b for a, b in zip(le, e)):
                shift = tuple(a - b for a, b in zip(e, le))
                coef = c / lc
                quots[i][shift] = quots[i].get(shift, 0) + coef
                for te, tc in divisors[i].terms.items():
                    if te != le:
                        pe = tuple(a + b for a, b in zip(te, shift))
                        work[pe] = work.get(pe, 0) - coef * tc
                        if not work[pe]:
                            del work[pe]
                break
        else:
            rem[e] = c
    return [Polynomial(p.ring, q) for q in quots], Polynomial(p.ring, rem)


def _assert_division_matches_reference(p, divisors, order):
    quots, rem = multivariate_divide(p, divisors, order)
    assert (quots, rem) == _reference_divide(p, divisors, order)
    leads = [d.leading_term(order)[0] for d in divisors]
    for e in rem.terms:
        assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)
    total = rem
    for qt, d in zip(quots, divisors):
        total = total + qt * d
    assert total == p


def _big_poly(rng, ring, max_terms, max_deg):
    """Coefficients with numerator and denominator between 2^70 and 2^72."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        num = rng.randint(2**70, 2**72) * rng.choice([-1, 1])
        terms[e] = Q(num, rng.randint(2**70, 2**72))
    return Polynomial(ring, terms)


def test_division_matches_reference_kernel():
    rng = random.Random(505)
    ring = VarRing(["x", "y", "z"])
    orders = [
        MonomialOrder("lex", ring),
        MonomialOrder("degrevlex", ring),
        MonomialOrder("degrevlex", ring, ["z", "x", "y"]),
        MonomialOrder("degrevlex", ring).eliminating({"y"}),
        MonomialOrder("lex", ring, ["z", "x", "y"]).eliminating({"x"}),
    ]
    for order in orders:
        for _ in range(40):
            p = _random_poly(rng, ring, max_terms=8)
            divisors = [
                d
                for d in (_random_poly(rng, ring, max_terms=3, max_deg=2) for _ in range(3))
                if not d.is_zero()
            ]
            if divisors:
                _assert_division_matches_reference(p, divisors, order)

    # non-monic divisors: negative lead coefficients, and none of them +-1
    leads = set()
    for order in orders:
        for _ in range(20):
            p = _random_poly(rng, ring, max_terms=8)
            divisors = []
            for _ in range(3):
                d = _random_poly(rng, ring, max_terms=3, max_deg=2)
                if not d.is_zero():
                    lead = rng.choice([-3, Q(-7, 2), Q(-2, 9), 5, Q(6, 5)])
                    divisors.append(d * (lead / d.leading_term(order)[1]))
                    leads.add(lead)
            if divisors:
                _assert_division_matches_reference(p, divisors, order)
    assert min(leads) < -1 and len(leads) == 5

    # coefficients above 2^70 run the kernel's content removal
    for order in orders:
        for _ in range(6):
            p = _big_poly(rng, ring, max_terms=6, max_deg=3)
            divisors = [_big_poly(rng, ring, max_terms=3, max_deg=2) for _ in range(2)]
            _assert_division_matches_reference(p, divisors, order)

    # one polynomial as a divisor under several orders: whatever it keeps
    # per order must not leak into another order's division
    lex, grevlex = MonomialOrder("lex", ring), MonomialOrder("degrevlex", ring)
    d = poly_parse("x + y^2 - 2*z^3", ring)
    assert d.leading_term(lex)[0] != d.leading_term(grevlex)[0]
    for _ in range(10):
        p = _random_poly(rng, ring, max_terms=8)
        for order in (lex, grevlex, MonomialOrder("lex", ring), grevlex.eliminating({"x"})):
            _assert_division_matches_reference(p, [d, poly_parse("y*z - 3", ring)], order)


def test_order_laws_fuzzed():
    rng = random.Random(404)
    ring = VarRing(["x", "y", "z"])
    orders = [
        MonomialOrder("lex", ring),
        MonomialOrder("degrevlex", ring),
        MonomialOrder("lex", ring, ["z", "x", "y"]),
        MonomialOrder("degrevlex", ring, ["y", "z", "x"]),
        MonomialOrder("degrevlex", ring).eliminating({"y"}),
        MonomialOrder("lex", ring, ["z", "x", "y"]).eliminating({"x"}),
        MonomialOrder("degrevlex", ring, ["y", "z", "x"]).eliminating({"z", "x"}),
    ]
    monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    unit = (0, 0, 0)
    for order in orders:
        # off the dropped variables a block order is its restriction
        keep = [i for i, nm in enumerate(ring.names) if nm not in order.drop]
        sub = order.restricted(VarRing([ring.names[i] for i in keep]))
        free = [a for a in monos if all(a[i] == 0 or i in keep for i in range(3))]
        for a in free:
            for b in free:
                sa, sb = (tuple(m[i] for i in keep) for m in (a, b))
                assert (order.key(a) < order.key(b)) == (sub.key(sa) < sub.key(sb))
        for a in monos:
            for b in monos:
                ka, kb = order.key(a), order.key(b)
                # totality with equality only for equal monomials
                assert (ka == kb) == (a == b)
                for c in monos:
                    ac = tuple(i + j for i, j in zip(a, c))
                    bc = tuple(i + j for i, j in zip(b, c))
                    assert (ka < kb) == (order.key(ac) < order.key(bc))
            # well-foundedness at the bottom: 1 is minimal
            if a != unit:
                assert order.key(a) > order.key(unit)


def test_divisibility_mask_never_rejects_a_divisor():
    rng = random.Random(405)
    order = MonomialOrder("degrevlex", VarRing(["x", "y", "z"]))
    monos = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(60)]
    rejected = 0
    for a in monos:
        for b in monos:
            if order.mask(a) & ~order.mask(b):
                assert not all(i <= j for i, j in zip(a, b))
                rejected += 1
    # and it rejects most non-divisors
    assert rejected > len(monos) ** 2 // 2
    assert order.mask((0, 1, 2)) == 0b110100


def test_block_order_is_told_from_plain():
    ring = VarRing(["x", "y", "z"])
    plain = MonomialOrder("lex", ring, ["z", "x", "y"])
    block = plain.eliminating({"x"})
    assert plain.eliminating(set()) is plain
    assert block.eliminating({"x"}) is block
    assert block.eliminating(set()) == plain
    assert block != plain and repr(block) != repr(plain)
    assert block == MonomialOrder("lex", ring, ["z", "x", "y"]).eliminating({"x"})
    # any monomial with x beats every monomial free of it
    assert block.key((1, 0, 0)) > block.key((0, 0, 9))
    with pytest.raises(UnknownVariable):
        plain.eliminating({"w"})


def test_degrevlex_classic_comparison():
    ring = VarRing(["x", "y", "z"])
    order = MonomialOrder("degrevlex", ring)
    # x*z < y^2 in degrevlex with x > y > z
    assert order.key((1, 0, 1)) < order.key((0, 2, 0))
    lex = MonomialOrder("lex", ring)
    assert lex.key((1, 0, 1)) > lex.key((0, 2, 0))


def test_var_ring_validation():
    with pytest.raises(ValueError):
        VarRing(["x", "x"])
    with pytest.raises(ValueError):
        VarRing(["2bad"])
    with pytest.raises(ValueError):
        VarRing([])
    VarRing(["E[x*y]", "ok_name2"])
