import random
import signal
from fractions import Fraction as Q
from math import gcd
from operator import add, le, sub

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
from loopideal.algebra import MAX_POWER_COST, _divisor_data, _primitive_form, mono_value, parse_rational


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


def test_parse_power_with_a_huge_exponent():
    exponent = 2**1100
    assert poly_parse(f"x^{exponent}", VarRing(["x"])).terms == {(exponent,): 1}


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
    with pytest.raises(ParseError) as err:
        poly_parse("x +  ", ring)
    assert err.value.position == 5


@pytest.mark.parametrize(
    "text, position",
    [("x + @", 4), ("x +   @", 6), ("x\t\t@", 3), ("x +\n\n @", 6), (" \t\n$", 3), ("x\n+ 1 ;", 6)],
)
@pytest.mark.parametrize("names", [["x"], ["x", "E[x]"]])
def test_bad_character_after_whitespace_is_reported_where_it_stands(text, position, names):
    with pytest.raises(ParseError, match="unexpected character") as err:
        poly_parse(text, VarRing(names))
    assert err.value.position == position


@pytest.mark.parametrize("names", [["x"], ["x", "E[x]"]])
def test_trailing_whitespace_is_accepted(names):
    ring = VarRing(names)
    for text in ["x + 1 ", "x + 1\t", "x + 1\n", " x + 1 \t\n "]:
        assert poly_parse(text, ring) == poly_parse("x + 1", ring)
    assert parse_rational("3/4 \n\t") == Q(3, 4)


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
    # a monomial or a constant base is charged the 64-bit words its
    # coefficient grows to, k times its bits beyond 1: nothing for a unit
    # coefficient, and nothing for a zero base
    big = Polynomial.monomial(ring, (100000, 100000), 2**100000)
    assert poly_parse("(2*x*y)^100000", ring) == big
    assert poly_parse("x^1000000", ring) == Polynomial.monomial(ring, (1000000, 0))
    assert poly_parse("3^1000 + 0^1000", ring) == 3**1000
    assert poly_parse("(x+y)^0", ring) == 1
    huge = 2**1100
    assert poly_parse(f"x^{huge}", ring) == Polynomial.monomial(ring, (huge, 0))
    assert poly_parse(f"(-x)^{huge}", ring) == Polynomial.monomial(ring, (huge, 0))
    assert poly_parse(f"0^{huge}", ring) == 0

    def past_guard(*_):
        raise AssertionError("the refusal ran past its 1 s guard")

    previous = signal.signal(signal.SIGALRM, past_guard)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        for text, position in [("(2*x)^1000000000", 6), (f"2^{huge}", 2)]:
            with pytest.raises(ParseError, match="too large to expand") as err:
                poly_parse(text, ring)
            assert err.value.position == position
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_power_is_the_repeated_product_fuzzed():
    # a one-term power takes one step and any other square-and-multiply from
    # the polynomial itself, so the integer numerator polynomials of the
    # moment lift keep int coefficients
    rng = random.Random(707)
    ring = VarRing(["x", "y", "z"])
    for _ in range(12):
        for size in (0, 1, 2, 4):
            terms = {}
            while len(terms) < size:
                e = tuple(rng.randint(0, 3) for _ in range(3))
                terms[e] = rng.choice([-1, 1]) * rng.randint(1, 9)
            with_ints = Polynomial._make(ring, terms)
            with_fractions = Polynomial(ring, {e: Q(c, rng.randint(1, 6)) for e, c in terms.items()})
            for p, kind in [(with_ints, int), (with_fractions, Q)]:
                product = Polynomial._make(ring, {(0, 0, 0): kind(1)})
                for k in range(8):
                    power = p**k
                    assert power == product, (p, k)
                    if k:
                        assert all(type(c) is kind for c in power.terms.values()), (p, k)
                    product = product * p


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

    # a monomial in 3,000 variables is split by halves of its used variables,
    # so its image stays a few dozen calls deep
    wide = VarRing([f"v{i}" for i in range(3000)])
    e = tuple(1 + i % 3 for i in range(3000))
    point = [Q(-1) if i % 7 == 0 else Q(1) for i in range(3000)]
    sign = Q((-1) ** sum(k for k, x in zip(e, point) if x < 0))
    assert Polynomial.monomial(wide, e, 3).eval(point) == 3 * sign
    assert mono_value(e, point) == sign
    assert Polynomial.monomial(wide, e, 3) ** 2 == Polynomial.monomial(wide, tuple(2 * k for k in e), 9)


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


def _term_by_term(p, images, ring):
    """p at the polynomial point `images` of `ring`, expanded term by term
    with `*` and `+` only: a reference that shares no code with `eval`."""
    total = Polynomial.zero(ring)
    for e, c in p.terms.items():
        v = Polynomial.const(ring, c)
        for x, k in zip(images, e):
            for _ in range(k):
                v = v * x
        total = total + v
    return total


def test_substitute_is_eval_at_polynomial_points():
    ring = VarRing(["x", "y"])
    p = poly_parse("x^2*y - 3*x + 1/2", ring)
    images = [poly_parse("y + 1", ring), poly_parse("2*x", ring)]
    want = _term_by_term(p, images, ring)
    assert p.substitute(dict(zip(ring.names, images))) == want
    assert p.eval(images) == want
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
    # no divisors give p back, and a zero dividend zero quotients and remainder
    for q in (p, poly_parse("-3/4*x*y^2 + 5/6*y", ring)):
        assert multivariate_divide(q, [], lex) == ([], q)
    zero = Polynomial.zero(ring)
    assert multivariate_divide(zero, [], lex) == ([], zero)
    assert multivariate_divide(zero, [p, poly_parse("2*y - 1", ring)], lex) == ([zero, zero], zero)


def _random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        terms[e] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(ring, terms)


def test_primitive_form_has_positive_lead_fuzzed():
    # a negated monic reducer must still get lc = 1: `_reduce` rescales its
    # whole work dict for every other lead coefficient
    rng = random.Random(606)
    ring = VarRing(["x", "y", "z"])
    order = MonomialOrder("degrevlex", ring)
    negative = 0
    for _ in range(60):
        p = _random_poly(rng, ring)
        if p.is_zero():
            continue
        lm, lc = p.leading_term(order)
        negative += lc < 0
        for q in (p, -p):
            ints, scale = _primitive_form({e: c.as_integer_ratio() for e, c in q.terms.items()}, lm)
            assert ints[lm] > 0 and gcd(*ints.values()) == 1
            assert {e: scale * c for e, c in ints.items()} == q.terms
            assert _divisor_data(q, order.layout(8))[1] == ints[lm]
    assert negative


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
        power = Polynomial.const(ring, 1)
        for k in range(7):
            assert p**k == power, k
            power = power * p
        corner = [Q(rng.choice([0, -1, -2, Q(-1, 2), Q(3, 2)])) for _ in range(2)]
        e = tuple(rng.randint(0, 4) for _ in range(2))
        plain = Q(1)
        for x, k in zip(corner, e):
            for _ in range(k):
                plain *= x
        assert mono_value(e, corner) == plain


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

    # no divisors, where the remainder is p scaled back from its primitive
    # form, and the zero dividend
    zero = Polynomial.zero(ring)
    for order in orders:
        for p in (_random_poly(rng, ring, max_terms=8), _big_poly(rng, ring, 6, 3), -d):
            _assert_division_matches_reference(p, [], order)
        _assert_division_matches_reference(zero, [], order)
        _assert_division_matches_reference(zero, [d, poly_parse("y*z - 3", ring)], order)


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


def test_packed_layout_matches_tuple_monomials():
    """Packed monomials (`Layout`) against the tuple definitions, up to and
    at the width limit: divisibility, product with overflow detection, lcm
    by the cofactor, coprimality, and keys and differences of keys."""
    rng = random.Random(405)
    ring = VarRing(["w", "x", "y", "z"])
    orders = [
        MonomialOrder("lex", ring),
        MonomialOrder("degrevlex", ring),
        MonomialOrder("degrevlex", ring, ["z", "x", "w", "y"]),
        MonomialOrder("lex", ring, ["y", "z", "x", "w"]).eliminating({"x", "z"}),
        MonomialOrder("degrevlex", ring).eliminating({"w"}),
    ]
    for order in orders:
        for width in (8, 16):
            layout = order.layout(width)
            assert order.layout(width) is layout
            top = (1 << (width - 1)) - 1
            # exponents just below and at the limit, and small ones
            pool = [0, 0, 1, 2, 3, top // 2, top - 2, top - 1, top]
            monos = [tuple(rng.choice(pool) for _ in range(4)) for _ in range(24)]
            monos += [(0, 0, 0, 0), (top,) * 4]
            g = layout.guards
            packed = [layout.pack(a) for a in monos]
            for a, pa in zip(monos, packed):
                assert layout.unpack(pa) == a and not pa & g
                for b, pb in zip(monos, packed):
                    assert (((pb | g) - pa) & g == g) == all(map(le, a, b))
                    ab = tuple(map(add, a, b))
                    if max(ab) <= top:
                        assert pa + pb == layout.pack(ab) and not (pa + pb) & g
                    else:
                        assert (pa + pb) & g
                    # the lcm is a's multiple by the cofactor lcm(a, b) / a
                    m = tuple(map(max, a, b))
                    assert layout.cofactor(pa, pb) == layout.pack(tuple(map(sub, m, a)))
                    assert pa + layout.cofactor(pa, pb) == layout.pack(m)
                    coprime = not any(i and j for i, j in zip(a, b))
                    assert (not layout.support(pa) & layout.support(pb)) == coprime
                    ka, kb = order.key(a), order.key(b)
                    assert (pa < pb) == (ka < kb) and (pa == pb) == (a == b)
                    assert (pa >> layout.pbits < pb >> layout.pbits) == (ka < kb)
            # the signature bounds compare differences of keys
            for _ in range(300):
                (a, pa), (b, pb), (c, pc), (d, pd) = rng.sample(list(zip(monos, packed)), 4)
                left = tuple(map(sub, order.key(a), order.key(b)))
                right = tuple(map(sub, order.key(c), order.key(d)))
                ka, kb, kc, kd = (m >> layout.pbits for m in (pa, pb, pc, pd))
                assert (ka - kb < kc - kd) == (left < right)


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


def _reference_less(kind, ring, prio, drop, a, b):
    """a < b in the block order: the `drop` block by degrevlex in priority
    order first, then the rest by `kind` in priority order."""

    def key(e):
        top = [e[ring.index(nm)] for nm in prio if nm in drop]
        low = [e[ring.index(nm)] for nm in prio if nm not in drop]
        grevlex = lambda v: (sum(v), *(-x for x in reversed(v)))  # noqa: E731
        return (grevlex(top) if drop else ()) + (tuple(low) if kind == "lex" else grevlex(low))

    return key(a) < key(b)


def test_block_order_built_at_once_matches_eliminating():
    rng = random.Random(433)
    for _ in range(60):
        ring = VarRing(["a", "b", "c", "d", "e"][: rng.randint(3, 5)])
        kind = rng.choice(["lex", "degrevlex"])
        prio = rng.sample(ring.names, ring.arity)
        drop = frozenset(rng.sample(ring.names, rng.randint(0, ring.arity - 1)))
        other = frozenset(rng.sample(ring.names, rng.randint(0, ring.arity - 1)))
        direct = MonomialOrder(kind, ring, prio, drop)
        orders = [
            MonomialOrder(kind, ring, prio).eliminating(drop),
            MonomialOrder(kind, ring, prio, other).eliminating(drop),
        ]
        monos = [tuple(rng.randint(0, 5) for _ in ring.names) for _ in range(25)]
        for order in orders:
            assert order == direct and hash(order) == hash(direct)
            assert order.drop == direct.drop == drop
            assert order.layout(8)._units == direct.layout(8)._units
            assert [order.key(e) for e in monos] == [direct.key(e) for e in monos]
        for a in monos:
            for b in monos:
                assert (direct.key(a) < direct.key(b)) == _reference_less(kind, ring, prio, drop, a, b)
        assert (direct == MonomialOrder(kind, ring, prio)) == (not drop)


def test_project_changes_ring_and_keeps_its_own():
    ring, big = VarRing(["x", "y"]), VarRing(["z", "y", "w", "x"])
    p = poly_parse("3*x^2*y - 1/2*y + 7", ring)
    assert p.project(ring) is p
    up = p.project(big)
    assert up.ring == big and up == poly_parse("3*x^2*y - 1/2*y + 7", big)
    assert up.project(ring) == p
    assert poly_parse("y - 2", big).project(VarRing(["y"])) == poly_parse("y - 2", VarRing(["y"]))


def test_constant_polynomials_hash_as_their_values():
    ring = VarRing(["x", "y"])
    for value in (0, 3, Q(-5, 7)):
        c = Polynomial.const(ring, value)
        assert c == value and hash(c) == hash(value)
        assert value in {c} and c in {value}
        assert {c: "poly"}[value] == "poly" and {value: "number"}[c] == "number"
    assert Polynomial.zero(ring) in {0} and 0 in {Polynomial.zero(ring)}
    p = poly_parse("x + 3", ring)
    assert p not in {3} and p != 3
    assert {p: 1}[poly_parse("3 + x", ring)] == 1


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


XY, XZ, X = VarRing(["x", "y"]), VarRing(["x", "z"]), VarRing(["x"])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Polynomial(XY, {(1,): Q(1)}), ArityMismatch, "monomial arity"),
        (lambda: Polynomial.zero(XY).leading_term(MonomialOrder("lex", XY)), ValueError, "no leading term"),
        (lambda: poly_parse("x", XY) + poly_parse("x", XZ), ArityMismatch, "different rings"),
        (lambda: poly_parse("x", XY) ** -1, ValueError, "negative exponent"),
        (
            lambda: poly_parse("x*y", XY).substitute({"x": poly_parse("y", XY), "y": poly_parse("z", XZ)}),
            ArityMismatch,
            "substitution images",
        ),
        (lambda: poly_parse("x*y", XY).project(XZ), UnknownVariable, "not in target ring"),
        (
            lambda: multivariate_divide(poly_parse("x", XY), [Polynomial.zero(XY)], MonomialOrder("lex", XY)),
            ValueError,
            "zero divisor",
        ),
        (
            lambda: multivariate_divide(poly_parse("x*y + y", XY), [poly_parse("y", XY)], MonomialOrder("lex", X)),
            ArityMismatch,
            "not in the order's ring",
        ),
        (
            lambda: multivariate_divide(poly_parse("x", X), [poly_parse("y", XY)], MonomialOrder("lex", X)),
            ArityMismatch,
            "not in the order's ring",
        ),
    ],
    ids=["monomial-arity", "zero-lead", "across-rings", "negative-power", "two-image-rings",
         "project", "zero-divisor", "dividend-ring", "divisor-ring"],
)
def test_misuse_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
