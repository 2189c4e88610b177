"""Cross-checks of the Groebner engine against sympy over QQ."""

import linecache
import random
import sys
from fractions import Fraction as Q
from time import perf_counter

import pytest

from loopideal import (
    IdealBasis,
    MonomialOrder,
    Polynomial,
    VarRing,
    buchberger,
    eliminate,
    ideal_intersect,
    multivariate_divide,
    poly_parse,
)
from loopideal.algebra import _Overflow, mono_divides
from loopideal.groebner import _signature_basis

sympy = pytest.importorskip("sympy")

SYMPY_ORDER = {"lex": "lex", "degrevlex": "grevlex"}
RING = VarRing(["x", "y", "z"])
# with the intersection's auxiliary variable t
BIG = VarRing(["t", *RING.names])
# `relations._tail_ideal`'s shape: a counter n, two magnitude columns' symbols,
# the sign column's symbol (named w here), then the ring
TAIL_AUX = ["n", "t1", "t2", "w"]
TAIL = VarRing([*TAIL_AUX, "a", "b", "c"])
SYMBOLS = {nm: sympy.Symbol(nm) for nm in [*BIG.names, *TAIL.names]}
ORDERS = [
    MonomialOrder("degrevlex", RING),
    MonomialOrder("lex", RING),
    MonomialOrder("degrevlex", RING, ["z", "x", "y"]),
    MonomialOrder("lex", RING, ["y", "z", "x"]),
]


def _to_sympy(p: Polynomial):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for nm, k in zip(p.ring.names, e):
            term *= SYMBOLS[nm] ** k
        expr += term
    return expr


def _from_sympy(expr, ring: VarRing) -> Polynomial:
    terms = sympy.Poly(expr, *[SYMBOLS[nm] for nm in ring.names], domain="QQ").terms()
    return Polynomial(ring, {tuple(e): Q(int(c.p), int(c.q)) for e, c in terms})


def _sympy_groebner(polys, priority, order):
    return sympy.groebner(
        [_to_sympy(p) for p in polys],
        *[SYMBOLS[nm] for nm in priority],
        order=order,
        domain="QQ",
    ).exprs


def _free_part(polys, drop, ring: VarRing) -> list[Polynomial]:
    """sympy's elimination: a lex basis with the `drop` variables first,
    then its members free of them."""
    priority = list(drop) + [nm for nm in ring.names if nm not in drop]
    return [
        _from_sympy(g, ring)
        for g in _sympy_groebner(polys, priority, "lex")
        if not g.free_symbols & {SYMBOLS[nm] for nm in drop}
    ]


def _sympy_basis(polys, order: MonomialOrder) -> set:
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return set()
    gb = _sympy_groebner(polys, order.priority, SYMPY_ORDER[order.kind])
    return {frozenset(_from_sympy(g, order.ring).terms.items()) for g in gb}


def _ours(basis) -> set:
    return {frozenset(g.terms.items()) for g in basis.generators}


def _assert_s_pairs_reduce_to_zero(basis) -> None:
    """Buchberger's criterion, which needs no oracle: every S-polynomial of
    two generators leaves remainder 0 on division by the basis."""
    order, gens = basis.order, list(basis.generators)
    leads = [g.leading_term(order) for g in gens]
    for i, (f, (lf, cf)) in enumerate(zip(gens, leads)):
        for g, (lg, cg) in zip(gens[i + 1 :], leads[i + 1 :]):
            lcm = tuple(map(max, lf, lg))
            s = Polynomial.monomial(basis.ring, tuple(a - b for a, b in zip(lcm, lf)), 1 / cf) * f
            s -= Polynomial.monomial(basis.ring, tuple(a - b for a, b in zip(lcm, lg)), 1 / cg) * g
            _, rem = multivariate_divide(s, gens, order)
            assert rem.is_zero(), (f, g, rem)


def _random_poly(rng, ring, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        terms[e] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_buchberger_matches_sympy(order):
    rng = random.Random(71)
    for _ in range(8):
        gens = [_random_poly(rng, RING) for _ in range(rng.randint(1, 3))]
        out = buchberger(gens, order)
        assert _ours(out) == _sympy_basis(gens, order)
        _assert_s_pairs_reduce_to_zero(out)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_eliminate_matches_sympy(order):
    rng = random.Random(72)
    for _ in range(8):
        gens = [_random_poly(rng, RING) for _ in range(rng.randint(2, 3))]
        drop = rng.choice(RING.names)
        out = eliminate(buchberger(gens, order), {drop})
        kept = [g.project(out.ring) for g in _free_part(gens, [drop], RING)]
        assert _ours(out) == _sympy_basis(kept, out.order)
        _assert_s_pairs_reduce_to_zero(out)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_intersect_matches_sympy(order):
    rng = random.Random(73)
    for _ in range(6):
        a = buchberger([_random_poly(rng, RING) for _ in range(2)], order)
        b = buchberger([_random_poly(rng, RING) for _ in range(2)], order)
        out = ideal_intersect(a, b)
        # the intersection is t*a + (1 - t)*b with t eliminated
        t = Polynomial.var(BIG, "t")
        gens = [t * g.project(BIG) for g in a.generators]
        gens += [(1 - t) * g.project(BIG) for g in b.generators]
        kept = [g.project(RING) for g in _free_part(gens, ["t"], BIG)]
        assert out.order == order
        assert _ours(out) == _sympy_basis(kept, order)
        _assert_s_pairs_reduce_to_zero(out)


@pytest.mark.parametrize("order", ORDERS[:2], ids=repr)
def test_buchberger_matches_sympy_large_height(order):
    rng = random.Random(74)
    for _ in range(4):
        gens = []
        for _ in range(2):
            terms = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 2) for _ in range(RING.arity))
                num = rng.randint(2**69, 2**71) * rng.choice([-1, 1])
                terms[e] = Q(num, rng.randint(2**69, 2**71))
            gens.append(Polynomial(RING, terms))
        out = buchberger(gens, order)
        assert _ours(out) == _sympy_basis(gens, order)
        _assert_s_pairs_reduce_to_zero(out)


def test_remainder_lead_divides_earlier_lead():
    # y*(x^2*y - 1) - x*(x*y^2 - x) = x^2 - y, whose leading monomial x^2
    # properly divides the first input's x^2*y: that input stays among the
    # elements the signature loop reduces by, and the reduced basis's
    # ascending pass must drop it
    order = MonomialOrder("degrevlex", RING)
    gens = [poly_parse(t, RING) for t in ("x^2*y - 1", "x*y^2 - x", "y*z^2 - x*z")]
    out = buchberger(gens, order)
    assert _ours(out) == _sympy_basis(gens, order)
    lead = gens[0].leading_term(order)[0]
    assert any(
        mono_divides(g.leading_term(order)[0], lead) and g.leading_term(order)[0] != lead
        for g in out.generators
    )
    _assert_s_pairs_reduce_to_zero(out)


def test_lcm_class_with_coprime_and_non_coprime_pair():
    # the leads y^2, x*y^2 and x: the third input's pairs with the first
    # (coprime) and the second (not coprime) share the lcm x*y^2; the coprime
    # pair's signature is a Koszul syzygy's and is never reduced, while the
    # other pair's signature is decided on its own
    order = MonomialOrder("degrevlex", RING)
    gens = [poly_parse(t, RING) for t in ("y^2 + z", "x*y^2 + y*z - 1", "x + y - z")]
    leads = [g.leading_term(order)[0] for g in gens]
    assert leads == [(0, 2, 0), (1, 2, 0), (1, 0, 0)]
    assert tuple(map(max, leads[0], leads[2])) == tuple(map(max, leads[1], leads[2]))
    out = buchberger(gens, order)
    assert _ours(out) == _sympy_basis(gens, order)
    _assert_s_pairs_reduce_to_zero(out)


def test_eliminate_in_lex_block_order():
    # implicit equations of the curve t -> (t, t^2, t^3 - t)
    ring = VarRing(["t", "x", "y", "z"])
    order = MonomialOrder("lex", ring, ["x", "y", "z", "t"])
    gens = [poly_parse(p, ring) for p in ("x - t", "y - t^2", "z - t^3 + t")]
    out = eliminate(buchberger(gens, order), {"t"})
    assert out.order == MonomialOrder("lex", RING, ["x", "y", "z"])
    kept = [g.project(RING) for g in _free_part(gens, ["t"], ring)]
    assert _ours(out) == _sympy_basis(kept, out.order)
    # z^2 = x^2 * (x^2 - 1)^2 = y * (y - 1)^2
    assert poly_parse("y^3 - 2*y^2 + y - z^2", RING) in out.generators
    _assert_s_pairs_reduce_to_zero(out)


def test_tail_shaped_elimination_matches_sympy():
    # a - sum c*n^k*t^a*w^b per ring variable, the lattice binomial of the
    # magnitudes 4 and 2 (t1 = t2^2) and the sign column's w^2 - 1, as
    # `relations._tail_ideal` builds them, with the four auxiliary symbols
    # eliminated in a block order; three forms in the two free parameters
    # n and t2 always meet in a relation
    rng = random.Random(76)
    var = {nm: Polynomial.var(TAIL, nm) for nm in TAIL.names}
    for _ in range(3):
        gens = []
        for nm in ("a", "b", "c"):
            rhs = Polynomial.zero(TAIL)
            for _ in range(rng.randint(1, 2)):
                part = Polynomial.const(TAIL, Q(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2)))
                part = part * var["n"] ** rng.randint(0, 1)
                part = part * rng.choice([var["t1"], var["t2"], 1])
                rhs = rhs + part * rng.choice([var["w"], 1])
            gens.append(var[nm] - rhs)
        gens += [var["t1"] - var["t2"] ** 2, var["w"] ** 2 - 1]
        order = MonomialOrder("degrevlex", TAIL)
        full = buchberger(gens, order.eliminating(TAIL_AUX))
        _assert_s_pairs_reduce_to_zero(full)
        out = eliminate(IdealBasis(TAIL, order, tuple(gens)), set(TAIL_AUX))
        kept = [g.project(out.ring) for g in _free_part(gens, TAIL_AUX, TAIL)]
        assert out.generators and _ours(out) == _sympy_basis(kept, out.order)
        _assert_s_pairs_reduce_to_zero(out)


@pytest.mark.parametrize("order", ORDERS[:3:2], ids=repr)
def test_point_intersection_input_matches_sympy(order):
    # the ideal I times the maximal ideal of a point p where g0 is not zero,
    # as `relations.relations_ideal` gives it: g - g(p)/g0(p)*g0 for the
    # other generators g of I, and (x_j - p_j)*g0
    rng = random.Random(77)
    for _ in range(6):
        ideal = buchberger([_random_poly(rng, RING) for _ in range(2)], order)
        point = [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in RING.names]
        values = [g.eval(point) for g in ideal.generators]
        if not any(values):
            continue
        k0 = max(k for k, v in enumerate(values) if v)
        g0, v0 = ideal.generators[k0], values[k0]
        gens = [g - g0 * (v / v0) for k, (g, v) in enumerate(zip(ideal.generators, values)) if k != k0]
        gens += [(Polynomial.var(RING, nm) - x) * g0 for nm, x in zip(RING.names, point)]
        out = buchberger(gens, order)
        assert _ours(out) == _sympy_basis(gens, order)
        _assert_s_pairs_reduce_to_zero(out)
        assert all(g.eval(point) == 0 for g in out.generators)


def _sympy_remainder(p: Polynomial, divisors, order: MonomialOrder) -> Polynomial:
    _, r = sympy.reduced(
        _to_sympy(p),
        [_to_sympy(d) for d in divisors],
        *[SYMBOLS[nm] for nm in order.priority],
        order=SYMPY_ORDER[order.kind],
        domain="QQ",
    )
    return _from_sympy(r, order.ring)


@pytest.mark.parametrize(
    "gens, priority, drop",
    [
        (["x - y^60", "x^3 - z"], ["x", "y", "z"], ()),
        (["x - y^63", "x^3 - y*z^2", "z^9 - 1"], ["x", "y", "z"], ()),
        (["y - x^50", "y^5 - z"], ["x", "y", "z"], ("y",)),
        (["x - y^120", "x^300 - z"], ["z", "x", "y"], ("x",)),
    ],
)
def test_exponents_outgrow_the_starting_width(gens, priority, drop):
    # the inputs' exponents fit the first field width (up to 63 in 8-bit
    # fields, up to 8191 in 16-bit ones), the lex or block order makes tail
    # terms with larger ones, and the call widens its fields and starts
    # again; the results match sympy's
    start = perf_counter()
    plain = MonomialOrder("lex", RING, priority)
    order = plain.eliminating(drop)
    polys = [poly_parse(g, RING) for g in gens]
    out = buchberger(polys, order)
    limit = 127 if max(max(map(max, p.terms)) for p in polys) <= 63 else 32767
    assert max(max(map(max, g.terms)) for g in out.generators) > limit
    _assert_s_pairs_reduce_to_zero(out)
    if drop:
        out = eliminate(IdealBasis(RING, plain, tuple(polys)), set(drop))
        kept = [g.project(out.ring) for g in _free_part(polys, list(drop), RING)]
        assert _ours(out) == _sympy_basis(kept, out.order)
    else:
        assert _ours(out) == _sympy_basis(polys, order)
        # a remainder by a Groebner basis is unique
        p = poly_parse("x^3*y^2 + x*z^2 + y^7 - 1", RING)
        quotients, rem = multivariate_divide(p, list(out.generators), order)
        assert rem == _sympy_remainder(p, out.generators, order)
        assert sum((q * d for q, d in zip(quotients, out.generators)), rem) == p
    assert perf_counter() - start < 20


def test_division_outgrows_the_starting_width():
    # x^k leaves the remainder y^(60*k): past 127, the largest exponent of
    # 8-bit fields, from inputs whose exponents are at most 60
    start = perf_counter()
    order = MonomialOrder("lex", RING)
    d = poly_parse("x - y^60 + z", RING)
    p = poly_parse("x^3*y^2 + x*z^2 - 1", RING)
    for dividend in (p, p ** 2):
        (q,), rem = multivariate_divide(dividend, [d], order)
        assert max(map(max, rem.terms)) > 127
        assert rem == _sympy_remainder(dividend, [d], order)
        assert q * d + rem == dividend
    assert perf_counter() - start < 20


@pytest.mark.parametrize(
    "gens, kind, priority",
    [
        (["x*y^63*z^46 - y^61*z - y", "-y^42 - y^3*z"], "lex", ["x", "y", "z"]),
        (
            ["-x^41*y^41 + x^2*y^54*z^2 - x^3*y^2*z^2", "-y^49*z^2 + x*y^3*z^2"],
            "degrevlex",
            ["y", "z", "x"],
        ),
    ],
)
def test_signatures_outgrow_the_starting_width(gens, kind, priority):
    # every element here fits 8-bit fields, but a J-pair's signature or a
    # Koszul syzygy does not: the signature loop alone widens the fields
    start = perf_counter()
    order = MonomialOrder(kind, RING, priority)
    polys = [poly_parse(g, RING) for g in gens]
    out = buchberger(polys, order)
    assert sorted(order._layouts) == [8, 16]
    assert max(max(map(max, g.terms)) for g in out.generators) <= 127
    assert _ours(out) == _sympy_basis(polys, order)
    _assert_s_pairs_reduce_to_zero(out)
    assert perf_counter() - start < 20


def _traced_overflows(call):
    """`call()`, and the guard checks in `groebner._signature_basis` that
    raised `_Overflow` meanwhile, each as the source line of its condition."""
    seen = set()

    def local(frame, event, arg):
        if event == "exception" and arg[0] is _Overflow:
            seen.add(linecache.getline(frame.f_code.co_filename, frame.f_lineno - 1).strip())
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is _signature_basis.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, seen


@pytest.mark.parametrize(
    "gens, kind, priority, check",
    [
        # a rewriter's tail term times the shift to the J-pair's signature
        # outgrows 8-bit fields before the multiple is reduced
        (
            ["x^55*y^2*z^2 - 2*y^41*z", "-x^2*y^44*z^62 + x*y"],
            "lex",
            ["y", "x", "z"],
            "if any((e + shift) & guards for e, _ in ((lm, lc), *tail)):",
        ),
        # the other lead times a signature, a Koszul syzygy, outgrows them
        (
            ["-x^52*y^2*z^2 + x^2", "x*y^3*z^61 + 2*y^2*z^46"],
            "degrevlex",
            ["x", "z", "y"],
            "if z & guards:",
        ),
    ],
    ids=["rewritten-multiple", "koszul-syzygy"],
)
def test_each_signature_overflow_check_widens_the_fields(gens, kind, priority, check):
    start = perf_counter()
    order = MonomialOrder(kind, RING, priority)
    polys = [poly_parse(g, RING) for g in gens]
    out, seen = _traced_overflows(lambda: buchberger(polys, order))
    assert check in seen
    assert sorted(order._layouts) == [8, 16]
    assert _ours(out) == _sympy_basis(polys, order)
    _assert_s_pairs_reduce_to_zero(out)
    assert perf_counter() - start < 20
