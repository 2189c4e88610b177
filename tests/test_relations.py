import itertools
import random
from fractions import Fraction as Q
from math import comb, gcd
from pathlib import Path

import pytest

from loopideal import (
    ArityMismatch,
    ClosureBudgetExceeded,
    ExpPoly,
    IdealBasis,
    MonomialOrder,
    Polynomial,
    UniPoly,
    VarRing,
    buchberger,
    eliminate,
    empirical_relations,
    enumerate_distribution,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    moment_closure,
    moment_invariant_ideal,
    moment_ring,
    multiplicative_lattice,
    parse_loop,
    poly_parse,
    psi_map,
    relations_ideal,
    restrict_to_order_one,
    simulate,
)
from loopideal import groebner, linalg, relations
from loopideal.algebra import mono_value
from loopideal.moments import degree_targets

PAPER_BASIS_TEXTS = [
    "E[x^2] - E[y^2]",
    "9*E[x] - 2*E[x*y] - 2*E[y^2]",
    "E[x*y]^2 + 2*E[x*y]*E[y^2] + 81/4*E[x*y] + E[y^2]^2",
    "2*E[x*y] + 9*E[y] + 2*E[y^2]",
]


def _paper_basis(names):
    return buchberger(
        [poly_parse(t, names) for t in PAPER_BASIS_TEXTS],
        MonomialOrder("degrevlex", names),
    )


def _upoly(*coeffs):
    return UniPoly([Q(c) for c in coeffs])


def _const_form(base):
    return ExpPoly((), ((Q(base), _upoly(1)),))


def test_multiplicative_lattice_power_relation():
    assert multiplicative_lattice([Q(2), Q(4), Q(3)]) == ((2, -1, 0),)


def test_multiplicative_lattice_independent():
    assert multiplicative_lattice([Q(2), Q(3)]) == ()


def test_multiplicative_lattice_unit_base():
    assert multiplicative_lattice([Q(1)]) == ((1,),)
    # with no primes at all the lattice is Z^3, its unit basis sorted
    assert multiplicative_lattice([Q(1)] * 3) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_multiplicative_lattice_defining_property():
    bases = [Q(2), Q(4), Q(3), Q(9, 2)]
    for vec in multiplicative_lattice(bases):
        prod = Q(1)
        for b, a in zip(bases, vec):
            prod *= b**a
        assert prod == 1


def _reference_integer_kernel(rows):
    """Basis of {a : rows * a = 0} by column reduction of `rows` while a
    second matrix tracks the column operations; the reference for
    `linalg.integer_relations`."""
    nrows, ncols = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_swap(j, k):
        for m in (a, t):
            for r in m:
                r[j], r[k] = r[k], r[j]

    def col_addmul(j, k, q):
        for m in (a, t):
            for r in m:
                r[j] += q * r[k]

    row = col = 0
    while row < nrows and col < ncols:
        nz = [j for j in range(col, ncols) if a[row][j]]
        if not nz:
            row += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda j: abs(a[row][j]))
            jmin = nz[0]
            for j in nz[1:]:
                col_addmul(j, jmin, -(a[row][j] // a[row][jmin]))
            nz = [j for j in range(col, ncols) if a[row][j]]
        col_swap(col, nz[0])
        row += 1
        col += 1
    kernel = []
    for j in range(ncols):
        if all(a[i][j] == 0 for i in range(nrows)):
            v = [t[i][j] for i in range(ncols)]
            g = gcd(*v)
            v = [x // g for x in v]
            if next(x for x in v if x) < 0:
                v = [-x for x in v]
            kernel.append(v)
    return sorted(kernel)


def test_integer_relations_match_the_reference_kernel():
    rng = random.Random(20231)
    for _ in range(2000):
        nrows, ncols = rng.randint(0, 4), rng.randint(1, 6)
        span = rng.choice([2, 6, 30])
        rows = [[rng.randint(-span, span) for _ in range(ncols)] for _ in range(nrows)]
        if nrows and rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:
            j = rng.randrange(ncols)
            for r in rows:
                r[j] = 0
        if ncols > 1 and rng.random() < 0.3:
            j, k = rng.sample(range(ncols), 2)
            for r in rows:
                r[j] = r[k]
        vectors = [[r[j] for r in rows] for j in range(ncols)]
        if nrows:
            want = _reference_integer_kernel(rows)
        else:
            want = [[int(i == j) for j in range(ncols)] for i in reversed(range(ncols))]
        assert linalg.integer_relations(vectors) == want, rows


def test_multiplicative_lattice_is_complete():
    # every small relation is an integer combination of the returned basis
    rng = random.Random(7)
    pool = [Q(n, d) for n in (1, 2, 3, 4, 6, 9, 12, 18) for d in (1, 2, 3, 8)]
    for _ in range(60):
        bases = rng.sample(pool, rng.randint(1, 4))
        basis = multiplicative_lattice(bases)
        # the basis is independent, so a has one rational coordinate vector
        assert len(linalg.rref([list(v) for v in basis])[1]) == len(basis)
        transposed = [list(col) for col in zip(*basis)]
        for a in itertools.product(range(-2, 3), repeat=len(bases)):
            prod = Q(1)
            for b, e in zip(bases, a):
                prod *= b**e
            if prod != 1:
                continue
            if not basis:
                assert not any(a), (bases, a)
                continue
            coords = linalg.solve(transposed, list(a))
            assert coords is not None and all(c.denominator == 1 for c in coords), (bases, a)


def test_relations_reciprocal_pair():
    # the second ring takes the auxiliary names n and t1, which must move
    for a, b in (("a", "b"), ("n", "t1")):
        names = VarRing([a, b])
        basis = relations_ideal([_const_form(2), _const_form(Q(1, 2))], names)
        expected = buchberger(
            [poly_parse(f"{a}*{b} - 1", names)], MonomialOrder("degrevlex", names)
        )
        assert basis.ring == names and ideal_equal(basis, expected)
        for n in range(7):
            vals = [Q(2) ** n, Q(1, 2) ** n]
            for g in basis.generators:
                assert g.eval(vals) == 0


def test_relations_two_walk_closed_forms_match_quoted_basis():
    forms = [
        ExpPoly((), ((Q(1), _upoly(0, Q(1, 2))),)),          # n/2
        ExpPoly((), ((Q(1), _upoly(0, Q(-1, 2))),)),         # -n/2
        ExpPoly((), ((Q(1), _upoly(0, Q(9, 4), Q(1, 4))),)), # (n^2+9n)/4
        ExpPoly((), ((Q(1), _upoly(0, 0, Q(-1, 4))),)),      # -n^2/4
        ExpPoly((), ((Q(1), _upoly(0, Q(9, 4), Q(1, 4))),)),
    ]
    names = VarRing(["E[x]", "E[y]", "E[x^2]", "E[x*y]", "E[y^2]"])
    basis = relations_ideal(forms, names)
    assert ideal_equal(basis, _paper_basis(names))


def test_relations_single_transcendental_form():
    counter = ExpPoly((), ((Q(1), _upoly(0, 1)),))
    basis = relations_ideal([counter], VarRing(["E[x]"]))
    assert basis.is_zero_ideal()


def test_relations_negative_base_parity():
    sign = ExpPoly((), ((Q(-1), _upoly(1)),))
    names = VarRing(["a"])
    basis = relations_ideal([sign], names)
    assert ideal_equal(
        basis, buchberger([poly_parse("a^2 - 1", names)], MonomialOrder("degrevlex", names))
    )


def test_relations_negative_and_positive_base():
    names = VarRing(["a", "b"])
    basis = relations_ideal([_const_form(-2), _const_form(2)], names)
    assert ideal_equal(
        basis,
        buchberger([poly_parse("a^2 - b^2", names)], MonomialOrder("degrevlex", names)),
    )
    for n in range(8):
        for g in basis.generators:
            assert g.eval([Q(-2) ** n, Q(2) ** n]) == 0


def test_relations_transient_point():
    spike = ExpPoly((Q(5),), ())
    names = VarRing(["a"])
    basis = relations_ideal([spike], names)
    assert ideal_equal(
        basis,
        buchberger([poly_parse("a^2 - 5*a", names)], MonomialOrder("degrevlex", names)),
    )
    for n in range(6):
        for g in basis.generators:
            assert g.eval([spike.eval(n)]) == 0


def _pointwise_relations(forms, ring):
    """The former transient step of `relations_ideal`: the tail ideal
    intersected with the point ideal of each transient index in turn."""
    result = relations._tail_ideal(forms, ring, relations.DEFAULT_BUDGET)
    for n in range(max(len(f.transient) for f in forms)):
        point = [
            Polynomial.var(ring, nm) - Polynomial.const(ring, f.eval(n))
            for nm, f in zip(ring.names, forms)
        ]
        result = ideal_intersect(result, IdealBasis(ring, result.order, tuple(point), reduced=True))
    return result


def _reference_tail_ideal(forms, ring):
    """`_tail_ideal` with one t per base magnitude and every lattice
    binomial, passed to `eliminate` as they stand."""
    mags = sorted({abs(b) for f in forms for b, _ in f.tail if abs(b) != 1}, reverse=True)
    signed = any(b < 0 for f in forms for b, _ in f.tail)
    aux = ["n"] + [f"t{i + 1}" for i in range(len(mags))] + (["w"] if signed else [])
    big = VarRing(aux + list(ring.names))
    order = MonomialOrder("degrevlex", big, aux + list(ring.names))
    n = Polynomial.var(big, "n")
    gens = []
    for nm, f in zip(ring.names, forms):
        rhs = Polynomial.zero(big)
        for b, coeff in f.tail:
            part = coeff(n)
            if abs(b) != 1:
                part = part * Polynomial.var(big, f"t{mags.index(abs(b)) + 1}")
            if b < 0:
                part = part * Polynomial.var(big, "w")
            rhs = rhs + part
        gens.append(Polynomial.var(big, nm) - rhs)
    for vec in multiplicative_lattice(mags):
        pos, neg = (
            Polynomial.monomial(big, (0, *(max(s * a, 0) for a in vec)) + (0,) * (big.arity - 1 - len(vec)))
            for s in (1, -1)
        )
        gens.append(pos - neg)
    if signed:
        w = Polynomial.var(big, "w")
        gens.append(w * w - Polynomial.const(big, 1))
    return eliminate(IdealBasis(big, order, tuple(gens)), set(aux))


# powers, products and reciprocals; a chain; a pair that defines nothing;
# signed bases
TAIL_BASE_SETS = [
    [2, 3, 6, 4, Q(1, 2), Q(1, 3), 9, Q(2, 3)],
    [12, 2, Q(3, 4), Q(1, 2), Q(1, 3)],
    [2, 4, 8],
    [2, Q(1, 2)],
    [-2, 4, Q(-1, 2), Q(1, 4), -1, 3],
    [Q(1, 2), Q(-1, 4), 5, Q(-1, 5)],
]


def _seeded_tail_forms(rng):
    pool = [Q(b) for b in rng.choice(TAIL_BASE_SETS)] + [Q(1)]
    arity = rng.randint(1, 3)
    forms = []
    for _ in range(arity):
        bases = rng.sample(pool, rng.randint(1, 2))
        tail = tuple((b, _upoly(*rng.choice([(1,), (-2,), (Q(1, 2),), (1, 1), (0, -3)]))) for b in bases)
        forms.append(ExpPoly((), tail))
    return forms, VarRing(["a", "b", "c"][:arity])


def test_tail_ideal_matches_one_symbol_per_magnitude():
    # substituting each symbol a lattice binomial defines changes neither
    # the elimination ideal nor its reduced basis
    rng = random.Random(31)
    # over 36, 2, 1/3, 1/6 the binomial t2*t4 - t3 defines t3, and then
    # 36 * (1/3)^2 = 2^2 gives t1*t2^2*t4^2 - t2^2, whose common factor stays
    cases = [
        ([ExpPoly((), ((Q(b), _upoly(1)),)) for b in bases], VarRing("abcd"[: len(bases)]))
        for bases in ([2, 4, 8], [2, Q(1, 2)], [Q(1, 2), Q(-1, 4), 2], [36, 2, Q(1, 3), Q(1, 6)])
    ]
    one = _upoly(1)
    cases += [
        # a sign and no magnitude
        ([ExpPoly((), ((Q(-1), one),))], VarRing(["a"])),
        # 2 and -2 share one magnitude
        ([ExpPoly((), ((Q(2), one), (Q(-2), one)))], VarRing(["a"])),
        # magnitude 1 twice, signed and unsigned, beside 1/2
        ([_const_form(1), _const_form(-1), _const_form(Q(1, 2))], VarRing(["a", "b", "c"])),
        # a coefficient 1 + 2n^2 with an interior zero, beside 4; b and c pin it
        (
            [
                ExpPoly((), ((Q(-2), _upoly(1, 0, 2)), (Q(4), one))),
                _const_form(-2),
                ExpPoly((), ((Q(1), _upoly(0, 1)),)),
            ],
            VarRing(["a", "b", "c"]),
        ),
    ]
    cases += [_seeded_tail_forms(rng) for _ in range(40)]
    for case, (forms, ring) in enumerate(cases):
        got = relations._tail_ideal(forms, ring, relations.DEFAULT_BUDGET)
        assert got.to_json() == _reference_tail_ideal(forms, ring).to_json(), (case, forms)


def test_tail_ideal_gives_a_defined_symbol_no_variable(monkeypatch):
    # 4 = 2^2 and 8 = 2^3 leave only the symbol of 2; 2 and 1/2 define nothing;
    # -1 needs the sign's symbol alone.  Each coefficient 1 + 2n^2 has an
    # interior zero, and no generator carries a zero coefficient.
    dropped = []

    def recording(basis, drop, budget):
        dropped.append(len(drop))
        assert all(c for g in basis.generators for c in g.terms.values())
        return eliminate(basis, drop, budget)

    monkeypatch.setattr(relations, "eliminate", recording)
    for bases, symbols in (([2, 4, 8], 1), ([2, Q(1, 2)], 2), ([Q(-1, 2), Q(1, 4)], 1), ([-1], 0)):
        forms = [ExpPoly((), ((Q(b), _upoly(1, 0, 2)),)) for b in bases]
        ring = VarRing(["a", "b", "c"][: len(bases)])
        relations._tail_ideal(forms, ring, relations.DEFAULT_BUDGET)
        signs = any(b < 0 for b in bases)
        assert dropped.pop() == 1 + symbols + signs, bases


def _transient_edge_cases():
    """Forms on the ring (a, b), or (a,) when there is one form."""
    two, four = (Q(2), _upoly(1)), (Q(4), _upoly(1))
    counter = (Q(1), _upoly(0, 1))
    return [
        # the tail ideal is b - a^2, and (3, 9) lies on it: the basis is kept
        [ExpPoly((Q(3),), (two,)), ExpPoly((Q(9),), (four,))],
        # the same point first, then one off the variety
        [ExpPoly((Q(3), Q(1)), (two,)), ExpPoly((Q(9), Q(5)), (four,))],
        # n and 2^n are independent, so the tail ideal is zero
        [ExpPoly((Q(5), Q(-1)), (counter,)), ExpPoly((), (two,))],
        [ExpPoly((Q(7),), (counter,))],
        # repeated prefix points, at once and with another in between
        [ExpPoly((Q(1), Q(1), Q(1)), (two,)), ExpPoly((Q(2), Q(2), Q(2)), (four,))],
        [ExpPoly((Q(1), Q(3), Q(1)), (two,)), ExpPoly((Q(0), Q(5), Q(0)), (four,))],
        [ExpPoly((Q(2), Q(2)), (two,))],
    ]


def test_relations_ideal_matches_pointwise_intersections():
    for case, forms in enumerate(_transient_edge_cases()):
        ring = VarRing(["a", "b"][: len(forms)])
        got = relations_ideal(forms, ring)
        assert got.generators == _pointwise_relations(forms, ring).generators, (case, forms)
    rng = random.Random(1993)
    values = [Q(v) for v in (0, 1, -1, 2, 5, Q(1, 2), Q(-3, 4))]
    for case in range(30):
        # 2, 4 and 1/2 are powers of one base, so most pairs of forms are related
        arity = rng.choice([1, 2, 2, 2])
        pool = [Q(1), Q(-1)] + [Q(2), Q(4), Q(1, 2)] * (arity - 1)
        forms = []
        for _ in range(arity):
            bases = rng.sample(sorted(set(pool)), rng.randint(0, 1))
            tail = tuple(
                (b, _upoly(*rng.choice([(1,), (-2,), (Q(1, 2),), (1, 1)]))) for b in bases
            )
            transient = tuple(rng.choice(values) for _ in range(rng.randint(0, 4)))
            forms.append(ExpPoly(transient, tail))
        if not any(f.transient for f in forms):
            forms[0] = ExpPoly((rng.choice(values),), forms[0].tail)
        ring = VarRing(["a", "b"][:arity])
        got = relations_ideal(forms, ring)
        assert got.generators == _pointwise_relations(forms, ring).generators, (case, forms)


def _reference_meet_point(basis, point):
    """The former `_meet_point`: g - c*g0 for the other generators g and
    (x_j - p_j)*g0 for every variable, completed by `buchberger`."""
    values = [g.eval(point) for g in basis.generators]
    nonzero = [k for k, v in enumerate(values) if v]
    if not nonzero:
        return basis
    k0 = nonzero[-1]
    g0, v0 = basis.generators[k0], values[k0]
    gens = [g - g0 * (v / v0) for k, (g, v) in enumerate(zip(basis.generators, values)) if k != k0]
    gens += [(Polynomial.var(basis.ring, nm) - x) * g0 for nm, x in zip(basis.ring.names, point)]
    return buchberger(gens, basis.order)


def _seeded_ideal(rng, ring, order):
    """A reduced basis of 1-3 random generators of degree <= 3 with small
    coefficients, or of the zero ideal."""
    monos = [e for e in itertools.product(range(4), repeat=ring.arity) if sum(e) <= 3]
    gens = [
        Polynomial(ring, {m: Q(rng.randint(-3, 3), rng.choice([1, 1, 2])) for m in rng.sample(monos, rng.randint(1, 4))})
        for _ in range(rng.randint(0, 3))
    ]
    return buchberger(gens, order)


def test_meet_point_matches_the_buchberger_construction():
    rng = random.Random(1993)
    counts = {"moved": 0, "in_variety": 0, "zero": 0, "unit": 0}
    for case in range(800):
        arity = rng.randint(1, 4)
        ring = VarRing(["a", "b", "c", "d"][:arity])
        priority = list(ring.names)
        rng.shuffle(priority)
        order = MonomialOrder(rng.choice(["degrevlex", "degrevlex", "lex"]), ring, priority)
        basis = _seeded_ideal(rng, ring, order)
        if case % 25 == 0:
            basis = buchberger([Polynomial.const(ring, 1)], order)
        if case % 25 == 1:
            basis = IdealBasis(ring, order, (), reduced=True)
        for _ in range(rng.randint(1, 3)):
            point = [Q(rng.randint(-2, 2), rng.choice([1, 1, 3])) for _ in range(arity)]
            if basis.generators and rng.random() < 0.2:
                # a point of V(I) with coordinates in {-1, 0, 1}, when there is one
                roots = [p for p in itertools.product(range(-1, 2), repeat=arity)
                         if all(g.eval(p) == 0 for g in basis.generators)]
                point = list(map(Q, rng.choice(roots))) if roots else point
            counts["zero"] += basis.is_zero_ideal()
            counts["unit"] += basis.generators == (Polynomial.const(ring, 1),)
            want = _reference_meet_point(basis, point)
            got = relations._meet_point(basis, point)
            assert got.generators == want.generators, (case, basis.generators, point)
            assert got.reduced and got.order == order
            moved = got.generators != basis.generators
            counts["moved" if moved else "in_variety"] += 1
            basis = got
    assert min(counts.values()) >= 10, counts


def test_meet_point_of_the_unit_ideal_is_the_maximal_ideal():
    ring = VarRing(["a", "b", "c"])
    order = MonomialOrder("degrevlex", ring, ["c", "a", "b"])
    point = [Q(-2), Q(0), Q(1, 3)]
    got = relations._meet_point(IdealBasis(ring, order, (Polynomial.const(ring, 1),), reduced=True), point)
    want = buchberger([Polynomial.var(ring, nm) - x for nm, x in zip(ring.names, point)], order)
    assert got.generators == want.generators


def test_meet_point_runs_no_groebner_computation(monkeypatch):
    ring = VarRing(["a", "b"])
    order = MonomialOrder("degrevlex", ring)
    basis = buchberger([poly_parse("a^2 - b", ring), poly_parse("a*b - 1", ring)], order)
    want = _reference_meet_point(basis, [Q(3), Q(-1)])

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger called")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(relations, "buchberger", refuse)
    assert relations._meet_point(basis, [Q(3), Q(-1)]).generators == want.generators


def test_budget_reaches_every_groebner_run(monkeypatch):
    # the transient loop's ideal is one tail elimination; its prefix point
    # is read off that basis with no Groebner run
    budgets = []
    run = groebner.buchberger

    def recording(gens, order, budget=groebner.DEFAULT_BUDGET, drop=frozenset()):
        budgets.append(budget)
        return run(gens, order, budget, drop)

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(relations, "buchberger", recording)
    loop = parse_loop((Path(__file__).parent / "golden" / "transient.loop").read_text())
    moment_invariant_ideal(loop, 2, budget=777)
    assert budgets == [777]


def test_moment_invariant_ideal_two_walks(two_walks):
    basis = moment_invariant_ideal(two_walks, 2)
    names = moment_ring(two_walks.variables, 2).ring
    assert ideal_equal(basis, _paper_basis(names))
    assert ideal_member(poly_parse("E[x*y] - E[x]*E[y]", names), basis)


def test_moment_invariant_ideal_symmetric_walk(symmetric_walk):
    basis = moment_invariant_ideal(symmetric_walk, 1)
    names = moment_ring(symmetric_walk.variables, 1).ring
    expected = buchberger([poly_parse("E[x]", names)], MonomialOrder("degrevlex", names))
    assert ideal_equal(basis, expected)


def test_moment_invariant_ideal_free_counter():
    loop = parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x + 1\n")
    assert moment_invariant_ideal(loop, 1).is_zero_ideal()


def test_soundness_by_evaluation(two_walks):
    basis = moment_invariant_ideal(two_walks, 2)
    mring = moment_ring(two_walks.variables, 2)
    dist = {two_walks.init: Q(1)}
    for n in range(13):
        dist = enumerate_distribution(two_walks, n)
        values = []
        for sym in mring.symbols:
            total = Q(0)
            for st, pr in dist.items():
                v = pr
                for x, k in zip(st, sym):
                    if k:
                        v *= x**k
                total += v
            values.append(total)
        for g in basis.generators:
            assert g.eval(values) == 0


def test_psi_map_examples(two_walks):
    names = moment_ring(two_walks.variables, 2).ring
    p = poly_parse("E[x^2]^3 - E[y]*E[y^2]", names)
    assert psi_map(p, two_walks.variables) == poly_parse(
        "x^6 - y^3", two_walks.variables
    )
    const = poly_parse("7/2", names)
    assert psi_map(const, two_walks.variables) == poly_parse("7/2", two_walks.variables)
    lin = poly_parse("E[x] - 2*E[y]", names)
    assert psi_map(lin, two_walks.variables) == poly_parse("x - 2*y", two_walks.variables)


def test_psi_map_is_evaluation_at_the_moment_monomials():
    # psi(p)(v) is p at the point of each symbol's monomial value at v
    rng = random.Random(7)
    base = VarRing(["x", "y", "z"])
    mring = moment_ring(base, 2)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 2) for _ in mring.symbols)
            terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 4))
        p = Polynomial(mring.ring, terms)
        v = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(base.arity)]
        point = [mono_value(sym, v) for sym in mring.symbols]
        assert psi_map(p, base).eval(v) == p.eval(point)


def test_psi_generalization_on_deterministic_loop(xy_system):
    basis = moment_invariant_ideal(xy_system, 1)
    states = simulate(xy_system, 25)
    for g in basis.generators:
        classical = psi_map(g, xy_system.variables)
        for st in states:
            assert classical.eval(st) == 0


def test_restrict_to_order_one(two_walks):
    basis = moment_invariant_ideal(two_walks, 2)
    restricted = restrict_to_order_one(basis)
    names = restricted.ring
    assert names.names == ("E[x]", "E[y]")
    expected = buchberger(
        [poly_parse("E[x] + E[y]", names)], MonomialOrder("degrevlex", names)
    )
    assert ideal_equal(restricted, expected)


def test_restrict_zero_ideal():
    loop = parse_loop("vars: x\ninit: x = 0\nbody:\n  x = x + 1\n")
    basis = moment_invariant_ideal(loop, 2)
    assert restrict_to_order_one(basis).is_zero_ideal()


def test_restrict_substitution_example():
    names = VarRing(["E[x]", "E[x^2]"])
    order = MonomialOrder("degrevlex", names)
    basis = buchberger(
        [poly_parse("E[x] - E[x^2]", names), poly_parse("E[x^2] - 1", names)], order
    )
    restricted = restrict_to_order_one(basis)
    assert ideal_member(poly_parse("E[x] - 1", restricted.ring), restricted)


def test_restrict_keeps_exactly_the_degree_one_names():
    mring = moment_ring(VarRing(["x", "y", "z"]), 3)
    names = VarRing(["E[1]", *mring.ring.names])
    order = MonomialOrder("degrevlex", names)
    basis = buchberger([poly_parse(f"{nm} - 1", names) for nm in names.names], order)
    restricted = restrict_to_order_one(basis)
    assert restricted.ring.names == ("E[1]", "E[x]", "E[y]", "E[z]")
    assert ideal_member(poly_parse("E[x] - E[z]", restricted.ring), restricted)


def test_restrict_reads_degrees_one_two_and_three_in_one_ring():
    names = VarRing(["E[x]", "E[y]", "E[x*y]", "E[x^2]", "E[x^3]", "E[x^2*y]"])
    order = MonomialOrder("degrevlex", names)
    gens = [
        "E[x*y] - E[x]", "E[x*y] - E[y]^2", "E[x^3] - E[x^2]",
        "E[x^2*y] - E[y]", "E[x^2*y] - 3",
    ]
    restricted = restrict_to_order_one(buchberger([poly_parse(g, names) for g in gens], order))
    assert restricted.ring.names == ("E[x]", "E[y]")
    expected = [poly_parse(g, restricted.ring) for g in ("E[y] - 3", "E[x] - 9")]
    assert ideal_equal(restricted, buchberger(expected, restricted.order))
    # only the canonical spelling of a degree-1 moment is kept
    odd = VarRing(["E[x]", "E[x^1]"])
    basis = buchberger([poly_parse("E[x^1] - E[x]", odd)], MonomialOrder("degrevlex", odd))
    assert restrict_to_order_one(basis).ring.names == ("E[x]",)


def test_moment_ring_refuses_more_moments_than_the_closure_budget(monkeypatch):
    ring = VarRing(["x", "y", "z"])
    loop = parse_loop("vars: x, y, z\ninit: x = 0; y = 0; z = 0\nbody:\n  x = x + 1\n")
    # C(3 + 2, 2) = 10 symbols: E[1] and the nine moments of degree 1 and 2,
    # the whole closure of this affine loop
    targets = list(moment_ring(ring, 2).symbols)
    assert moment_closure(loop, targets, budget=10).size == 10
    with pytest.raises(ClosureBudgetExceeded):
        moment_closure(loop, targets, budget=9)
    monkeypatch.setattr(relations, "DEFAULT_CLOSURE_BUDGET", 10)
    assert len(moment_ring(ring, 2).symbols) == 9
    monkeypatch.setattr(relations, "DEFAULT_CLOSURE_BUDGET", 9)
    with pytest.raises(ClosureBudgetExceeded, match="at least 10 symbols"):
        moment_ring(ring, 2)


def test_empirical_constant_sequence():
    names = VarRing(["c"])
    basis = empirical_relations([[Q(1)] * 12], names, 1)
    expected = buchberger([poly_parse("c - 1", names)], MonomialOrder("degrevlex", names))
    assert ideal_equal(basis, expected)


def test_empirical_without_samples_is_the_unit_ideal():
    # with no samples every monomial column is in the kernel, 1 included
    for ring, degree in ((VarRing(["x"]), 2), (VarRing(["x", "y"]), 1)):
        basis = empirical_relations([[] for _ in ring.names], ring, degree)
        assert basis.generators == (Polynomial.const(ring, 1),)


def test_empirical_rows_scaled_by_each_samples_denominator():
    """Samples with different denominators: the integer columns, sample n
    scaled by d_n^min(degree, count), keep the kernel of the `mono_value`
    rows."""
    sympy = pytest.importorskip("sympy")
    loop = parse_loop(
        "vars: x, y\ninit: x = 1/2; y = 2/3\nbody:\n  (x, y) = (1/3*x + 1, 1/3*y + 1/5)\n"
    )
    states = simulate(loop, 6)
    assert len({v.denominator for st in states for v in st}) > 2
    table = [[st[j] for st in states] for j in range(2)]
    ring = loop.variables
    order = MonomialOrder("degrevlex", ring)
    # the two maps share the multiplier 1/3, so x and y are affinely related
    line = poly_parse("22*x + 60*y - 51", ring)
    for degree in (1, 2, 3):
        monomials = [(0, 0)] + degree_targets(ring, degree)
        values = [[mono_value(e, st) for e in monomials] for st in states]
        rows = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in values]
        )
        kernel = [
            Polynomial(ring, {e: Q(int(c.p), int(c.q)) for e, c in zip(monomials, vec)})
            for vec in rows.nullspace()
        ]
        got = empirical_relations(table, ring, degree)
        assert got.generators == buchberger(kernel, order).generators, degree
        assert ideal_member(line, got), degree


def _dense_empirical(table, ring, degree):
    """The former `empirical_relations`: the rational kernel of the rows of
    every monomial of degree <= `degree` evaluated at each sample, reduced
    by `buchberger`."""
    monomials = [(0,) * ring.arity] + degree_targets(ring, degree)
    rows = [[mono_value(e, point) for e in monomials] for point in zip(*table)]
    if rows:
        gens = [Polynomial(ring, dict(zip(monomials, v))) for v in linalg.nullspace(rows)]
    else:
        gens = [Polynomial.const(ring, 1)]
    return buchberger(gens, MonomialOrder("degrevlex", ring))


def _sample_value(rng, pool):
    if rng.random() < 0.3:
        return rng.choice(pool)
    return Q(rng.randint(-3, 3), rng.choice([1, 2, 3]))


def _flag_table(rng, arity):
    """Lines n -> a + s*n up to horizon 60, one of them replaced by a flag-like
    running product of (a + s*k)^2 + c over k < n, which grows faster than
    exponentially and, for c = 0, can reach 0."""
    count = rng.randint(0, 61)
    lines = [(Q(rng.randint(-5, 5), rng.choice([1, 1, 2])), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(arity)]
    table = [[a + s * n for n in range(count)] for a, s in lines]
    (a, s), c, f = lines[0], rng.choice([0, 1, 2, 5]), Q(rng.choice([1, 1, 3]))
    flag = table[rng.randrange(arity)]
    for n in range(count):
        flag[n], f = f, f * ((a + s * n) ** 2 + c)
    return table


def _sample_table(rng, arity, count):
    """`count` samples from a small pool, perhaps one repeated."""
    pool = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] + [Q(10**12 + 7)]
    points = [[_sample_value(rng, pool) for _ in range(arity)] for _ in range(count)]
    if count > 2 and rng.random() < 0.3:
        points[-1] = list(points[rng.randrange(count - 1)])
    return [list(col) for col in zip(*points)] if points else [[] for _ in range(arity)]


def test_empirical_matches_dense_reference_kernel():
    """Random tables, degrees 1-5: 1-4 variables and 0-12 samples, some
    repeated, fractional and one of size 10^12; then 1-5 variables and a
    flag table of up to hundreds of bits, with at most 56 monomials."""
    rng = random.Random(1982)
    for case in range(300):
        if case < 200:
            arity = rng.randint(1, 4)
            count, degree = rng.randint(0, 12), rng.randint(1, 5)
            table = _sample_table(rng, arity, count)
        else:
            arity, degree = rng.randint(1, 5), rng.randint(1, 5)
            while comb(arity + degree, degree) > 56:
                degree -= 1
            table = _flag_table(rng, arity)
        ring = VarRing([f"x{i}" for i in range(arity)])
        got = empirical_relations(table, ring, degree)
        assert got.generators == _dense_empirical(table, ring, degree).generators, case


def _spy_moduli(monkeypatch):
    """The modulus of every walk `empirical_relations` runs, 0 for the walk
    in integers."""
    moduli, walk = [], relations._walk

    def spy(*args):
        moduli.append(args[-1])
        return walk(*args)

    monkeypatch.setattr(relations, "_walk", spy)
    return moduli


def test_empirical_falls_back_to_the_walk_in_integers(monkeypatch):
    """The walk mod p reruns in integers, with the same output, for a prime
    too small for the relation x - 2*g, a sample denominator divisible by p,
    a coefficient past the reconstruction bound, and one that reconstructs
    to 1 as 2^61 = 1 mod p but fails its check."""
    flag = parse_loop((Path(__file__).parent / "golden" / "flag.loop").read_text())
    states = simulate(flag, 25)
    flag_table = [list(col) for col in zip(*states)]
    moduli, p = _spy_moduli(monkeypatch), relations.MODULUS
    for prime in (3, 5, 7):
        moduli.clear()
        monkeypatch.setattr(relations, "MODULUS", prime)
        got = empirical_relations(flag_table, flag.variables, 3)
        assert got.generators == _dense_empirical(flag_table, flag.variables, 3).generators
        assert moduli == [prime, 0]
    monkeypatch.setattr(relations, "MODULUS", p)
    ring = VarRing(["x", "y"])
    line = [Q(n) for n in range(8)]
    for table in (
        [[Q(n, p) for n in range(8)], [Q(3 * n + 1, p) for n in range(8)]],
        [line, [12345678901234567891 * x for x in line]],
        [line, [2**61 * x for x in line]],
    ):
        moduli.clear()
        got = empirical_relations(table, ring, 2)
        assert got.generators == _dense_empirical(table, ring, 2).generators
        assert moduli == [p, 0]


def test_empirical_mod_seven_matches_dense_reference_kernel(monkeypatch):
    """At p = 7 only 0 and +-1 reconstruct, so more than half of the random
    tables fall back (88 of 150); every output is the reference's either
    way, and each way is taken at least 40 times."""
    monkeypatch.setattr(relations, "MODULUS", 7)
    moduli = _spy_moduli(monkeypatch)
    rng, fallbacks = random.Random(2000), 0
    for case in range(150):
        arity, degree = rng.randint(1, 4), rng.randint(1, 4)
        while comb(arity + degree, degree) > 35:
            degree -= 1
        ring = VarRing([f"x{i}" for i in range(arity)])
        table = _flag_table(rng, arity) if rng.random() < 0.5 else _sample_table(rng, arity, rng.randint(0, 12))
        moduli.clear()
        got = empirical_relations(table, ring, degree)
        assert got.generators == _dense_empirical(table, ring, degree).generators, case
        fallbacks += moduli == [7, 0]
    assert min(fallbacks, 150 - fallbacks) >= 40


def test_empirical_full_walk_is_buchbergers_reduced_basis(monkeypatch):
    """Random tables with degree >= count: the walk runs to its end, and its
    monic generators, returned without `buchberger`, are the reduced basis
    that `buchberger` makes of them."""
    rng = random.Random(1993)
    cases = []
    for case in range(300):
        arity, count = rng.randint(1, 3), rng.randint(0, 7)
        ring = VarRing([f"x{i}" for i in range(arity)])
        pool = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        points = [[_sample_value(rng, pool) for _ in range(arity)] for _ in range(count)]
        table = [list(col) for col in zip(*points)] if points else [[] for _ in range(arity)]
        cases.append((ring, table, max(count, 1) + rng.choice([0, 0, 1, 5])))

    def no_buchberger(*args):
        raise AssertionError("the full walk called buchberger")

    with monkeypatch.context() as patch:
        patch.setattr(relations, "buchberger", no_buchberger)
        bases = [empirical_relations(table, ring, degree) for ring, table, degree in cases]
    for case, ((ring, _, _), basis) in enumerate(zip(cases, bases)):
        assert basis.reduced, case
        want = buchberger(list(basis.generators), MonomialOrder("degrevlex", ring))
        assert basis.generators == want.generators, case


def test_empirical_degree_past_the_samples_changes_nothing():
    """The four samples of the golden flag loop at horizon 3 have a vanishing
    ideal that degree 3 already generates, so degrees 4, 16 and 400 give the
    same basis; a fractional loop at degree 10^6 finishes."""
    flag = parse_loop((Path(__file__).parent / "golden" / "flag.loop").read_text())
    table = [list(col) for col in zip(*simulate(flag, 3))]
    want = empirical_relations(table, flag.variables, 3).generators
    for degree in (4, 16, 400):
        assert empirical_relations(table, flag.variables, degree).generators == want
    loop = parse_loop(
        "vars: x, y\ninit: x = 1/2; y = 2/3\nbody:\n  (x, y) = (1/3*x + 1, 1/3*y + 1/5)\n"
    )
    table = [list(col) for col in zip(*simulate(loop, 12))]
    got = empirical_relations(table, loop.variables, 10**6)
    assert ideal_member(poly_parse("22*x + 60*y - 51", loop.variables), got)
    assert got.generators == _dense_empirical(table, loop.variables, 13).generators


def test_empirical_flag_loops(reach_46, reach_57):
    from loopideal import p2p_to_spinv

    loop46 = p2p_to_spinv(reach_46)
    states = simulate(loop46, 25)
    table = [[st[j] for st in states] for j in range(4)]
    emp46 = empirical_relations(table, loop46.variables, 3)
    names = loop46.variables
    order = MonomialOrder("degrevlex", names)
    quoted = buchberger(
        [poly_parse(t, names) for t in ("x - 2*g", "y - 3*g", "g*(g-1)*f")], order
    )
    # every quoted generator vanishes empirically ...
    for g in quoted.generators:
        assert ideal_member(g, emp46)
    # ... but the exact kernel is strictly larger: the flag also satisfies
    # a quadratic relation on the whole orbit
    extra = poly_parse("f^2 - 12*f*g - f", names)
    for st in states:
        assert extra.eval(st) == 0
    assert ideal_member(extra, emp46)
    assert not ideal_member(extra, quoted)

    loop57 = p2p_to_spinv(reach_57)
    states57 = simulate(loop57, 25)
    table57 = [[st[j] for st in states57] for j in range(4)]
    emp57 = empirical_relations(table57, loop57.variables, 3)
    expected57 = buchberger(
        [poly_parse(t, names) for t in ("x - 2*g", "y - 3*g")], order
    )
    assert ideal_equal(emp57, expected57)


def test_empirical_matches_exact_pipeline(two_walks):
    # oracle-built value table reproduces the exact moment ideal at degree 2
    mring = moment_ring(two_walks.variables, 2)
    table = []
    dists = [enumerate_distribution(two_walks, n) for n in range(21)]
    for sym in mring.symbols:
        row = []
        for dist in dists:
            total = Q(0)
            for st, pr in dist.items():
                v = pr
                for x, k in zip(st, sym):
                    if k:
                        v *= x**k
                total += v
            row.append(total)
        table.append(row)
    emp = empirical_relations(table, mring.ring, 2)
    exact = moment_invariant_ideal(two_walks, 2)
    for g in emp.generators:
        if max(map(sum, g.terms)) <= 2:
            assert ideal_member(g, exact)
    for g in exact.generators:
        if max(map(sum, g.terms)) <= 2:
            assert ideal_member(g, emp)


def _oracle_values(loop, symbols, upto):
    out = []
    for n in range(upto + 1):
        dist = enumerate_distribution(loop, n)
        vals = []
        for sym in symbols:
            acc = Q(0)
            for st, pr in dist.items():
                v = pr
                for x, k in zip(st, sym):
                    if k:
                        v *= x**k
                acc += v
            vals.append(acc)
        out.append(vals)
    return out


def test_ideal_sound_with_sign_flip_and_transient():
    # x flips sign with even expectation, y is a pure geometric; exercises
    # the sign-torsion path together with a transient index
    loop = parse_loop(
        "vars: x, y\ninit: x = 3; y = 7\nbody:\n"
        "  x = -2*x [1/2] 2*x\n"
        "  y = 4*y\n"
    )
    mring = moment_ring(loop.variables, 2)
    basis = moment_invariant_ideal(loop, 2)
    for vals in _oracle_values(loop, mring.symbols, 9):
        for g in basis.generators:
            assert g.eval(vals) == 0


def test_ideal_for_two_point_orbit():
    loop = parse_loop("vars: x\ninit: x = 5\nbody:\n  x = -x + 1\n")
    basis = moment_invariant_ideal(loop, 2)
    names = moment_ring(loop.variables, 2).ring
    # the orbit alternates between 5 and -4; both point relations follow
    assert ideal_member(poly_parse("(E[x] - 5)*(E[x] + 4)", names), basis)
    assert ideal_member(poly_parse("E[x] - E[x^2] + 20", names), basis)
    for vals in _oracle_values(loop, moment_ring(loop.variables, 2).symbols, 8):
        for g in basis.generators:
            assert g.eval(vals) == 0


def test_ideal_sound_three_branches():
    loop = parse_loop(
        "vars: x\ninit: x = 0\nbody:\n  x = x + 2 [1/6] x - 1 [1/2] x\n"
    )
    mring = moment_ring(loop.variables, 2)
    basis = moment_invariant_ideal(loop, 2)
    vals = _oracle_values(loop, mring.symbols, 8)
    assert vals[6][0] == -1  # E[x_n] = -n/6
    for row in vals:
        for g in basis.generators:
            assert g.eval(row) == 0


def test_geometric_loop_multiplicative_relation():
    loop = parse_loop("vars: x\ninit: x = 1\nbody:\n  x = 3*x\n")
    basis = moment_invariant_ideal(loop, 2)
    names = moment_ring(loop.variables, 2).ring
    assert ideal_member(poly_parse("E[x]^2 - E[x^2]", names), basis)


def test_coupled_loop_with_polynomial_exponential_forms():
    # y accumulates the updated x: its closed form carries an n*2^n term
    # and the moment bases {1, 2, 4} exercise the power lattice
    loop = parse_loop("vars: x, y\ninit: x = 1; y = 0\nbody:\n  x = 2*x + 1\n  y = 2*y + x\n")
    from loopideal import UniPoly, moment_closure, solve_closed_form

    mring = moment_ring(loop.variables, 2)
    system = moment_closure(loop, list(mring.symbols))
    fy = solve_closed_form(system, system.index((0, 1)))
    assert fy.tail == (
        (Q(1), UniPoly([Q(1)])),
        (Q(2), UniPoly([Q(-1), Q(2)])),
    )
    basis = moment_invariant_ideal(loop, 2)
    # deterministic loop: moments factor, so all product relations hold
    for text in ("E[x]^2 - E[x^2]", "E[x]*E[y] - E[x*y]", "E[y]^2 - E[y^2]"):
        assert ideal_member(poly_parse(text, mring.ring), basis)
    for vals in _oracle_values(loop, mring.symbols, 8):
        for g in basis.generators:
            assert g.eval(vals) == 0


def test_identically_vanishing_exponential_polynomial():
    # a nonzero combination of distinct positive bases cannot vanish on a
    # window twice its parameter count; the zero combination trivially does
    bases = [Q(1), Q(2), Q(3)]
    coeffs = [Q(3), Q(-2), Q(1)]
    values = [sum(c * b**n for c, b in zip(coeffs, bases)) for n in range(6)]
    assert any(v != 0 for v in values)
    zero = [sum(Q(0) * b**n for b in bases) for n in range(6)]
    assert all(v == 0 for v in zero)


XY = VarRing(["x", "y"])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: multiplicative_lattice([Q(2), Q(0)]), ValueError, "bases must be positive"),
        (lambda: relations_ideal([ExpPoly((Q(1),))], XY), ArityMismatch, "1 forms for 2 names"),
        (lambda: psi_map(poly_parse("x", VarRing(["x"])), XY), ValueError, "not a moment variable"),
        (lambda: psi_map(poly_parse("E[2*x]", VarRing(["E[2*x]"])), XY), ValueError, "monic monomial"),
        (
            lambda: restrict_to_order_one(buchberger([poly_parse("x", XY)], MonomialOrder("lex", XY))),
            ValueError,
            "not a moment ring variable",
        ),
        (lambda: empirical_relations([[Q(1)], [Q(2)]], XY, 0), ValueError, "degree must be at least 1"),
        (lambda: empirical_relations([[Q(1)]], XY, 1), ArityMismatch, "1 value rows for 2 names"),
        (lambda: empirical_relations([[Q(1)], [Q(1), Q(2)]], XY, 1), ArityMismatch, "ragged"),
    ],
    ids=["lattice-base", "forms-arity", "psi-plain-name", "psi-non-monic", "restrict-plain-ring",
         "empirical-degree", "empirical-rows", "empirical-ragged"],
)
def test_misuse_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
