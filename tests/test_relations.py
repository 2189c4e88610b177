import itertools
import random
from fractions import Fraction as Q
from math import gcd

import pytest

from loopideal import (
    ClosureBudgetExceeded,
    ExpPoly,
    MonomialOrder,
    Polynomial,
    UniPoly,
    VarRing,
    buchberger,
    empirical_relations,
    enumerate_distribution,
    ideal_equal,
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
from loopideal import linalg, relations
from loopideal.algebra import mono_value

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
