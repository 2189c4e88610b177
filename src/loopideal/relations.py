"""Algebraic relations among closed forms and moment invariant ideals.

The relations ideal of exponential polynomials is computed by adjoining a
counter symbol plus one symbol per base magnitude, dividing out the
binomial ideal of all multiplicative relations among the magnitudes (and a
sign-torsion symbol when bases are negative), then eliminating the
auxiliary symbols.  Transient prefixes are covered by intersecting with
the point ideals of their indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .algebra import (
    _NAME_RE,
    MonomialOrder,
    Polynomial,
    VarRing,
    fresh_name,
    mono_one,
    mono_str,
    mono_value,
    poly_parse,
)
from .cfinite import ExpPoly, solve_closed_form
from .errors import ArityMismatch, ClosureBudgetExceeded
from .groebner import (
    DEFAULT_BUDGET,
    IdealBasis,
    buchberger,
    eliminate,
    ideal_intersect,
)
from .loops import LoopProgram
from .moments import DEFAULT_CLOSURE_BUDGET, degree_targets, moment_closure


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_lattice(bases: list[Fraction]) -> tuple[tuple[int, ...], ...]:
    """Basis of the vectors a with prod(base_i ** a_i) == 1: the integer
    relations among the bases' prime exponent vectors, sorted."""
    bases = [Fraction(b) for b in bases]
    if any(b <= 0 for b in bases):
        raise ValueError("bases must be positive")
    exps = [Counter(_factorize(b.numerator)) for b in bases]
    for vec, b in zip(exps, bases):
        vec.subtract(_factorize(b.denominator))
    primes = sorted(set().union(*exps))
    vectors = [[vec[p] for p in primes] for vec in exps]
    return tuple(map(tuple, linalg.integer_relations(vectors)))


@dataclass(frozen=True)
class MomentRing:
    """Formal variables E[...] for the moments of a program's monomials."""

    ring: VarRing
    base_ring: VarRing
    symbols: tuple[tuple[int, ...], ...]

    def name_of(self, symbol: tuple[int, ...]) -> str:
        return f"E[{mono_str(symbol, self.base_ring)}]"


def moment_ring(base_ring: VarRing, max_degree: int) -> MomentRing:
    """Moment variables for every monomial of degree 1..max_degree; more of
    them and E[1] than `moment_closure`'s budget is ClosureBudgetExceeded."""
    count = comb(base_ring.arity + max_degree, max_degree) if max_degree > 0 else 0
    if count > DEFAULT_CLOSURE_BUDGET:
        raise ClosureBudgetExceeded(
            f"moment closure needs at least {count} symbols for degree <= {max_degree} "
            f"in {base_ring.arity} variables, over its budget of {DEFAULT_CLOSURE_BUDGET}"
        )
    symbols = tuple(degree_targets(base_ring, max_degree))
    names = [f"E[{mono_str(e, base_ring)}]" for e in symbols]
    return MomentRing(VarRing(names), base_ring, symbols)


def _point_ideal(ring: VarRing, order: MonomialOrder, values) -> IdealBasis:
    gens = []
    for nm, v in zip(ring.names, values):
        gens.append(Polynomial.var(ring, nm) - Polynomial.const(ring, v))
    return IdealBasis(ring, order, tuple(gens), reduced=True)


def _tail_ideal(
    forms: list[ExpPoly],
    ring: VarRing,
    order: MonomialOrder,
    budget: int,
) -> IdealBasis:
    """Relations among the tails, each read as it stands, for all n >= 0.

    Each form gives x_j - sum coeff(n)*t_|b|*w^[b<0] in a counter n, one
    symbol t per base magnitude |b| != 1 for |b|^n and, when some base is
    negative, a sign symbol w with w^2 = 1 for (-1)^n.  With the magnitude
    lattice and the sign torsion divided out, the auxiliary variety is the
    closure of the parametrization, so eliminating the auxiliaries yields
    every for-all-n relation.  Past a transient of length T these are the
    same: n -> n + T, t -> |b|^T*t, w -> (-1)^T*w maps them to the shifted
    generators and each lattice binomial to a multiple of itself.

    The lattice enters as t^a+ - t^a- for each vector a of the
    `multiplicative_lattice` basis; the lattice ideal is their saturation by
    the product of the t symbols, which they alone may not generate.
    """
    mags = sorted(
        {abs(base) for f in forms for base, _ in f.tail if abs(base) != 1},
        reverse=True,
    )
    has_sign = any(base < 0 for f in forms for base, _ in f.tail)
    # the stems differ, so each fresh name only has to avoid the ring
    n_name = fresh_name("n", ring)
    t_names = [fresh_name(f"t{i + 1}", ring) for i in range(len(mags))]
    w_name = fresh_name("w", ring) if has_sign else None
    aux = [n_name] + t_names + ([w_name] if w_name else [])
    big = VarRing(aux + list(ring.names))
    big_order = MonomialOrder(order.kind, big, aux + list(order.priority))
    n_var = Polynomial.var(big, n_name)
    t_vars = {mag: Polynomial.var(big, t_names[i]) for i, mag in enumerate(mags)}

    gens = []
    for nm, f in zip(ring.names, forms):
        rhs = Polynomial.zero(big)
        for base, coeff in f.tail:
            part = coeff(n_var)
            if abs(base) != 1:
                part = part * t_vars[abs(base)]
            if base < 0:
                part = part * Polynomial.var(big, w_name)
            rhs = rhs + part
        gens.append(Polynomial.var(big, nm) - rhs)
    # the t symbols sit right after n in `big`
    pad = (0,) * (big.arity - 1 - len(mags))
    for vec in multiplicative_lattice(mags):
        pos, neg = ((0, *(max(s * a, 0) for a in vec), *pad) for s in (1, -1))
        gens.append(Polynomial.monomial(big, pos) - Polynomial.monomial(big, neg))
    if w_name:
        w = Polynomial.var(big, w_name)
        gens.append(w * w - Polynomial.const(big, 1))
    return eliminate(IdealBasis(big, big_order, tuple(gens)), set(aux), budget)


def relations_ideal(
    forms: list[ExpPoly],
    ring: VarRing,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Basis of all polynomial relations holding among the forms for n >= 0.

    `ring` has one variable per form.  The tail relations come from each
    tail's own parametrization, read for all n >= 0; the indices before the
    longest transient are covered by intersecting with their point ideals.
    The basis is in degrevlex order.
    """
    if len(forms) != ring.arity:
        raise ArityMismatch(
            f"{len(forms)} forms for {ring.arity} names"
        )
    order = MonomialOrder("degrevlex", ring)

    transient_len = max((len(f.transient) for f in forms), default=0)
    result = _tail_ideal(forms, ring, order, budget)
    for n0 in range(transient_len):
        pt = _point_ideal(ring, order, [f.eval(n0) for f in forms])
        result = ideal_intersect(result, pt, budget)
    return result


def closed_forms(loop: LoopProgram, degree: int) -> tuple[MomentRing, list[ExpPoly]]:
    """The moment ring of order <= degree and each of its symbols' closed form."""
    mring = moment_ring(loop.variables, degree)
    system = moment_closure(loop, list(mring.symbols))
    return mring, [solve_closed_form(system, system.index(sym)) for sym in mring.symbols]


def moment_invariant_ideal(
    loop: LoopProgram,
    degree: int,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Basis of all invariant relations among moments of order <= degree.

    Pipeline: close the moments under expectation lifting, solve every
    target moment to an exponential polynomial, then compute the relations
    ideal of those closed forms.
    """
    mring, forms = closed_forms(loop, degree)
    return relations_ideal(forms, mring.ring, budget=budget)


def _symbol_of_name(name: str, base_ring: VarRing) -> tuple[int, ...]:
    if not (name.startswith("E[") and name.endswith("]")):
        raise ValueError(f"not a moment variable: {name!r}")
    terms = poly_parse(name[2:-1], base_ring).terms
    if len(terms) != 1 or 1 not in terms.values():
        raise ValueError(f"moment variable must name a monic monomial: {name!r}")
    return next(iter(terms))


def psi_map(p: Polynomial, base_ring: VarRing) -> Polynomial:
    """Ring homomorphism sending each E[M] to the monomial M: `p` evaluated
    at the point of those monomials."""
    return p.substitute(
        {
            nm: Polynomial.monomial(base_ring, _symbol_of_name(nm, base_ring))
            for nm in p.ring.names
        }
    )


def restrict_to_order_one(
    basis: IdealBasis, budget: int = DEFAULT_BUDGET
) -> IdealBasis:
    """Eliminate every moment variable of degree >= 2 (its bracket neither one name nor 1)."""
    drop = set()
    for nm in basis.ring.names:
        if not (nm.startswith("E[") and nm.endswith("]")):
            raise ValueError(f"not a moment ring variable: {nm!r}")
        if nm != "E[1]" and not _NAME_RE.fullmatch(nm[2:-1]):
            drop.add(nm)
    return eliminate(basis, drop, budget)


def empirical_relations(
    value_table: list[list[Fraction]],
    ring: VarRing,
    degree: int,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Kernel of evaluating all monomials of degree <= `degree` on samples.

    `value_table[j][n]` is the value of ring variable j at index n.  Every
    returned polynomial vanishes on all sampled indices; soundness beyond
    the sampled horizon is empirical, not certified.
    """
    if len(value_table) != ring.arity:
        raise ArityMismatch(f"{len(value_table)} value rows for {ring.arity} names")
    count = len(value_table[0])
    if any(len(row) != count for row in value_table):
        raise ArityMismatch("ragged value table")
    monomials = [mono_one(ring.arity)] + degree_targets(ring, degree)
    rows = []
    for n in range(count):
        point = [values[n] for values in value_table]
        rows.append([mono_value(e, point) for e in monomials])
    kernel = linalg.nullspace(rows)
    order = MonomialOrder("degrevlex", ring)
    # each basis vector has a 1 at its free column, so no generator is zero
    gens = [Polynomial(ring, dict(zip(monomials, vec))) for vec in kernel]
    return buchberger(gens, order, budget)
