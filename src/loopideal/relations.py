"""Algebraic relations among closed forms and moment invariant ideals.

The relations ideal of exponential polynomials is computed by adjoining a
counter symbol plus one symbol per base magnitude, dividing out the
binomial ideal of all multiplicative relations among the magnitudes (and a
sign-torsion symbol when bases are negative), then eliminating the
auxiliary symbols.  Transient prefixes are covered by intersecting with
the point ideals of their indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
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
from .errors import ArityMismatch
from .groebner import (
    DEFAULT_BUDGET,
    IdealBasis,
    buchberger,
    eliminate,
    ideal_intersect,
)
from .loops import LoopProgram
from .moments import (
    degree_targets,
    moment_closure,
)


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
    """Basis of the vectors a with prod(base_i ** a_i) == 1, via prime exponents."""
    bases = [Fraction(b) for b in bases]
    if any(b <= 0 for b in bases):
        raise ValueError("bases must be positive")
    primes: set[int] = set()
    exps = []
    for b in bases:
        fac_n = _factorize(b.numerator)
        fac_d = _factorize(b.denominator)
        vec = {p: e for p, e in fac_n.items()}
        for p, e in fac_d.items():
            vec[p] = vec.get(p, 0) - e
        exps.append(vec)
        primes.update(vec)
    plist = sorted(primes)
    matrix = [[vec.get(p, 0) for vec in exps] for p in plist]
    if not plist:
        # every base is 1; the lattice is all of Z^s
        return tuple(
            tuple(1 if j == i else 0 for j in range(len(bases)))
            for i in range(len(bases))
        )
    return tuple(tuple(v) for v in linalg.integer_kernel(matrix))


@dataclass(frozen=True)
class MomentRing:
    """Formal variables E[...] for the moments of a program's monomials."""

    ring: VarRing
    base_ring: VarRing
    symbols: tuple[tuple[int, ...], ...]

    def name_of(self, symbol: tuple[int, ...]) -> str:
        return f"E[{mono_str(symbol, self.base_ring)}]"


def moment_ring(base_ring: VarRing, max_degree: int) -> MomentRing:
    """Moment variables for every monomial of degree 1..max_degree."""
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
    for vec in multiplicative_lattice(mags):
        pos = Polynomial.const(big, 1)
        neg = Polynomial.const(big, 1)
        for a, mag in zip(vec, mags):
            if a > 0:
                pos = pos * t_vars[mag] ** a
            elif a < 0:
                neg = neg * t_vars[mag] ** (-a)
        gens.append(pos - neg)
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
    inner = name[2:-1]
    p = poly_parse(inner, base_ring)
    if len(p.terms) != 1:
        raise ValueError(f"moment variable must name a monomial: {name!r}")
    (exps, coeff), = p.terms.items()
    if coeff != 1:
        raise ValueError(f"moment variable must name a monic monomial: {name!r}")
    return exps


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
    """Eliminate every moment variable of monomial degree >= 2."""
    drop = set()
    for nm in basis.ring.names:
        if not (nm.startswith("E[") and nm.endswith("]")):
            raise ValueError(f"not a moment ring variable: {nm!r}")
        inner = nm[2:-1]
        if inner == "1":
            continue
        deg = 0
        for part in inner.split("*"):
            deg += int(part.split("^")[1]) if "^" in part else 1
        if deg >= 2:
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
    gens = []
    for vec in kernel:
        terms = {e: c for e, c in zip(monomials, vec) if c}
        if terms:
            gens.append(Polynomial(ring, terms))
    return buchberger(gens, order, budget)
