"""Buchberger's algorithm and ideal-level operations.

Bases are normalized to the unique reduced Groebner form (monic generators,
no monomial of any generator divisible by another generator's leading
monomial), which makes ideal equality and serialization canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .algebra import (
    MonomialOrder,
    Polynomial,
    VarRing,
    fresh_name,
    mono_divides,
    mono_lcm,
    mono_mul,
    multivariate_divide,
    poly_parse,
)
from .errors import BudgetExceeded, ParseError

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class IdealBasis:
    ring: VarRing
    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    reduced: bool = False

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def to_json(self) -> dict:
        return {
            "ring": list(self.ring.names),
            "order": self.order.to_json(),
            "generators": [g.format(self.order) for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IdealBasis":
        try:
            ring = VarRing(data["ring"])
            o = data.get("order", {})
            order = MonomialOrder(o.get("kind", "degrevlex"), ring, o.get("priority"))
            gens = tuple(poly_parse(s, ring) for s in data["generators"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad ideal record: {exc!r}") from None
        return cls(ring, order, gens, reduced=False)


def _reduce_full(p: Polynomial, basis: list[Polynomial], order) -> Polynomial:
    if p.is_zero() or not basis:
        return p
    _, rem = multivariate_divide(p, basis, order)
    return rem


def _interreduce(basis: list[Polynomial], order) -> list[Polynomial]:
    """Turn a Groebner basis into the reduced Groebner basis."""
    # minimalize: drop generators whose leading monomial is divisible by
    # another generator's leading monomial
    basis = [g for g in basis if not g.is_zero()]
    leads = [g.leading_term(order)[0] for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if any(
            j != i
            and mono_divides(leads[j], leads[i])
            and (j < i or leads[j] != leads[i])
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    # fully reduce every survivor against the others
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = _reduce_full(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return reduced


def _add_pairs(
    leads: list,
    sugars: list[int],
    live: list[int],
    pairs: dict,
    order,
    degree,
) -> None:
    """Gebauer-Moeller update for the newest generator, `leads[-1]`.

    `live` lists the generators whose leading monomial no later
    generator's leading monomial divides.  An old pair is dropped when the
    new leading monomial t divides its lcm and differs from it in both
    lcms with t (criterion B).  New pairs are formed with live generators
    only and grouped by lcm; a class whose lcm another class's lcm
    properly divides is dropped (criterion M), a class holding a coprime
    pair is dropped whole (its members reduce to zero, criterion F), and
    each other class queues one pair.  `pairs` maps (sugar, order key of l,
    i, j) to l for each queued pair (i, j) with lcm l, whose sugar is
    max(sugar_i + deg l - deg lead_i, sugar_j + deg l - deg lead_j) for
    the grading `degree`.  Finally `live` drops the generators whose
    leading monomial t divides and takes the new one.
    """
    new = len(leads) - 1
    t = leads[new]
    for pair, lcm_ij in list(pairs.items()):
        if (
            mono_divides(t, lcm_ij)
            and mono_lcm(leads[pair[2]], t) != lcm_ij
            and mono_lcm(leads[pair[3]], t) != lcm_ij
        ):
            del pairs[pair]

    classes: dict[tuple[int, ...], list[int]] = {}
    for i in live:
        classes.setdefault(mono_lcm(leads[i], t), []).append(i)
    for lcm_ in classes:
        if any(m != lcm_ and mono_divides(m, lcm_) for m in classes):
            continue
        members = classes[lcm_]
        if any(lcm_ == mono_mul(leads[i], t) for i in members):
            continue
        sugar, i = min((sugars[i] - degree(leads[i]), i) for i in members)
        sugar = max(sugar, sugars[new] - degree(t)) + degree(lcm_)
        pairs[(sugar, order.key(lcm_), i, new)] = lcm_
    live[:] = [i for i in live if not mono_divides(t, leads[i])]
    live.append(new)


def _no_degree(e: tuple[int, ...]) -> int:
    return 0


def _spoly(f: Polynomial, g: Polynomial, lf, lg, lcm_) -> Polynomial:
    """S-polynomial (lcm/lf)*f - (lcm/lg)*g of monic f and g with leading
    monomials lf and lg, by shifting their term maps."""
    sf = tuple(map(sub, lcm_, lf))
    sg = tuple(map(sub, lcm_, lg))
    terms = {tuple(map(add, e, sf)): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        e = tuple(map(add, e, sg))
        s = terms.get(e, 0) - c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return Polynomial._make(f.ring, terms)


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Pairs are kept by the Gebauer-Moeller update (`_add_pairs`) and
    selected by the sugar strategy (Giovini et al., "One sugar cube,
    please", ISSAC 1991): the pair with the smallest (sugar, order key of
    its lcm, index pair) goes first.  An input generator's sugar is its
    degree; a remainder keeps its pair's sugar, or its own degree if
    larger.  The degree is the total degree under a degrevlex order or a
    block order over one.  Under lex it is 0, so pairs go by lcm alone (the
    normal strategy): lex follows no degree, and sugar there can wander far
    from the basis (fuzzed lex intersections that the normal strategy
    finishes in under 3 s ran past 20 s).

    S-polynomials are reduced by every generator found so far, oldest
    first.  A dead generator's lead is divisible by a live one's, so the
    remainder is reduced either way, and the older reducers tend to be the
    smaller ones (reducing by the live generators alone was slower on
    fuzzed lex intersections).  Raises BudgetExceeded, saying how far the
    run got, after `budget` S-pair reductions.
    """
    ring = order.ring
    basis: list[Polynomial] = []
    for g in gens:
        g = g.lift(ring)
        if not g.is_zero():
            basis.append(g.monic(order))
    if not basis:
        return IdealBasis(ring, order, (), reduced=True)

    leads: list[tuple[int, ...]] = []
    sugars: list[int] = []
    live: list[int] = []
    pairs: dict[tuple, tuple[int, ...]] = {}
    degree = sum if order.kind == "degrevlex" else _no_degree
    for g in basis:
        leads.append(g.leading_term(order)[0])
        sugars.append(max(map(degree, g.terms)))
        _add_pairs(leads, sugars, live, pairs, order, degree)
    steps = 0

    while pairs:
        if steps >= budget:
            raise BudgetExceeded(
                f"Groebner computation stopped at its budget of {budget} S-pair "
                f"reductions: {steps} S-pairs reduced, basis of {len(basis)} "
                f"generators ({len(live)} live), {len(pairs)} S-pairs queued"
            )
        pair = min(pairs)
        lcm_ = pairs.pop(pair)
        sugar, _, i, j = pair
        steps += 1
        spoly = _spoly(basis[i], basis[j], leads[i], leads[j], lcm_)
        rem = _reduce_full(spoly, basis, order)
        if rem.is_zero():
            continue
        basis.append(rem.monic(order))
        leads.append(rem.leading_term(order)[0])
        sugars.append(max(sugar, max(map(degree, rem.terms))))
        _add_pairs(leads, sugars, live, pairs, order, degree)

    return IdealBasis(ring, order, tuple(_interreduce(basis, order)), reduced=True)


def ideal_member(p: Polynomial, basis: IdealBasis) -> bool:
    """Membership test by division; the basis must be reduced."""
    if not basis.reduced:
        raise ValueError("ideal_member requires a reduced basis")
    return _reduce_full(p.lift(basis.ring), list(basis.generators), basis.order).is_zero()


def eliminate(
    basis: IdealBasis, drop: set[str], budget: int = DEFAULT_BUDGET
) -> IdealBasis:
    """Reduced basis of the elimination ideal in the subring without `drop`.

    One Buchberger run in the block order `basis.order.eliminating(drop)`:
    a monomial containing a dropped variable is larger than every monomial
    free of them, and those compare as in the target order, the basis order
    restricted to the subring.  So the generators free of dropped variables
    are the reduced basis of the intersection with the subring in the
    target order (Cox, Little, O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 3 §1).
    """
    drop = set(drop)
    order = basis.order.eliminating(drop)
    if len(drop) == basis.ring.arity:
        raise ValueError("cannot eliminate every ring variable")
    gb = buchberger(list(basis.generators), order, budget)
    subring = VarRing([nm for nm in basis.ring.names if nm not in drop])
    kept = tuple(
        g.project(subring) for g in gb.generators if not (g.variables() & drop)
    )
    return IdealBasis(subring, basis.order.restricted(subring), kept, reduced=True)


def ideal_intersect(
    a: IdealBasis, b: IdealBasis, budget: int = DEFAULT_BUDGET
) -> IdealBasis:
    """Basis of the intersection, via the auxiliary-variable construction.

    t*a + (1-t)*b in the extended ring intersected with the original ring
    is exactly a * b-intersection.
    """
    if a.ring != b.ring:
        raise ValueError("ideal_intersect requires a common ring")
    if a.is_zero_ideal() or b.is_zero_ideal():
        return IdealBasis(a.ring, a.order, (), reduced=True)
    aux = fresh_name("t", a.ring)
    big = VarRing(list(a.ring.names) + [aux])
    t = Polynomial.var(big, aux)
    gens = [t * g.lift(big) for g in a.generators]
    gens += [(Polynomial.const(big, 1) - t) * g.lift(big) for g in b.generators]
    big_order = MonomialOrder(a.order.kind, big, list(a.order.priority) + [aux])
    # the surviving subring is exactly the original ring
    return eliminate(IdealBasis(big, big_order, tuple(gens)), {aux}, budget)


def ideal_equal(a: IdealBasis, b: IdealBasis, budget: int = DEFAULT_BUDGET) -> bool:
    """Mutual membership of generators (both bases reduced first)."""
    if a.ring != b.ring:
        raise ValueError("ideal_equal requires a common ring")
    if not a.reduced:
        a = buchberger(list(a.generators), a.order, budget)
    if not b.reduced:
        b = buchberger(list(b.generators), b.order, budget)
    return all(ideal_member(g, b) for g in a.generators) and all(
        ideal_member(g, a) for g in b.generators
    )


def variety_is_finite(basis: IdealBasis) -> bool:
    """Zero-dimensionality test on a reduced basis.

    The variety is finite iff every variable has a pure power among the
    leading monomials of the basis.
    """
    if not basis.reduced:
        raise ValueError("variety_is_finite requires a reduced basis")
    leads = [g.leading_term(basis.order)[0] for g in basis.generators]
    for i in range(basis.ring.arity):
        if not any(e[i] == sum(e) for e in leads):
            return False
    return True
