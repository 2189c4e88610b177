"""Buchberger's algorithm and ideal-level operations.

Bases are normalized to the unique reduced Groebner form (monic generators,
no monomial of any generator divisible by another generator's leading
monomial), which makes ideal equality and serialization canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    MonomialOrder,
    Polynomial,
    VarRing,
    fresh_name,
    mono_degree,
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
    pairs: dict,
    new: int,
    order,
) -> None:
    """Gebauer-Moeller pair update for the generator at index `new`.

    Discards old pairs made redundant by the new leading monomial and keeps
    only a minimal, non-coprime set of new pairs.
    """
    t = leads[new]
    lcm_with = [mono_lcm(leads[i], t) for i in range(new)]

    # prune old pairs strictly covered by the new generator
    for (i, j) in list(pairs):
        lcm_ij = pairs[(i, j)]
        if (
            mono_divides(t, lcm_ij)
            and lcm_with[i] != lcm_ij
            and lcm_with[j] != lcm_ij
        ):
            del pairs[(i, j)]

    # keep only lcm-minimal new pairs, one representative per lcm value
    candidates = sorted(range(new), key=lambda i: order.key(lcm_with[i]))
    kept: list[int] = []
    for i in candidates:
        li = lcm_with[i]
        covered = False
        for j in kept:
            lj = lcm_with[j]
            if mono_divides(lj, li):
                covered = True
                break
        if not covered:
            kept.append(i)
    for i in kept:
        # coprime leading monomials reduce to zero; never enqueue them
        if lcm_with[i] != mono_mul(leads[i], t):
            pairs[(i, new)] = lcm_with[i]


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    S-pairs are selected by smallest leading-monomial lcm (normal strategy)
    with Gebauer-Moeller pruning.  Raises BudgetExceeded after `budget`
    S-pair reductions.
    """
    ring = order.ring
    basis: list[Polynomial] = []
    for g in gens:
        g = g.lift(ring)
        if not g.is_zero():
            basis.append(g.monic(order))
    if not basis:
        return IdealBasis(ring, order, (), reduced=True)

    leads = [g.leading_term(order)[0] for g in basis]
    pairs: dict[tuple[int, int], tuple[int, ...]] = {}
    for n in range(1, len(basis)):
        _add_pairs(leads[: n + 1], pairs, n, order)
    steps = 0

    while pairs:
        i, j = min(pairs, key=lambda ij: (order.key(pairs[ij]), ij))
        lcm = pairs.pop((i, j))
        steps += 1
        if steps > budget:
            raise BudgetExceeded(
                f"Groebner computation exceeded {budget} S-pair reductions"
            )
        gi, gj = basis[i], basis[j]
        spoly = Polynomial.monomial(ring, tuple(a - b for a, b in zip(lcm, leads[i]))) * gi
        spoly = spoly - Polynomial.monomial(
            ring, tuple(a - b for a, b in zip(lcm, leads[j]))
        ) * gj
        rem = _reduce_full(spoly, basis, order)
        if rem.is_zero():
            continue
        basis.append(rem.monic(order))
        leads.append(rem.leading_term(order)[0])
        _add_pairs(leads, pairs, len(basis) - 1, order)

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
        if not any(
            e[i] == mono_degree(e) for e in leads
        ):
            return False
    return True
