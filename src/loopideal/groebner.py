"""Buchberger's algorithm and ideal-level operations.

`buchberger` is signature-based: it tracks, for each element it builds,
the largest term of the element's representation in the inputs (its
signature), so it can discard every S-pair whose syzygy it already knows
instead of reducing it to zero (Eder and Roune, "Signature rewriting in
Groebner basis computation", ISSAC 2013; Eder and Faugere, "A survey on
signature-based algorithms for computing Groebner bases", JSC 2017).
Its regular reduction and `multivariate_divide`, which membership and
the final reduced form divide by, run one integer reduction loop,
`algebra._reduce`; they differ only in the reducer each term is given.
Each element is stored once, as that reducer: its primitive integer form.
The signature loop and the kernel run on packed monomials
(`algebra.Layout`), one int each, with fields as wide as the inputs need
and twice as wide, from the start, whenever a monomial outgrows them.

Bases are normalized to the unique reduced Groebner form (monic generators,
no monomial of any generator divisible by another generator's leading
monomial), which makes ideal equality and serialization canonical.  It is
built in one pass over the elements, smallest lead first, each divided
only by the smaller ones kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .algebra import (
    Layout,
    MonomialOrder,
    Polynomial,
    VarRing,
    _divisor_data,
    _Overflow,
    _primitive_form,
    _reduce,
    _top,
    _widened,
    fresh_name,
    multivariate_divide,
    poly_parse,
)
from .errors import ArityMismatch, BudgetExceeded, ParseError

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class IdealBasis:
    ring: VarRing
    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    reduced: bool = False

    def __post_init__(self):
        if self.order.ring != self.ring:
            raise ArityMismatch("the basis order is over another ring")

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
            o = data.get("order", {})
            lists = (data["ring"], data["generators"], o.get("priority", []))
            if not all(isinstance(v, list) for v in lists):
                raise TypeError("ring, generators and order priority must be JSON lists")
            ring = VarRing(data["ring"])
            order = MonomialOrder(o.get("kind", "degrevlex"), ring, o.get("priority"))
            gens = tuple(poly_parse(s, ring) for s in data["generators"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad ideal record: {exc!r}") from None
        return cls(ring, order, gens, reduced=False)


def _divides_any(syzygies: list, u: int, guards: int) -> bool:
    """Whether some packed monomial in `syzygies` divides u."""
    u |= guards
    for v in syzygies:
        if (u - v) & guards == guards:
            return True
    return False


def _reducer(bound: int, reducers: list, guards: int, pbits: int, ibits: int, e: int):
    """The first element of `reducers` whose lead divides the packed term
    e and whose multiple with lead e has a signature below the one
    `bound` encodes, or None.

    `reducers` holds each basis element as (lead, lead coefficient, tail,
    None, ratio) in insertion order, the reducer `_reduce` takes.
    With K(m) = m >> pbits the order key of a packed monomial m as an int,
    `bound` is K(s) * 2**ibits + i for the signature u*e_i, s the packed
    u*lm(f_i); an element's ratio is the same with K(s) - K(lead) in place
    of K(s), and the multiple's signature is below (s, i) when the ratio is
    below `bound - K(e) * 2**ibits`.
    """
    t = e | guards
    below = None
    for r in reducers:
        if (t - r[0]) & guards != guards:
            continue
        if below is None:
            below = bound - ((e >> pbits) << ibits)
        if r[4] < below:
            return r
    return None


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder,
    budget: int = DEFAULT_BUDGET,
    drop: frozenset[str] = frozenset(),
) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by `gens`; with `drop`,
    only its elements before the first lead containing a variable of `drop`.

    A signature-based Buchberger: the RB algorithm of Eder and Roune
    ("Signature rewriting in Groebner basis computation", ISSAC 2013),
    with the criteria of Roune and Stillman ("Practical Groebner basis
    computation", ISSAC 2012).  The nonzero inputs, in primitive integer
    form and sorted ascending by lead (stably), are f_1, ..., f_m.  Each
    element g built is sum a_k*f_k, and its signature u*e_i is the
    largest lm(a_k)*e_k in the Schreyer order, which compares u*e_i by
    (order key of u*lm(f_i), i).  Since lm(g) <= u*lm(f_i), the ratio of g,
    key(u*lm(f_i)) - key(lm(g)) followed by i, orders the signatures of
    any two multiples of elements with the same lead.

    Signatures come smallest first from a heap, some twice: the unit e_i
    of each input, and the J-pair of each new element with each earlier
    one, the multiple of the one with the larger ratio whose lead is the
    lcm of the two leads.  A signature goes when a known syzygy of its
    index divides it: the Koszul syzygy lm(g_o)*sig(g_h) of each two
    elements of different index, g_h the one with the larger ratio, and
    every signature whose reduction reached zero.  Otherwise its
    rewriter, among the elements of its index whose signature divides it
    the one whose multiple has the smallest lead (the later on a tie),
    gives the multiple to reduce.  The reduction is regular: `algebra`'s
    integer kernel `_reduce`, the one `multivariate_divide` runs, with
    `_reducer` as its `pick`, so each term goes to the first element whose
    multiple has a smaller signature, and the remainder's `_primitive_form`
    is kept, its largest term the lead, as one (lead, lc, tail) record.
    If no element reduces that multiple's lead, an element already has this
    signature and lead, and the multiple is dropped before it is built.
    A zero result records its signature as a syzygy; any other result
    joins the elements.  Every J-pair pushed later has a larger signature,
    so the copies of a repeated signature leave the heap back to back, and
    the syzygy test or the singular test drops all but the first: the
    syzygy the first recorded, or the element it made, which is then the
    rewriter.  When the heap is empty every S-polynomial reduces to zero,
    and the elements are a Groebner basis.

    The loop runs on packed monomials (`algebra.Layout`): each monomial,
    lead, signature and syzygy is one int, keys and ratios are ints, and
    products, quotients and divisibility tests are a few int operations.
    The fields start wide enough for the inputs' largest exponent; when a
    monomial the loop forms outgrows them, the loop runs again from the
    start at twice the width (`algebra._widened`), so the result never
    depends on the width.

    The reduced basis takes the elements by ascending lead.  One goes when
    a kept lead divides its lead; otherwise it is made monic and its
    remainder by the kept ones (`multivariate_divide`) is kept.  A divisor
    is never larger than the monomial it divides, so no larger lead
    divides any of its terms, and the kept ones before it are already
    reduced (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 2 §7).  The pass stops at the first lead containing a variable
    of `drop`.  The kept elements are returned largest lead first.

    Raises BudgetExceeded, saying how far the run got, when a signature
    is due after `budget` signatures were reduced; the signatures that a
    criterion removes, including the dropped multiples, do not count.
    """
    ring = order.ring
    polys = [g for g in (g.project(ring) for g in gens) if not g.is_zero()]
    if not polys:
        return IdealBasis(ring, order, (), reduced=True)
    top = max(map(_top, polys))
    reducers, layout = _widened(partial(_signature_basis, polys, budget), order, top)

    unpack, guards = layout.unpack, layout.guards
    stop = layout.support(layout.pack(tuple(int(nm in drop) for nm in ring.names)))
    kept, leads = [], []
    for lm, lc, tail, *_ in sorted(reducers, key=itemgetter(0)):
        if layout.support(lm) & stop:
            break
        if _divides_any(leads, lm, guards):
            continue
        g = Polynomial._make(ring, {unpack(e): Fraction(c, lc) for e, c in ((lm, lc), *tail)})
        kept.append(multivariate_divide(g, kept, order)[1])
        leads.append(lm)
    return IdealBasis(ring, order, tuple(reversed(kept)), reduced=True)


def _signature_basis(polys: list[Polynomial], budget: int, layout: Layout) -> list:
    """`buchberger`'s signature loop on `layout`'s packed monomials: the
    elements of a Groebner basis as reducers (lead, lc, tail, None, ratio).
    Raises `_Overflow` when a monomial outgrows the layout."""
    guards, pbits = layout.guards, layout.pbits
    inputs = sorted((_divisor_data(g, layout)[:3] for g in polys), key=itemgetter(0))
    ibits = len(inputs).bit_length()

    # per element: its reducer (lead, lead coefficient, tail, None, ratio),
    # which holds its terms, the support of its lead, and its signature
    # (u, i); the unit monomial is 0
    reducers, supports, sigs = [], [], []
    by_index = [[] for _ in inputs]
    syzygies = [[] for _ in inputs]
    queue = [(f[0], i, 0) for i, f in enumerate(inputs)]
    heapify(queue)
    steps = 0
    while queue:
        s, i, u = heappop(queue)
        if _divides_any(syzygies[i], u, guards):
            continue
        best = None
        ug = u | guards
        for k in by_index[i]:
            if (ug - sigs[k][0]) & guards == guards and (
                best is None or reducers[k][4] >= reducers[best][4]
            ):
                best = k
        bound = ((s >> pbits) << ibits) + i
        pick = partial(_reducer, bound, reducers, guards, pbits, ibits)
        if best is None:
            (lm, lc, tail), shift = inputs[i], 0
        else:
            lm, lc, tail = reducers[best][:3]
            shift = u - sigs[best][0]
            if any((e + shift) & guards for e, _ in ((lm, lc), *tail)):
                raise _Overflow
            if pick(lm + shift) is None:
                # singular: an element already has this signature and lead
                continue
        work = {e + shift: c for e, c in ((lm, lc), *tail)}
        if steps >= budget:
            queued = len({entry[:2] for entry in queue} | {(s, i)})
            raise BudgetExceeded(
                f"Groebner computation stopped at its budget of {budget} signature "
                f"reductions: {steps} signatures reduced, basis of {len(reducers)} "
                f"elements, {queued} signatures queued"
            )
        rem = _reduce(work, guards, pick)
        steps += 1
        if not rem:
            # no listed syzygy divides u, or u would have gone when it left the heap
            syzygies[i].append(u)
            continue
        lm = next(iter(rem))
        p, _ = _primitive_form(rem, lm)
        ratio = (((s >> pbits) - (lm >> pbits)) << ibits) + i
        support = layout.support(lm)
        for (k_lm, *_, k_ratio), k_support, (k_u, k_i) in zip(reducers, supports, sigs):
            if k_ratio == ratio:
                continue
            # h has the larger signature at the lcm, o the other
            if ratio > k_ratio:
                h_lm, h_u, h_i, o_lm = lm, u, i, k_lm
            else:
                h_lm, h_u, h_i, o_lm = k_lm, k_u, k_i, lm
            if k_i != i:
                z = o_lm + h_u
                if z & guards:
                    raise _Overflow
                if not _divides_any(syzygies[h_i], z, guards):
                    syzygies[h_i].append(z)
                if not support & k_support:
                    # coprime leads: the J-pair is the Koszul syzygy's signature
                    continue
            q = layout.cofactor(h_lm, o_lm)
            if q:
                j_u = q + h_u
                j_s = j_u + inputs[h_i][0]
                if (j_u | j_s) & guards:
                    raise _Overflow
                heappush(queue, (j_s, h_i, j_u))
        by_index[i].append(len(reducers))
        tail = [(e, c) for e, c in p.items() if e != lm]
        reducers.append((lm, p[lm], tail, None, ratio))
        supports.append(support)
        sigs.append((u, i))
    return reducers


def ideal_member(p: Polynomial, basis: IdealBasis) -> bool:
    """Membership test by division; the basis must be reduced."""
    if not basis.reduced:
        raise ValueError("ideal_member requires a reduced basis")
    divisors = list(basis.generators)
    return multivariate_divide(p.project(basis.ring), divisors, basis.order)[1].is_zero()


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
    ch. 3 §1).  Their leads are the smallest and none of their terms
    contains a dropped variable, so they come first in the reduced pass
    and are reduced only by each other, and the pass stops at the first
    lead past them.
    """
    drop = frozenset(drop)
    order = basis.order.eliminating(drop)
    if len(drop) == basis.ring.arity:
        raise ValueError("cannot eliminate every ring variable")
    gb = buchberger(list(basis.generators), order, budget, drop)
    subring = VarRing([nm for nm in basis.ring.names if nm not in drop])
    kept = tuple(g.project(subring) for g in gb.generators)
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
    gens = [t * g.project(big) for g in a.generators]
    gens += [(Polynomial.const(big, 1) - t) * g.project(big) for g in b.generators]
    big_order = MonomialOrder(a.order.kind, big, [*a.order.priority, aux], {aux})
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
