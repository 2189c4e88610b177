"""Buchberger's algorithm and ideal-level operations.

`buchberger` is signature-based: it tracks, for each element it builds,
the largest term of the element's representation in the inputs (its
signature), so it can discard every S-pair whose syzygy it already knows
instead of reducing it to zero (Eder and Roune, "Signature rewriting in
Groebner basis computation", ISSAC 2013; Eder and Faugere, "A survey on
signature-based algorithms for computing Groebner bases", JSC 2017).
Its regular reduction and `multivariate_divide`, which membership,
interreduction and the final reduced form divide by, run one integer
reduction loop, `algebra._reduce`; they differ only in the reducer each
term is given.

Bases are normalized to the unique reduced Groebner form (monic generators,
no monomial of any generator divisible by another generator's leading
monomial), which makes ideal equality and serialization canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .algebra import (
    MonomialOrder,
    Polynomial,
    VarRing,
    _divisor_data,
    _reduce,
    fresh_name,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
    mono_one,
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


def _divides_any(syzygies: list, u: tuple[int, ...]) -> bool:
    """Whether some monomial in `syzygies`, a list of (mask, monomial),
    divides u."""
    off = ~mono_mask(u)
    return any(not m & off and all(map(le, v, u)) for m, v in syzygies)


def _add_syzygy(syzygies: list, u: tuple[int, ...]) -> None:
    """Add u to `syzygies`, which keeps only monomials no other divides."""
    if _divides_any(syzygies, u):
        return
    m = mono_mask(u)
    syzygies[:] = [(w, v) for w, v in syzygies if m & ~w or not all(map(le, u, v))]
    syzygies.append((m, u))


def _reducer(s_key: tuple, i: int, reducers: list, order, e: tuple[int, ...]):
    """The first element of `reducers` whose lead divides the term e and
    whose multiple with lead e has a signature below (s_key, i), or None.

    `reducers` holds each basis element as (lead, lead coefficient, tail,
    None, lead mask, ratio) in insertion order, the reducer `_reduce`
    takes; that multiple's signature is below (s_key, i) when key(e) +
    ratio is.
    """
    off = ~order.mask(e)
    bound = None
    for r in reducers:
        if r[4] & off or not all(map(le, r[0], e)):
            continue
        if bound is None:
            bound = (*map(sub, s_key, order.key(e)), i)
        if r[5] < bound:
            return r
    return None


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

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

    Signatures come smallest first from a heap, each once: the unit e_i
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
    multiple has a smaller signature, and the primitive remainder is kept.
    If no element reduces that multiple's lead, an element already has this
    signature and lead, and the multiple is dropped before it is built.
    A zero result records its signature as a syzygy; any other result
    joins the elements.  When the heap is empty every S-polynomial reduces to
    zero, and `_interreduce` turns the elements into the reduced basis.

    Raises BudgetExceeded, saying how far the run got, when a signature
    is due after `budget` signatures were reduced; the signatures that a
    criterion removes, including the dropped multiples, do not count.
    """
    ring = order.ring
    inputs = []
    for g in gens:
        g = g.lift(ring)
        if not g.is_zero():
            lm, _, lc, tail, _, _ = _divisor_data(g, order)
            inputs.append((lm, {lm: lc, **dict(tail)}))
    if not inputs:
        return IdealBasis(ring, order, (), reduced=True)
    key, _key = order.key, order._key
    inputs.sort(key=lambda f: key(f[0]))

    # per element: its reducer (lead, lead coefficient, tail, None, lead
    # mask, ratio), its terms, and its signature (u, i)
    reducers, polys, sigs = [], [], []
    by_index = [[] for _ in inputs]
    syzygies = [[] for _ in inputs]
    one = mono_one(ring.arity)
    queue = [(key(lm), i, one) for i, (lm, _) in enumerate(inputs)]
    heapify(queue)
    steps = 0
    last = None
    while queue:
        s_key, i, u = heappop(queue)
        if (s_key, i) == last or _divides_any(syzygies[i], u):
            continue
        last = (s_key, i)
        best = None
        for k in by_index[i]:
            if mono_divides(sigs[k][0], u) and (
                best is None or reducers[k][5] >= reducers[best][5]
            ):
                best = k
        pick = partial(_reducer, s_key, i, reducers, order)
        if best is None:
            work = dict(inputs[i][1])
        else:
            shift = tuple(map(sub, u, sigs[best][0]))
            if pick(mono_mul(reducers[best][0], shift)) is None:
                # singular: an element already has this signature and lead
                continue
            work = {tuple(map(add, e, shift)): c for e, c in polys[best].items()}
        if steps >= budget:
            queued = len({entry[:2] for entry in queue} | {(s_key, i)})
            raise BudgetExceeded(
                f"Groebner computation stopped at its budget of {budget} signature "
                f"reductions: {steps} signatures reduced, basis of {len(polys)} "
                f"elements, {queued} signatures queued"
            )
        p, _ = _reduce(work, order, pick)
        steps += 1
        if not p:
            _add_syzygy(syzygies[i], u)
            continue
        lm = next(iter(p))
        ratio = (*map(sub, s_key, key(lm)), i)
        for (k_lm, _, _, _, _, k_ratio), (k_u, k_i) in zip(reducers, sigs):
            if k_ratio == ratio:
                continue
            # h has the larger signature at the lcm, o the other
            if ratio > k_ratio:
                h_lm, h_u, h_i, o_lm = lm, u, i, k_lm
            else:
                h_lm, h_u, h_i, o_lm = k_lm, k_u, k_i, lm
            t = mono_lcm(lm, k_lm)
            if k_i != i:
                _add_syzygy(syzygies[h_i], mono_mul(o_lm, h_u))
                if t == mono_mul(h_lm, o_lm):
                    # coprime leads: the J-pair is the Koszul syzygy's signature
                    continue
            if t != h_lm:
                j_u = mono_mul(tuple(map(sub, t, h_lm)), h_u)
                # `_key`: signature monomials stay out of `order.key`'s memo
                heappush(queue, (_key(mono_mul(j_u, inputs[h_i][0])), h_i, j_u))
        by_index[i].append(len(polys))
        tail = [(e, c) for e, c in p.items() if e != lm]
        reducers.append((lm, p[lm], tail, None, order.mask(lm), ratio))
        polys.append(p)
        sigs.append((u, i))

    basis = [Polynomial._make(ring, {e: Fraction(c) for e, c in p.items()}) for p in polys]
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
