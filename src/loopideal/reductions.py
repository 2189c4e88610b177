"""Constructive reductions between recurrence zero-testing, reachability,
and strongest-invariant computation, plus the basis-shape zero detector.

The key construction turns a linear recurrence u into a polynomial system
whose coordinates are shifted, product-accumulated variants of u: every
coordinate carries the running product of all previous values of the first
coordinate, so the system reaches (and then stays at) the all-zero state
exactly when u has a zero.  The defining identities of that construction
hold for every n, proved by induction; a failed proof is located by
simulation up to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul

from .algebra import Polynomial, VarRing
from .errors import (
    ArityMismatch,
    NotASkolemReduction,
    NotDeterministic,
    NotIntegerInstance,
    OrderMismatch,
)
from .groebner import IdealBasis
from .loops import Assignment, LoopProgram, LRSInstance, State, lrs_terms, simulate


@dataclass(frozen=True)
class P2PInstance:
    """A deterministic polynomial system with a target state."""

    system: LoopProgram
    target: State

    def __post_init__(self):
        if not self.system.deterministic:
            raise NotDeterministic(
                "point-to-point reachability needs a deterministic system"
            )
        if len(self.target) != self.system.variables.arity:
            raise ArityMismatch(
                f"{len(self.target)} target values for {self.system.variables.arity} variables"
            )


def skolem_to_p2p(lrs: LRSInstance) -> P2PInstance:
    """Zero-testing a linear recurrence as all-zero reachability.

    Builds k coordinates x0..x{k-1} with x_i following u shifted by i and
    scaled by the accumulated product; the target is the zero vector.
    """
    k = lrs.order
    ring = VarRing([f"x{i}" for i in range(k)])
    init = []
    prefix = Fraction(1)
    for i in range(k):
        init.append(lrs.init[i] * prefix)
        prefix *= init[i]
    exprs = [Polynomial.var(ring, f"x{i + 1}") for i in range(k - 1)]
    last = Polynomial.zero(ring)
    for i in range(k):
        term = Polynomial.const(ring, lrs.coeffs[i]) * Polynomial.var(ring, f"x{i}")
        for ell in range(i, k):
            term = term * Polynomial.var(ring, f"x{ell}")
        last = last + term
    exprs.append(last)
    body = (Assignment(ring.names, ((Fraction(1), tuple(exprs)),)),)
    loop = LoopProgram(ring, tuple(init), body)
    return P2PInstance(loop, (Fraction(0),) * k)


def _check_reduction_shape(p2p: P2PInstance) -> int:
    loop = p2p.system
    k = loop.variables.arity
    expected_names = tuple(f"x{i}" for i in range(k))
    if loop.variables.names != expected_names:
        raise NotASkolemReduction("variables are not x0..x{k-1}")
    if len(loop.body) != 1 or not loop.body[0].deterministic:
        raise NotASkolemReduction("expected a single simultaneous update")
    stmt = loop.body[0]
    if stmt.targets != expected_names:
        raise NotASkolemReduction("update does not cover all variables in order")
    exprs = stmt.branches[0][1]
    for i in range(k - 1):
        if exprs[i] != Polynomial.var(loop.variables, f"x{i + 1}"):
            raise NotASkolemReduction(f"x{i} update is not the shift x{i + 1}")
    if any(t != 0 for t in p2p.target):
        raise NotASkolemReduction("target is not the zero vector")
    return k


def augment_witness(p2p: P2PInstance) -> LoopProgram:
    """The reduction system with its product witnesses s0..s{k-1} adjoined."""
    return _witness(p2p, 1)


def _witness(p2p: P2PInstance, factor: int) -> LoopProgram:
    """`augment_witness` with the last witness update times `factor`."""
    k = _check_reduction_shape(p2p)
    old = p2p.system
    ring = VarRing([f"x{i}" for i in range(k)] + [f"s{i}" for i in range(k)])
    init = list(old.init)
    s0 = Fraction(1)
    for i in range(k):
        init.append(s0)
        s0 *= old.init[i]
    x_exprs = [e.project(ring) for e in old.body[0].branches[0][1]]
    s_exprs = [Polynomial.var(ring, f"s{i + 1}") for i in range(k - 1)]
    s_exprs.append(
        Polynomial.var(ring, f"s{k - 1}") * Polynomial.var(ring, f"x{k - 1}") * factor
    )
    body = (Assignment(ring.names, ((Fraction(1), tuple(x_exprs + s_exprs)),)),)
    return LoopProgram(ring, tuple(init), body)


@dataclass(frozen=True)
class WitnessReport:
    horizon: int
    violations: tuple[dict, ...]
    first_zero: int | None

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "violations": list(self.violations),
            "first_zero": self.first_zero,
        }


def _implied(p, us) -> tuple:
    """The state (x..., s...) with s_0 = p, x_i = s_i * us[i], s_{i+1} = s_i * x_i."""
    xs, ss = [], [p]
    for u in us:
        xs.append(ss[-1] * u)
        ss.append(ss[-1] * xs[-1])
    return tuple(xs + ss[:-1])


def _inductive(lrs: LRSInstance, loop: LoopProgram) -> bool:
    """Whether the loop's state after n steps is _implied(P_n, u(n..n+k-1)).

    P_n = prod_{l<n} x0(l).  Base: the initial state is _implied(1, u(0..k-1)).
    Step: the update maps _implied(P, U) to _implied(P * x0, (U_1, ...,
    U_{k-1}, sum a_i U_i)) as polynomials in the symbols P, U_0..U_{k-1}.
    """
    if not loop.deterministic or _implied(Fraction(1), lrs.init) != loop.init:
        return False
    ring = VarRing(["P"] + [f"U{i}" for i in range(lrs.order)])
    p, *us = (Polynomial.var(ring, nm) for nm in ring.names)
    state = _implied(p, us)
    for stmt in loop.body:
        values = dict(zip(stmt.targets, (e.eval(state) for e in stmt.branches[0][1])))
        state = tuple(values.get(nm, v) for nm, v in zip(loop.variables.names, state))
    shifted = us[1:] + [sum((a * u for a, u in zip(lrs.coeffs, us)), Polynomial.zero(ring))]
    return state == _implied(p * p * us[0], shifted)


def verify_witness_identities(lrs: LRSInstance, horizon: int) -> WitnessReport:
    """Check the two defining identities of the reduction:
      x_i(n) == s_i(n) * u(n+i)
      s_i(n) == prod_{l<n} x0(l) * prod_{l<i} x_l(n)
    for every n and coordinate i, proved by induction; a failed proof is
    located by simulation up to the horizon, which lists each violation at
    n <= horizon.  `first_zero` is the least n <= horizon with u(n) == 0,
    or None.
    """
    k = lrs.order
    loop = augment_witness(skolem_to_p2p(lrs))
    first_zero = next((n for n, v in zip(range(horizon + 1), lrs_terms(lrs)) if v == 0), None)
    if _inductive(lrs, loop):
        return WitnessReport(horizon, (), first_zero)
    states = simulate(loop, horizon)
    u = list(islice(lrs_terms(lrs), horizon + k + 1))
    violations = []
    prefix = Fraction(1)
    for n, st in enumerate(states):
        # expected[i] is s_i(n) for i < k, and expected[1] = prefix * x0(n) is s_0(n + 1)
        expected = list(accumulate(st[:max(k - 1, 1)], mul, initial=prefix))
        for i, (xi, si, expected_s) in enumerate(zip(st, st[k:], expected)):
            if xi != si * u[n + i]:
                violations.append(
                    {"n": n, "i": i, "identity": "value", "lhs": str(xi),
                     "rhs": str(si * u[n + i])}
                )
            if si != expected_s:
                violations.append(
                    {"n": n, "i": i, "identity": "product", "lhs": str(si),
                     "rhs": str(expected_s)}
                )
        prefix = expected[1]
    return WitnessReport(horizon, tuple(violations), first_zero)


def _longest(stem: str, names) -> str | None:
    """The longest of `stem`, `stem_`, `stem__`, ... among `names`, or None."""
    return max((nm for nm in names if nm.rstrip("_") == stem), key=len, default=None)


def p2p_to_spinv(p2p: P2PInstance) -> LoopProgram:
    """Embed a reachability instance into a loop whose strongest invariant
    decides it.

    After the system's own statements, appends a flag f that multiplies by
    the squared distance to the target each iteration (reading the
    just-updated coordinates) and a counter g; f becomes and stays 0
    exactly when the target is hit.  The flag and the counter take one
    underscore more than the longest of `f`, `f_`, ... (`g`, `g_`, ...) in
    the system, so they are the longest such names of the new ring.
    """
    old = p2p.system
    names = old.variables.names
    fname, gname = (
        stem if (last := _longest(stem, names)) is None else last + "_"
        for stem in ("f", "g")
    )
    ring = VarRing(list(names) + [fname, gname])
    init = tuple(old.init) + (Fraction(1), Fraction(0))
    lifted = tuple(
        Assignment(
            stmt.targets,
            ((Fraction(1), tuple(e.project(ring) for e in stmt.branches[0][1])),),
        )
        for stmt in old.body
    )

    dist = Polynomial.zero(ring)
    for nm, t in zip(names, p2p.target):
        delta = Polynomial.var(ring, nm) - Polynomial.const(ring, t)
        dist = dist + delta * delta
    f_stmt = Assignment(
        (fname,), ((Fraction(1), (Polynomial.var(ring, fname) * dist,)),)
    )
    g_stmt = Assignment(
        (gname,),
        ((Fraction(1), (Polynomial.var(ring, gname) + Polynomial.const(ring, 1),)),),
    )
    return LoopProgram(ring, init, lifted + (f_stmt, g_stmt))


def skolem_to_spinv_direct(lrs: LRSInstance) -> LoopProgram:
    """Direct integer-instance reduction with a doubled last witness.

    Requires integer coefficients and initial values.  The x-system is
    `skolem_to_p2p`'s, which follows u, and only the witness update
    s_{k-1}' = 2*s_{k-1}*x_{k-1} is doubled.  While no zero has been hit
    every x is a nonzero integer, so |s_{k-1}| at least doubles each step
    and no state repeats; after a zero the x's and then the s's become 0.
    So the reachable set is finite exactly when the recurrence has a zero.
    """
    if not lrs.is_integer:
        raise NotIntegerInstance(
            "direct reduction needs integer coefficients and initial values"
        )
    return _witness(skolem_to_p2p(lrs), 2)


def detect_eventual_zero(basis: IdealBasis) -> int | None:
    """Least N with f*g*(g-1)*...*(g-N+1) in the basis, or None.

    The basis must be reduced with respect to a lexicographic order whose
    two smallest variables are the flag above the counter, named as
    `p2p_to_spinv` names them: the ring's longest of `f`, `f_`, ... and its
    longest of `g`, `g_`, ...  Such a basis element exists exactly when the
    flag eventually vanishes, i.e. when the embedded reachability instance
    is positive.
    """
    if not basis.reduced:
        raise OrderMismatch("detect_eventual_zero requires a reduced basis")
    order = basis.order
    if order.kind != "lex":
        raise OrderMismatch("a lexicographic order is required")
    flag, counter = (_longest(stem, basis.ring.names) for stem in ("f", "g"))
    if order.priority[-2:] != (flag, counter):
        raise OrderMismatch(
            "variable order must place the counter (the longest of g, g_, ...) "
            "lowest, then the flag (the longest of f, f_, ...)"
        )
    fi = basis.ring.index(flag)
    gi = basis.ring.index(counter)

    candidates = []
    for gen in basis.generators:
        cofactor: dict[int, Fraction] = {}
        shape_ok = True
        for e, c in gen.terms.items():
            if e[fi] != 1 or any(
                k and i not in (fi, gi) for i, k in enumerate(e)
            ):
                shape_ok = False
                break
            cofactor[e[gi]] = c
        if not shape_ok or not cofactor:
            continue
        n = max(cofactor)
        if all(sum(c * j**k for k, c in cofactor.items()) == 0 for j in range(n)):
            candidates.append(n)
    return min(candidates) if candidates else None
