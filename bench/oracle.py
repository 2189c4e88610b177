"""Exact reference values for the benchmark's output checks.

Nothing here calls into loopideal.  The oracle reads only the data of a
loop program (variable names, initial state, branch probabilities and the
term dictionaries of the update polynomials) or the benchmark's own input
specs, and recomputes every reference value itself.  Printed polynomials
are read back with a small evaluator of their own.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import product


def eval_terms(terms, point) -> Fraction:
    """Value of a polynomial given as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for x, k in zip(point, exps):
            if k:
                value *= x**k
        total += value
    return total


def _step(loop, dist: dict) -> dict:
    names = loop.variables.names
    for stmt in loop.body:
        slots = [names.index(t) for t in stmt.targets]
        new: dict = {}
        for state, mass in dist.items():
            for prob, exprs in stmt.branches:
                nxt = list(state)
                for i, p in zip(slots, exprs):
                    nxt[i] = eval_terms(p.terms, state)
                nxt = tuple(nxt)
                new[nxt] = new.get(nxt, 0) + mass * prob
        dist = new
    return dist


def distributions(loop, horizon: int):
    """Yield the exact state distributions after 0..horizon iterations.

    Statements run in order; a tuple assignment reads the state from before
    the statement, and every branch draws independently.
    """
    dist = {tuple(loop.init): Fraction(1)}
    yield dist
    for _ in range(horizon):
        dist = _step(loop, dist)
        yield dist


def fingerprint(dist: dict) -> str:
    """A digest of a distribution's sorted (state, probability) pairs."""
    return hashlib.sha256(repr(sorted(dist.items())).encode()).hexdigest()


def moment(dist: dict, exps) -> Fraction:
    """E[prod x_i^e_i] under an exact distribution."""
    total = Fraction(0)
    for state, mass in dist.items():
        value = mass
        for x, k in zip(state, exps):
            if k:
                value *= x**k
        total += value
    return total


def moment_table(loop, degree: int, horizon: int) -> dict:
    """{exponents: [E[monomial] after n iterations, n = 0..horizon]} for
    every monomial of total degree 1..degree."""
    arity = len(loop.variables.names)
    monomials = [e for e in product(range(degree + 1), repeat=arity) if 1 <= sum(e) <= degree]
    table = {e: [] for e in monomials}
    for dist in distributions(loop, horizon):
        for e in monomials:
            table[e].append(moment(dist, e))
    return table


def monomial_exponents(text: str, names) -> tuple[int, ...]:
    """'x^2*y' over (x, y, z) -> (2, 1, 0); '1' is the unit monomial."""
    exps = [0] * len(names)
    if text != "1":
        for part in text.split("*"):
            name, _, power = part.partition("^")
            exps[list(names).index(name)] += int(power) if power else 1
    return tuple(exps)


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*(?:\[[^\[\]]*\])?|\d+|[-+*/^])")


def eval_text(text: str, lookup) -> Fraction:
    """Evaluate printed polynomial text; `lookup` maps a name to its value.

    Grammar: sums and differences of products of rationals and names, with
    '^' raising a name to a non-negative integer power.
    """
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def take() -> str:
        nonlocal at
        at += 1
        return tokens[at - 1]

    def atom() -> Fraction:
        tok = take()
        value = Fraction(int(tok)) if tok.isdigit() else lookup(tok)
        if tokens[at] == "^":
            take()
            value = value ** int(take())
        return value

    def term() -> Fraction:
        if tokens[at] == "-":
            take()
            return -term()
        value = atom()
        while tokens[at] in ("*", "/"):
            value = value * atom() if take() == "*" else value / atom()
        return value

    value = term()
    while tokens[at] in ("+", "-"):
        value = value + term() if take() == "+" else value - term()
    if tokens[at] != "":
        raise ValueError(f"trailing input in {text!r}")
    return value


class Terms:
    """A polynomial as {monomial: coefficient}; a monomial is a sorted
    tuple of (name, power).  Just the arithmetic `eval_text` uses."""

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def of(value) -> "Terms":
        return value if isinstance(value, Terms) else Terms({(): Fraction(value)})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Terms.of(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Terms(out)

    __radd__ = __add__

    def __neg__(self):
        return Terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Terms.of(other)

    def __rsub__(self, other):
        return Terms.of(other) + -self

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Terms.of(other).terms.items():
                powers = dict(m1)
                for name, k in m2:
                    powers[name] = powers.get(name, 0) + k
                m = tuple(sorted(powers.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Terms(out)

    __rmul__ = __mul__

    def __truediv__(self, number):
        return Terms({m: c / number for m, c in self.terms.items()})

    def __pow__(self, k: int):
        out = Terms.of(1)
        for _ in range(k):
            out = out * self
        return out


def canonical_basis(texts, sign=lambda name: 1) -> set:
    """Printed generators, each name scaled by `sign(name)`, as a set of
    term tuples, each generator divided by the coefficient of its largest
    monomial in this module's own sort order.

    Two reduced Groebner bases of one ideal in one monomial order differ
    only in the scale of their generators, so they give the same set.
    """
    out = set()
    for text in texts:
        terms = Terms.of(eval_text(text, lambda name: Terms({((name, 1),): Fraction(1)}))).terms
        for m in terms:
            for name, k in m:
                terms[m] *= sign(name) ** k
        lead = terms[max(terms)]
        out.add(tuple(sorted((m, c / lead) for m, c in terms.items())))
    return out


def exppoly_value(transient, tail, n: int) -> Fraction:
    """Explicit values for n < len(transient), else sum_i p_i(n) * base_i^n.

    `tail` lists (base, coefficients of p_i from the constant term up).
    """
    if n < len(transient):
        return Fraction(transient[n])
    total = Fraction(0)
    for base, coeffs in tail:
        total += sum((c * n**j for j, c in enumerate(coeffs)), Fraction(0)) * base**n
    return total


def recurrence_terms(coeffs_recent_first, init, count: int) -> list[Fraction]:
    """u(0..count-1) of u(n+k) = sum_j c_j u(n+k-1-j), coefficients newest first."""
    u = [Fraction(v) for v in init]
    coeffs = [Fraction(c) for c in coeffs_recent_first]
    while len(u) < count:
        u.append(sum((c * u[-1 - j] for j, c in enumerate(coeffs)), Fraction(0)))
    return u[:count]


def translation_states(init, step, target, horizon: int) -> list[tuple]:
    """States (x..., f, g) of the flag loop over x(n) = init + n*step.

    The flag f is multiplied by the squared distance of the updated point to
    the target each iteration; the counter g counts iterations.
    """
    states = []
    flag = Fraction(1)
    for n in range(horizon + 1):
        point = tuple(Fraction(a + n * s) for a, s in zip(init, step))
        if n:
            flag *= sum((x - t) ** 2 for x, t in zip(point, target))
        states.append(point + (flag, Fraction(n)))
    return states


def first_hit(init, step, target, horizon: int) -> int | None:
    """Least n in 1..horizon with init + n*step == target, if any."""
    for n in range(1, horizon + 1):
        if all(a + n * s == t for a, s, t in zip(init, step, target)):
            return n
    return None
