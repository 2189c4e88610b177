"""Unguarded loop programs: DSL, exact simulation, and the moment oracle.

The program model is deliberately guard-free.  Statements execute
sequentially within an iteration (later assignments see earlier updates);
a tuple assignment updates its targets simultaneously; each probabilistic
assignment draws its branch independently.

Simulation and distribution enumeration share one exact stepper that runs
in Python ints (`_integer_steps`); `Fraction`s appear only in what it hands
back, each value set from its lowest-terms pair with no second gcd
(`_lowest`).  The stepper runs each statement as Python code generated for
it: a partial evaluation of the integer Horner interpreter at that
statement's expressions.  The code's text holds no constant and no name
from the loop, only the statement's shape, and is compiled once per shape
per process.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .algebra import Polynomial, VarRing, mono_value, parse_branches, parse_rational
from .errors import (
    ArityMismatch,
    GuardUnsupported,
    NotDeterministic,
    ParseError,
    ProbabilitySumError,
    SupportBudgetExceeded,
)

State = tuple[Fraction, ...]

DEFAULT_SUPPORT_CAP = 200_000


@dataclass(frozen=True)
class Assignment:
    """Targets updated simultaneously from one of several weighted branches."""

    targets: tuple[str, ...]
    branches: tuple[tuple[Fraction, tuple[Polynomial, ...]], ...]

    def __post_init__(self):
        if not self.targets or len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be a nonempty tuple of distinct variables")
        if not self.branches:
            raise ValueError("at least one branch required")
        total = Fraction(0)
        for pr, exprs in self.branches:
            if not (0 < pr <= 1):
                raise ProbabilitySumError(f"branch probability {pr} outside (0, 1]")
            if len(exprs) != len(self.targets):
                raise ArityMismatch("branch arity differs from target arity")
            total += pr
        if total != 1:
            raise ProbabilitySumError(f"branch probabilities sum to {total}, not 1")

    @property
    def deterministic(self) -> bool:
        return len(self.branches) == 1


@dataclass(frozen=True)
class LoopProgram:
    variables: VarRing
    init: State
    body: tuple[Assignment, ...]

    def __post_init__(self):
        if len(self.init) != self.variables.arity:
            raise ArityMismatch("one initial value per variable required")
        for stmt in self.body:
            for nm in stmt.targets:
                self.variables.index(nm)
            for _, exprs in stmt.branches:
                for p in exprs:
                    if p.ring != self.variables:
                        raise ArityMismatch("assignment expression in foreign ring")

    @property
    def deterministic(self) -> bool:
        return all(stmt.deterministic for stmt in self.body)


# -- DSL ----------------------------------------------------------------------

_GUARD_TOKENS = re.compile(r"==|!=|<=|>=|[<>!?]|\b(if|then|else|elif|while|switch)\b")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def parse_loop(text: str) -> LoopProgram:
    """Parse the loop DSL.

    Sections: `vars:` (comma list), `init:` (semicolon-separated `v = q`),
    `body:` (one assignment per line).  `#` starts a comment.  Any
    comparison or conditional token raises GuardUnsupported.
    """
    sections: dict[str, list[str]] = {"vars": [], "init": [], "body": []}
    current = None
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, colon, rest = map(str.strip, line.partition(":"))
        if colon and head in sections:
            current = head
            if rest:
                sections[current].append(rest)
            continue
        if current is None:
            raise ParseError(f"content before any section header: {line!r}")
        sections[current].append(line)

    if not sections["vars"]:
        raise ParseError("missing vars: section")
    names = [nm.strip() for nm in ",".join(sections["vars"]).split(",") if nm.strip()]
    try:
        ring = VarRing(names)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if ring.bracketed:
        raise ParseError(f"loop variables must be identifiers: {', '.join(names)}")

    init_map: dict[str, Fraction] = {}
    for chunk in ";".join(sections["init"]).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad init clause {chunk!r}")
        nm, val = chunk.split("=", 1)
        nm = nm.strip()
        ring.index(nm)
        if nm in init_map:
            raise ParseError(f"duplicate init for {nm!r}")
        init_map[nm] = parse_rational(val)
    missing = [nm for nm in names if nm not in init_map]
    if missing:
        raise ParseError(f"missing init values for {', '.join(missing)}")
    init = tuple(init_map[nm] for nm in names)

    body = []
    for line in sections["body"]:
        if _GUARD_TOKENS.search(line):
            raise GuardUnsupported(
                f"guards/conditionals are not part of the model: {line!r} "
                "(strongest invariants are uncomputable for guarded loops)"
            )
        if "=" not in line:
            raise ParseError(f"assignment expected: {line!r}")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        if lhs.startswith("("):
            if not lhs.endswith(")"):
                raise ParseError(f"bad tuple target {lhs!r}")
            targets = tuple(nm.strip() for nm in lhs[1:-1].split(","))
            if len(set(targets)) != len(targets):
                raise ParseError(f"repeated tuple target {lhs!r}")
        else:
            targets = (lhs,)
        for nm in targets:
            ring.index(nm)
        branch_exprs, explicit = parse_branches(rhs, ring, len(targets))
        remainder = Fraction(1) - sum(explicit, Fraction(0))
        if remainder <= 0:
            raise ProbabilitySumError(
                f"explicit probabilities sum to {sum(explicit, Fraction(0))}"
            )
        probs = list(explicit) + [remainder]
        body.append(Assignment(targets, tuple(zip(probs, branch_exprs))))

    return LoopProgram(ring, init, tuple(body))


def format_loop(loop: LoopProgram) -> str:
    """Canonical DSL text; parse(format(loop)) reproduces the program."""
    lines = [f"vars: {', '.join(loop.variables.names)}"]
    inits = "; ".join(
        f"{nm} = {v}" for nm, v in zip(loop.variables.names, loop.init)
    )
    lines.append(f"init: {inits}")
    lines.append("body:")
    for stmt in loop.body:
        lhs = (
            stmt.targets[0]
            if len(stmt.targets) == 1
            else f"({', '.join(stmt.targets)})"
        )
        chunks = []
        for b, (pr, exprs) in enumerate(stmt.branches):
            if len(stmt.targets) == 1:
                expr_txt = exprs[0].format()
            else:
                expr_txt = f"({', '.join(p.format() for p in exprs)})"
            chunks.append(expr_txt)
            if b < len(stmt.branches) - 1:
                chunks.append(f"[{pr}]")
        lines.append(f"  {lhs} = {' '.join(chunks)}")
    return "\n".join(lines) + "\n"


# -- semantics ----------------------------------------------------------------
#
# An integer state is the flat tuple (n0, d0, n1, d1, ...) of the values'
# numerators and denominators in lowest terms (d > 0), so two integer states
# are equal exactly when their rational states are.

def _compile(p: Polynomial):
    """p as (L, tops, tree), the input of `_statement_code`.

    With L the lcm of p's coefficient denominators and D_i p's top degree in
    variable i, p = N / (L * prod d_i^D_i) at a state, where N is the
    homogenized integer Horner value of L*p.  `tops` lists the used
    variables' (i, D_i); `tree` is an int for a constant p, else the node
    (i, coefficients) of the last used variable i, whose D_i + 1
    coefficients, highest power first, are nodes of the variables before it
    or ints.  The outermost variable is multiplied the fewest times, and in
    the reduction witness systems the later coordinates hold the largest
    values.
    """
    scale = lcm(*(c.denominator for c in p.terms.values()))
    used = [i for i in range(p.ring.arity) if any(e[i] for e in p.terms)]
    tops = [(i, max(e[i] for e in p.terms)) for i in used]

    def nest(terms, level):
        if level < 0:
            return sum(a for _, a in terms)  # one term at most
        i, top = tops[level]
        groups = [[] for _ in range(top + 1)]
        for e, a in terms:
            groups[top - e[i]].append((e, a))
        return (i, tuple(nest(g, level - 1) if g else 0 for g in groups))

    terms = [(e, c.numerator * (scale // c.denominator)) for e, c in p.terms.items()]
    return scale, tops, nest(terms, len(used) - 1)


def _power(base: str, i: int, e: int) -> str:
    return "" if e == 0 else f"*{base}{i}" if e == 1 else f"*{base}{i}**{e}"


def _statement_code(arity: int, weights, updates) -> tuple[str, list[int]]:
    """The source of `make(k0, k1, ...)`, which returns one statement's
    `run(dist, new)`, and the ints that `make` takes.

    `run` adds to `new` the successors of every integer state in `dist`, the
    states in order and each one's branches in order: branch b, of weight
    weights[b], sets each variable i of updates[b] to its `_compile` form.
    A state unpacks into locals n<i>, d<i>.  A Horner node with several
    nonzero coefficients sums into temporaries t<j>, one statement per
    coefficient, so that no expression nests deeper as the degree grows;
    each target's value a<i>/b<i> is then divided by its gcd.  Every int of
    the forms and every weight is an argument of `make`, so the text
    depends only on the shape: the arity, the targets, and each form's used
    variables, top degrees and zero coefficients.
    """
    consts: list[int] = []
    lines: list[str] = []

    def const(c: int) -> str:
        consts.append(c)
        return f"k{len(consts) - 1}"

    def horner(node) -> str:
        # a name or a product, so that the caller can multiply it on the right
        if type(node) is int:
            return const(node)
        i, coeffs = node
        acc = last = None
        for j, c in enumerate(coeffs):
            if c:
                term = horner(c) + _power("d", i, j)
                if acc is not None:
                    t = f"t{len(lines)}"
                    lines.append(f"{t} = {acc}{_power('n', i, j - last)} + {term}")
                    term = t
                acc, last = term, j
        return acc + _power("n", i, len(coeffs) - 1 - last)

    for weight, update in zip(weights, updates):
        key = [f"n{i}, d{i}" for i in range(arity)]
        for i, (scale, tops, tree) in update:
            lines.append(f"a{i} = {horner(tree)}")
            lines.append(f"b{i} = {const(scale)}" + "".join(_power("d", j, top) for j, top in tops))
            lines.append(f"if b{i} != 1: g = gcd(a{i}, b{i}); a{i} //= g; b{i} //= g")
            key[i] = f"a{i}, b{i}"
        lines.append(f"key = ({', '.join(key)})")
        lines.append(f"new[key] = get(key, 0) + m*{const(weight)}")
    head = [
        f"def make({', '.join(f'k{j}' for j in range(len(consts)))}):",
        "    def run(dist, new):",
        "        get = new.get",
        f"        for ({', '.join(f'n{i}, d{i}' for i in range(arity))}), m in dist.items():",
    ]
    return "\n".join(head + [" " * 12 + line for line in lines] + ["    return run\n"]), consts


@functools.cache
def _factory(source: str):
    """The `make` that a `_statement_code` source defines.  Each distinct
    text is compiled once per process, so statements of one shape share one
    code object."""
    namespace = {"gcd": gcd}
    exec(source, namespace)
    return namespace["make"]


def _integer_steps(
    loop: LoopProgram, support_cap: int
) -> Iterator[tuple[dict[tuple[int, ...], int], int]]:
    """(masses, total) after 0, 1, 2, ... iterations: each integer state's
    mass is masses[state] / total.

    Each statement runs as one generated `run` (`_statement_code`) that
    steps the whole distribution.  Its branch expressions are compiled once
    (`_compile`) and its probabilities scaled to integer weights over their
    lcm, which multiplies the running denominator `total` once per
    statement.
    """
    steps = []
    for stmt in loop.body:
        scale = lcm(*(pr.denominator for pr, _ in stmt.branches))
        weights = [pr.numerator * (scale // pr.denominator) for pr, _ in stmt.branches]
        targets = [loop.variables.index(nm) for nm in stmt.targets]
        updates = [
            [(i, _compile(p)) for i, p in zip(targets, exprs)] for _, exprs in stmt.branches
        ]
        source, consts = _statement_code(loop.variables.arity, weights, updates)
        steps.append((scale, _factory(source)(*consts)))
    dist = {tuple(x for v in loop.init for x in (v.numerator, v.denominator)): 1}
    total = 1
    while True:
        yield dist, total
        for scale, run in steps:
            new: dict[tuple[int, ...], int] = {}
            run(dist, new)
            if len(new) > support_cap:
                raise SupportBudgetExceeded(
                    f"distribution support exceeded {support_cap} states"
                )
            dist = new
            total *= scale


def _lowest(n: int, d: int) -> Fraction:
    """The `Fraction` n/d of a pair already in lowest terms with d > 0, set
    slot by slot with no second gcd (as `Fraction._from_coprime_ints` does
    on Python 3.12+).  Sound for the pairs of an integer state: the code of
    `_statement_code` divides each value it sets by its gcd, its divisor is
    a positive product, and a zero value becomes (0, 1)."""
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rational_distribution(masses, total) -> dict[State, Fraction]:
    """The `Fraction` form of `_integer_steps`' (masses, total), in the
    same order.  The states are transposed once into columns, each
    variable's values are built by `_lowest` from its numerator and
    denominator columns, and each distinct mass is built once as
    `Fraction(mass, total)`; no Python loop runs per state."""
    columns = list(zip(*masses))
    values = [map(_lowest, n, d) for n, d in zip(columns[::2], columns[1::2])]
    probs = {m: Fraction(m, total) for m in set(masses.values())}
    return dict(zip(zip(*values), map(probs.__getitem__, masses.values())))


def simulate(loop: LoopProgram, n: int) -> list[State]:
    """States after 0..n iterations of a deterministic loop, each read off
    the one integer state of its step."""
    if not loop.deterministic:
        raise NotDeterministic("simulate requires a deterministic loop")
    steps = islice(_integer_steps(loop, DEFAULT_SUPPORT_CAP), max(n, 0) + 1)
    return [tuple(map(_lowest, s[::2], s[1::2])) for (s,), _ in steps]


def distributions(
    loop: LoopProgram, support_cap: int = DEFAULT_SUPPORT_CAP
) -> Iterator[dict[State, Fraction]]:
    """Exact state distributions after 0, 1, 2, ... iterations.

    Each statement lists the states in the order it first reaches them: the
    successors of earlier states first, those of one state in branch order.
    """
    for masses, total in _integer_steps(loop, support_cap):
        yield _rational_distribution(masses, total)


def enumerate_distribution(
    loop: LoopProgram, n: int, support_cap: int = DEFAULT_SUPPORT_CAP
) -> dict[State, Fraction]:
    """Exact state distribution after n iterations (the initial one if n < 0)."""
    masses, total = next(islice(_integer_steps(loop, support_cap), max(n, 0), None))
    return _rational_distribution(masses, total)


def expected_moment(
    loop: LoopProgram,
    monomial: tuple[int, ...],
    n: int,
) -> Fraction:
    """Exact E[monomial] after n iterations, by full enumeration.

    This is the brute-force oracle every closed-form path is checked
    against.
    """
    if len(monomial) != loop.variables.arity:
        raise ArityMismatch("monomial arity differs from program arity")
    total = Fraction(0)
    for state, mass in enumerate_distribution(loop, n).items():
        total += mass * mono_value(monomial, state)
    return total


# -- linear recurrence sequences ----------------------------------------------

@dataclass(frozen=True)
class LRSInstance:
    """u(n+k) = a_{k-1} u(n+k-1) + ... + a_0 u(n), with a_0 nonzero.

    `coeffs` stores (a_0, ..., a_{k-1}); `init` stores u(0), ..., u(k-1).
    """

    coeffs: tuple[Fraction, ...]
    init: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs or len(self.coeffs) != len(self.init):
            raise ValueError("need k coefficients and k initial values, k >= 1")
        if self.coeffs[0] == 0:
            raise ValueError("a_0 must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def is_integer(self) -> bool:
        return all(q.denominator == 1 for q in self.coeffs + self.init)

    @classmethod
    def from_json(cls, data) -> "LRSInstance":
        """JSON lists recurrence coefficients most-recent-term first."""
        try:
            if not (isinstance(data["coeffs"], list) and isinstance(data["init"], list)):
                raise TypeError("coeffs and init must be JSON lists")
            coeffs = [parse_rational(s) for s in data["coeffs"]]
            init = [parse_rational(s) for s in data["init"]]
            return cls(tuple(reversed(coeffs)), tuple(init))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad recurrence record: {exc!r}") from None

    def to_json(self) -> dict:
        return {
            "coeffs": [str(q) for q in reversed(self.coeffs)],
            "init": [str(q) for q in self.init],
        }


def lrs_terms(lrs: LRSInstance) -> Iterator[Fraction]:
    """Exact u(0), u(1), ... by unrolling the recurrence once."""
    window = list(lrs.init)
    yield from window
    while True:
        nxt = sum((a * u for a, u in zip(lrs.coeffs, window)), Fraction(0))
        window = window[1:] + [nxt]
        yield nxt


def lrs_eval(lrs: LRSInstance, n: int) -> Fraction:
    """Exact u(n) by unrolling the recurrence."""
    if n < 0:
        raise ValueError("u(n) is defined for n >= 0")
    return next(islice(lrs_terms(lrs), n, None))
