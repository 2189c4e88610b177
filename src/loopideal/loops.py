"""Unguarded loop programs: DSL, exact simulation, and the moment oracle.

The program model is deliberately guard-free.  Statements execute
sequentially within an iteration (later assignments see earlier updates);
a tuple assignment updates its targets simultaneously; each probabilistic
assignment draws its branch independently.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .algebra import Polynomial, VarRing, mono_value, parse_rational, poly_parse
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
_PROB_SPLIT = re.compile(r"\[\s*(\d+(?:\s*/\s*\d+)?)\s*\]")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _split_top_commas(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _split_branches(rhs: str) -> tuple[list[str], list[Fraction]]:
    """Split 'e1 [p1] e2 [p2] e3' into expressions and explicit probabilities."""
    exprs, probs = [], []
    pos = 0
    depth = 0
    i = 0
    while i < len(rhs):
        ch = rhs[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "[" and depth == 0:
            m = _PROB_SPLIT.match(rhs, i)
            if not m:
                raise ParseError(f"malformed probability annotation in {rhs!r}", i)
            exprs.append(rhs[pos : i])
            probs.append(parse_rational(m.group(1)))
            i = m.end()
            pos = i
            continue
        i += 1
    exprs.append(rhs[pos:])
    return exprs, probs


def _parse_branch_exprs(text: str, targets: tuple[str, ...], ring: VarRing):
    text = text.strip()
    if len(targets) == 1:
        return (poly_parse(text, ring),)
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"tuple assignment branch must be parenthesized: {text!r}")
    inner = _split_top_commas(text[1:-1])
    if len(inner) != len(targets):
        raise ArityMismatch(
            f"branch has {len(inner)} expressions for {len(targets)} targets"
        )
    return tuple(poly_parse(part, ring) for part in inner)


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
        head = line.split(":", 1)[0].strip().lower()
        if head in sections and line.split(":", 1)[0].strip() == head:
            current = head
            rest = line.split(":", 1)[1].strip()
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
        branch_texts, explicit = _split_branches(rhs)
        remainder = Fraction(1) - sum(explicit, Fraction(0))
        if remainder <= 0:
            raise ProbabilitySumError(
                f"explicit probabilities sum to {sum(explicit, Fraction(0))}"
            )
        probs = list(explicit) + [remainder]
        branches = tuple(
            (pr, _parse_branch_exprs(txt, targets, ring))
            for pr, txt in zip(probs, branch_texts)
        )
        body.append(Assignment(targets, branches))

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

def _apply_branch(state: State, stmt: Assignment, exprs, ring: VarRing) -> State:
    values = [p.eval(state) for p in exprs]
    out = list(state)
    for nm, v in zip(stmt.targets, values):
        out[ring.index(nm)] = v
    return tuple(out)


def simulate(loop: LoopProgram, n: int) -> list[State]:
    """States after 0..n iterations of a deterministic loop."""
    if not loop.deterministic:
        raise NotDeterministic("simulate requires a deterministic loop")
    return [next(iter(dist)) for dist in islice(distributions(loop), max(n, 0) + 1)]


def distributions(
    loop: LoopProgram, support_cap: int = DEFAULT_SUPPORT_CAP
) -> Iterator[dict[State, Fraction]]:
    """Exact state distributions after 0, 1, 2, ... iterations."""
    dist: dict[State, Fraction] = {loop.init: Fraction(1)}
    while True:
        yield dist
        for stmt in loop.body:
            new: dict[State, Fraction] = {}
            for state, mass in dist.items():
                for pr, exprs in stmt.branches:
                    nxt = _apply_branch(state, stmt, exprs, loop.variables)
                    new[nxt] = new.get(nxt, Fraction(0)) + mass * pr
            if len(new) > support_cap:
                raise SupportBudgetExceeded(
                    f"distribution support exceeded {support_cap} states"
                )
            dist = new


def enumerate_distribution(
    loop: LoopProgram, n: int, support_cap: int = DEFAULT_SUPPORT_CAP
) -> dict[State, Fraction]:
    """Exact state distribution after n iterations (the initial one if n < 0)."""
    return next(islice(distributions(loop, support_cap), max(n, 0), None))


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
            if isinstance(data, str):
                data = json.loads(data)
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
