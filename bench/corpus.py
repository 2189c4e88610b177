"""Seeded inputs of the three workloads, as text.

Each builder takes the imported `loopideal` package as `li` (set-up imports
it afresh on every repetition, and the inputs must come from the same
import the jobs run against) and returns a list of `Spec`: one job's input
as DSL or JSON text plus its parameters.  The same seed gives the same
specs, byte for byte.

Every workload has one fixed base set of inputs, drawn once from fixed
generator seeds: criterion 6's 50 loops (seed 42) and criterion 4's
recurrences (seed 20250810) of the acceptance suite, plus flag systems drawn
from seed 42.  Their cost is dominated by a few heavy-tailed jobs, so a
freshly drawn set would change a workload's cost several-fold from seed to
seed.  The run seed instead picks an isomorphic copy of the base set:
it negates a seeded subset of each input's variables (for a recurrence
u(n), it may take -u(n) or (-1)^n u(n)) and shuffles the job order.  The
copy is a different program with different outputs, but with the same
moment structure, eigenvalues and coefficient sizes, so every seed does
the same amount of algebra.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q

CRITERION6_SEED = 42
CRITERION4_SEED = 20250810
FLAG_SEED = 42
FUZZ_COUNT = 50
MOMENT_IDEAL_DEGREE = 2
CLOSED_FORM_DEGREE = 3
ORACLE_HORIZON = 10

TWO_WALKS = (
    "vars: x, y\ninit: x = 0; y = 0\nbody:\n"
    "  x = x + 2 [1/2] x - 1\n"
    "  y = y + 1 [1/2] y - 2\n"
)
SYMMETRIC_WALK = "vars: x\ninit: x = 0\nbody:\n  x = x + 1 [1/2] x - 1\n"
GEOMETRIC = "vars: x, y\ninit: x = 1; y = 1\nbody:\n  x = 2*x\n  y = 3*y\n"
PAPER_LOOPS = (
    ("two_walks", TWO_WALKS, (1, 2, 3, 4)),
    ("symmetric_walk", SYMMETRIC_WALK, (2, 3, 4, 5, 6)),
    ("geometric", GEOMETRIC, (1, 2, 3)),
)
# criterion 1's quoted order-2 basis of the two walks
QUOTED_TWO_WALKS_BASIS = (
    "E[x^2] - E[y^2]",
    "9*E[x] - 2*E[x*y] - 2*E[y^2]",
    "E[x*y]^2 + 2*E[x*y]*E[y^2] + 81/4*E[x*y] + E[y^2]^2",
    "2*E[x*y] + 9*E[y] + 2*E[y^2]",
)

# x = p*x [1/2] x + 1: the moment annihilator has roots near p and p^2, and
# rational_roots enumerates divisors of its constant term by trial division,
# so the top rung is the slowest closed_forms job (about 4.7 reference seconds).
LADDER_PRIMES = (1009, 65537, 262147)

# orbits mix per pass: every flag shape twice, criterion 4's first sixteen
# recurrences, and criterion 6's first sixteen loops enumerated
FLAG_SHAPES = [(dim, deg, hit) for dim in (2, 3) for deg in (3, 4) for hit in (True, False)]
FLAG_REPEATS = 2
FLAG_HORIZON = {3: 25, 4: 50}
WITNESS_COUNT = 16
WITNESS_HORIZON = 20
DIRECT_HORIZON = 12
ENUM_COUNT = 16
ENUM_HORIZON = 12


@dataclass(frozen=True)
class Spec:
    """One job's input: text (loop DSL or recurrence JSON) plus parameters."""

    label: str
    kind: str
    text: str
    params: dict = field(default_factory=dict)


def fuzz_affine_loop(li, rng):
    """Triangular affine probabilistic loop: moment eigenvalues stay rational.

    The generator of the acceptance suite's criterion 6.
    """
    nv = rng.choice([1, 2, 3])
    names = ["x", "y", "z"][:nv]
    ring = li.VarRing(names)
    init = tuple(Q(rng.choice([0, 1, -1, Q(1, 2)])) for _ in range(nv))
    prob_at = rng.randrange(nv)
    body = []
    for i in range(nv):

        def expr():
            p = li.Polynomial.var(ring, names[i]) * Q(rng.choice([0, 1, 2, -1, Q(1, 2)]))
            for j in range(i):
                d = Q(rng.choice([0, 0, 1, -1]))
                if d:
                    p = p + li.Polynomial.var(ring, names[j]) * d
            return p + li.Polynomial.const(ring, Q(rng.choice([-1, 0, 1, 2])))

        if i == prob_at:
            pr = Q(rng.choice([Q(1, 2), Q(1, 3), Q(1, 4), Q(2, 3)]))
            branches = ((pr, (expr(),)), (1 - pr, (expr(),)))
        else:
            branches = ((Q(1), (expr(),)),)
        body.append(li.Assignment((names[i],), branches))
    return li.LoopProgram(ring, init, tuple(body))


def negate_variables(li, loop, signs):
    """The loop over x_i' = signs[i] * x_i, each sign being +1 or -1."""

    def flip(p, target):
        terms = {}
        for exps, coeff in p.terms.items():
            sign = signs[target]
            for s, k in zip(signs, exps):
                if k % 2:
                    sign *= s
            terms[exps] = coeff * sign
        return li.Polynomial(loop.variables, terms)

    names = loop.variables.names
    body = tuple(
        li.Assignment(
            stmt.targets,
            tuple(
                (pr, tuple(flip(p, names.index(t)) for p, t in zip(exprs, stmt.targets)))
                for pr, exprs in stmt.branches
            ),
        )
        for stmt in loop.body
    )
    init = tuple(s * v for s, v in zip(signs, loop.init))
    return li.LoopProgram(loop.variables, init, body)


def fuzz_loops(li, seed: int) -> list[tuple[str, str, list[int]]]:
    """Criterion 6's loops, each with a seeded subset of variables negated:
    (label, DSL text, the sign of each variable)."""
    base = random.Random(CRITERION6_SEED)
    rng = random.Random(seed)
    return [(f"fuzz-{i:02d}", *_flipped_fuzz_loop(li, base, rng)) for i in range(FUZZ_COUNT)]


def moment_ideals(li, seed: int) -> list[Spec]:
    specs = [
        Spec(label, "fuzz", text, {"degree": MOMENT_IDEAL_DEGREE, "signs": signs})
        for label, text, signs in fuzz_loops(li, seed)
    ]
    for name, text, degrees in PAPER_LOOPS:
        for d in degrees:
            specs.append(Spec(f"{name}-d{d}", "paper", text, {"degree": d}))
    random.Random(seed).shuffle(specs)
    return specs


def closed_forms(li, seed: int) -> list[Spec]:
    specs = [
        Spec(label, "forms", text, {"degree": CLOSED_FORM_DEGREE})
        for label, text, _ in fuzz_loops(li, seed)
    ]
    for p in LADDER_PRIMES:
        text = f"vars: x\ninit: x = 1\nbody:\n  x = {p}*x [1/2] x + 1\n"
        specs.append(Spec(f"ladder-{p}", "forms", text, {"degree": 2}))
    random.Random(seed).shuffle(specs)
    return specs


def _flag_spec(base, rng, index: int, dim: int, degree: int, hit: bool) -> Spec:
    names = ["x", "y", "z"][:dim]
    init = [base.randint(-3, 3) for _ in names]
    step = [base.choice([-3, -2, -1, 1, 2, 3]) for _ in names]
    # the certificate f*g*(g-1)*...*(g-N+1) has degree N+1 <= degree
    n_hit = base.randint(1, degree - 1)
    target = [a + n_hit * s for a, s in zip(init, step)]
    if not hit:
        # move off the line through init along step
        j = base.randrange(dim)
        target[j] += base.choice([-1, 1]) * (1 + abs(step[j]))
        target[(j + 1) % dim] -= step[(j + 1) % dim]
    # negating a coordinate keeps every distance to the target
    for j in range(dim):
        if rng.random() < 0.5:
            init[j], step[j], target[j] = -init[j], -step[j], -target[j]
    inits = "; ".join(f"{nm} = {v}" for nm, v in zip(names, init))
    lhs = ", ".join(names)
    rhs = ", ".join(f"{nm} + {s}" if s > 0 else f"{nm} - {-s}" for nm, s in zip(names, step))
    text = f"vars: {lhs}\ninit: {inits}\nbody:\n  ({lhs}) = ({rhs})\n"
    label = f"flag-{dim}d-deg{degree}-{'hit' if hit else 'miss'}-{index}"
    params = {
        "init": init,
        "step": step,
        "target": target,
        "degree": degree,
        "horizon": FLAG_HORIZON[degree],
    }
    return Spec(label, "flag", text, params)


def _witness_spec(base, rng, index: int) -> Spec:
    # criterion 4's integer instances: u(n+k) = sum_i a_i u(n+i)
    k = base.choice([1, 2, 3, 4])
    coeffs = [base.choice([-2, -1, 1, 2])] + [base.choice([-2, -1, 0, 1, 2]) for _ in range(k - 1)]
    init = [base.choice([-1, 0, 1]) for _ in range(k)]
    if rng.random() < 0.5:
        # -u(n)
        init = [-v for v in init]
    if rng.random() < 0.5:
        # (-1)^n u(n) satisfies the recurrence with a_i * (-1)^(k-i)
        coeffs = [a * (-1) ** (k - i) for i, a in enumerate(coeffs)]
        init = [v * (-1) ** n for n, v in enumerate(init)]
    # JSON lists the coefficients most-recent term first
    data = {"coeffs": [str(c) for c in reversed(coeffs)], "init": [str(v) for v in init]}
    params = {"horizon": WITNESS_HORIZON, "direct_horizon": DIRECT_HORIZON}
    return Spec(f"witness-k{k}-{index:02d}", "witness", json.dumps(data), params)


def _flipped_fuzz_loop(li, base, rng):
    loop = fuzz_affine_loop(li, base)
    signs = [rng.choice((1, -1)) for _ in loop.variables.names]
    return li.format_loop(negate_variables(li, loop, signs)), signs


def orbits(li, seed: int) -> list[Spec]:
    rng = random.Random(seed)
    flags = random.Random(FLAG_SEED)
    specs = []
    for r in range(FLAG_REPEATS):
        for dim, degree, hit in FLAG_SHAPES:
            specs.append(_flag_spec(flags, rng, r, dim, degree, hit))
    recurrences = random.Random(CRITERION4_SEED)
    specs += [_witness_spec(recurrences, rng, i) for i in range(WITNESS_COUNT)]
    loops = random.Random(CRITERION6_SEED)
    for i in range(ENUM_COUNT):
        text, _ = _flipped_fuzz_loop(li, loops, rng)
        specs.append(Spec(f"enum-{i:02d}", "enum", text, {"horizon": ENUM_HORIZON}))
    rng.shuffle(specs)
    return specs


BUILDERS = {
    "moment_ideals": moment_ideals,
    "closed_forms": closed_forms,
    "orbits": orbits,
}
