"""Jobs of each workload: the timed call, its oracle and its output check.

A job's `run` is one user request and is the only timed part.  `oracle`
computes the reference data with `bench/oracle.py` only, once, and
`check(result, expected)` compares a result with it and returns None or
the reason it failed.  Every call into loopideal goes through a module
attribute at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import corpus
import oracle

# the reduced basis of each moment_ideals input with no variable negated,
# written by record_bases.py
BASES = json.loads((Path(__file__).resolve().parent / "bases.json").read_text(encoding="utf-8"))


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    oracle: Callable[[], Any]
    check: Callable[[Any, Any], "str | None"]

    def __post_init__(self):
        # the reference data is small; compute it once per run
        self.oracle = functools.cache(self.oracle)


def _vanish(texts, points, lookup_at) -> str | None:
    """None if every printed generator is 0 at every point.

    `lookup_at(point)` maps a name in the text to its value at the point.
    """
    for n, point in enumerate(points):
        lookup = lookup_at(point)
        for text in texts:
            value = oracle.eval_text(text, lookup)
            if value != 0:
                return f"generator {text} is {value} at n={n}"
    return None


def _moment_ideal_job(li, spec, inputs: Path) -> Job:
    loop = li.parse_loop(spec.text)
    degree = spec.params["degree"]
    names = loop.variables.names
    signs = spec.params.get("signs", [1] * len(names))

    def sign(name):
        # E[m] of the copy is E[m] of the base loop times the sign of m
        value = 1
        for s, k in zip(signs, oracle.monomial_exponents(name[2:-1], names)):
            value *= s**k
        return value

    def expected():
        table = oracle.moment_table(loop, degree, corpus.ORACLE_HORIZON)
        return table, oracle.canonical_basis(BASES[spec.label], sign)

    def complete(texts, want):
        got = oracle.canonical_basis(texts)
        if got != want:
            return f"{len(got - want)} extra and {len(want - got)} missing generators against the recorded basis"
        return None

    def moments(table):
        # the points are n = 0..horizon; a name 'E[x^2*y]' reads table[(2, 1)][n]
        def lookup_at(n):
            return lambda name: table[oracle.monomial_exponents(name[2:-1], names)][n]

        return range(corpus.ORACLE_HORIZON + 1), lookup_at

    if spec.kind == "fuzz":

        def run():
            return li.moment_invariant_ideal(loop, degree)

        def check(basis, want):
            texts = basis.to_json()["generators"]
            return _vanish(texts, *moments(want[0])) or complete(texts, want[1])

    else:
        # the paper loops run the way users run them: the CLI on a file
        path = inputs / f"{spec.label}.loop"
        path.write_text(spec.text, encoding="utf-8")
        argv = ["invariants", "--loop", str(path), "--degree", str(degree)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = li.cli.main(argv)
            return code, out.getvalue()

        def check(result, want):
            code, text = result
            if code != 0:
                return f"exit code {code}"
            data = json.loads(text)
            bad = _vanish(data["generators"], *moments(want[0])) or complete(data["generators"], want[1])
            if bad is None and spec.label == "two_walks-d2":
                ring = li.VarRing(data["ring"])
                quoted = li.buchberger(
                    [li.poly_parse(t, ring) for t in corpus.QUOTED_TWO_WALKS_BASIS],
                    li.MonomialOrder("degrevlex", ring),
                )
                if not li.ideal_equal(li.IdealBasis.from_json(data), quoted):
                    bad = "basis differs from criterion 1's quoted basis"
            return bad

    return Job(spec.label, run, expected, check)


def _closed_forms_job(li, spec) -> Job:
    loop = li.parse_loop(spec.text)
    degree = spec.params["degree"]
    names = loop.variables.names

    def run():
        mring = li.moment_ring(loop.variables, degree)
        system = li.moment_closure(loop, list(mring.symbols))
        return [
            (mring.name_of(sym), li.solve_closed_form(system, system.index(sym)))
            for sym in mring.symbols
        ]

    def check(forms, table):
        got = {oracle.monomial_exponents(name[2:-1], names): form for name, form in forms}
        if got.keys() != table.keys() or len(forms) != len(table):
            return f"closed forms for {len(forms)} moments, {len(table)} expected"
        for exps, form in got.items():
            tail = [(base, coeff.coeffs) for base, coeff in form.tail]
            for n, want in enumerate(table[exps]):
                value = oracle.exppoly_value(form.transient, tail, n)
                if value != want:
                    return f"E{list(exps)} = {value} at n={n}, enumeration gives {want}"
        return None

    return Job(
        spec.label,
        run,
        lambda: oracle.moment_table(loop, degree, corpus.ORACLE_HORIZON),
        check,
    )


def _flag_job(li, spec) -> Job:
    system = li.parse_loop(spec.text)
    p = spec.params
    target = tuple(Fraction(t) for t in p["target"])
    degree, horizon = p["degree"], p["horizon"]

    def run():
        loop = li.p2p_to_spinv(li.P2PInstance(system, target))
        states = li.simulate(loop, horizon)
        table = [[st[j] for st in states] for j in range(loop.variables.arity)]
        emp = li.empirical_relations(table, loop.variables, degree)
        rest = [nm for nm in loop.variables.names if nm not in ("f", "g")]
        lex = li.MonomialOrder("lex", loop.variables, rest + ["f", "g"])
        lex_basis = li.buchberger(list(emp.generators), lex)
        hit = li.detect_eventual_zero(lex_basis)
        return emp, hit, li.ideal_equal(emp, lex_basis)

    def expected():
        states = oracle.translation_states(p["init"], p["step"], p["target"], horizon)
        return states, oracle.first_hit(p["init"], p["step"], p["target"], horizon)

    def check(result, want):
        emp, hit, same = result
        states, first = want
        if hit != first:
            return f"detected {hit}, simulation hits at {first}"
        if not same:
            return "degrevlex and lex bases differ"
        names = list(system.variables.names) + ["f", "g"]
        texts = emp.to_json()["generators"]
        return _vanish(texts, states, lambda state: dict(zip(names, state)).__getitem__)

    return Job(spec.label, run, expected, check)


def _witness_job(li, spec) -> Job:
    data = json.loads(spec.text)
    lrs = li.LRSInstance.from_json(data)
    horizon, direct_horizon = spec.params["horizon"], spec.params["direct_horizon"]

    def run():
        report = li.verify_witness_identities(lrs, horizon)
        states = li.simulate(li.skolem_to_spinv_direct(lrs), direct_horizon)
        return report, len(states)

    def expected():
        u = oracle.recurrence_terms(data["coeffs"], data["init"], horizon + 1)
        return next((n for n, v in enumerate(u) if v == 0), None)

    def check(result, first_zero):
        report, count = result
        if report.violations:
            return f"{len(report.violations)} witness violations"
        if report.first_zero != first_zero:
            return f"first zero {report.first_zero}, scan gives {first_zero}"
        if count != direct_horizon + 1:
            return f"{count} states from the direct reduction"
        return None

    return Job(spec.label, run, expected, check)


def _enum_job(li, spec) -> Job:
    loop = li.parse_loop(spec.text)
    horizon = spec.params["horizon"]

    def check(dist, want):
        return None if oracle.fingerprint(dist) == want else "distribution differs from the oracle's"

    def expected():
        for dist in oracle.distributions(loop, horizon):
            pass
        return oracle.fingerprint(dist)

    return Job(spec.label, lambda: li.enumerate_distribution(loop, horizon), expected, check)


def make_jobs(li, specs, inputs: Path) -> list[Job]:
    """Parse (and for CLI jobs, write) every input; one Job per spec."""
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = []
    for spec in specs:
        if spec.kind in ("fuzz", "paper"):
            jobs.append(_moment_ideal_job(li, spec, inputs))
        elif spec.kind == "forms":
            jobs.append(_closed_forms_job(li, spec))
        elif spec.kind == "flag":
            jobs.append(_flag_job(li, spec))
        elif spec.kind == "witness":
            jobs.append(_witness_job(li, spec))
        else:
            jobs.append(_enum_job(li, spec))
    return jobs
