"""Tests of the benchmark itself: `python -m pytest bench -q`."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loopideal as li  # noqa: E402
import loopideal.cli  # noqa: E402,F401  (the CLI jobs call li.cli.main)

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (
    ".calls", ".states", ".symbols", ".support", ".cells", ".terms_in",
    ".order_sum", ".max_basis", "_bits", ".aux_vars",
)
# cheap jobs that between them reach every traced layer
TRACE_SAMPLE = {
    "moment_ideals": ("two_walks-d2", "geometric-d2", "fuzz-00", "fuzz-03"),
    "closed_forms": ("fuzz-00", "fuzz-01", "ladder-1009"),
    "orbits": ("flag-2d-deg3-hit-0", "flag-2d-deg3-miss-0", "witness-k1-00", "enum-00"),
}


def _jobs(workload, seed, tmp_path, labels=None):
    specs = corpus.BUILDERS[workload](li, seed)
    if labels is not None:
        specs = [s for s in specs if s.label in labels]
    return workloads.make_jobs(li, specs, tmp_path)


@pytest.mark.parametrize("workload", sorted(corpus.BUILDERS))
def test_corpus_is_a_function_of_the_seed(workload):
    build = corpus.BUILDERS[workload]
    first, again, other = build(li, 7), build(li, 7), build(li, 8)
    assert [(s.label, s.text, s.params) for s in first] == [
        (s.label, s.text, s.params) for s in again
    ]
    assert [s.text for s in first] != [s.text for s in other]
    # loop inputs are canonical DSL text
    for spec in first:
        if spec.kind != "witness":
            assert li.format_loop(li.parse_loop(spec.text)) == spec.text


def test_count_metrics_repeat_across_traced_runs(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        for workload, labels in TRACE_SAMPLE.items():
            jobs = _jobs(workload, 3, tmp_path, labels)
            assert len(jobs) == len(labels)
            with tracer.installed():
                outcomes = run.run_pass(li, jobs, tracer=tracer)
            assert [o["status"] for o in outcomes] == ["ok"] * len(jobs)
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    for name in (
        "cli.main.calls",
        "loops.simulate.states",
        "loops.enumerate_distribution.support",
        "moments.moment_closure.symbols",
        "cfinite.minimal_recurrence.order_sum",
        "linalg.rref.cells",
        "relations.aux_vars",
        "groebner.buchberger.max_basis",
        "groebner.ideal_member.calls",
        "algebra.multivariate_divide.terms_in",
        "reductions.detect_eventual_zero.calls",
    ):
        assert counts[0][name] > 0, name
    # the wrappers are gone again
    assert li.groebner.multivariate_divide is li.algebra.multivariate_divide
    assert not hasattr(li.relations.eliminate, "__wrapped__")


def test_moment_ideal_check_needs_every_generator(tmp_path):
    # seed 5 negates x and y of criterion 6's first loop
    (job,) = _jobs("moment_ideals", 5, tmp_path, ("fuzz-00",))
    basis, want = job.run(), job.oracle()
    assert job.check(basis, want) is None
    partial = li.IdealBasis(basis.ring, basis.order, basis.generators[:-1], reduced=True)
    assert "1 missing" in job.check(partial, want)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.1", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],  # overlaps a: the union 1..6 is covered once
        ["c", 9.0, 12.0, 0, 0],  # runs past the root: only 9..10 counts
        ["other", 20.0, 21.0, None, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])


def test_failures_are_counted_and_the_run_goes_on():
    def spin():
        while True:
            pass

    def refuse():
        raise li.NoRecurrenceFound("refused")

    jobs = [
        workloads.Job("slow", spin, lambda: None, lambda r, w: None),
        workloads.Job("error", refuse, lambda: None, lambda r, w: None),
        workloads.Job("wrong", lambda: 1, lambda: 2, lambda r, w: None if r == w else "1 != 2"),
        workloads.Job("ok", lambda: 2, lambda: 2, lambda r, w: None if r == w else "differs"),
    ]
    outcomes = run.run_pass(li, jobs, limit=0.2)
    status = {o["job"]: o["status"] for o in outcomes}
    assert status["slow"] == "timeout"
    assert status["error"].startswith("error: NoRecurrenceFound")
    assert status["wrong"] == "wrong: 1 != 2"
    assert status["ok"] == "ok"


def test_speed_probes_long_calls_and_subtracts_their_time():
    speed = run.Speed()
    start = run.perf_counter()
    with speed:
        deadline = run.perf_counter() + 3 * run.PROBE_S
        while run.perf_counter() < deadline:
            pass
    wall = run.perf_counter() - start
    seconds = speed.rescale(wall)
    # one calibration before, at least one probe, one after
    assert len(speed.samples) >= 3 and speed.spent > 0
    assert seconds == pytest.approx(
        (wall - speed.spent) * run.REFERENCE_CALIBRATION_S / (sum(speed.samples) / len(speed.samples))
    )


@pytest.mark.xfail(
    strict=True,
    reason="rational_roots finds divisors by trial division up to the square "
    "root of the constant term; x = 1000003*x [1/2] x + 1 needs about a minute",
)
def test_ladder_rung_past_the_workload_finishes_in_time(tmp_path):
    text = "vars: x\ninit: x = 1\nbody:\n  x = 1000003*x [1/2] x + 1\n"
    jobs = workloads.make_jobs(li, [corpus.Spec("ladder-1000003", "forms", text, {"degree": 2})], tmp_path)
    outcomes = run.run_pass(li, jobs, limit=3.0)
    assert outcomes[0]["status"] == "ok"


def test_oracle_reads_printed_polynomials():
    ring = li.VarRing(["x", "y"])
    point = (li.algebra.parse_rational("-3/2"), li.algebra.parse_rational("5"))
    for text in ("x^2*y - 81/4*x + 7", "-x*y^3 + 2*y - 1/3", "x - 2*y"):
        p = li.poly_parse(text, ring)
        printed = p.format()
        assert oracle.eval_text(printed, dict(zip(ring.names, point)).__getitem__) == p.eval(point)


def test_oracle_distribution_matches_enumeration():
    loop = li.parse_loop(corpus.TWO_WALKS)
    assert list(oracle.distributions(loop, 6))[-1] == li.enumerate_distribution(loop, 6)
