"""Random CLI inputs end in exit 0 or a typed JSON error.

Each example runs `cli.main` in process; exit 1 must come with a JSON
`{"error": ..., "detail": ...}` on stderr that names a `ToolkitError`
subclass, never with a traceback.  The examples are derandomized, so every
run tests the same inputs.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import loopideal
from loopideal.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYSTEM = GOLDEN / "system.loop"

ERRORS = {
    name
    for name in loopideal.__all__
    if isinstance(getattr(loopideal, name), type)
    and issubclass(getattr(loopideal, name), loopideal.ToolkitError)
}

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)

LONG = "7" * 5000  # past Python's default int-to-string digit limit
FIELD = st.sampled_from(["0", "4", "6", " -1", "3/2", "1/0", "a", "", "1e5000", "2.5", LONG])
TARGET = st.one_of(
    st.lists(FIELD, max_size=3).map(",".join),
    st.text(alphabet="0123456789/-+ ,.ab", max_size=12),
)
RATIONAL = st.sampled_from(
    ["0", "1", "-1", "2", "-2", "3", "1/2", "-3/2", "2.5", "x", "", "1/0", "1e5000", LONG]
)
RECURRENCE = st.one_of(
    st.integers(1, 3).flatmap(
        lambda k: st.fixed_dictionaries(
            {
                "coeffs": st.lists(RATIONAL, min_size=k, max_size=k),
                "init": st.lists(RATIONAL, min_size=k, max_size=k),
            }
        )
    ),
    st.fixed_dictionaries(
        {"coeffs": st.lists(RATIONAL, max_size=3), "init": st.lists(RATIONAL, max_size=3)}
    ),
)


def _exit_code(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] in ERRORS
    return code


@FUZZ
@given(TARGET)
def test_reduce_p2p_spinv_target_text(target):
    _exit_code(["reduce-p2p-spinv", "--loop", str(SYSTEM), f"--target={target}"])


@FUZZ
@given(
    RECURRENCE,
    st.sampled_from(["reduce-skolem-p2p", "reduce-skolem-spinv", "verify-witness"]),
    st.integers(0, 8),
)
def test_recurrence_commands(record, command, horizon):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.json"
        path.write_text(json.dumps(record))
        argv = [command, "--lrs", str(path)]
        if command == "verify-witness":
            argv += ["--horizon", str(horizon)]
        _exit_code(argv)


# Loop files assembled from fragments.  Long literals stay away from
# `invariants`, whose multiplicative lattice factors each base by trial
# division; `closed-forms` gets prime-sized ones below.
NAME = st.sampled_from(["x", "y", "E[x]", "x1", "2x", ""])
VALUE = st.one_of(
    st.sampled_from(["0", "-1", "1/2", "-3/2", LONG]),
    st.sampled_from(["1e5000", "2.5", "x", "1/0", ""]),
)
TARGET_TEXT = st.sampled_from(["x = ", "y = ", "(x, y) = ", ""])
BODY_TOKEN = st.sampled_from(["(", ")", "[", "]", ",", "^", "/", "=", "+", "*", "1/2", "x", "y"])
BODY_LINE = st.one_of(
    st.tuples(TARGET_TEXT, st.sampled_from(["", " "]), st.lists(BODY_TOKEN, max_size=8)).map(
        lambda t: t[0] + t[1].join(t[2])
    ),
    st.sampled_from(
        ["x = x*x", "y = y + 1/2 [1/2] x*y", "(x, y) = (y, x) [1/2] (x + y, 1/2)", "y = y^2"]
    ),
)


@st.composite
def loop_text(draw):
    names = draw(st.one_of(st.just(["x", "y"]), st.lists(NAME, min_size=1, max_size=2)))
    inits = "; ".join(f"{nm} = {draw(VALUE)}" for nm in names)
    lines = "".join(f"  {line}\n" for line in draw(st.lists(BODY_LINE, max_size=2)))
    return f"vars: {', '.join(names)}\ninit: {inits}\nbody:\n{lines}"


@FUZZ
@given(loop_text(), st.sampled_from(["simulate", "distribution"]), st.integers(0, 2))
def test_loop_commands(text, command, horizon):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.loop"
        path.write_text(text)
        _exit_code([command, "--loop", str(path), "--horizon", str(horizon)])


# Multipliers and values of prime size: the moment annihilators have
# rational roots near their powers, which p-adic lifting finds at once.
BIG = st.sampled_from(
    ["100000000000000000039", "2305843009213693951", "-1000000007", "1/2305843009213693951", "3"]
)


@st.composite
def big_loop_text(draw):
    a, b, c = draw(BIG), draw(BIG), draw(BIG)
    body = draw(
        st.sampled_from(
            [
                f"x = {a}*x [1/2] x + {b}",
                f"(x, y) = ({a}*x, {b}*y + x)",
                f"(x, y) = ({a}*x + y, y) [1/3] ({b}*y, {c}*x)",
                f"x = {a}*x + {c} [1/2] {b}*x",
            ]
        )
    )
    names = ["x", "y"] if "y" in body else ["x"]
    inits = "; ".join(f"{nm} = {draw(BIG)}" for nm in names)
    return f"vars: {', '.join(names)}\ninit: {inits}\nbody:\n  {body}\n"


@FUZZ
@given(big_loop_text(), st.integers(1, 2))
def test_closed_forms_with_long_literals(text, degree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "big.loop"
        path.write_text(text)
        _exit_code(["closed-forms", "--loop", str(path), "--degree", str(degree)])


MONOMIAL = st.sampled_from(["1", "x", "y", "x^2", "x*y", "y^2"])
COEFF = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-5/3"])
POLY = st.one_of(
    st.lists(st.tuples(COEFF, MONOMIAL), min_size=1, max_size=4).map(
        lambda terms: " + ".join(f"{c}*{m}" for c, m in terms)
    ),
    st.sampled_from(["x, y", "x[1]", "2.5*x", "1e5000*y", f"{LONG}*x - y", "x^-1", ""]),
)
ORDER = st.sampled_from(
    [{}, {"kind": "lex"}, {"kind": "lex", "priority": ["y", "x"]}, {"kind": "degrevlex"}]
)


@FUZZ
@given(st.lists(POLY, min_size=1, max_size=2), ORDER, POLY)
def test_ideal_commands(generators, order, poly):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.json"
        path.write_text(json.dumps({"ring": ["x", "y"], "order": order, "generators": generators}))
        _exit_code(["groebner", "--ideal", str(path)])
        _exit_code(["member", "--ideal", str(path), f"--poly={poly}"])


# The golden loops (the probabilistic ones end in NotDeterministic) and one
# affine loop with fractional values, whose denominators grow as 3^n.
FRACTIONAL = "vars: x, y\ninit: x = 1/2; y = -2/3\nbody:\n  (x, y) = (1/3*x + 1, 1/3*y + 1/5)\n"


@FUZZ
@given(
    st.sampled_from(sorted(p.name for p in GOLDEN.glob("*.loop")) + ["fractional"]),
    st.integers(-1, 10**6),
    st.integers(0, 30),
)
def test_empirical_degree_and_horizon(loop, degree, horizon):
    with tempfile.TemporaryDirectory() as tmp:
        path = GOLDEN / loop
        if loop == "fractional":
            path = Path(tmp) / "fractional.loop"
            path.write_text(FRACTIONAL)
        argv = ["empirical", "--loop", str(path), "--degree", str(degree)]
        _exit_code(argv + ["--horizon", str(horizon)])
