"""Random reduction-command inputs end in exit 0 or a typed JSON error.

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

SYSTEM = Path(__file__).parent / "golden" / "system.loop"

ERRORS = {
    name
    for name in loopideal.__all__
    if isinstance(getattr(loopideal, name), type)
    and issubclass(getattr(loopideal, name), loopideal.ToolkitError)
}

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# exponent notation is left out: "--target=1e5000,0" still ends in a raw
# ValueError when the loop's numbers are printed (ROADMAP item 6)
FIELD = st.sampled_from(["0", "4", "6", " -1", "3/2", "1/0", "a", ""])
TARGET = st.one_of(
    st.lists(FIELD, max_size=3).map(",".join),
    st.text(alphabet="0123456789/-+ ,.ab", max_size=12),
)
RATIONAL = st.sampled_from(["0", "1", "-1", "2", "-2", "3", "1/2", "-3/2", "2.5", "x", "", "1/0"])
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
