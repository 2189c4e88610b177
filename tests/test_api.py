"""The public names and the README's library example."""

import re
from pathlib import Path

import loopideal

README = Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in loopideal.__all__ if not hasattr(loopideal, name)]
    assert missing == []
    assert len(set(loopideal.__all__)) == len(loopideal.__all__)


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(line.strip() for line in printed)
