"""The public names, the README's library example and the package's
import and private-definition hygiene."""

import ast
import re
import shlex
from pathlib import Path

import loopideal
from loopideal.cli import main

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


def test_readme_cli_examples_run(capsys, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "loopideal" for argv in commands)
    monkeypatch.chdir(README.parent)
    for argv in commands:
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0 and out.strip(), argv


def _package_trees() -> dict[str, ast.Module]:
    src = Path(loopideal.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}


def _names_read(tree: ast.AST) -> set[str]:
    """The names a tree reads: bare names, the root of every attribute
    chain among them, and every attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_read():
    unread = []
    for module, tree in _package_trees().items():
        if module == "__init__":  # its imports are the re-exports
            continue
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{module}: {bound}")
    assert unread == []


def test_every_private_definition_is_referenced():
    trees = _package_trees()
    read = set().union(*map(_names_read, trees.values()))
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]
    assert unused == []
