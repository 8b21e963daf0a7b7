"""Checks on the repository's own files: every demo runs, and no module imports a name it does not use."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import flexdp

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_each_demo_runs(demo):
    # as its docstring says to run it, with a RuntimeWarning an error
    src = str(pathlib.Path(flexdp.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr


def test_no_top_level_import_is_unused():
    # in src/, tests/ and demos/; a __future__ import is exempt
    unused = []
    for path in sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}  # the name each top-level import binds, and its line
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d: %s is imported but unused" % (path.relative_to(ROOT), line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []
