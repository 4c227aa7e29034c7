"""Demo scripts and README examples import only names that the package defines."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS


def _readme_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_found():
    assert _readme_blocks()


def _sources():
    for path in DEMOS:
        yield pytest.param(path.read_text(encoding="utf-8"), path.name, id=path.name)
    for i, block in enumerate(_readme_blocks()):
        yield pytest.param(block, f"README.md block {i}", id=f"README-{i}")


@pytest.mark.parametrize("source, name", _sources())
def test_demo_imports_resolve(source, name):
    tree = ast.parse(source, filename=name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dacae":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{name}:{node.lineno}: {node.module} has no {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dacae":
                    importlib.import_module(alias.name)
