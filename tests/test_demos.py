"""Imports: demo scripts and README examples import only names that the package
defines, and each package module references every name it imports. The README's
JSON config example is a valid config. The gradient-check demo runs and passes."""

import ast
import importlib
import json
import re
import runpy
from pathlib import Path

import pytest

from dacae import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
MODULES = sorted(p for p in (ROOT / "src" / "dacae").glob("*.py") if p.name != "__init__.py")


def test_demos_found():
    assert DEMOS


def _readme_blocks(language="python"):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_found():
    assert _readme_blocks()


def test_readme_json_config_is_valid():
    blocks = _readme_blocks("json")
    assert blocks
    for block in blocks:
        ExperimentConfig.from_dict(json.loads(block))


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


def test_gradient_check_demo_passes(capsys):
    runpy.run_path(str(ROOT / "demos" / "01_gradient_check.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.endswith("passed=True") for line in lines), lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_references_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never referenced: {unused}"
