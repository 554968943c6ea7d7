"""The README's code examples run as written."""

import ast
import re
import types
from pathlib import Path

import quadcert

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the README's `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes its certificate here
    exec(compile(_python_block("Library"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "3 f(3) + 6 f(2) - 2"
    assert printed[-1] == "1010"
    assert (tmp_path / "cert.jsonl").stat().st_size > 0


def _root_imports(source: str) -> set[str]:
    """The names that `source` imports from the package root."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "quadcert" and node.level == 0
        for alias in node.names
    }


def test_package_root_exports_what_its_callers_import():
    layers = (README.parent / "perfbench" / "layers.py").read_text(encoding="utf-8")
    wanted = _root_imports(_python_block("Library")) | _root_imports(layers)
    assert wanted and all(hasattr(quadcert, name) for name in wanted)
    exported = {
        name
        for name, value in vars(quadcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == wanted
