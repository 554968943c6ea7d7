"""The README's code examples run as written."""

import re
from pathlib import Path

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
