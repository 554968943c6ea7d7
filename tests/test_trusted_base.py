"""The checker's trusted base: `checker` and the package modules it imports.

A new import into the checker widens what a reader must trust to believe a
verdict, so the set is pinned here. Run as a script, this prints each
module's line count and their total:

    python tests/test_trusted_base.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadcert"


def _imported(path: Path) -> set[str]:
    """The package modules that the module at `path` imports, relatively or
    by the package's name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):  # `from . import x`: x may be a module
            module = ".".join(filter(None, ["quadcert" * (node.level > 0), node.module]))
            names.update([f"{module}.{a.name}" for a in node.names]
                         if module == "quadcert" else [module])
    modules = {name.split(".")[1] for name in names if name.startswith("quadcert.")}
    return {m for m in modules if (PACKAGE / f"{m}.py").exists()}  # not the root's names


def trusted_base(root: str = "checker") -> set[str]:
    """`root` and every package module it imports, transitively."""
    found, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo.extend(_imported(PACKAGE / f"{name}.py"))
    return found


def test_the_checker_trusts_exactly_these_modules():
    assert trusted_base() == {"checker", "model", "primes", "phases", "basecase"}


def test_the_sieve_imports_no_package_module():
    assert trusted_base("primes") == {"primes"}


def test_the_base_case_replay_trusts_only_the_wire_format_and_the_sieve():
    assert trusted_base("basecase") == {"basecase", "model", "primes"}


if __name__ == "__main__":
    counts = {name: len((PACKAGE / f"{name}.py").read_text(encoding="utf-8").splitlines())
              for name in sorted(trusted_base())}
    for name, count in counts.items():
        print(f"{count:6d} src/quadcert/{name}.py")
    print(f"{sum(counts.values()):6d} trusted base")
