"""No public API that only the tests call.

Every public top-level function or class of ``src/commonkv``, and every
public method, must be referenced somewhere in the program: ``src/``,
``tools/`` or ``perfbench/``, tests excluded.  A reference is a name, an
attribute, an import alias or an identifier string (perfbench's span tables
name functions and methods by string).  Names are matched by spelling only,
so a method counts as used when any attribute of that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "commonkv"
SEARCHED = ("src", "tools", "perfbench")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list[str]:
    """``module.name`` or ``module.Class.method`` for each public definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and _public(item.name)]
    return found


def referenced_names() -> set[str]:
    names = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_every_public_name_is_referenced_by_the_program():
    definitions = public_definitions()
    assert len(definitions) > 100  # the parse found the package
    used = referenced_names()
    unused = [d for d in definitions if d.rsplit(".", 1)[-1] not in used]
    assert not unused, f"public but referenced only by tests: {', '.join(unused)}"
