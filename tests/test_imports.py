"""Every ``src/preloss`` module uses each name it imports.

Read with the standard library's ``ast``: a name counts as used when it
appears as a name anywhere in the module.  The modules use
``from __future__ import annotations``, so an annotation needs no quotes
and counts like any other use.  ``__init__.py`` is exempt, because its
imports are the package's exports.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "preloss"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused(tree: ast.Module):
    """(line, name) of each imported name, outside ``from __future__``, never used."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name not in used)


def test_every_import_is_used():
    unused = [f"{path.name}:{line}: {name}" for path in MODULES
              for line, name in _unused(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(MODULES) > 10 and not unused, unused


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom math import lcm, prod as p\n"
                     "def f(x: os.PathLike) -> int:\n    return lcm(*x)\n")
    assert list(_unused(tree)) == [(2, "p")]
