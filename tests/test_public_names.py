"""Every name a dswlab module exports is read somewhere.

The check parses src/, tests/, scripts/ and perfbench/ and counts loads of a
name (``name`` or ``obj.name``). A definition (``def name``, ``class name``,
``name = ...``) and the string in ``__all__`` are not loads, so a public name
that only its own module defines fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dswlab"
SCANNED = ("src", "tests", "scripts", "perfbench")


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_exported_name_is_read_somewhere():
    loaded = set()
    exported = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            loaded.update(_loads(tree))
            if path.parent == PACKAGE:
                exported.update((path.stem, name) for name in _exports(tree))
    assert exported, f"no __all__ found under {PACKAGE}"
    dead = sorted(f"{module}.{name}" for module, name in exported if name not in loaded)
    assert not dead, f"exported but never read: {dead}"
