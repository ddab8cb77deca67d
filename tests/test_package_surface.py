"""The package ships no test-only code.

Every module-level function, class and constant in src/bipart must be named
somewhere that is not a test: elsewhere in src/bipart, in perfbench/ or in
tools/.  Every method or property must appear there as `.name` or as a
quoted "name".  A name that only tests read belongs in tests/checks.py.
Every Subproblem slot and every field of a dataclass defined in src/bipart
must be read there as `.name`:
state that is only written, or only read by tests, is not kept.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

from bipart.subproblem import Subproblem

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bipart"
READERS = [PACKAGE, ROOT / "perfbench", ROOT / "tools"]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, pattern, node) for each module-level name and each method."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            targets = [node.name]
        else:
            continue
        for name in targets:
            if not _dunder(name):
                yield name, rf"\b{re.escape(name)}\b", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)):
                    name = re.escape(item.name)
                    yield (f"{node.name}.{item.name}",
                           rf"\.{name}\b|[\"']{name}[\"']", item)


def _sources():
    return {path: path.read_text(encoding="utf-8")
            for folder in READERS for path in sorted(folder.rglob("*.py"))}


def test_every_package_name_is_read_outside_the_tests():
    sources = _sources()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        others = "\n".join(text for p, text in sources.items() if p != path)
        for name, pattern, node in _definitions(ast.parse(sources[path])):
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not re.search(pattern, others + "\n" + "\n".join(rest)):
                unread.append(f"{path.name}: {name}")
    assert not unread, unread


def test_every_state_field_is_read_outside_the_tests():
    read = {node.attr for text in _sources().values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = {"Subproblem": Subproblem.__slots__}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "bipart" if path.stem == "__init__" else f"bipart.{path.stem}")
        for owner in vars(module).values():
            if (isinstance(owner, type) and dataclasses.is_dataclass(owner)
                    and owner.__module__ == module.__name__):
                fields[owner.__name__] = [f.name for f in
                                          dataclasses.fields(owner)]
    unread = [f"{owner}.{name}" for owner, names in fields.items()
              for name in names if name not in read]
    assert not unread, unread
