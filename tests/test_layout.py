"""Package layout: every function and method in src/sgp_hawkes has a caller outside the tests.

A module-level or nested function counts as used when its name appears in
src/ or in the benchmark scripts (perfbench/*.py) as a name or an attribute,
as a string of perfbench's ``TARGETS`` table or of the package's ``__all__``
(its public interface), or in pyproject.toml. A method or property is
reachable only through an attribute, so for it a bare name does not count.
Dunder methods, and overrides of a method that a base class defines (such as
cli._Parser.error, called by argparse), are exempt. Matching is by name, so
a definition that shares its name with a used one passes too.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgp_hawkes"
LISTS = ("TARGETS", "__all__")  # assignments whose strings name what they reach


def references() -> tuple[set[str], set[str]]:
    """(names read as bare names, names read as attributes or listed as strings or in pyproject.toml)."""
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) in LISTS for t in node.targets):
                for const in ast.walk(node.value):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        attributes.update(const.value.split("."))
    attributes.update(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    return names, attributes


def definitions():
    """(qualified name, name, class object or None) of every def in the package but dunders."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("sgp_hawkes" if path.stem == "__init__" else f"sgp_hawkes.{path.stem}")
        tree = ast.parse(path.read_text(), filename=str(path))
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        owners = {id(item): cls.name for cls in classes for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
                continue
            owner = owners.get(id(node))
            if owner is None:
                yield f"{path.stem}.{node.name}", node.name, None
            else:
                yield f"{path.stem}.{owner}.{node.name}", node.name, getattr(module, owner)


def unreferenced() -> list[str]:
    names, attributes = references()
    out = []
    for qualified, name, cls in definitions():
        if cls is None:
            used = name in names or name in attributes
        else:
            used = name in attributes or any(hasattr(base, name) for base in cls.__mro__[1:])
        if not used:
            out.append(qualified)
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    orphans = unreferenced()
    assert not orphans, f"referenced only from tests/ or nowhere; move to tests or delete: {orphans}"
