"""Package layout: every function and method in src/sgp_hawkes has a caller outside the tests.

A module-level or nested function counts as used when its name appears in
src/ or in the benchmark scripts (perfbench/*.py) as a name or an attribute,
as a string of perfbench's ``TARGETS`` table or of the package's ``__all__``
(its public interface), or in pyproject.toml. A method or property is
reachable only through an attribute, so for it a bare name does not count.
Dunder methods, and overrides of a method that a base class defines (such as
cli._Parser.error, called by argparse), are exempt. Matching is by name, so
a definition that shares its name with a used one passes too.

Every small Cholesky solve in src/sgp_hawkes goes through kernels.chol_solve,
so the package reaches none of scipy.linalg's solve wrappers. Likewise the
package reaches neither scipy.special's expit nor xlogy: sigma is pg.sigmoid
on numpy's vectorized exp (expit, one element at a time, costs 2.5 to 4 times
as much), and both objectives' data term is BranchingPosterior.log_normalizer,
which needs no branching entropy.

Every name a module of src/sgp_hawkes imports is read in that module, listed in
its ``__all__``, or sits on an import line marked ``# noqa: F401`` (a re-export);
``from __future__`` imports are exempt. Every such re-export ``module.name`` is
pinned by the benchmark: a ``(module, name, ...)`` tuple of perfbench's
``TARGETS`` or the text ``module.name`` in perfbench/**/*.py, so none outlives
its pin.

Importing the package and every module of it leaves scipy.stats unloaded: its
import costs each process about 20 MB and 0.3 s, and nothing here needs it.

Every config key the CLI accepts (each string in the key sets that cli.py passes
to ``_check_keys``) and every ``FitConfig`` field is named in README.md, in
backticks or as a JSON key.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgp_hawkes"
LISTS = ("TARGETS", "__all__")  # assignments whose strings name what they reach
SCIPY_SOLVES = {"cho_solve", "cho_factor", "solve_triangular"}
SCIPY_ELEMENTWISE = {"expit", "xlogy"}


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


def scipy_uses(module: str, names: set[str]) -> list[str]:
    """``file: name`` of every import of ``names`` from ``module`` in the package and every attribute so named."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(module):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name in names]
            elif isinstance(node, ast.Attribute) and node.attr in names:
                found.append(f"{path.name}: .{node.attr}")
    return found


def test_src_solves_only_through_the_one_helper():
    found = scipy_uses("scipy.linalg", SCIPY_SOLVES)
    assert not found, f"solve through kernels.chol_solve, not scipy.linalg: {found}"


def test_src_uses_neither_expit_nor_xlogy():
    found = scipy_uses("scipy.special", SCIPY_ELEMENTWISE)
    assert not found, f"use pg.sigmoid and BranchingPosterior.log_normalizer, not scipy.special: {found}"


def unused_imports() -> list[str]:
    """``module: name`` of every imported name that its module neither reads, lists in ``__all__`` nor marks."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree, lines = ast.parse(source, filename=str(path)), source.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(const.value for const in ast.walk(node.value) if isinstance(const, ast.Constant))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append(f"{path.stem}: {name}")
    return out


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imported but never read; delete, or mark a re-export '# noqa: F401': {unused}"


def reexports() -> list[str]:
    """``module.name`` of every name bound on an import line of the package marked ``# noqa: F401``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                marked = [a for a in node.names if "# noqa: F401" in lines[a.lineno - 1]]
                out += [f"{path.stem}.{(a.asname or a.name).split('.')[0]}" for a in marked]
    return out


def benchmark_pins() -> set[str]:
    """``module.name`` of each (module, name, ...) tuple of perfbench's ``TARGETS``."""
    pins = set()
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "layers.py").read_text())):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            for row in node.value.elts:
                pins.add(".".join(c.value for c in row.elts[:2]))
    return pins


def test_every_reexport_is_pinned_by_the_benchmark():
    text = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py")))
    pins = benchmark_pins()
    assert "em.estep_pg" in pins and "vi.posterior_bands" in pins  # the parse found the table
    stale = [name for name in reexports() if name not in pins and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not stale, f"re-exported under '# noqa: F401' but pinned nowhere in perfbench/; delete: {stale}"


def test_importing_the_package_leaves_scipy_stats_unloaded():
    modules = ", ".join(f"sgp_hawkes.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__")
    code = f"import sys, sgp_hawkes, {modules}; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", f"importing sgp_hawkes loads {out.stdout.strip()}"


def accepted_keys() -> set[str]:
    """Strings in the key-set argument of every ``_check_keys`` call in cli.py, and FitConfig's fields."""
    from sgp_hawkes.fitbase import FitConfig

    keys = {f.name for f in dataclasses.fields(FitConfig)}
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_keys":
            keys.update(c.value for c in ast.walk(node.args[1]) if isinstance(c, ast.Constant))
    return keys


def test_every_accepted_key_is_documented():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(k for k in accepted_keys() if f"`{k}`" not in readme and f'"{k}"' not in readme)
    assert not missing, f"accepted but named nowhere in README.md; document or reject: {missing}"
