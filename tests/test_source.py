"""Static checks on the package source and on the package names the benchmark uses."""

import ast
import importlib
import inspect
from pathlib import Path

import tribranch

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tribranch"


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; an internal invariant must raise
    # a domain error so that a broken run can never print a certificate.
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, f"no package source under {SOURCE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts in the package: {found}"


def _uses(name: str) -> list:
    """Where a package module imports or names ``name``, as file:line."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
                names.append((getattr(node, "module", None) or "").rsplit(".", 1)[-1])
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if name in names:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_permutation_loops_in_package():
    # Factorial loops over vertex orders belong in the test oracles
    # (tests/oracles.py), never on the package's hot path.
    found = _uses("permutations")
    assert not found, f"permutations in the package: {found}"


def test_no_dataclasses_in_package():
    # Every `tribranch` process imports every module: dataclass records cost
    # about 30 ms of each start-up, namedtuple records a fraction of that.
    found = _uses("dataclasses")
    assert not found, f"dataclasses in the package: {found}"


def test_oracles_are_not_exported():
    # The Smith normal form with its transforms and the determinantal
    # divisors check invariant_factors; they are not the package's API.
    oracles = ("smith_normal_form", "SnfResult", "determinantal_divisors")
    assert not set(oracles) & set(tribranch.__all__)
    found = [where for name in oracles for where in _uses(name)
             if not where.startswith("snf.py:")]
    assert not found, f"the test oracles named outside snf: {found}"


def _benchmark_names() -> list:
    """(file, module, dotted name) for every package name the benchmark harness uses.

    The harness traces the ``(module, attribute)`` pairs of the ``TRACED``
    tuple in ``perfbench/tracer.py`` and imports names with ``from
    tribranch... import`` lines; the files are parsed, never imported.
    """
    names = []
    for path in sorted((SOURCE.parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
                names += [(path.name, f"tribranch.{mod}", attr)
                          for mod, attr in ast.literal_eval(node.value)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tribranch"):
                names += [(path.name, node.module, alias.name) for alias in node.names]
    return names


def test_benchmark_names_exist_in_package():
    # The tracer looks every traced name up with getattr, so a renamed or
    # deleted function breaks every traced benchmark run.
    names = _benchmark_names()
    assert len(names) >= 45, names
    missing = []
    for where, module, dotted in names:
        try:
            owner = importlib.import_module(module)
            for part in dotted.split("."):
                if not hasattr(owner, part) and hasattr(owner, "__path__"):
                    # ``from package import submodule`` imports the submodule.
                    importlib.import_module(f"{owner.__name__}.{part}")
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{where}: {module}.{dotted}")
    assert not missing, f"names the benchmark uses are missing from the package: {missing}"


def test_traced_names_resolve_as_the_harness_reads_them():
    # tracer.py imports tribranch.<module> and reads each traced name off it
    # with getattr, or a method off its class's __dict__, where the method
    # must itself be defined; selftest.py imports names with `from ... import`.
    # A name that moves must keep resolving on its old module.
    names = [(where, module, dotted) for where, module, dotted in _benchmark_names()
             if where in ("tracer.py", "selftest.py")]
    assert len(names) >= 40, names
    missing = []
    for where, module, dotted in names:
        if where == "selftest.py":
            try:
                exec(f"from {module} import {dotted}", {})
            except ImportError:
                missing.append(f"{where}: from {module} import {dotted}")
            continue
        owner = importlib.import_module(module)
        cls, _, meth = dotted.rpartition(".")
        if cls:
            found = meth in vars(getattr(owner, cls, object))
        else:
            found = callable(getattr(owner, dotted, None))
        if not found:
            missing.append(f"{where}: {module}.{dotted}")
    assert not missing, f"names the benchmark traces or imports do not resolve: {missing}"


def test_old_modules_resolve_exactly_the_moved_names_the_benchmark_reads():
    # A moved name resolves through its old module only because the harness
    # reads it there: an alias that nothing reads is dead code, and one that
    # the harness reads but the old module lacks breaks every traced run.
    names = _benchmark_names()
    for old in ("intalg", "openbook", "paths", "surfaces"):
        module = importlib.import_module(f"tribranch.{old}")
        resolved = set(inspect.getclosurevars(module.__getattr__).nonlocals["source"])
        read = {dotted.split(".")[0] for _, owner, dotted in names
                if owner == module.__name__} - set(vars(module))
        assert resolved == read, (old, sorted(resolved - read), sorted(read - resolved))
