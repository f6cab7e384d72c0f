"""Static checks on the package source."""

import ast
from pathlib import Path

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
