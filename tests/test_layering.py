"""Layering: nothing outside ``repro.machine`` touches machine privates.

Supervision, debugging and exploration are observers on
``ChunkMachine.run``; they see the machine through its public surface
(``commit_count``, ``quiescent``, ``observers``, ``pause_at_boundary``
...).  This AST check fails on any ``machine._x``, ``self.machine._x``
or ``self._machine._x`` access in a module outside ``machine/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _is_machine(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "machine"
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in ("machine", "_machine"))


def private_machine_accesses(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every private attribute access on a
    machine reference in ``source``."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and _is_machine(node.value)]


def test_detector_flags_each_reference_form():
    source = ("machine._a\n"
              "self.machine._b = 1\n"
              "self._machine._c()\n"
              "machine.public\n"
              "other._d\n"
              "self.machine.__class__\n")
    assert private_machine_accesses(source) == [
        (1, "_a"), (2, "_b"), (3, "_c")]


def test_no_private_machine_access_outside_machine_package():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "machine":
            continue
        for line, attr in private_machine_accesses(path.read_text()):
            offenders.append(f"{relative}:{line}: {attr}")
    assert offenders == []
