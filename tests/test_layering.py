"""Layering and hot-loop rules, checked on the source's AST.

Supervision, debugging and exploration are observers on
``ChunkMachine.run``; they see the machine through its public surface
(``commit_count``, ``quiescent``, ``observers``, ``pause_at_boundary``
...).  One check fails on any ``machine._x``, ``self.machine._x`` or
``self._machine._x`` access in a module outside ``machine/``.

The two per-op interpreters bind the enum members they test to locals
before their loop, and so does the synthetic program generator before
its per-item loop: on Python 3.11 every attribute read on an enum class
goes through ``EnumType.__getattr__``, several times the cost of a
local.  Another check fails on any ``OpKind.X``, ``TruncationReason.X``
or ``ChunkState.X`` read inside a ``while`` or ``for`` loop of any of
the three.

Commit propagation looks every written line of a commit up in the L1s'
sharer table, tens of thousands of lookups per run of which a fraction
of a percent find another L1 holding the line.  A third check fails on
any method call inside the per-line loop of
``CommitDirectory.propagate_commit`` (its innermost ``for`` loop; the
step that invalidates the line's holders is a ``while`` inside it).

No format that crosses a process, disk or network boundary is a
pickle, so a fourth check fails on an ``import pickle`` anywhere but
the restricted reader of legacy files.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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


#: Functions whose loops run once per op or per generated work item:
#: (module, class, method), with class None for a module function.
PER_OP_LOOPS = [
    ("chunks/processor.py", "ChunkProcessor", "_execute_into"),
    ("baselines/consistency.py", "InterleavedExecutor", "run"),
    ("workloads/synthetic.py", None, "build_program"),
]

ENUM_CLASSES = frozenset({"OpKind", "TruncationReason", "ChunkState"})


def _method(tree: ast.Module, cls: str | None,
            method: str) -> ast.FunctionDef:
    """``cls.method``, or the module function ``method`` when ``cls``
    is None."""
    if cls is None:
        body = tree.body
    else:
        body = [item for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == cls
                for item in node.body]
    for item in body:
        if isinstance(item, ast.FunctionDef) and item.name == method:
            return item
    raise LookupError(f"{cls or 'module'}.{method} is not defined")


def _per_iteration_parts(loop: ast.While | ast.For) -> list[ast.AST]:
    """What a loop evaluates on every pass: a ``while`` loop's test and
    body, a ``for`` loop's body (its iterable is evaluated once)."""
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    return loop.body


def enum_reads_in_loops(source: str, cls: str | None,
                        method: str) -> list[tuple[int, str]]:
    """(line, ``Enum.member``) of every attribute read on an enum class
    on each pass of a ``while`` or ``for`` loop of ``cls.method`` (of
    the module function ``method`` when ``cls`` is None) in
    ``source``."""
    function = _method(ast.parse(source), cls, method)
    return sorted({
        (node.lineno, f"{node.value.id}.{node.attr}")
        for loop in ast.walk(function)
        if isinstance(loop, (ast.While, ast.For))
        for part in _per_iteration_parts(loop)
        for node in ast.walk(part)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ENUM_CLASSES})


def test_enum_detector_flags_reads_inside_the_loop_only():
    source = ("class Interpreter:\n"
              "    def run(self):\n"
              "        LOAD = OpKind.LOAD\n"
              "        while True:\n"
              "            if kind is OpKind.STORE:\n"
              "                cut = TruncationReason.SPECIAL\n"
              "            while ChunkState.BUILDING:\n"
              "                kind is LOAD\n"
              "            other.member\n"
              "        return OpKind.RMW\n"
              "    def helper(self):\n"
              "        while True:\n"
              "            OpKind.LOCK\n")
    assert enum_reads_in_loops(source, "Interpreter", "run") == [
        (5, "OpKind.STORE"), (6, "TruncationReason.SPECIAL"),
        (7, "ChunkState.BUILDING")]
    with pytest.raises(LookupError):
        enum_reads_in_loops(source, "Interpreter", "missing")


def test_enum_detector_flags_reads_in_a_module_function_for_loop():
    source = ("def generate(threads, items):\n"
              "    LOAD = OpKind.LOAD\n"
              "    for thread in (OpKind.TRAP,):\n"
              "        kind = OpKind.SPECIAL\n"
              "        for item in items:\n"
              "            ops.append(make(OpKind.COMPUTE))\n"
              "            ops.append(make(LOAD))\n"
              "    return OpKind.RMW\n"
              "class Generator:\n"
              "    def generate(self, items):\n"
              "        for item in items:\n"
              "            OpKind.LOCK\n")
    assert enum_reads_in_loops(source, None, "generate") == [
        (4, "OpKind.SPECIAL"), (6, "OpKind.COMPUTE")]
    assert enum_reads_in_loops(source, "Generator", "generate") == [
        (12, "OpKind.LOCK")]
    with pytest.raises(LookupError):
        enum_reads_in_loops(source, None, "missing")


def test_per_op_loops_read_no_enum_class_attribute():
    offenders = []
    for module, cls, method in PER_OP_LOOPS:
        source = (PACKAGE / module).read_text()
        for line, name in enum_reads_in_loops(source, cls, method):
            offenders.append(f"{module}:{line}: {name}")
    assert offenders == []


def _innermost_for_loops(function: ast.FunctionDef) -> list[ast.For]:
    return [loop for loop in ast.walk(function)
            if isinstance(loop, ast.For)
            and not any(isinstance(inner, ast.For)
                        for inner in ast.walk(loop) if inner is not loop)]


def method_calls_in_innermost_loops(source: str, cls: str,
                                    method: str) -> list[tuple[int, str]]:
    """(line, callee) of every method call inside an innermost ``for``
    loop of ``cls.method`` in ``source``; raises when it has none."""
    loops = _innermost_for_loops(_method(ast.parse(source), cls, method))
    if not loops:
        raise LookupError(f"{cls}.{method} has no for loop")
    return sorted({
        (node.lineno, ast.unparse(node.func))
        for loop in loops for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)})


def test_call_detector_flags_calls_in_the_innermost_loop_only():
    source = ("class Directory:\n"
              "    def walk(self, caches, lines):\n"
              "        for cache in caches.values():\n"
              "            cache.prepare()\n"
              "            for line in lines:\n"
              "                if cache.invalidate(line):\n"
              "                    found = len(lines)\n"
              "    def flat(self):\n"
              "        return 1\n")
    assert method_calls_in_innermost_loops(
        source, "Directory", "walk") == [(6, "cache.invalidate")]
    with pytest.raises(LookupError):
        method_calls_in_innermost_loops(source, "Directory", "flat")


def test_commit_propagation_per_line_loop_calls_no_method():
    source = (PACKAGE / "chunks/directory.py").read_text()
    assert method_calls_in_innermost_loops(
        source, "CommitDirectory", "propagate_commit") == []


#: The only module that may import pickle: the restricted readers of
#: legacy files.
PICKLE_IMPORTERS = {"core/legacy.py"}


def pickle_imports(source: str) -> list[int]:
    """Lines of every ``import pickle`` or ``from pickle import``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "pickle"
                    for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "pickle"]


def test_pickle_detector_flags_each_import_form():
    source = ("import pickle\n"
              "from pickle import loads\n"
              "import json, pickle as p\n"
              "import pickletools\n"
              "def f():\n"
              "    import pickle\n")
    assert pickle_imports(source) == [1, 2, 3, 6]


def test_only_the_legacy_reader_imports_pickle():
    importers = {
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if pickle_imports(path.read_text())}
    assert importers == PICKLE_IMPORTERS
