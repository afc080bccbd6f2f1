"""Every file a verb reads or writes goes through ``trace.read_text`` or ``trace.write_text``.

Those two turn a path that cannot be read or written into a ConfigError that
names it, which the CLI reports on one line with exit 2.  A raw read or write
anywhere else ends in a traceback instead, as the ``summary.csv`` and
``diag_series.csv`` writes once did.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "sstac"
FILE_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes", "open"}

# (module, function) pairs that may touch a file directly.
ALLOWED = {
    ("trace", "read_text"),
    ("trace", "write_text"),
    # execute_run reports every failure of load_mdp as "cannot load MDP '<source>'",
    # so routing the MDP file through read_text would name its path twice.
    ("mdp", "load_mdp"),
}


def file_calls(module: str, source: str) -> list[str]:
    """Each raw file call in ``source`` outside the allowed functions, as ``module.py:line: call in function``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and (module, scope) not in ALLOWED:
            func = node.func
            method = isinstance(func, ast.Attribute) and func.attr in FILE_METHODS
            if method or (isinstance(func, ast.Name) and func.id == "open"):
                found.append(f"{module}.py:{node.lineno}: {ast.unparse(func)}(...) in {scope or 'module level'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def functions(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


SOURCES = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_raw_file_call_outside_the_reader_and_writer():
    # The guard sees each form of raw call, and only inside the allowed functions is one let through.
    source = "def save(p):\n    open(p)\n    p.read_text()\n    Path(p).write_text('')\n    p.open('w')\n"
    assert [call.split(": ")[1] for call in file_calls("harness", source)] == [
        "open(...) in save",
        "p.read_text(...) in save",
        "Path(p).write_text(...) in save",
        "p.open(...) in save",
    ]
    assert file_calls("trace", source.replace("def save", "def write_text")) == []
    assert file_calls("trace", "class RunTrace:\n    def read_text(self, p):\n        p.read_text()\n") != []

    found = [call for module, source in SOURCES.items() for call in file_calls(module, source)]
    assert found == [], "route these through trace.read_text / trace.write_text:\n" + "\n".join(found)


def test_each_allowed_function_exists():
    missing = [f"{module}.{function}" for module, function in sorted(ALLOWED) if function not in functions(SOURCES[module])]
    assert missing == []
