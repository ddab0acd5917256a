"""Every public name in the library has a caller outside the tests.

Each public top-level function and class of `src/thdim/*.py`, and each
public method of a public class, must be referred to somewhere in the
package itself (not counting `__init__.py`, which only re-exports), the
demos, the benchmark harness or the CI workflows, other than inside its own
definition. A name only the tests call is dead weight in the library: the
test should call the parts it wraps, or keep its oracle in `helpers.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thdim"

ALLOWED = {
    "empty_graph": "the edgeless member of the named graph constructors beside complete_graph",
    "format_tree_decomposition": "writes the tree-decomposition format that --td reads",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level function and
    class, and of each public method of a public class."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def _python_references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) for each name and attribute in the code, each
    imported name, and each part of a string that is an identifier or dotted
    path, such as a name the tracer binds by string. Comments and prose
    strings do not count."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            refs.extend((part, node.lineno) for part in node.value.split("."))
    return refs


def _references() -> dict[Path, list[tuple[str, int]]]:
    refs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            refs[path] = _python_references(path)
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs[path] = _python_references(path)
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        refs[path] = [(m.group(), i) for i, line in enumerate(path.read_text().splitlines(), 1)
                      for m in _WORD.finditer(line)]
    return refs


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = _references()
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(path):
            defined.add(name)
            if name in ALLOWED:
                continue
            if not any(word == name and not (where == path and first <= line <= last)
                       for where, found in refs.items() for word, line in found):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
    assert sorted(set(ALLOWED) - defined) == []
