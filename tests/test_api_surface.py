"""Every public function, class and method of the package has a caller.

A public name that only the tests reach is API kept alive for its own
tests. This scan parses src/manifold_rbf/*.py and requires each public
top-level function or class, and each public method of a top-level class,
to appear as a word somewhere in the package sources (outside its own def
line and __init__.py, which only re-exports) or in the benchmark.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "manifold_rbf"


def public_definitions(path):
    """(name, line) of every public top-level def/class and public method."""
    tree = ast.parse(path.read_text())
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def test_every_public_name_has_a_caller():
    sources = {path: path.read_text().splitlines()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for path, lines in sources.items():
        for name, lineno in public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = word.search(bench) or any(
                word.search(line)
                for other, other_lines in sources.items()
                for k, line in enumerate(other_lines, start=1)
                if (other, k) != (path, lineno))
            if not used:
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []
