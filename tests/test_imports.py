"""Every name a cognopipe module imports is used in that module."""

import ast
from pathlib import Path

import cognopipe

PACKAGE = Path(cognopipe.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module, annotations included.  `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, dumps)\n"
    assert unused_imports(source) == [(1, "os"), (3, "loads")]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unused = [f"{path.relative_to(PACKAGE)}:{line} {name}"
              for path in modules
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
