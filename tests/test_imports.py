"""Every name a cognopipe module imports is used in that module, every
module-level private name is read somewhere in the package, every
public one is read by the package or the acceptance tests, or named by
the benchmark, and order statistics go through one helper."""

import ast
import re
from pathlib import Path

import cognopipe

PACKAGE = Path(cognopipe.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def module_names(source: str) -> list[str]:
    """Module-level functions, classes and constants, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def private_names(source: str) -> list[str]:
    return [n for n in module_names(source) if n.startswith("_")]


def public_names(source: str) -> list[str]:
    return [n for n in module_names(source) if not n.startswith("_")]


def loaded_names(source: str) -> set[str]:
    """Every name the source reads: bare (x), as an attribute (m.x), or
    imported from a module (from m import x)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_scan_flags_an_unread_private_name():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nclass _C: pass\n"
              "def _f(): return _A\ndef _g(): pass\nm.x = _g\n_B = 3\n")
    assert private_names(source) == ["_A", "_B", "_C", "_f", "_g", "_B"]
    assert {"_A", "_g", "m"} <= loaded_names(source)
    assert not {"_B", "_C", "_f", "x"} & loaded_names(source)
    assert "_h" in loaded_names("import m\nm._h()\n")
    assert public_names(source + "X = 1\ndef f(): pass\n") == ["X", "f"]
    assert {"x", "y"} <= loaded_names("from m import x, y as z\n")


def test_every_private_name_is_read_in_the_package():
    sources = {path.relative_to(PACKAGE): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    read = set().union(*map(loaded_names, sources.values()))
    defined = [(path, name) for path, source in sources.items()
               for name in private_names(source)]
    assert len(defined) > 40  # the scan sees the package's private names
    assert [f"{path}:{name}" for path, name in defined if name not in read] == []


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    sources = {path.relative_to(PACKAGE): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    read = set().union(*map(loaded_names, sources.values()),
                       loaded_names(ACCEPTANCE.read_text(encoding="utf-8")))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    defined = [(path, name) for path, source in sources.items()
               for name in public_names(source)]
    assert len(defined) > 100  # the scan sees the package's public names
    assert [f"{path}:{name}" for path, name in defined
            if name not in read and not re.search(rf"\b{name}\b", bench)] == []


NUMPY_ORDER_STATISTICS = {"percentile", "quantile", "median", "nanpercentile",
                          "nanquantile", "nanmedian"}


def numpy_order_statistic_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of each numpy percentile/quantile/median the source
    reads, as np.x, numpy.x or `from numpy import x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_ORDER_STATISTICS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in NUMPY_ORDER_STATISTICS]
    return sorted(found)


def test_scan_flags_a_numpy_order_statistic():
    source = ("import numpy as np\nfrom numpy import median, sort\n"
              "a = np.percentile(x, 20)\nb = numpy.nanpercentile(x, 5)\n"
              "c = stats.median\nd = np.sort(x)\n")
    assert numpy_order_statistic_calls(source) == [
        (2, "median"), (3, "percentile"), (4, "nanpercentile")]


def test_order_statistics_go_through_sorted_percentiles():
    """np.percentile and np.median import numpy.ma and partition on every
    call; the package sorts once and reads dsp.sorted_percentiles."""
    calls = [f"{path.relative_to(PACKAGE)}:{line} np.{name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line, name in numpy_order_statistic_calls(path.read_text(encoding="utf-8"))]
    assert calls == []
