"""Every import in the package is read by its module, or listed in __all__.

The only allowances are the imports that perfbench/spans.py patches by
name though the module never calls them (ROADMAP item 1); each carries a
comment that points there.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agentsearch"

# (module path under the package, imported name) kept only for the spans.
KEPT_FOR_SPANS = {
    ("search.py", "reconstruct_context"),
    ("valuation.py", "reconstruct_context"),
}


def unused_imports(source: str) -> dict:
    """{name: line} for each name the module imports but never reads and
    does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in read}


def name_line(source: str, name: str, start: int) -> int:
    """The line, from an import statement's first line on, that names name."""
    lines = source.splitlines()
    return next(i for i in range(start - 1, len(lines)) if name in lines[i]) + 1


def test_no_module_imports_a_name_it_never_reads():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        source = path.read_text()
        for name, line in unused_imports(source).items():
            found.add((module, name))
            if (module, name) in KEPT_FOR_SPANS:
                before = source.splitlines()[: name_line(source, name, line)][-3:]
                assert any("ROADMAP item 1" in text for text in before), (module, name)
    assert found == KEPT_FOR_SPANS


def test_the_scan_sees_reads_and_dunder_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "x: b = os.sep\n"
    )
    assert unused_imports(source) == {"d": 3}
