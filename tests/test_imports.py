"""Every import in the package is read by its module, or listed in __all__,
every definition in the package is read by code that is not a test, an
environment kind's name is written only on its class, a report row's own
columns are named only in report.py, and no search decision can read a
clock.

The only import allowances are the imports that perfbench/spans.py patches
by name though the module never calls them (ROADMAP item 1); each carries a
comment that points there.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agentsearch"
# Where the program's own code lives, test modules aside.
NON_TEST_DIRS = ("src", "scripts", "perfbench")

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


# -- exact numbers ----------------------------------------------------------------

# solver24's pairs are the package's exact numbers; these add 0.9 MB to a run's peak RSS.
HEAVY_NUMERIC = {"fractions", "decimal"}


def imported_modules(source: str) -> set:
    """The top-level names of the modules the source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_fractions_or_decimal():
    found = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in imported_modules(path.read_text()) & HEAVY_NUMERIC
    }
    assert found == set()


def test_the_module_scan_sees_both_import_forms():
    source = "import os.path, decimal as d\nfrom fractions import Fraction\nfrom . import x\n"
    assert imported_modules(source) == {"os", "decimal", "fractions"}


RUN_BOTH_KINDS = """
import sys
from agentsearch import cli
data = sys.argv[1]
assert cli.main(["run", data + "/game24/puzzles/24-1-1-3-13.json", "--backend",
                 "oracle:p=1.0,seed=1", "--value-backend", "oracle-value:accuracy=1.0"]) == 0
assert cli.main(["run", data + "/solution/tasks/expr-01.json", "--backend",
                 "static:submit[3*x + 2]", "--value-backend", "static:7"]) == 0
print(sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
"""


def test_a_game24_and_a_solution_run_load_no_fractions_decimal_or_numbers():
    done = subprocess.run(
        [sys.executable, "-c", RUN_BOTH_KINDS, str(PACKAGE / "data")],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# -- thread pools ------------------------------------------------------------------

# pool.ThreadPool runs a batch's calls on threads; concurrent.futures
# would load logging with it, 0.7 MB of peak RSS that a run does not need.
THREAD_POOL_IMPORTS = {"concurrent", "logging"}


def test_no_module_imports_concurrent_futures_or_logging():
    found = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in imported_modules(path.read_text()) & THREAD_POOL_IMPORTS
    }
    assert found == set()


def test_the_module_scan_sees_concurrent_futures_and_logging():
    source = "from concurrent.futures import wait\nimport logging.handlers as h\n"
    assert imported_modules(source) & THREAD_POOL_IMPORTS == {"concurrent", "logging"}


# A value backend that is not inline, so every value call goes to the pool.
RUN_ON_THE_POOLS = """
import sys, threading
from agentsearch import cli
puzzles = sys.argv[1] + "/game24/puzzles/"
names = set()

class Delegate:
    def __init__(self, inner):
        self.inner = inner
    def propose(self, prompt, n, seed):
        names.add(threading.current_thread().name.split("_")[0])
        return self.inner.propose(prompt, n, seed)

parse = cli.parse_backend_spec
cli.parse_backend_spec = lambda spec: Delegate(parse(spec)) if spec.startswith("oracle-value") else parse(spec)
assert cli.main(["run", puzzles + "24-1-1-3-13.json", puzzles + "24-1-1-4-9.json",
                 "--backend", "oracle:p=0.3,seed=1", "--value-backend", "oracle-value:accuracy=0.85",
                 "--workers", "2"]) == 0
print(sorted(names))
print(sorted({"concurrent.futures", "logging"} & set(sys.modules)))
"""


def test_a_run_on_both_pools_loads_no_concurrent_futures_or_logging():
    done = subprocess.run(
        [sys.executable, "-c", RUN_ON_THE_POOLS, str(PACKAGE / "data")],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["['value']", "[]"]


def test_a_search_without_a_pool_loads_no_pool_code():
    """Only a caller that opens a pool loads its module: in valuation.py it
    raised the peak RSS of a process that never opens one."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, agentsearch.search; print('agentsearch.pool' in sys.modules)"],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


# -- environment kinds -----------------------------------------------------------


def named_strings(source: str, names) -> list:
    """(line, text) of each string constant equal to one of names, except
    docstrings and a class body's own `kind = "..."`."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                allowed.add(body[0].value)
        if isinstance(node, ast.ClassDef):
            allowed.update(
                stmt.value
                for stmt in body
                if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == ["kind"]
            )
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and node not in allowed
    )


def test_a_kind_is_named_only_by_its_class():
    from agentsearch.envs import REGISTRY

    found = {
        (path.relative_to(PACKAGE).as_posix(), line, text)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, text in named_strings(path.read_text(), set(REGISTRY))
    }
    assert found == set()


def test_the_kind_scan_sees_constants_outside_a_class_kind():
    source = (
        '"""shop"""\n'
        "class ShopEnv:\n"
        '    """shop"""\n'
        '    kind = "shop"\n'
        '    other = "shop"\n'
        "def f(kind):\n"
        '    """shop"""\n'
        '    return kind == "shop" or {"shop": 1}\n'
        'kind = "shop"\n'
        'label = "shopping"\n'
    )
    assert named_strings(source, {"shop"}) == [(5, "shop"), (8, "shop"), (8, "shop"), (9, "shop")]


# -- report columns ----------------------------------------------------------

# The columns that only a report row has; report.py builds, checks, reads
# and prints rows, so no other module needs their names.
REPORT_ONLY_COLUMNS = {
    "policy_calls",
    "policy_proposals",
    "value_calls",
    "reflection_calls",
    "terminate_reason",
    "task_error",
}


def test_a_report_column_is_named_only_by_report_py():
    found = {
        (path.relative_to(PACKAGE).as_posix(), line, text)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).as_posix() != "report.py"
        for line, text in named_strings(path.read_text(), REPORT_ONLY_COLUMNS)
    }
    assert found == set()


def test_the_column_scan_sees_keys_subscripts_and_values_but_no_docstrings():
    source = (
        '"""policy_calls and task_error"""\n'
        'row = {"policy_calls": 1}\n'
        "row.update(terminate_reason=\"task_error\")\n"
        "print(f\"{row['value_calls']}\")\n"
        "reflection_calls = row.terminate_reason\n"
    )
    assert named_strings(source, REPORT_ONLY_COLUMNS) == [
        (2, "policy_calls"),
        (3, "task_error"),
        (4, "value_calls"),
    ]


# -- definitions only tests use ----------------------------------------------


def definitions(source: str) -> dict:
    """{name: line} for each function, class and method the source defines,
    dunder methods aside: Python calls those itself."""
    return {
        node.name: node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def reads(source: str) -> set:
    """The names the source reads, bare or as an attribute. An import binds
    a name without reading it, and an assignment is no read either."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return found


def non_test_sources() -> list:
    return [
        path
        for folder in NON_TEST_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]


def test_every_definition_is_read_outside_the_tests():
    read = set()
    for path in non_test_sources():
        read |= reads(path.read_text())
    dead = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, line in definitions(path.read_text()).items():
            if name not in read:
                dead.add((path.relative_to(PACKAGE).as_posix(), name, line))
    assert dead == set()


def test_the_definition_scan_sees_names_attributes_and_no_imports():
    source = (
        "from elsewhere import dead\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.m = 1\n"
        "    def m(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    pass\n"
        "def dead():\n"
        "    pass\n"
        "print(a.used)\n"
    )
    defined = definitions(source)
    assert defined == {"A": 2, "m": 5, "helper": 7, "dead": 9}
    assert {name for name in defined if name not in reads(source)} == {"A", "m", "dead"}
    assert {"helper", "used", "print", "a", "self"} <= reads(source)


# -- clocks ---------------------------------------------------------------------

# The one module that may read a clock: HTTP retries sleep between attempts.
CLOCK_ALLOWED = {"backends.py"}
CLOCKS = ("perf_counter", "monotonic")


def clock_reads(source: str) -> set:
    """The lines that import time or name one of its clocks."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "time" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "time"
        elif isinstance(node, ast.alias):
            hit = node.name.startswith(CLOCKS)
        elif isinstance(node, ast.Name):
            hit = node.id.startswith(CLOCKS)
        elif isinstance(node, ast.Attribute):
            hit = node.attr.startswith(CLOCKS)
        else:
            hit = False
        if hit:
            found.add(node.lineno)
    return found


def test_no_module_but_the_backends_reads_a_clock():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module not in CLOCK_ALLOWED and clock_reads(path.read_text()):
            found.add(module)
    assert found == set()


def test_the_clock_scan_sees_imports_and_names():
    assert clock_reads("import os, time\n") == {1}
    assert clock_reads("from time import sleep\n") == {1}
    assert clock_reads("import os\nx = os.times()\n") == set()
    assert clock_reads("import os\nt = clock.perf_counter_ns()\n") == {2}
    assert clock_reads("from x import monotonic as m\n") == {1}
    assert clock_reads("start = monotonic()\n") == {1}
