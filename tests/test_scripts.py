"""The scripts under scripts/ still run against the package.

compare_variants.py runs in a subprocess on two puzzles. make_tasks.py's
docqa, shop and solution generators must rebuild the bundled data byte for
byte. make_game24 is left out: it ranks every candidate puzzle by exact
rollout probability, which takes about 12 seconds on a 2-vCPU host.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
DATA = ROOT / "src" / "agentsearch" / "data"


def test_compare_variants_prints_one_line_per_arm():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_variants.py"), "--limit", "2", "--k", "3",
         "--ablations"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *arms = proc.stdout.splitlines()
    assert header.startswith("2 puzzles,")
    names = ["mcts", "best_of_k", "dfs_prune", "mcts_no_value", "mcts_no_reflect"]
    assert [line.split()[0] for line in arms] == names
    assert all(re.match(r"\S+ +[0-2]/2 +rate ", line) for line in arms)


@pytest.fixture(scope="module")
def make_tasks():
    spec = importlib.util.spec_from_file_location("make_tasks", SCRIPTS / "make_tasks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["docqa", "shop", "solution"])
def test_make_tasks_rebuilds_the_bundled_data(make_tasks, tmp_path, kind):
    getattr(make_tasks, f"make_{kind}")(tmp_path)
    made = {p.relative_to(tmp_path): p for p in (tmp_path / kind).rglob("*") if p.is_file()}
    bundled = {p.relative_to(DATA): p for p in (DATA / kind).rglob("*") if p.is_file()}
    assert sorted(made) == sorted(bundled)
    for rel, path in made.items():
        assert path.read_bytes() == bundled[rel].read_bytes(), rel
