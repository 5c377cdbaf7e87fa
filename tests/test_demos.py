"""Each demo script runs to completion and prints one known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ("01_building_rings.py", "presented ring: order 32, stabilized at degree 2"),
    ("02_taxonomy_ladder.py", "F2Q8             false       false        true        true        true"),
    ("03_blocks_census_files.py", "round trip: u2f2.ringtab -> order 8, identical tables: True"),
]


@pytest.mark.parametrize("script,line", DEMOS)
def test_demo_runs(script, line, tmp_path):
    # run from an empty directory with a private TMPDIR: a demo that leaves a
    # file behind, in either place, fails the test
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
    assert not any(work.iterdir()) and not any(tmp.iterdir())
